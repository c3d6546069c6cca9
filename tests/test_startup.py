"""Start-up cost guard for the experiments CLI.

Every campaign, pool worker and perf run pays the import of
``repro.experiments.__main__``; numpy alone adds ~150 ms to it.  No
module on that path needs numpy, so importing the CLI must not pull it
in — checked in a fresh interpreter, where ``sys.modules`` holds only
what the import itself loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = ("import sys, repro.experiments.__main__; "
             "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
