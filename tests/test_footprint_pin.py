"""The tab62 footprint table pins three source files' byte sizes.

``tab62`` prints ``Path(__file__).stat().st_size`` of every module in
:data:`~repro.hypervisor.footprint.PAPER_FOOTPRINT` (its ``py bytes``
column), and the benchmark's ``perfbench/expected_stdout.json`` pins
the sha256 of the whole campaign stdout.  Any edit to one of those
modules therefore changes the pinned output of every benchmark
campaign.  This test catches that in seconds, against the committed
seed-1 fixture that carries the same table.
"""

from pathlib import Path

import pytest

from repro.hypervisor.footprint import PAPER_FOOTPRINT

FIXTURE = (Path(__file__).resolve().parent.parent
           / "perfbench" / "fixtures" / "stdout_seed1.txt")


def pinned_py_bytes() -> dict[str, int]:
    """``{module: py bytes}`` from the fixture's tab62 footprint table."""
    lines = FIXTURE.read_text().splitlines()
    start = lines.index("=== tab62 =============================================")
    header = next(i for i in range(start, len(lines))
                  if lines[i].startswith("component") and "py bytes" in lines[i])
    pinned = {}
    for line in lines[header + 2:]:
        if line.startswith("-"):
            break
        fields = line.split()
        pinned[fields[-2]] = int(fields[-1])
    return pinned


def test_fixture_lists_every_footprint_module():
    assert sorted(pinned_py_bytes()) == sorted(
        entry.module for entry in PAPER_FOOTPRINT)


@pytest.mark.parametrize("entry", PAPER_FOOTPRINT, ids=lambda e: e.module)
def test_module_source_bytes_match_pinned_stdout(entry):
    pinned = pinned_py_bytes()[entry.module]
    actual = entry.module_source_bytes()
    assert actual == pinned, (
        f"{entry.module} is {actual} bytes but the tab62 footprint table "
        f"pinned by perfbench/expected_stdout.json says {pinned}. Its size "
        "is printed in every campaign's stdout, so editing this module "
        "changes the benchmark's pinned output digests: it needs a "
        "benchmark change that re-pins perfbench/expected_stdout.json and "
        "perfbench/fixtures/stdout_seed1.txt in the same commit."
    )
