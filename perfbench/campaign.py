"""Launch one experiments process and measure it from the outside.

Every process the benchmark starts gets the same environment: the
checkout's ``src`` on ``PYTHONPATH``, no ``REPRO_*`` variable (so no
queue backend, idle-skip, store budget or cache directory leaks in from
the caller), temp files inside the benchmark's work directory, and
unbuffered stdout so each printed line reaches the pipe when a
terminal would show it.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Variables the program reads; all are removed from launched processes.
REPRO_PREFIX = "REPRO_"

#: Prints the engine defaults a campaign process resolves to.
ENGINE_PROBE = (
    "import json; "
    "from repro.sim.engine import resolve_idle_skip; "
    "from repro.sim.queue import resolve_backend_name; "
    "from repro.sim.worldstore import resolve_store_budget; "
    "from repro.experiments.cache import default_cache_dir; "
    "print(json.dumps({'queue_backend': resolve_backend_name(None), "
    "'idle_skip': resolve_idle_skip(None), "
    "'store_budget': resolve_store_budget(None), "
    "'default_cache_dir': str(default_cache_dir())}))"
)


@dataclass(frozen=True)
class ProcessRun:
    """What one launched process did, measured from its parent."""

    exit_code: int
    timed_out: bool
    wall_s: float
    cpu_s: float            #: user + sys, including reaped descendants
    peak_rss_mb: float      #: largest resident set in the process tree
    first_result_s: "float | None"
    stdout: bytes
    stderr_path: str


def campaign_env(checkout: Path, workdir: Path) -> "dict[str, str]":
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(REPRO_PREFIX)}
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(workdir)
    return env


def host_info() -> "dict[str, object]":
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def launch(argv: "list[str]", *, env: "dict[str, str]", cwd: Path,
           stderr_path: Path, timeout_s: float,
           first_marker: "bytes | None" = None,
           start_ns: "int | None" = None) -> ProcessRun:
    """Run ``argv`` to completion and measure it.

    Wall time runs from just before the process is created (or from
    ``start_ns``, a ``time.monotonic_ns()`` reading) to its reaping.
    CPU time and peak RSS come from ``wait4``: Linux folds in every
    descendant the process reaped itself, which covers pool workers.
    ``first_result_s`` is when the first stdout line starting with
    ``first_marker`` arrived.  The process and its descendants are killed
    after ``timeout_s``.
    """
    started = time.monotonic_ns() if start_ns is None else start_ns
    first = None
    chunks = []
    timed_out = threading.Event()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                stdin=subprocess.DEVNULL, env=env, cwd=cwd,
                                start_new_session=True)

        def kill_tree() -> None:
            # The process leads its own group, which its pool workers
            # share, so one signal stops the whole tree.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        def expire() -> None:
            timed_out.set()
            kill_tree()

        killer = threading.Timer(timeout_s, expire)
        killer.start()
        reaped = False
        try:
            with proc.stdout:
                for line in proc.stdout:
                    if (first is None and first_marker is not None
                            and line.startswith(first_marker)):
                        first = (time.monotonic_ns() - started) / 1e9
                    chunks.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic_ns()
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                kill_tree()
                proc.wait()
    # Reaped with wait4 above; tell the Popen object so it never waits.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        exit_code=proc.returncode,
        timed_out=timed_out.is_set(),
        wall_s=(ended - started) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        first_result_s=first,
        stdout=b"".join(chunks),
        stderr_path=str(stderr_path),
    )


def cli_args(seed: int, jobs: int, cache_dir: Path) -> "list[str]":
    """Arguments of ``python -m repro.experiments`` for one campaign."""
    return ["all", "--seed", str(seed), "--jobs", str(jobs),
            "--cache-dir", str(cache_dir)]


def campaign_argv(seed: int, jobs: int, cache_dir: Path) -> "list[str]":
    return ([sys.executable, "-m", "repro.experiments"]
            + cli_args(seed, jobs, cache_dir))
