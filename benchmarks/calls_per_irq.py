#!/usr/bin/env python3
"""Count Python calls per delivered IRQ for one experiments campaign.

Runs ``python -m repro.experiments <experiment> --<scale> --seed S
--jobs 1 --no-cache`` in-process under :mod:`cProfile` and prints the
campaign's total profiled calls (Python and C functions alike), the
number of IRQs the hypervisor delivered, and their ratio.  Every
``repro`` module is imported before profiling starts, so import
machinery never counts, and the run is uncached and serial, so the
figures are exact for a seed on a given Python minor version (they are
a work counter, not a timing).

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/calls_per_irq.py fig6a --quick
    PYTHONPATH=src python benchmarks/calls_per_irq.py all --paper-scale --seed 1
    PYTHONPATH=src python benchmarks/calls_per_irq.py fig6a --quick --max 210
    PYTHONPATH=src python benchmarks/calls_per_irq.py all --top 25

``--max C`` exits 1 when calls/IRQ exceeds ``C`` (the CI gate);
``--top N`` also prints the ``N`` functions with the most calls.
Campaign stdout is discarded; the report goes to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import io
import pkgutil
import pstats
import sys


def _import_all() -> None:
    """Import every ``repro`` module so profiling sees no import work."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def measure(experiment: str, scale: str, seed: int,
            top: int = 0) -> "tuple[int, int, list[tuple[int, str]]]":
    """``(total_calls, irqs_delivered, top_functions)`` for one campaign."""
    _import_all()
    from repro.experiments.__main__ import main
    from repro.hypervisor.hypervisor import Hypervisor

    delivered = [0]

    def counting(original):
        def run(self, *args, **kwargs):
            before = self.stats.irqs_delivered
            try:
                return original(self, *args, **kwargs)
            finally:
                delivered[0] += self.stats.irqs_delivered - before
        return run

    originals = {name: getattr(Hypervisor, name)
                 for name in ("run_until_irq_count", "run_until")}
    for name, original in originals.items():
        setattr(Hypervisor, name, counting(original))
    argv = [experiment, f"--{scale}", "--seed", str(seed),
            "--jobs", "1", "--no-cache"]
    profiler = cProfile.Profile()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            profiler.enable()
            try:
                status = main(argv)
            finally:
                profiler.disable()
    finally:
        for name, original in originals.items():
            setattr(Hypervisor, name, original)
    if status:
        raise SystemExit(f"campaign {' '.join(argv)} exited with {status}")
    stats = pstats.Stats(profiler).stats
    total = sum(entry[1] for entry in stats.values())
    ranked = sorted(((entry[1], pstats.func_std_string(func))
                     for func, entry in stats.items()), reverse=True)
    return total, delivered[0], ranked[:top]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment", help="experiment id, e.g. fig6a or all")
    scale = parser.add_mutually_exclusive_group()
    for name in ("smoke", "quick", "paper-scale"):
        scale.add_argument(f"--{name}", dest="scale", action="store_const",
                           const=name)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max", type=float, default=None,
                        help="fail (exit 1) above this many calls per IRQ")
    parser.add_argument("--top", type=int, default=0,
                        help="also list the N most-called functions")
    args = parser.parse_args(argv)
    scale_name = args.scale or "paper-scale"

    total, irqs, ranked = measure(args.experiment, scale_name, args.seed,
                                  args.top)
    if irqs <= 0:
        print(f"error: {args.experiment} --{scale_name} delivered no IRQs",
              file=sys.stderr)
        return 2
    per_irq = total / irqs
    print(f"experiment: {args.experiment} --{scale_name} --seed {args.seed} "
          f"(python {sys.version_info.major}.{sys.version_info.minor})")
    print(f"calls: {total}")
    print(f"irqs_delivered: {irqs}")
    print(f"calls_per_irq: {per_irq:.1f}")
    for calls, name in ranked:
        print(f"{calls:>10}  {name}")
    if args.max is not None and per_irq > args.max:
        print(f"FAIL: {per_irq:.1f} calls/IRQ exceeds the ceiling "
              f"{args.max:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
