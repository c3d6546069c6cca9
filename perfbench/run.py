"""Campaign-truth benchmark: ``python -m repro.experiments all`` end to end.

Run from the repository root::

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``run.py`` launches one campaign at a time (a closed loop with a
single client) and keeps launching for ``--seconds``; each campaign
is a fresh ``python -m repro.experiments all --seed SEED`` process
whose stdout is checked (see ``checks.py``).  End-to-end metrics are
medians over those campaigns.  With ``--trace 1`` one more campaign
runs under ``traced_campaign.py`` and the per-layer metrics of
``layers.py`` come from its spans, which are kept under
``.perfbench/traces/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (campaigns, including set-up priming and the traced run) and
``metrics``.  ``--workload all`` runs every workload and also checks
that their stdouts are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import campaign
import checks
import layers

HERE = Path(__file__).resolve().parent
#: Recorded sha256 of the campaign stdout per seed (any workload).
EXPECTED_STDOUT = HERE / "expected_stdout.json"
#: Scratch and trace output, relative to the checkout.
WORKDIR = Path(".perfbench")
#: Fresh-interpreter imports per run; setup_s reports their median.
SETUP_REPEATS = 7
CAMPAIGN_TIMEOUT_S = 150.0
#: A run stops launching campaigns when the next one would end later.
RUN_BUDGET_S = 165.0
FIRST_RESULT = b"=== "


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    parallel: bool      #: --jobs = min(2, nproc) instead of 1
    warm: bool          #: replay a cache primed during set-up


WORKLOADS = (
    Workload("paper_serial", parallel=False, warm=False),
    Workload("paper_parallel", parallel=True, warm=False),
    Workload("warm_replay", parallel=False, warm=True),
)

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("pass_frac", "ratio"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, broken set-up)."""


@dataclass
class Sample:
    """One checked campaign."""

    run: campaign.ProcessRun
    failures: "list[str]"
    rel_error: "float | None" = None

    @property
    def digest(self) -> str:
        return checks.stdout_digest(self.run.stdout)


@dataclass
class WorkloadResult:
    workload: Workload
    seed: int
    setup_s: float
    samples: "list[Sample]" = field(default_factory=list)
    #: set-up priming and traced campaigns: checked, not timed
    extra: "list[Sample]" = field(default_factory=list)
    layer_metrics: "dict[str, float] | None" = None
    notes: "dict[str, object]" = field(default_factory=dict)

    @property
    def checked(self) -> "list[Sample]":
        return self.extra + self.samples

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.checked if sample.failures)

    def series(self) -> "dict[str, list[float]]":
        """Per-campaign values of the timed campaigns."""
        timed = self.samples
        return {
            "wall_s": [s.run.wall_s for s in timed],
            "cpu_s": [s.run.cpu_s for s in timed],
            "peak_rss_mb": [s.run.peak_rss_mb for s in timed],
            "first_result_s": [s.run.first_result_s for s in timed
                               if s.run.first_result_s is not None],
        }

    def end_to_end(self) -> "dict[str, float]":
        series = self.series()
        return {
            "wall_s": statistics.median(series["wall_s"]),
            "cpu_s": statistics.median(series["cpu_s"]),
            "peak_rss_mb": statistics.median(series["peak_rss_mb"]),
            "setup_s": self.setup_s,
            "pass_frac": 1.0 - self.failed / len(self.checked),
        }

    def campaign_figures(self) -> "dict[str, float]":
        """Figures of the measured campaigns reported with the layers.

        Both vary too much from run to run to carry a bound: the first
        result line of a pooled campaign moves by a third with host
        load, and ``paper_rel_error`` is deterministic per seed but
        differs by a third between seeds.
        """
        firsts = self.series()["first_result_s"]
        errors = [sample.rel_error for sample in self.checked
                  if sample.rel_error is not None]
        return {
            # 0 only when no campaign printed a result, which fails it.
            "first_result_s": statistics.median(firsts) if firsts else 0.0,
            "paper_rel_error": statistics.median(errors) if errors else 0.0,
        }


def _expected_digest(seed: int) -> "str | None":
    with open(EXPECTED_STDOUT) as handle:
        return json.load(handle)["seeds"].get(str(seed))


def check_campaign(run: campaign.ProcessRun,
                   reference: "str | None") -> Sample:
    """Check one campaign's exit and stdout; ``reference`` is a digest."""
    sample = Sample(run, [])
    if run.timed_out:
        sample.failures.append(f"timed out after {run.wall_s:.1f}s")
    if run.exit_code != 0:
        sample.failures.append(f"exit code {run.exit_code} "
                               f"(stderr: {run.stderr_path})")
    try:
        output = checks.parse(run.stdout.decode("utf-8"))
    except (UnicodeDecodeError, checks.ParseError) as exc:
        sample.failures.append(f"unparsable stdout: {exc}")
        return sample
    sample.failures += checks.invariant_failures(output)
    sample.rel_error = checks.paper_rel_error(output)
    if reference is not None and sample.digest != reference:
        sample.failures.append("stdout differs from the reference "
                               f"{reference[:12]} (got {sample.digest[:12]})")
    return sample


class Runner:
    """Runs one workload at one seed inside a private work directory."""

    def __init__(self, checkout: Path, workload: Workload, seed: int):
        self.checkout = checkout
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.work = Path(tempfile.mkdtemp(
            dir=checkout / WORKDIR, prefix=f"{workload.name}-{seed}-"))
        self.env = campaign.campaign_env(checkout, self.work)
        nproc = len(os.sched_getaffinity(0))
        self.jobs = min(2, nproc) if workload.parallel else 1
        self.reference = _expected_digest(seed)
        self._launches = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _stderr(self, what: str) -> Path:
        self._launches += 1
        return self.work / f"{self._launches:03d}-{what}.stderr"

    def _python(self, code: str, what: str) -> campaign.ProcessRun:
        run = campaign.launch([sys.executable, "-c", code], env=self.env,
                              cwd=self.checkout, stderr_path=self._stderr(what),
                              timeout_s=CAMPAIGN_TIMEOUT_S)
        if run.exit_code != 0:
            raise BenchmarkError(
                f"{what} failed with exit code {run.exit_code}: "
                f"{Path(run.stderr_path).read_text()[-2000:]}")
        return run

    def engine_defaults(self) -> "dict[str, object]":
        run = self._python(campaign.ENGINE_PROBE, "engine-probe")
        return json.loads(run.stdout)

    def fresh_cache(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work, prefix="cache-"))

    def run_campaign(self, cache_dir: Path) -> campaign.ProcessRun:
        return campaign.launch(
            campaign.campaign_argv(self.seed, self.jobs, cache_dir),
            env=self.env, cwd=self.checkout,
            stderr_path=self._stderr("campaign"),
            timeout_s=CAMPAIGN_TIMEOUT_S, first_marker=FIRST_RESULT)

    def check(self, run: campaign.ProcessRun,
              result: WorkloadResult) -> Sample:
        """Check a campaign against the recorded digest for this seed (if
        any) and against the first campaign of this run."""
        sample = check_campaign(run, self.reference)
        if result.checked and sample.digest != result.checked[0].digest:
            sample.failures.append("stdout differs from the first campaign "
                                   "of this run")
        return sample

    def setup(self) -> "tuple[float, Path | None, Sample | None]":
        """Fresh empty cache plus fresh-interpreter import, repeated.

        Returns the median set-up time, and for a warm workload the
        cache primed by one cold campaign (whose time is added) and
        that campaign's checked sample.
        """
        times = []
        cache_dir = None
        for _ in range(SETUP_REPEATS):
            if cache_dir is not None:
                shutil.rmtree(cache_dir)
            started = time.monotonic()
            cache_dir = self.fresh_cache()
            self._python("import repro.experiments.__main__", "import")
            times.append(time.monotonic() - started)
        setup_s = statistics.median(times)
        if not self.workload.warm:
            shutil.rmtree(cache_dir)
            return setup_s, None, None
        priming = campaign.launch(
            campaign.campaign_argv(self.seed, 1, cache_dir),
            env=self.env, cwd=self.checkout,
            stderr_path=self._stderr("priming"),
            timeout_s=CAMPAIGN_TIMEOUT_S)
        return setup_s + priming.wall_s, cache_dir, priming

    def run(self, seconds: float, trace: bool) -> WorkloadResult:
        engine = self.engine_defaults()
        setup_s, primed, priming = self.setup()
        result = WorkloadResult(self.workload, self.seed, setup_s)
        result.notes.update(host=campaign.host_info(), engine=engine,
                            jobs=self.jobs)
        if priming is not None:
            result.extra.append(self.check(priming, result))
        measure_started = time.monotonic()
        last_wall = 0.0
        while not result.samples or (
                time.monotonic() - measure_started < seconds
                and time.monotonic() - self.started
                + last_wall * (2 if trace else 1) < RUN_BUDGET_S):
            cache_dir = primed if primed is not None else self.fresh_cache()
            run = self.run_campaign(cache_dir)
            if primed is None:
                shutil.rmtree(cache_dir)
            result.samples.append(self.check(run, result))
            last_wall = run.wall_s
        if trace:
            self.traced(result, primed)
        return result

    def traced(self, result: WorkloadResult, primed: "Path | None") -> None:
        cache_dir = primed if primed is not None else self.fresh_cache()
        traces = self.checkout / WORKDIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out = traces / f"{self.workload.name}-seed{self.seed}.json"
        start = time.monotonic_ns()
        argv = ([sys.executable, str(HERE / "traced_campaign.py"),
                 "--t0", str(start), "--out", str(out), "--"]
                + campaign.cli_args(self.seed, self.jobs, cache_dir))
        run = campaign.launch(argv, env=self.env, cwd=self.checkout,
                              stderr_path=self._stderr("traced"),
                              timeout_s=CAMPAIGN_TIMEOUT_S,
                              first_marker=FIRST_RESULT, start_ns=start)
        sample = self.check(run, result)
        result.extra.append(sample)
        if sample.failures:
            return
        with open(out) as handle:
            record = json.load(handle)
        untraced = statistics.median(s.run.wall_s for s in result.samples)
        result.layer_metrics = layers.compute(
            record, traced_wall_s=run.wall_s, untraced_wall_s=untraced,
            campaign_figures=result.campaign_figures())
        result.notes["trace"] = str(out.relative_to(self.checkout))
        coverage = result.layer_metrics["trace.coverage"]
        if not 0.95 <= coverage <= 1.0:
            print(f"warning: layer self times cover {coverage:.1%} of the "
                  "traced wall time", file=sys.stderr)


def run_workload(checkout: Path, workload: Workload, seed: int,
                 seconds: float, trace: bool) -> WorkloadResult:
    runner = Runner(checkout, workload, seed)
    try:
        return runner.run(seconds, trace)
    finally:
        runner.close()


def _quartiles(values: "list[float]") -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def report(result: WorkloadResult) -> None:
    """Human-readable lines; the JSON result follows them."""
    name = result.workload.name
    print(f"# {name} seed={result.seed} jobs={result.notes['jobs']} "
          f"host={json.dumps(result.notes['host'])} "
          f"engine={json.dumps(result.notes['engine'])}")
    series = result.series()
    figures = dict(result.end_to_end(), **result.campaign_figures())
    units = dict(END_TO_END, first_result_s="s", paper_rel_error="ratio")
    for metric, unit in units.items():
        extra = _quartiles(series[metric]) if metric in series else ""
        print(f"{name:15s} {metric:16s} {figures[metric]:12.6g} {unit:6s} "
              f"{extra}")
    print(f"{name:15s} failed_frac      "
          f"{result.failed / len(result.checked):12.6g} ratio  "
          f"({result.failed} of {len(result.checked)} campaigns)")
    for sample in result.checked:
        for failure in sample.failures:
            print(f"# FAILED {name}: {failure}")
    if result.layer_metrics is not None:
        print(f"# {name} trace -> {result.notes['trace']}")


def main(argv: "list[str] | None" = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(
        description="Time python -m repro.experiments all end to end.")
    parser.add_argument("--workload", choices=names + ["all"],
                        required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed, passed to the CLI's --seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep launching campaigns for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced campaign, report per-layer "
                             "metrics")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running campaign's process
    # group is killed and reaped (see campaign.launch) before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "experiments"
            / "__main__.py").is_file():
        print("perfbench: run from the repository root "
              "(src/repro/experiments/__main__.py not found)",
              file=sys.stderr)
        return 2
    (checkout / WORKDIR).mkdir(exist_ok=True)
    chosen = [workload for workload in WORKLOADS
              if args.workload in ("all", workload.name)]
    try:
        results = [run_workload(checkout, workload, args.seed, args.seconds,
                                bool(args.trace))
                   for workload in chosen]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)

    correct = all(result.failed == 0 for result in results)
    digests = {sample.digest for result in results
               for sample in result.checked}
    if len(digests) != 1:
        print(f"# FAILED stdout differs across campaigns: "
              f"{sorted(digest[:12] for digest in digests)}")
        correct = False
    units = dict(END_TO_END)
    units.update((metric.name, metric.unit) for metric in layers.LAYER_METRICS)
    metrics: "dict[str, dict]" = {}
    for result in results:
        if args.trace and result.layer_metrics is None:
            correct = False
            continue
        values = result.layer_metrics if args.trace else result.end_to_end()
        prefix = f"{result.workload.name}." if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(result.checked) for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
