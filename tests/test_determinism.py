"""Determinism regression tests.

The simulator's claim of bit-exact reproducibility is itself tested:
identical seeds give identical results, different seeds differ, and a
pinned snapshot of headline numbers for seed 1 guards against silent
behavioural drift (update the snapshot deliberately when semantics
change — the EXPERIMENTS.md numbers must move with it).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main
from repro.experiments.fig6 import Fig6Config, run_fig6

SRC = Path(__file__).resolve().parent.parent / "src"


def run_snapshot():
    config = Fig6Config(irqs_per_load=400, seed=1)
    return {scenario: run_fig6(scenario, config) for scenario in "abc"}


class TestReproducibility:
    def test_same_seed_same_results(self):
        config = Fig6Config(irqs_per_load=200, seed=9)
        first = run_fig6("b", config)
        second = run_fig6("b", config)
        assert first.latencies_us == second.latencies_us
        assert first.mode_counts == second.mode_counts

    def test_different_seed_different_results(self):
        a = run_fig6("b", Fig6Config(irqs_per_load=200, seed=9))
        b = run_fig6("b", Fig6Config(irqs_per_load=200, seed=10))
        assert a.latencies_us != b.latencies_us


class TestPinnedSnapshot:
    """Exact headline numbers for seed 1, 400 IRQs/load.

    These are behavioural checksums: any change to scheduling,
    costs, classification or generators moves them.
    """

    @pytest.fixture(scope="class")
    def results(self):
        return run_snapshot()

    def test_scenario_a_checksum(self, results):
        result = results["a"]
        assert len(result.latencies_us) == 1200
        assert result.mode_counts.get("interposed", 0) == 0
        assert result.avg_latency_us == pytest.approx(2352.04, abs=0.5)
        assert result.max_latency_us == pytest.approx(8040.0, abs=0.5)

    def test_scenario_b_checksum(self, results):
        result = results["b"]
        assert result.avg_latency_us == pytest.approx(1006.26, abs=0.5)
        assert result.mode_counts.get("interposed", 0) == 384

    def test_scenario_c_checksum(self, results):
        result = results["c"]
        assert result.mode_counts.get("delayed", 0) == 0
        assert result.avg_latency_us == pytest.approx(73.41, abs=0.5)
        assert result.max_latency_us == pytest.approx(97.03, abs=0.1)


def run_cli(args, hash_seed):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args,
         "--smoke", "--no-cache", "--jobs", "1"],
        env=env, capture_output=True, check=True)
    return result.stdout


@pytest.mark.parametrize("experiment", ["validation", "tab62"])
def test_stdout_independent_of_hash_seed(experiment):
    """Handling modes and switch reasons hash by identity (see
    ``HandlingMode.__hash__``), and strings hash per ``PYTHONHASHSEED``:
    no output may depend on the iteration order of a set or on a hash
    value, so two interpreters with different hash seeds must print
    byte-identical results."""
    first = run_cli([experiment], hash_seed=0)
    second = run_cli([experiment], hash_seed=4242)
    assert first
    assert first == second


#: sha256 of each campaign's ``--smoke --seed 1`` stdout, recorded while
#: fig7 forked its cases from a shared learning phase and sweep and
#: ablation forked shared warm worlds.  The straight-line tasks that
#: replaced the forks must print exactly the same bytes.
SMOKE_STDOUT_SHA256 = {
    "fig7": "17084d82f23889dabae9794e4c7f40e344e7b505eeb6c6ba8a41214c3c381fbc",
    "sweep": "e832f90f018864e416338beccf1d5dc7b14c53ae37b21b844caa9b5bb4494638",
    "ablation":
        "789ce7072d77ed9fcc97b9c44e0b3b53544a907a7498db29d0c3a296591d7060",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("experiment", sorted(SMOKE_STDOUT_SHA256))
def test_smoke_stdout_golden(experiment, jobs, capsys):
    assert main([experiment, "--smoke", "--seed", "1", "--no-cache",
                 "--jobs", jobs]) == 0
    stdout = capsys.readouterr().out
    assert (hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            == SMOKE_STDOUT_SHA256[experiment])
