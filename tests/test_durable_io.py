"""Fault injection against :mod:`repro.io` and every store built on it.

Persistent state — the result cache, ``.rpart`` run artifacts, the
run-store index and the BENCH history — must come out of a crash,
a truncation, a concurrent writer or a format change as a miss, a
precise error or a quarantined file, never as a wrong value.  The
cases:

* **kill mid-write** — a subprocess is SIGKILLed inside an atomic write;
* **truncation** — a small record cut at every byte offset;
* **concurrent writers** — four processes on one file;
* **format-version skew** — a record from another format version.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.policy import HandlingMode
from repro.experiments.cache import CACHE_FORMAT, ResultCache
from repro.experiments.runner import write_bench_json
from repro.hypervisor.hypervisor import LatencyRecord
from repro.io import (
    AtomicFile,
    atomic_write,
    canonical_digest,
    canonical_json,
    quarantine,
)
from repro.store import ArtifactError, ArtifactWriter, RunArtifact, RunStore
from repro.store.artifact import FORMAT_VERSION, MAGIC
from repro.store.capture import INDEX_FORMAT, INDEX_NAME

SRC = str(Path(__file__).resolve().parent.parent / "src")

needs_sigkill = pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                                   reason="needs POSIX SIGKILL")
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")

TASK = SimpleNamespace(kind="design", experiment="design")
RESULT = {"answer": 42, "series": [0.5, 1.25]}


def temp_files(directory: Path) -> "list[Path]":
    return sorted(directory.rglob("*.tmp"))


def write_artifact(path: Path, metadata=None) -> Path:
    records = [
        LatencyRecord("irq", 0, 100, 8500, HandlingMode.DIRECT, False),
        LatencyRecord("irq", 1, 9000, 18000, HandlingMode.DELAYED, True),
    ]
    with ArtifactWriter(path, metadata or {"experiment": "x"}) as writer:
        writer.append_summary("scenario", records, [42.0, 45.0])
    return path


def write_index(directory: Path, names, fmt=INDEX_FORMAT) -> Path:
    path = directory / INDEX_NAME
    path.write_text(json.dumps({
        "format": fmt, "campaign": {}, "stats": {},
        "tasks": [{"experiment": "x", "kind": "k", "task_index": i,
                   "artifact": name, "rows": 2}
                  for i, name in enumerate(names)],
    }))
    return path


# ------------------------------------------------------------ repro.io

class TestAtomicFile:
    def test_atomic_write_text_and_bytes(self, tmp_path):
        atomic_write(tmp_path / "a" / "b.txt", "µs\r\nline\n")
        assert (tmp_path / "a" / "b.txt").read_bytes() \
            == "µs\r\nline\n".encode("utf-8")
        atomic_write(tmp_path / "c.bin", b"\x00\xff")
        assert (tmp_path / "c.bin").read_bytes() == b"\x00\xff"
        assert temp_files(tmp_path) == []

    def test_exception_leaves_old_bytes_and_no_temp(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with AtomicFile(target) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert target.read_text() == "old"
        assert temp_files(tmp_path) == []

    def test_failed_rename_removes_temp(self, tmp_path):
        target = tmp_path / "occupied"
        (target / "child").mkdir(parents=True)
        with pytest.raises(OSError):
            atomic_write(target, b"data")
        assert target.is_dir()
        assert temp_files(tmp_path) == []

    def test_artifact_close_does_not_leak_temp_when_rename_fails(
            self, tmp_path):
        target = tmp_path / "a.rpart"
        writer = ArtifactWriter(target, {"experiment": "x"})
        writer.append_summary("scenario", [], [])
        (target / "child").mkdir(parents=True)   # rename now fails
        with pytest.raises(OSError):
            writer.close()
        assert temp_files(tmp_path) == []

    def test_landed_file_gets_plain_open_permissions(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("x")
        atomic_write(tmp_path / "atomic", "x")
        assert stat.S_IMODE((tmp_path / "atomic").stat().st_mode) \
            == stat.S_IMODE(plain.stat().st_mode)

    def test_rejects_other_modes(self, tmp_path):
        with pytest.raises(ValueError):
            AtomicFile(tmp_path / "x", "a")


class TestCanonical:
    def test_encoding(self):
        assert canonical_json({"b": [1.5, None], "a": "µ"}) \
            == '{"a":"µ","b":[1.5,null]}'

    def test_no_repr_fallback(self):
        with pytest.raises(TypeError):
            canonical_digest({"value": object()})

    def test_tuples_hash_like_lists(self):
        assert canonical_digest((1, "a")) == canonical_digest([1, "a"])


def test_quarantine_never_overwrites(tmp_path):
    first = tmp_path / "h.json"
    first.write_text("one")
    aside_one = quarantine(first)
    first.write_text("two")
    aside_two = quarantine(first)
    assert aside_one != aside_two
    assert aside_one.name.startswith("h.json.corrupt-")
    assert (aside_one.read_text(), aside_two.read_text()) == ("one", "two")
    assert not first.exists()


# ------------------------------------------------------ kill mid-write

def spawn(script: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                            stdout=subprocess.PIPE, env=env)


def kill(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=30)
    process.stdout.close()


@needs_sigkill
class TestKillMidWrite:
    def test_streaming_write_killed_keeps_old_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        cache.store(key, TASK, RESULT, 1.0)
        path = cache._path(key)
        old = path.read_bytes()
        child = spawn(f"""
            import time
            from repro.io import AtomicFile
            handle = AtomicFile({str(path)!r}, "wb")
            handle.write(b"garbage" * 1000)
            print("writing", flush=True)
            while True:
                handle.write(b"garbage" * 1000)
                time.sleep(0.001)
        """)
        assert child.stdout.readline() == b"writing\n"
        kill(child)
        assert path.read_bytes() == old
        assert len(temp_files(tmp_path)) == 1       # the dead writer's
        entry = ResultCache(tmp_path / "cache").load(key)
        assert entry is not None and entry.result == RESULT

    @pytest.mark.parametrize("delay", [0.0, 0.01, 0.05])
    def test_large_atomic_write_killed_is_old_or_new(self, tmp_path, delay):
        target = tmp_path / "big.bin"
        target.write_bytes(b"old")
        size = 32 * 1024 * 1024
        child = spawn(f"""
            from repro.io import atomic_write
            data = b"n" * {size}
            print("ready", flush=True)
            atomic_write({str(target)!r}, data)
            print("done", flush=True)
        """)
        assert child.stdout.readline() == b"ready\n"
        time.sleep(delay)
        kill(child)
        landed = target.read_bytes()
        assert landed == b"old" or landed == b"n" * size

    def test_killed_artifact_writer_is_invisible_to_the_store(self, tmp_path):
        store = tmp_path / "store"
        write_artifact(store / "task-0000.rpart")
        child = spawn(f"""
            import time
            from repro.hypervisor.hypervisor import LatencyRecord
            from repro.core.policy import HandlingMode
            from repro.store import ArtifactWriter
            record = LatencyRecord("irq", 0, 1, 2, HandlingMode.DIRECT, False)
            writer = ArtifactWriter({str(store / "task-0001.rpart")!r})
            writer.append_summary("scenario", [record] * 1000, [1.0] * 1000)
            print("writing", flush=True)
            while True:
                writer.append_summary("scenario", [record] * 1000,
                                      [1.0] * 1000)
                time.sleep(0.001)
        """)
        assert child.stdout.readline() == b"writing\n"
        kill(child)
        assert len(temp_files(store)) == 1
        refs = RunStore(store).refs
        assert [ref.path.name for ref in refs] == ["task-0000.rpart"]


def test_unfinished_campaign_never_pairs_an_old_index_with_new_bytes(
        tmp_path):
    """A campaign that dies before ``finalize`` leaves no stale index."""
    from repro.store import CampaignStoreWriter

    task = SimpleNamespace(experiment="validation",
                           kind="validation-classic", kwargs={})
    summary = SimpleNamespace(
        records=[LatencyRecord("irq", 0, 1, 2, HandlingMode.DIRECT, False)],
        latencies_us=[1.0], summary=None)
    finished = CampaignStoreWriter(tmp_path, {"campaign_seed": 1})
    finished.write_task(task, summary, 0)
    finished.finalize()
    crashed = CampaignStoreWriter(tmp_path, {"campaign_seed": 2})
    crashed.write_task(task, summary, 0)           # no finalize()
    refs = RunStore(tmp_path).refs
    assert [ref.metadata["campaign_seed"] for ref in refs] == [2]
    assert refs[0].metadata == RunArtifact.read_metadata(refs[0].path)


# ---------------------------------------------------------- truncation

def test_truncated_cache_entry_is_always_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" * 32
    cache.store(key, TASK, RESULT, 1.0)
    path = cache._path(key)
    blob = path.read_bytes()
    for offset in range(len(blob)):
        path.write_bytes(blob[:offset])
        assert cache.load(key) is None, offset
    assert cache.stats.hits == 0


def test_truncated_artifact_is_always_an_artifact_error(tmp_path):
    path = write_artifact(tmp_path / "a.rpart", {"experiment": "µ-x"})
    blob = path.read_bytes()
    assert len(blob) < 4096                   # small enough to sweep
    metadata = RunArtifact.read_metadata(path)
    for offset in range(len(blob)):
        path.write_bytes(blob[:offset])
        with pytest.raises(ArtifactError):
            RunArtifact.read(path)
        # A header-only read either fails precisely or, once the whole
        # header is present, returns the true metadata.
        try:
            assert RunArtifact.read_metadata(path) == metadata
        except ArtifactError:
            pass


def test_truncated_store_index_is_always_an_artifact_error(tmp_path):
    write_artifact(tmp_path / "task-0000.rpart")
    index = write_index(tmp_path, ["task-0000.rpart"])
    blob = index.read_bytes()
    for offset in range(len(blob)):
        index.write_bytes(blob[:offset])
        with pytest.raises(ArtifactError, match="campaign index") as error:
            RunStore(tmp_path)
        assert str(index) in str(error.value)


def test_truncated_bench_history_is_quarantined(tmp_path, capsys):
    target = tmp_path / "BENCH.json"
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"design": 0.1})
    blob = target.read_bytes()
    original = json.loads(blob)["runs"]
    for offset in range(len(blob)):
        target.write_bytes(blob[:offset])
        write_bench_json(target, scale_name="next", jobs=1,
                         experiment_seconds={"design": 0.2})
        runs = json.loads(target.read_bytes())["runs"]
        aside = list(tmp_path.glob("BENCH.json.corrupt-*"))
        if blob[:offset].strip() == blob.strip():
            # Only trailing whitespace was cut: the history is whole.
            assert runs[:-1] == original and not aside
        else:
            assert [run["scale"] for run in runs] == ["next"], offset
            assert [path.read_bytes() for path in aside] == [blob[:offset]]
            aside[0].unlink()
    capsys.readouterr()


# -------------------------------------------------- concurrent writers

def _append_bench(target: str, writer: int, count: int) -> None:
    for index in range(count):
        write_bench_json(target, scale_name=f"w{writer}-{index}", jobs=1,
                         experiment_seconds={"design": 0.1})


def _store_entry(directory: str, key: str, writer: int, count: int) -> None:
    cache = ResultCache(directory)
    for _ in range(count):
        cache.store(key, TASK, dict(RESULT, writer=writer), 1.0)


def _run_processes(target, args_per_process) -> None:
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=target, args=args)
                 for args in args_per_process]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0


@needs_fork
def test_concurrent_bench_appends_keep_every_record(tmp_path):
    target = tmp_path / "BENCH.json"
    _run_processes(_append_bench,
                   [(str(target), writer, 5) for writer in range(4)])
    history = json.loads(target.read_text())
    assert sorted(run["scale"] for run in history["runs"]) == sorted(
        f"w{writer}-{index}" for writer in range(4) for index in range(5))
    assert history["sha256"] == canonical_digest(history["runs"])
    assert temp_files(tmp_path) == []
    assert not list(tmp_path.glob("*.corrupt-*"))


@needs_fork
def test_concurrent_stores_of_one_key_stay_loadable(tmp_path):
    key = "ef" * 32
    _run_processes(_store_entry,
                   [(str(tmp_path), key, writer, 10) for writer in range(4)])
    entry = ResultCache(tmp_path).load(key)
    assert entry is not None
    assert entry.result["writer"] in range(4)
    assert temp_files(tmp_path) == []


# ------------------------------------------------ format-version skew

def test_cache_entry_from_another_format_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = "01" * 32
    cache.store(key, TASK, RESULT, 1.0)
    path = cache._path(key)
    payload = pickle.loads(path.read_bytes())
    payload["format"] = CACHE_FORMAT + 1
    path.write_bytes(pickle.dumps(payload))
    assert cache.load(key) is None
    assert cache.stats.invalidations == 1


def test_artifact_from_another_version_is_an_artifact_error(tmp_path):
    import hashlib
    import struct

    path = write_artifact(tmp_path / "a.rpart")
    blob = bytearray(path.read_bytes()[:-36])
    struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
    body = bytes(blob)
    # A well-formed file of the other version: the checksum matches.
    path.write_bytes(body + b"SUM0" + hashlib.sha256(body).digest())
    with pytest.raises(ArtifactError, match="unsupported artifact version"):
        RunArtifact.read(path)
    with pytest.raises(ArtifactError, match="unsupported artifact version"):
        RunArtifact.read_metadata(path)


def test_store_index_from_another_format_is_an_artifact_error(tmp_path):
    write_artifact(tmp_path / "task-0000.rpart")
    index = write_index(tmp_path, ["task-0000.rpart"],
                        fmt="repro-store-index-v0")
    with pytest.raises(ArtifactError, match="repro-store-index-v0") as error:
        RunStore(tmp_path)
    assert str(index) in str(error.value)


def test_bench_history_of_another_shape_is_quarantined(tmp_path, capsys):
    target = tmp_path / "BENCH.json"
    skewed = json.dumps({"format": 2, "records": [{"scale": "smoke"}]})
    target.write_text(skewed)
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"design": 0.1})
    assert len(json.loads(target.read_text())["runs"]) == 1
    aside = list(tmp_path.glob("BENCH.json.corrupt-*"))
    assert [path.read_text() for path in aside] == [skewed]
    assert "no 'runs' list" in capsys.readouterr().err
