"""Durable state: atomic file writes and canonical digests.

Two decisions live here and nowhere else:

* **How a file lands.**  :class:`AtomicFile` writes into a temp file
  next to the target, then flushes and fsyncs it, renames it over the
  target with ``os.replace`` and fsyncs the directory.  A reader sees
  either the old file or the complete new one, never a torn mix, and a
  crash after :meth:`AtomicFile.commit` returns cannot lose the file.
  A writer that dies before the rename leaves at most a
  ``<name>.<random>.tmp`` file behind, which no reader in this package
  ever opens.  :func:`atomic_write` is the one-call form.
* **How a value is hashed.**  :func:`canonical_json` is the one JSON
  encoding every content digest is defined over (sorted keys, no
  whitespace, non-ASCII kept as UTF-8, no fallback for non-JSON
  values); :func:`canonical_digest` is the SHA-256 hex of that text.
  Snapshot digests, world-store fragments, trace digests, fork-parent
  keys and cache fingerprints all go through it, so one encoding is
  pinned once (``tests/test_digest_pins.py``).

:func:`quarantine` moves a corrupt file aside instead of overwriting
it, so the bytes stay available for inspection.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Union

PathLike = Union[str, "os.PathLike[str]"]

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False)


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``value`` (see the module docstring).

    Raises ``TypeError`` for values JSON cannot carry: a digest over a
    ``repr`` fallback would depend on object addresses and formatting.
    """
    return _CANONICAL.encode(value)


def text_digest(text: str) -> str:
    """SHA-256 hex of UTF-8 ``text`` — for text already canonical."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_digest(value: Any) -> str:
    """SHA-256 hex of :func:`canonical_json` of ``value``."""
    return text_digest(canonical_json(value))


def _fsync_directory(directory: Path) -> None:
    """Persist a rename: fsync the directory entry (POSIX only)."""
    flags = getattr(os, "O_DIRECTORY", None)
    if flags is None:
        return
    fd = os.open(directory, os.O_RDONLY | flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _open_temp(path: Path) -> "tuple[Path, int]":
    """Create a fresh temp file next to ``path``.

    Opened with mode ``0o666`` under the process umask, so the landed
    file gets the permissions a plain ``open(path, "w")`` would give.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        name = path.with_name(
            f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            return name, os.open(name, flags, 0o666)
        except FileExistsError:
            continue


class AtomicFile:
    """A file that appears at ``path`` whole, or not at all.

    ``mode`` is ``"w"`` (UTF-8 text, no newline translation) or
    ``"wb"``.  Missing parent directories are created.  As a context
    manager it commits on a clean exit and aborts on an exception;
    streaming writers call :meth:`commit` / :meth:`abort` themselves.
    """

    def __init__(self, path: PathLike, mode: str = "w"):
        if mode not in ("w", "wb"):
            raise ValueError(f"AtomicFile mode must be 'w' or 'wb', "
                             f"got {mode!r}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp, fd = _open_temp(self.path)
        if mode == "wb":
            self._handle = os.fdopen(fd, "wb")
        else:
            self._handle = os.fdopen(fd, "w", encoding="utf-8", newline="")
        self._open = True

    def write(self, data: "str | bytes") -> int:
        return self._handle.write(data)

    def commit(self) -> None:
        """Flush, fsync, rename into place, fsync the directory."""
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        self._open = False
        _fsync_directory(self.path.parent)

    def abort(self) -> None:
        """Discard the temp file; the target is left untouched."""
        if not self._open:
            return
        self._open = False
        try:
            self._handle.close()
        finally:
            try:
                os.unlink(self._tmp)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "AtomicFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def atomic_write(path: PathLike, data: "str | bytes") -> None:
    """Write ``data`` (text or bytes) to ``path`` through :class:`AtomicFile`."""
    mode = "w" if isinstance(data, str) else "wb"
    with AtomicFile(path, mode) as handle:
        handle.write(data)


def quarantine(path: PathLike) -> Path:
    """Rename a corrupt file aside as ``<name>.corrupt-<UTC stamp>``.

    Returns the new path.  A second quarantine in the same second gets
    a ``-1``, ``-2``, ... suffix instead of overwriting the first.
    """
    source = Path(path)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    target = source.with_name(f"{source.name}.corrupt-{stamp}")
    counter = 0
    while target.exists():
        counter += 1
        target = source.with_name(f"{source.name}.corrupt-{stamp}-{counter}")
    os.rename(source, target)
    _fsync_directory(source.parent)
    return target
