"""Atomic file writes: temp file + ``os.replace``.

Long preprocessing and training runs die — machines get preempted, jobs
hit wall-clock limits, users press Ctrl-C.  Every artifact the pipeline
persists (packed ``.npz`` datasets, trace exports, checkpoints) must
therefore be written so that an interrupted run leaves either the old
file or the new file, never a truncated hybrid.  The recipe is the
standard one: write to a same-directory temporary file, fsync it, then
``os.replace`` it into place (atomic on POSIX when source and target
share a filesystem, which same-directory guarantees), and fsync the
directory so the rename itself survives power loss.  Renaming without
the fsync is only atomic against process crashes: after a power cut the
filesystem may replay the rename but not the data blocks, surfacing a
zero-length "atomic" file.

This module is intentionally stdlib-only so anything in the tree can use
it without import cycles.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["atomic_write", "atomic_write_text", "remove_orphaned_temps"]


@contextmanager
def atomic_write(path: str | Path) -> Iterator[Path]:
    """Yield a temporary path that is atomically renamed to ``path``.

    The temporary file lives in the destination directory and keeps the
    destination's suffix (so e.g. numpy's ``savez`` does not append ``.npz``
    to it).  On a clean exit it replaces ``path``; on any exception it is
    removed and the destination is left untouched.

    Usage (what :func:`repro.data.npz_codec.write_npz` does)::

        with atomic_write("plan.npz") as tmp:
            tmp.write_bytes(blob)
    """
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=final.parent, prefix=f".{final.name}.", suffix=".tmp" + final.suffix
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        yield tmp
        _fsync_path(tmp)
        os.replace(tmp, final)
        _fsync_dir(final.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_orphaned_temps(directory: str | Path, name: str) -> None:
    """Delete the temp files :func:`atomic_write` left for ``name``.

    ``name`` is a destination file name in ``directory`` (glob wildcards
    allowed); only temp files of writes to such destinations match, so
    other writers sharing the directory are never touched.  A clean exit
    renames its temp file and an exception removes it, so one that is
    still there belongs to a writer that was killed.  Only call this
    where no write to ``name`` can be in flight.
    """
    for orphan in Path(directory).glob(f".{name}.*.tmp*"):
        orphan.unlink(missing_ok=True)


def _fsync_path(path: Path) -> None:
    """Flush a file's data to stable storage before it is renamed."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (the rename) to stable storage.

    Best-effort: some filesystems refuse fsync on directory fds; the
    rename is still atomic against process crashes there.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Atomically write ``text`` to ``path``; returns the final path."""
    final = Path(path)
    with atomic_write(final) as tmp:
        tmp.write_text(text, encoding=encoding)
    return final
