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

:func:`recycling_write` keeps every fsync and rename of that recipe for
checkpoint directories, but frees no blocks, which is what costs: fsyncs
take 0.1–0.3 ms, while on ext4 mounted with ``discard`` an ``unlink``, a
replace onto a file and a shrinking ``ftruncate`` take 50–115 ms each
(``scripts/fs_probe.py``).  The temp file is the directory's one *spare*
inode of its suffix (e.g. ``.npz.spare``), overwritten and padded rather
than truncated; the replaced file is hard-linked aside as the next spare,
and :func:`set_aside` retires pruned files the same way.  Peak disk use is
unchanged: the spare holds between writes what a plain write holds during one.

This module is intentionally stdlib-only so anything in the tree can use
it without import cycles.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "atomic_write", "atomic_write_text", "recycling_write", "remove_orphaned_temps", "set_aside"
]


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


def _pad_spaces(data: bytes, size: int) -> bytes:
    return data + b" " * (size - len(data))


def recycling_write(
    path: str | Path, data: bytes, pad: Callable[[bytes, int], bytes] = _pad_spaces
) -> bytes:
    """Atomically write ``data`` to ``path`` without freeing a block; returns what was written.

    ``pad(data, size)`` grows ``data`` to ``size`` bytes that read back the
    same (default: spaces, which ``json.loads`` and ``str.split`` ignore),
    or returns it as is, which costs a truncate.
    """
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    spare = final.with_name(final.suffix + ".spare")  # one per suffix and directory
    tmp = final.with_name(f".{final.name}.{os.urandom(4).hex()}.tmp{final.suffix}")
    try:
        with suppress(FileNotFoundError):
            if os.stat(spare).st_nlink == 1:
                os.rename(spare, tmp)
            else:  # still linked to the live file: a writer was killed before replacing
                os.unlink(spare)
        with open(os.open(tmp, os.O_RDWR | os.O_CREAT, 0o600), "r+b") as handle:
            size = os.fstat(handle.fileno()).st_size
            if len(data) < size:
                data = pad(data, size)
            handle.write(data)
            handle.flush()
            if len(data) < size:
                os.ftruncate(handle.fileno(), len(data))
            os.fsync(handle.fileno())
        with suppress(OSError):  # nothing to keep, or no hard links: the replace frees it
            os.link(final, spare)
        os.replace(tmp, final)
    except BaseException:
        with suppress(OSError):
            os.replace(tmp, spare)  # drops a link-aside; the temp is the spare again
        raise
    _fsync_dir(final.parent)
    return data


def set_aside(path: str | Path) -> None:
    """Retire ``path`` as its directory's spare (replacing an older one) instead of unlinking it."""
    final = Path(path)
    with suppress(FileNotFoundError):
        os.replace(final, final.with_name(final.suffix + ".spare"))


def remove_orphaned_temps(directory: str | Path, name: str) -> None:
    """Delete the temp files :func:`atomic_write` or :func:`recycling_write` left for ``name``.

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
