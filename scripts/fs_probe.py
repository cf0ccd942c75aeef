#!/usr/bin/env python
"""Per-call costs of the file-system calls a checkpoint directory makes.

Prints one JSON line of median milliseconds, measured in DIR:

- ``fsync_4k_ms`` / ``fsync_512k_ms``: fsync of a freshly written file;
- ``fsync_dir_ms``: fsync of DIR after a file was created in it;
- ``unlink_4k_ms`` / ``unlink_512k_ms``: unlink of a written, synced file;
- ``replace_onto_existing_ms``: ``os.replace`` onto a synced file;
- ``ftruncate_shrink_ms``: a synced 512 KiB file truncated to 4 KiB;
- ``link_replace_ms``: ``os.link`` the target aside, then ``os.replace``
  onto it -- what :mod:`repro.resilience.atomic`'s recycling writer does.

Both protocols pay the fsyncs.  A plain temp + replace + unlink-prune
protocol also pays the unlink, replace-onto and shrink rows, which free
blocks; the recycling writer pays the link + replace row instead.  Where
those frees cost tens of milliseconds (ext4 mounted with ``discard``),
recycling is what makes ``train-tbsm-turnover`` fast; where they cost
microseconds it buys little.  Report benchmark numbers next to this line.

Usage::

    python scripts/fs_probe.py DIR
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPEATS = 5


def _written(path: Path, size: int) -> Path:
    """A file of ``size`` nonzero bytes whose blocks are on disk."""
    with open(path, "wb") as handle:
        handle.write(b"\xa5" * size)
        handle.flush()
        os.fsync(handle.fileno())
    return path


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def _fsync_new(path: Path, size: int) -> float:
    with open(path, "wb") as handle:
        handle.write(b"\xa5" * size)
        handle.flush()
        return _timed(lambda: os.fsync(handle.fileno()))


def _fsync_dir(directory: Path) -> float:
    _written(directory / "entry", 16)
    fd = os.open(directory, os.O_RDONLY)
    try:
        return _timed(lambda: os.fsync(fd))
    finally:
        os.close(fd)


def _shrink(path: Path) -> float:
    _written(path, 512 * 1024)
    fd = os.open(path, os.O_RDWR)
    try:
        return _timed(lambda: os.ftruncate(fd, 4096))
    finally:
        os.close(fd)


def _replace_onto(directory: Path) -> float:
    target = _written(directory / "target", 4096)
    source = _written(directory / "source", 4096)
    return _timed(lambda: os.replace(source, target))


def _link_replace(directory: Path) -> float:
    target = _written(directory / "target", 4096)
    source = _written(directory / "source", 4096)
    return _timed(lambda: (os.link(target, directory / "spare"), os.replace(source, target)))


def probe(directory: Path) -> dict[str, float]:
    """Median per-call costs (ms) over :data:`REPEATS` rounds in ``directory``."""
    cases = {
        "fsync_4k_ms": lambda d: _fsync_new(d / "new", 4096),
        "fsync_512k_ms": lambda d: _fsync_new(d / "new", 512 * 1024),
        "fsync_dir_ms": _fsync_dir,
        "unlink_4k_ms": lambda d: _timed(_written(d / "old", 4096).unlink),
        "unlink_512k_ms": lambda d: _timed(_written(d / "old", 512 * 1024).unlink),
        "replace_onto_existing_ms": _replace_onto,
        "ftruncate_shrink_ms": lambda d: _shrink(d / "old"),
        "link_replace_ms": _link_replace,
    }
    samples: dict[str, list[float]] = {name: [] for name in cases}
    for _ in range(REPEATS):
        for name, case in cases.items():
            # Each round runs in a fresh subdirectory, removed untimed.
            with tempfile.TemporaryDirectory(dir=directory, prefix=".fs-probe-") as scratch:
                samples[name].append(case(Path(scratch)))
    return {name: round(statistics.median(values), 3) for name, values in samples.items()}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python scripts/fs_probe.py DIR", file=sys.stderr)
        return 2
    directory = Path(args[0])
    directory.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"dir": str(directory), **probe(directory)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
