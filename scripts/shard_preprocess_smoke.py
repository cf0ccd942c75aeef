#!/usr/bin/env python
"""Shard-backed preprocess, end to end, for the bounded-memory CI step.

Writes a synthetic click log to on-disk shards (streamed, one chunk in
memory at a time) and runs the two-pass FAE preprocess over them through
:class:`~repro.data.ShardChunkSource`.  CI runs it under
``scripts/rss_cap.py``: a shard chunk holds its file's bytes plus the
columns a stage touched, so memory must stay bounded by the shard, not
the log -- which ``repro preprocess --stream`` cannot show, because it
never opens a shard.

It also prints a blake2b over the names and bytes of the FAE directory it
saves (``FAE blake2b: ...``).  The plan is deterministic, so two runs
print the same line; CI runs the script twice and compares them, which
puts the calibrate, pack and save path under a determinism check at a
sample count the unit tests do not reach.

Usage::

    python scripts/rss_cap.py --limit-mb 256 -- \\
        python scripts/shard_preprocess_smoke.py --samples 400000 --dir shard-smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.core import FAEConfig, fae_preprocess_source
from repro.data import ShardChunkSource, SyntheticClickStream, dataset_by_name, save_log_shards
from repro.data.chunk_source import SHARD_MANIFEST
from repro.obs import get_registry


def directory_digest(directory: Path) -> str:
    """blake2b over each file's name and bytes, in name order."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=400_000)
    parser.add_argument("--dir", default="shard-smoke", help="shard directory (replaced)")
    args = parser.parse_args(argv)

    schema = dataset_by_name("criteo-kaggle", "small")
    shutil.rmtree(args.dir, ignore_errors=True)
    stream = SyntheticClickStream(schema, total_samples=args.samples, chunk_size=8192, seed=7)
    source = ShardChunkSource(save_log_shards(args.dir, stream))
    config = FAEConfig(
        gpu_memory_budget=256 * 1024, large_table_min_bytes=1024, chunk_size=64, seed=7
    )
    plan = fae_preprocess_source(source, config, batch_size=256)
    if plan.dataset.num_inputs != args.samples:
        print(f"packed {plan.dataset.num_inputs} inputs, wrote {args.samples}", file=sys.stderr)
        return 1
    decoded = get_registry().counter("data.shard.members_decoded").value
    shard_bytes = sum(path.stat().st_size for path in Path(args.dir).iterdir())
    manifest = json.loads((Path(args.dir) / SHARD_MANIFEST).read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as out:
        plan.save(out, shard_size=64)
        fae_bytes = sum(path.stat().st_size for path in Path(out).iterdir())
        fae_digest = directory_digest(Path(out))
    print(plan.summary())
    print(
        f"shards: {len(manifest['shards'])}  bytes: {shard_bytes}  members decoded: {decoded:.0f}"
        f"  FAE bytes: {fae_bytes}"
    )
    print(f"FAE blake2b: {fae_digest}")
    # Members are stored, not deflated.
    with zipfile.ZipFile(Path(args.dir) / "chunk-000000.npz") as shard:
        deflated = [i.filename for i in shard.infolist() if i.compress_type != zipfile.ZIP_STORED]
    if deflated:
        print(f"chunk-000000.npz members not stored: {deflated}", file=sys.stderr)
        return 1
    # Ids are stored at the width of their table and decode to int64.
    spec = max((t for t in schema.tables if t.num_rows <= 65_536), key=lambda t: t.num_rows)
    with np.load(Path(args.dir) / "chunk-000000.npz") as shard:
        stored = shard[f"sparse_{spec.name}"].dtype
    _start, chunk = next(iter(source))
    decoded_dtype = chunk.sparse[spec.name].dtype
    if stored.itemsize > 2 or decoded_dtype != np.int64:
        print(
            f"{spec.name} ({spec.num_rows} rows) is stored as {stored}, decodes to {decoded_dtype}",
            file=sys.stderr,
        )
        return 1
    print(f"{spec.name}: {spec.num_rows} rows, stored {stored}, decoded {decoded_dtype}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
