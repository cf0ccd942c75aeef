"""Inspect training checkpoints: ``ls`` and ``verify``.

Both walk a directory's ``ckpt-*.npz`` archives (or one archive), verify
their checksums and print step, epoch, schema version, size and integrity
per archive; both exit 1 when any checkpoint is corrupt, so they script
as health checks.  ``ls --json`` prints the rows as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.resilience import read_checkpoint_meta
from repro.resilience.checkpoint import CheckpointError, checkpoint_paths


def add_arguments(parser: argparse.ArgumentParser) -> None:
    commands = parser.add_subparsers(dest="checkpoint_cmd", required=True)
    ls = commands.add_parser(
        "ls", help="list a directory's checkpoints with step, schema version, size, integrity"
    )
    ls.add_argument("path", metavar="directory")
    ls.add_argument("--json", action="store_true", help="machine-readable output")
    verify = commands.add_parser(
        "verify", help="verify checkpoint integrity; exit nonzero on any corruption"
    )
    verify.add_argument("path", help="a checkpoint file or a directory of them")
    verify.set_defaults(json=False)


def run(args: argparse.Namespace) -> int:
    target = Path(args.path)
    if target.is_dir():
        paths = checkpoint_paths(target)
    elif target.exists():
        paths = [target]
    else:
        print(f"error: {target} does not exist", file=sys.stderr)
        return 2

    rows = []
    for path in paths:
        try:
            meta = read_checkpoint_meta(path)
            status = "ok"
        except (CheckpointError, OSError, ValueError) as exc:
            meta = {"size_bytes": path.stat().st_size if path.exists() else None}
            status = f"corrupt: {exc}"
        rows.append(
            {
                "file": path.name,
                "step": meta.get("step"),
                "epoch": meta.get("epoch"),
                "schema_version": meta.get("version"),
                "size_bytes": meta.get("size_bytes"),
                "status": status,
            }
        )

    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif not rows:
        print(f"no checkpoints under {target}")
    else:
        print(f"{'file':<22} {'step':>8} {'epoch':>5} {'schema':>6} {'bytes':>10}  status")
        for row in rows:
            step, epoch, schema, size = (
                "-" if row[key] is None else row[key]
                for key in ("step", "epoch", "schema_version", "size_bytes")
            )
            print(f"{row['file']:<22} {step:>8} {epoch:>5} {schema:>6} {size:>10}  {row['status']}")
    corrupt = sum(row["status"] != "ok" for row in rows)
    if corrupt:
        print(f"error: {corrupt} corrupt checkpoint(s)", file=sys.stderr)
        return 1
    return 0
