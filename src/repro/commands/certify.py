"""Crash-anywhere certification of the FAE trainer.

SIGKILLs a real ``train --mode fae`` process at every cache-refresh phase
and checkpoint boundary, resumes it from the newest good checkpoint, and
byte-compares the final state against an uninterrupted run.  Exits 0 when
every kill point resumed to an identical final state, 5 on any mismatch,
unfired kill point or failed resume.  An absent flag takes its
:class:`~repro.resilience.certify.CertifyConfig` default.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.commands.common import DATASETS, config_from, config_options
from repro.resilience.certify import CertifyConfig, format_certification, run_certification


def _csv_ints(spec: str) -> tuple[int, ...]:
    return tuple(int(part) for part in spec.split(",") if part.strip())


def _csv_names(spec: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in spec.split(",") if part.strip())


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=DATASETS, nargs="?", default=CertifyConfig.dataset)
    config = config_options(parser, CertifyConfig)
    config.add_argument("--scale")
    config.add_argument("--samples", type=int)
    config.add_argument("--seed", type=int)
    config.add_argument("--epochs", type=int)
    config.add_argument("--batch-size", type=int)
    config.add_argument("--lr", type=float)
    config.add_argument("--budget-bytes", type=int)
    config.add_argument("--cache-budget", type=int)
    config.add_argument("--cache-every", type=int)
    config.add_argument("--checkpoint-every", type=int)
    config.add_argument("--refresh-index", type=int, help="which cache turnover to kill")
    config.add_argument(
        "--phases", type=_csv_names, help="comma-separated refresh phases to kill at (default: all)"
    )
    config.add_argument(
        "--checkpoints",
        type=_csv_ints,
        help="comma-separated checkpoint-save indices to kill after ('' skips)",
    )
    config.add_argument(
        "--steps",
        type=_csv_ints,
        help="comma-separated iteration numbers for mid-segment kills ('' skips)",
    )
    config.add_argument("--gpus", type=int, help="> 1 certifies the distributed trainer")
    config.add_argument("--timeout", type=float, help="per-subprocess bound, seconds")
    parser.add_argument("--out-dir", default="benchmarks/out/certify")


def run(args: argparse.Namespace) -> int:
    report = run_certification(config_from(args, CertifyConfig), args.out_dir)
    print()
    print(format_certification(report))
    print(f"wrote {Path(args.out_dir) / 'certify_report.json'}")
    return 0 if report["passed"] else 5
