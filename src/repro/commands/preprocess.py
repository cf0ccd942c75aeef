"""Run the static FAE pipeline on a synthetic log.

Profiles and calibrates the hot set within ``--budget-bytes``, classifies
and packs the log into hot and cold mini-batches, and prints the plan
with a resource summary (peak RSS, CPU).  ``--out`` persists the packed
dataset in the FAE format (a directory of shards with ``--shard-size``).
``--chunk-size`` streams the log through the pipeline in chunks and
``--stream`` generates it lazily, so memory stays bounded by the chunk;
``--validate`` screens ingest records first.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.commands.common import (
    add_data_args,
    add_validate_args,
    fae_config,
    ingest_policy,
    make_log,
    report_trace,
    tracing,
)
from repro.core import fae_preprocess_source
from repro.data import dataset_by_name


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_data_args(parser)
    parser.add_argument(
        "--out",
        help="write the packed dataset here (.npz file, or a directory with --shard-size)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        help="stream the log through the pipeline in chunks of this many samples "
        "(bounds preprocess memory; default processes the log in one chunk)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        help="write --out as a sharded directory with this many batches per shard",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="generate the synthetic log lazily chunk-by-chunk instead of "
        "materializing it (constant memory in --samples; implies --chunk-size)",
    )
    add_validate_args(parser)


def run(args: argparse.Namespace) -> int:
    if args.shard_size is not None and not args.out:
        print("error: --shard-size requires --out", file=sys.stderr)
        return 2
    sampler = obs.ResourceSampler()
    try:
        with sampler, tracing(args):
            if args.stream:
                from repro.data import SyntheticClickStream

                source = SyntheticClickStream(
                    dataset_by_name(args.dataset, args.scale),
                    total_samples=args.samples,
                    chunk_size=args.chunk_size or 8192,
                    seed=args.seed,
                )
            else:
                from repro.data import LogChunkSource

                source = LogChunkSource(make_log(args), chunk_size=args.chunk_size)
            policy, ledger = ingest_policy(args)
            if policy is not None:
                from repro.data import ValidatingChunkSource

                source = ValidatingChunkSource(source, policy, ledger)
            plan = fae_preprocess_source(source, fae_config(args), batch_size=args.batch_size)
            print(plan.summary())
            if ledger is not None:
                print(f"ingest: quarantined {len(ledger)} record(s) -> {ledger.path}")
            print(
                f"calibration: {plan.calibration.total_seconds:.3f}s "
                f"({plan.calibration.result.iterations} thresholds evaluated), "
                f"classification: {plan.classify_seconds:.3f}s"
            )
            if args.out:
                plan.save(args.out, shard_size=args.shard_size)
                print(f"wrote {args.out}")
            report_trace(args)
    finally:
        # Printed even when the run raises: the sampler context has
        # stopped its thread by now either way, and the peak-RSS line is
        # most interesting exactly when something blew up.
        print(sampler.format_summary())
    return 0
