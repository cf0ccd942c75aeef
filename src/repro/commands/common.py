"""Options and helpers that several commands share.

A command whose work is one config dataclass (``certify``, ``serve-bench``,
``drift``) puts the flags that fill it in a :func:`config_options` group:
each flag's dest is a field name and it has no default of its own, so
:func:`config_from` leaves every absent flag to the field's default.
"""

from __future__ import annotations

import argparse
import dataclasses

from repro import obs
from repro.core import FAEConfig
from repro.data import SyntheticClickLog, SyntheticConfig, dataset_by_name
from repro.resilience import IngestPolicy, QuarantineLedger

__all__ = [
    "DATASETS",
    "add_data_args",
    "add_validate_args",
    "config_from",
    "config_options",
    "fae_config",
    "ingest_policy",
    "make_log",
    "report_trace",
    "tracing",
]

DATASETS = ("criteo-kaggle", "criteo-terabyte", "taobao")


def config_options(parser: argparse.ArgumentParser, config_cls: type) -> argparse._ArgumentGroup:
    """An option group whose flags fill ``config_cls`` (see :func:`config_from`)."""
    return parser.add_argument_group(
        f"{config_cls.__name__} fields", argument_default=argparse.SUPPRESS
    )


def config_from(args: argparse.Namespace, config_cls: type):
    """Build ``config_cls`` from the parsed flags named after its fields."""
    names = {field.name for field in dataclasses.fields(config_cls)}
    return config_cls(**{name: value for name, value in vars(args).items() if name in names})


def add_data_args(parser: argparse.ArgumentParser) -> None:
    """The synthetic log and FAE budget options of ``preprocess`` and ``train``."""
    parser.add_argument("dataset", choices=DATASETS)
    parser.add_argument("--scale", default="small", help="paper|medium|small|tiny or a number")
    parser.add_argument("--samples", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-bytes", type=int, default=256 * 1024)
    parser.add_argument("--large-table-min-bytes", type=int, default=1024)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        metavar="PATH",
        help="record spans and print the summary tree; with PATH, also write "
        "the spans and metric snapshots there as JSONL",
    )


def make_log(args: argparse.Namespace) -> SyntheticClickLog:
    schema = dataset_by_name(args.dataset, args.scale)
    return SyntheticClickLog(schema, SyntheticConfig(num_samples=args.samples, seed=args.seed))


def fae_config(args: argparse.Namespace) -> FAEConfig:
    return FAEConfig(
        gpu_memory_budget=args.budget_bytes,
        large_table_min_bytes=args.large_table_min_bytes,
        chunk_size=64,
        seed=args.seed,
    )


def tracing(args: argparse.Namespace) -> obs.tracing:
    """Tracing on for the run when ``--trace`` (or ``REPRO_TRACE``) asks for it."""
    return obs.tracing(enabled=args.trace is not None or obs.tracing_enabled())


def report_trace(args: argparse.Namespace) -> None:
    """Print the span tree after a ``--trace`` run; write the JSONL dump to its PATH."""
    if args.trace is None:
        return
    print()
    print(obs.summary_tree())
    if args.trace:
        print(f"\nwrote {obs.export_jsonl(args.trace)}")


def add_validate_args(parser: argparse.ArgumentParser | argparse._ArgumentGroup) -> None:
    parser.add_argument(
        "--validate",
        metavar="POLICY",
        help=(
            "validate ingest records: 'raise', 'clamp', 'quarantine', or "
            "per-field like 'sparse=quarantine,dense=clamp'"
        ),
    )
    parser.add_argument(
        "--quarantine-dir",
        help=(
            "write quarantined records to DIR/quarantine.jsonl (required by "
            "any 'quarantine' policy; implies --validate quarantine)"
        ),
    )


def ingest_policy(args) -> tuple[IngestPolicy | None, QuarantineLedger | None]:
    """Resolve --validate/--quarantine-dir into a policy + ledger pair.

    Raises:
        ValueError: when a quarantine policy has nowhere to write.
    """
    spec = args.validate
    if spec is None and args.quarantine_dir:
        spec = "quarantine"
    if spec is None:
        return None, None
    policy = IngestPolicy.parse(spec)
    ledger = QuarantineLedger(args.quarantine_dir) if args.quarantine_dir else None
    if policy.quarantines and ledger is None:
        raise ValueError("a 'quarantine' policy requires --quarantine-dir")
    return policy, ledger
