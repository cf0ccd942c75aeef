"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``        — describe a workload's dataset geometry at any scale.
- ``preprocess``  — generate a synthetic log, run the static FAE pipeline,
                    and persist the packed dataset in the FAE format.
- ``train``       — train baseline or FAE on a synthetic log and report
                    accuracy/AUC.
- ``simulate``    — price baseline/FAE/NvOPT epochs on the paper's server.
- ``certify``     — crash-anywhere certification: SIGKILL a real training
                    process at every cache-refresh phase and checkpoint
                    boundary, resume from the newest good checkpoint, and
                    byte-compare the final state against an uninterrupted
                    run (exit 5 on any divergence).
- ``checkpoint``  — ``ls``/``verify`` a checkpoint directory: step, schema
                    version, size, and integrity per archive; exits
                    nonzero when any checkpoint is corrupt.
- ``trace run``   — run the pipeline with tracing on and print the span
                    summary tree (optionally dumping JSONL).
- ``trace analyze`` — profile an exported trace JSONL: per-span self
                    time, hotspot table, critical path (text and JSON).
- ``serve-bench`` — Zipf traffic-replay SLO harness over the serving
                    tier: seeded bursty open-loop load through a
                    ServingCluster of ``--replicas N`` engines (default
                    1), P50/P95/P99 request + service latency and
                    rejected/shed rates, byte-deterministic per seed.
                    ``--faults``/``--hedge-after``/``--reload-at`` add
                    seeded replica kill/slow/flap faults, hedged
                    requests, and a zero-downtime generation reload.
- ``drift``       — run the popularity-shift scenario: a seeded day
                    stream whose Zipf head rotates mid-run, trained by
                    two arms under one simulated budget (frozen hot set
                    vs online hot cache).  Prints per-day hit rates,
                    drift flags, and turnover, plus post-shift hit /
                    accuracy / loss margins; ``--out`` writes the
                    byte-deterministic JSON report.

``preprocess`` and ``train`` also accept ``--trace`` to print the same
summary tree after the run, and both report a resource summary (peak
RSS, CPU) from the background sampler.  ``train --mode fae`` additionally supports
fault-tolerant operation: ``--checkpoint-dir``/``--checkpoint-every``/
``--resume`` for atomic checkpoint/resume, ``--faults SPEC`` for seeded
chaos injection, and ``--gpus N`` to run the distributed FAE trainer
(whose world shrinks on an injected rank death).  ``--cache-budget
BYTES`` arms the online embedding hot cache; its durable state
(membership, exact counters, sketches, pending windows) rides along in
checkpoints, cache turnover is journaled (``refresh.journal``), and a
crash anywhere — even mid-refresh — resumes byte-exactly.
``--final-state PATH`` writes the deterministic fingerprint ``certify``
compares.

Elastic training: ``train --gpus K --rejoin`` re-admits a dead rank at
the next segment boundary instead of finishing on a shrunken world.
``--events-jsonl PATH`` writes the schema-versioned event log of rank
deaths and rejoins, even when the run fails.

Data-integrity guardrails: ``train --mode fae --guards [SPEC]`` arms the
NaN/loss-spike numeric guard (rollback to the last good checkpoint with
learning-rate backoff); ``--validate POLICY`` on ``train`` and
``preprocess`` runs ingest validation (``raise`` | ``clamp`` |
``quarantine``, or per-field like ``sparse=quarantine,dense=clamp``)
with quarantined records written to ``--quarantine-dir``'s JSONL ledger.

Top-level failures exit nonzero with a one-line error; pass
``--traceback`` (before the subcommand) to re-raise with the full stack.
A :class:`~repro.resilience.guards.GuardAbort` additionally prints which
guard gave up and where the ledger / last good checkpoints live.

Every command is pure-library orchestration; all heavy lifting lives in
the packages this module imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import obs
from repro.core import FAEConfig, fae_preprocess, fae_preprocess_source
from repro.data import SyntheticClickLog, SyntheticConfig, dataset_by_name, train_test_split
from repro.hw import Cluster, PowerModel, TrainingSimulator, characterize
from repro.dist import DistributedFAETrainer
from repro.models import build_model, workload_by_name, workload_for_dataset
from repro.resilience import (
    CheckpointManager,
    FaultPlan,
    GuardAbort,
    IngestPolicy,
    NumericGuard,
    NumericGuardConfig,
    QuarantineLedger,
    SupervisorEventLog,
    latest_checkpoint,
)
from repro.train import BaselineTrainer, FAETrainer, roc_auc
from repro.train.metrics import evaluate_model

__all__ = ["main", "build_parser"]

_DATASET_CHOICES = ("criteo-kaggle", "criteo-terabyte", "taobao")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FAE: accelerate recommendation training via hot embeddings",
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="re-raise errors with the full stack trace instead of a one-line message",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a dataset's geometry")
    info.add_argument("dataset", choices=_DATASET_CHOICES)
    info.add_argument("--scale", default="paper", help="paper|medium|small|tiny or a float")

    prep = sub.add_parser("preprocess", help="run the static FAE pipeline")
    _add_data_args(prep)
    prep.add_argument("--batch-size", type=int, default=256)
    prep.add_argument(
        "--out",
        default=None,
        help="write the packed dataset here (.npz file, or a directory with --shard-size)",
    )
    prep.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="stream the log through the pipeline in chunks of this many samples "
        "(bounds preprocess memory; default processes the log in one chunk)",
    )
    prep.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="write --out as a sharded directory with this many batches per shard",
    )
    prep.add_argument(
        "--stream",
        action="store_true",
        help="generate the synthetic log lazily chunk-by-chunk instead of "
        "materializing it (constant memory in --samples; implies --chunk-size)",
    )
    prep.add_argument(
        "--trace", action="store_true", help="record spans and print the summary tree"
    )
    _add_validate_args(prep)

    train = sub.add_parser("train", help="train on a synthetic log")
    _add_data_args(train)
    train.add_argument("--mode", choices=("baseline", "fae", "both"), default="both")
    train.add_argument("--epochs", type=int, default=2)
    train.add_argument("--batch-size", type=int, default=256)
    train.add_argument("--lr", type=float, default=0.15)
    train.add_argument(
        "--trace", action="store_true", help="record spans and print the summary tree"
    )
    train.add_argument(
        "--gpus",
        type=int,
        default=1,
        help="simulated GPU count; >1 runs the distributed FAE trainer (--mode fae)",
    )
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="save atomic checkpoints here at segment boundaries (--mode fae)",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="checkpoint every N completed segments",
    )
    train.add_argument(
        "--checkpoint-keep", type=int, default=3, help="retain the newest N checkpoints"
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest good checkpoint in --checkpoint-dir",
    )
    train.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject seeded faults, e.g. "
            "'seed=7,collective=0.05,death=1@40,evict=80,loader=0.02,"
            "ingest=0.01,bad_batch=0.02,bad_grad=30,bad_row=5,corrupt=bitflip'"
        ),
    )
    train.add_argument(
        "--guards",
        nargs="?",
        const="default",
        default=None,
        metavar="SPEC",
        help=(
            "arm the numeric guard (--mode fae): NaN/Inf batch & gradient "
            "screening plus EMA loss-spike rollback; optional SPEC like "
            "'spike=4.0,ema=0.9,warmup=8,rollbacks=2,backoff=0.5,skips=16'"
        ),
    )
    train.add_argument(
        "--rejoin",
        action="store_true",
        help=(
            "re-admit a permanently failed rank at the next segment boundary "
            "(state resynced from the CPU masters; requires --gpus > 1)"
        ),
    )
    train.add_argument(
        "--cache-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "run with the online embedding hot cache under this GPU byte "
            "budget (--mode fae); cache state rides along in checkpoints"
        ),
    )
    train.add_argument(
        "--cache-every",
        type=int,
        default=512,
        metavar="INPUTS",
        help="observed inputs between cache rebalances (with --cache-budget)",
    )
    train.add_argument(
        "--final-state",
        default=None,
        metavar="PATH",
        help=(
            "write the deterministic final-state fingerprint (param/table "
            "digests, result, cache state) here — crash-recovery runs are "
            "certified by byte-comparing these files"
        ),
    )
    train.add_argument(
        "--events-jsonl",
        default=None,
        metavar="PATH",
        help="write the schema-versioned event log of rank deaths and rejoins here",
    )
    _add_validate_args(train)

    trace = sub.add_parser(
        "trace", help="run the pipeline under tracing, or analyze an exported trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_cmd", required=True)
    trace_run = trace_sub.add_parser(
        "run", help="run preprocess + train with tracing on; print the span tree"
    )
    trace_run.add_argument(
        "dataset", nargs="?", default="criteo-kaggle", choices=_DATASET_CHOICES
    )
    trace_run.add_argument("--scale", default="small")
    trace_run.add_argument("--rows", type=int, default=4096, help="synthetic log size")
    trace_run.add_argument("--seed", type=int, default=0)
    trace_run.add_argument("--budget-bytes", type=int, default=256 * 1024)
    trace_run.add_argument("--large-table-min-bytes", type=int, default=1024)
    trace_run.add_argument("--batch-size", type=int, default=128)
    trace_run.add_argument("--epochs", type=int, default=1)
    trace_run.add_argument("--lr", type=float, default=0.15)
    trace_run.add_argument(
        "--out", default=None, help="also dump spans + metric snapshots as JSONL here"
    )
    trace_analyze = trace_sub.add_parser(
        "analyze",
        help="profile a trace JSONL: self time, hotspots, critical path",
    )
    trace_analyze.add_argument("path", help="trace JSONL exported by 'trace run --out'")
    trace_analyze.add_argument(
        "--top", type=int, default=10, help="hotspot table depth"
    )
    trace_analyze.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the analysis as JSON ('-' prints to stdout instead of text)",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        help="Zipf traffic-replay SLO report over the serving cluster",
    )
    serve_bench.add_argument("--requests", type=int, default=512)
    serve_bench.add_argument("--candidates", type=int, default=512)
    serve_bench.add_argument("--top-k", type=int, default=10)
    serve_bench.add_argument("--seed", type=int, default=7)
    serve_bench.add_argument(
        "--dataset", choices=_DATASET_CHOICES, default="criteo-kaggle"
    )
    serve_bench.add_argument("--scale", default="tiny")
    serve_bench.add_argument(
        "--rate", type=float, default=200.0, help="steady arrival rate, req/s"
    )
    serve_bench.add_argument(
        "--burst-factor", type=float, default=4.0, help="arrival-rate multiplier in bursts"
    )
    serve_bench.add_argument(
        "--hot-exponent", type=float, default=1.05, help="candidate-key Zipf skew"
    )
    serve_bench.add_argument(
        "--deadline-ms",
        type=float,
        default=25.0,
        help="per-request ranking deadline; <= 0 disables",
    )
    serve_bench.add_argument("--replicas", type=int, default=1, help="replica pool size")
    serve_bench.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="cluster admission backlog bound (reject-with-retry-after beyond it)",
    )
    serve_bench.add_argument(
        "--hedge-after",
        type=float,
        default=0.0,
        metavar="MS",
        help="hedge requests slower than this budget on a second replica; <= 0 disables",
    )
    serve_bench.add_argument(
        "--reload-at",
        type=int,
        default=None,
        metavar="REQUEST",
        help="begin a zero-downtime generation reload at this request index",
    )
    serve_bench.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="replica fault plan, e.g. 'kill_replica=1@120,slow_replica=0@40:160'",
    )
    serve_bench.add_argument(
        "--out-dir", default="benchmarks/out", help="bench artifact directory"
    )
    serve_bench.add_argument(
        "--out", default=None, help="report JSON path (default OUT_DIR/slo_report.json)"
    )

    drift = sub.add_parser(
        "drift",
        help="run the popularity-shift scenario: online hot cache vs frozen hot set",
    )
    drift.add_argument("dataset", choices=_DATASET_CHOICES, nargs="?", default="criteo-kaggle")
    drift.add_argument("--scale", default="tiny", help="paper|medium|small|tiny or a float")
    drift.add_argument("--samples-per-day", type=int, default=1500)
    drift.add_argument("--days", type=int, default=6, help="total days (day 0 calibrates)")
    drift.add_argument(
        "--shift-day", type=int, default=2, help="first day drawn from the rotated Zipf head"
    )
    drift.add_argument("--seed", type=int, default=12)
    drift.add_argument(
        "--budget-bytes", type=int, default=32 * 1024, help="GPU byte budget for hot rows"
    )
    drift.add_argument("--batch-size", type=int, default=64)
    drift.add_argument(
        "--out", default=None, help="write the full JSON report here (deterministic bytes)"
    )

    sim = sub.add_parser("simulate", help="price training on the paper's server")
    sim.add_argument("workload", choices=("RMC1", "RMC2", "RMC3"))
    sim.add_argument("--gpus", type=int, default=4)
    sim.add_argument("--epochs", type=int, default=10)
    sim.add_argument("--budget-mb", type=int, default=256)
    sim.add_argument(
        "--auto-budget",
        action="store_true",
        help="derive the hot-embedding budget from GPU memory instead of --budget-mb",
    )

    certify = sub.add_parser(
        "certify",
        help=(
            "crash-anywhere certification: SIGKILL a real training run at "
            "every refresh phase and checkpoint boundary, resume, and "
            "byte-compare the final state against an uninterrupted run"
        ),
    )
    certify.add_argument(
        "dataset", choices=_DATASET_CHOICES, nargs="?", default="criteo-kaggle"
    )
    certify.add_argument("--scale", default="tiny")
    certify.add_argument("--samples", type=int, default=2048)
    certify.add_argument("--seed", type=int, default=12)
    certify.add_argument("--epochs", type=int, default=1)
    certify.add_argument("--batch-size", type=int, default=64)
    certify.add_argument("--lr", type=float, default=0.15)
    certify.add_argument("--budget-bytes", type=int, default=32 * 1024)
    certify.add_argument("--cache-budget", type=int, default=32 * 1024)
    certify.add_argument("--cache-every", type=int, default=256)
    certify.add_argument("--checkpoint-every", type=int, default=1)
    certify.add_argument(
        "--refresh-index", type=int, default=0, help="which cache turnover to kill"
    )
    certify.add_argument(
        "--phases",
        default=None,
        help="comma-separated refresh phases to kill at (default: all)",
    )
    certify.add_argument(
        "--checkpoints",
        default="0",
        help="comma-separated checkpoint-save indices to kill after ('' skips)",
    )
    certify.add_argument(
        "--steps",
        default="",
        help="comma-separated iteration numbers for mid-segment kills ('' skips)",
    )
    certify.add_argument(
        "--gpus", type=int, default=1, help="> 1 certifies the distributed trainer"
    )
    certify.add_argument(
        "--timeout", type=float, default=600.0, help="per-subprocess bound, seconds"
    )
    certify.add_argument("--out-dir", default="benchmarks/out/certify")

    ckpt = sub.add_parser(
        "checkpoint", help="inspect training checkpoints: ls / verify"
    )
    ckpt_sub = ckpt.add_subparsers(dest="checkpoint_cmd", required=True)
    ckpt_ls = ckpt_sub.add_parser(
        "ls",
        help="list a directory's checkpoints with step, schema version, size, integrity",
    )
    ckpt_ls.add_argument("directory")
    ckpt_ls.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    ckpt_verify = ckpt_sub.add_parser(
        "verify",
        help="verify checkpoint integrity; exit nonzero on any corruption",
    )
    ckpt_verify.add_argument("path", help="a checkpoint file or a directory of them")

    report = sub.add_parser(
        "report", help="stitch benchmark artifacts into a markdown report"
    )
    report.add_argument("--artifacts", default="benchmarks/out")
    report.add_argument("--out", default="REPORT.md")

    return parser


def _add_validate_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--validate",
        default=None,
        metavar="POLICY",
        help=(
            "validate ingest records: 'raise', 'clamp', 'quarantine', or "
            "per-field like 'sparse=quarantine,dense=clamp'"
        ),
    )
    sub.add_argument(
        "--quarantine-dir",
        default=None,
        help=(
            "write quarantined records to DIR/quarantine.jsonl (required by "
            "any 'quarantine' policy; implies --validate quarantine)"
        ),
    )


def _ingest_policy(args) -> tuple[IngestPolicy | None, QuarantineLedger | None]:
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


def _add_data_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("dataset", choices=_DATASET_CHOICES)
    sub.add_argument("--scale", default="small")
    sub.add_argument("--samples", type=int, default=40_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget-bytes", type=int, default=256 * 1024)
    sub.add_argument("--large-table-min-bytes", type=int, default=1024)


def _make_log(args) -> SyntheticClickLog:
    schema = dataset_by_name(args.dataset, _parse_scale(args.scale))
    return SyntheticClickLog(
        schema, SyntheticConfig(num_samples=args.samples, seed=args.seed)
    )


def _parse_scale(scale: str):
    try:
        return float(scale)
    except ValueError:
        return scale


def _make_config(args) -> FAEConfig:
    return FAEConfig(
        gpu_memory_budget=args.budget_bytes,
        large_table_min_bytes=args.large_table_min_bytes,
        chunk_size=64,
        seed=args.seed,
    )


def cmd_info(args) -> int:
    schema = dataset_by_name(args.dataset, _parse_scale(args.scale))
    print(schema.describe())
    print(f"  lookups/sample: {schema.lookups_per_sample()}")
    for spec in sorted(schema.tables, key=lambda t: -t.num_rows)[:5]:
        print(
            f"  {spec.name}: {spec.num_rows:,} rows x {spec.dim} "
            f"({spec.size_bytes / 2**20:.1f} MiB, zipf s={spec.zipf_exponent})"
        )
    return 0


def cmd_preprocess(args) -> int:
    sampler = obs.ResourceSampler()
    try:
        with sampler, obs.tracing(enabled=args.trace or obs.tracing_enabled()):
            if args.stream:
                from repro.data import SyntheticClickStream
                from repro.data.chunk_source import StreamChunkSource

                schema = dataset_by_name(args.dataset, _parse_scale(args.scale))
                source = StreamChunkSource(
                    SyntheticClickStream(
                        schema,
                        total_samples=args.samples,
                        chunk_size=args.chunk_size or 8192,
                        seed=args.seed,
                    )
                )
            else:
                from repro.data import LogChunkSource

                source = LogChunkSource(_make_log(args), chunk_size=args.chunk_size)
            policy, ledger = _ingest_policy(args)
            if policy is not None:
                from repro.data import ValidatingChunkSource

                source = ValidatingChunkSource(source, policy, ledger)
            plan = fae_preprocess_source(source, _make_config(args), batch_size=args.batch_size)
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
            if args.trace:
                print()
                print(obs.summary_tree())
    finally:
        # Printed even when the run raises: the sampler context has
        # stopped its thread by now either way, and the peak-RSS line is
        # most interesting exactly when something blew up.
        print(sampler.format_summary())
    return 0


def cmd_train(args) -> int:
    resilience_flags = (
        args.checkpoint_dir
        or args.resume
        or args.faults
        or args.gpus > 1
        or args.guards is not None
        or args.validate
        or args.quarantine_dir
        or args.rejoin
        or args.events_jsonl
        or args.cache_budget is not None
        or args.final_state
    )
    if resilience_flags and args.mode != "fae":
        print(
            "error: --gpus/--checkpoint-dir/--resume/--faults/--guards/"
            "--validate/--quarantine-dir/--rejoin/--events-jsonl/"
            "--cache-budget/--final-state require --mode fae",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.gpus < 1:
        print("error: --gpus must be >= 1", file=sys.stderr)
        return 2
    if args.rejoin and args.gpus < 2:
        print("error: --rejoin requires --gpus > 1", file=sys.stderr)
        return 2

    event_log = SupervisorEventLog(args.events_jsonl) if args.events_jsonl else None
    sampler = obs.ResourceSampler()
    try:
        with sampler, obs.tracing(enabled=args.trace or obs.tracing_enabled()):
            log = _make_log(args)
            train, test = train_test_split(log, 0.15, seed=args.seed)
            spec = workload_for_dataset(args.dataset)

            def report(label: str, model) -> None:
                loss, accuracy = evaluate_model(model, test)
                import numpy as np

                from repro.data.loader import batch_from_log

                batch = batch_from_log(test, np.arange(min(len(test), 8192)))
                auc = roc_auc(model.forward(batch), batch.labels)
                print(f"{label}: test loss {loss:.4f}  accuracy {accuracy:.4f}  AUC {auc:.4f}")

            if args.mode in ("fae", "both"):
                fault_plan = FaultPlan.parse(args.faults) if args.faults else None
                guards = (
                    NumericGuard(NumericGuardConfig.parse(args.guards))
                    if args.guards is not None
                    else None
                )
                if fault_plan is not None:
                    injected = fault_plan.corrupt_ingest(train)
                    if injected:
                        print(f"chaos: poisoned {len(injected)} ingest row(s)")
                policy, ledger = _ingest_policy(args)
                if policy is not None:
                    from repro.data import validated_log

                    before = len(train)
                    train = validated_log(train, policy, ledger)
                    repaired = before - len(train)
                    where = f" -> {ledger.path}" if ledger is not None else ""
                    print(
                        f"ingest: {before} records validated, "
                        f"{repaired} quarantined{where}"
                    )
                manager = (
                    CheckpointManager(
                        args.checkpoint_dir,
                        every=args.checkpoint_every,
                        keep=args.checkpoint_keep,
                    )
                    if args.checkpoint_dir
                    else None
                )
                resume_path = None
                if args.resume:
                    resume_path = latest_checkpoint(args.checkpoint_dir)
                    if resume_path is None:
                        print("no usable checkpoint found; starting fresh")
                    else:
                        print(f"resuming from {resume_path}")

                plan = fae_preprocess(train, _make_config(args), batch_size=args.batch_size)
                print(f"FAE plan: {plan.summary()}")
                cache = None
                if args.cache_budget is not None:
                    from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig

                    cache = EmbeddingHotCache(
                        plan.bags,
                        HotCacheConfig(
                            budget_bytes=args.cache_budget,
                            rebalance_every=args.cache_every,
                            seed=args.seed,
                        ),
                        profile=plan.calibration.profile,
                    )
                # One engine at every world size: --gpus 1 is a world of one.
                replicas = [
                    build_model(spec, schema=log.schema, seed=args.seed + 1)
                    for _ in range(args.gpus)
                ]
                trainer = DistributedFAETrainer(
                    replicas,
                    plan,
                    lr=args.lr,
                    fault_plan=fault_plan,
                    guards=guards,
                    rejoin=args.rejoin,
                    event_log=event_log,
                    cache=cache,
                )
                if ledger is not None:
                    trainer.guard_ledger_path = str(ledger.path)
                result = trainer.train(
                    train,
                    test,
                    epochs=args.epochs,
                    checkpoint=manager,
                    resume=resume_path,
                )
                model = replicas[0]
                print(f"FAE syncs: {result.sync_events}, rate trace: {result.schedule_rates}")
                if guards is not None:
                    print(
                        f"guards: rollbacks {result.rollbacks}, "
                        f"skipped batches {result.skipped_batches}, "
                        f"skipped steps {result.skipped_steps}"
                    )
                if fault_plan is not None:
                    registry = obs.get_registry()
                    print(
                        f"chaos: retries {int(registry.counter('resilience.retry.attempts').value)}, "
                        f"world shrinks {result.world_shrinks}, "
                        f"rejoins {result.rejoins}, "
                        f"degraded {result.degraded}, "
                        f"checkpoints {int(registry.counter('resilience.checkpoint.saves').value)}"
                    )
                if event_log is not None:
                    # Written by the ``finally`` below, which also runs on failure.
                    print(f"wrote {event_log.path}")
                if cache is not None:
                    stats = cache.stats()
                    print(
                        f"cache: hit rate {stats['hit_rate']:.3f}, "
                        f"rebalances {stats['rebalances']}, "
                        f"+{stats['promotions']}/-{stats['demotions']} rows"
                    )
                if args.final_state:
                    from repro.resilience.certify import write_final_state

                    destination = write_final_state(
                        args.final_state, model, result, cache
                    )
                    print(f"wrote {destination}")
                report("FAE", model)
            if args.mode in ("baseline", "both"):
                model = build_model(spec, schema=log.schema, seed=args.seed + 1)
                BaselineTrainer(model, lr=args.lr).train(
                    train, test, epochs=args.epochs, batch_size=args.batch_size
                )
                report("baseline", model)
            if args.trace:
                print()
                print(obs.summary_tree())
    finally:
        # Both run even when training raises (GuardAbort, chaos overrun):
        # the rank deaths before a failure are the events most worth
        # keeping, and the context manager has already stopped the
        # sampler thread.
        if event_log is not None:
            event_log.flush()
        print(sampler.format_summary())
    return 0


def cmd_trace(args) -> int:
    """Dispatch ``trace run`` / ``trace analyze``."""
    if args.trace_cmd == "analyze":
        return cmd_trace_analyze(args)
    return cmd_trace_run(args)


def cmd_trace_analyze(args) -> int:
    """Profile an exported trace JSONL: self time, hotspots, critical path."""
    analysis = obs.analyze_file(args.path)
    if args.json == "-":
        print(json.dumps(analysis.to_dict(top=args.top), indent=2, sort_keys=True))
        return 0
    print(obs.render_analysis(analysis, top=args.top))
    if args.json:
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(
            Path(args.json),
            json.dumps(analysis.to_dict(top=args.top), indent=2, sort_keys=True) + "\n",
        )
        print(f"\nwrote {args.json}")
    return 0


def cmd_trace_run(args) -> int:
    """Run the full pipeline under tracing and print the span tree."""
    schema = dataset_by_name(args.dataset, _parse_scale(args.scale))
    log = SyntheticClickLog(
        schema, SyntheticConfig(num_samples=args.rows, seed=args.seed)
    )
    with obs.tracing(enabled=True) as tracer:
        tracer.reset()
        obs.get_registry().reset()
        train, test = train_test_split(log, 0.15, seed=args.seed)
        plan = fae_preprocess(train, _make_config(args), batch_size=args.batch_size)
        print(f"plan: {plan.summary()}")
        spec = workload_for_dataset(args.dataset)
        model = build_model(spec, schema=log.schema, seed=args.seed + 1)
        result = FAETrainer(model, plan, lr=args.lr).train(
            train, test, epochs=args.epochs
        )
        print(
            f"trained {args.epochs} epoch(s): test accuracy "
            f"{result.final_test_accuracy:.4f}, syncs {result.sync_events} "
            f"({result.sync_bytes / 1024:.0f} KiB)"
        )
        print()
        print(obs.summary_tree())
        if args.out:
            path = obs.export_jsonl(args.out)
            print(f"\nwrote {path}")
    return 0


def cmd_simulate(args) -> int:
    spec = workload_by_name(args.workload)
    budget = args.budget_mb * 2**20
    if args.auto_budget:
        from repro.core import plan_memory_budget

        sizing = characterize(spec, gpu_memory_budget=budget)
        plan = plan_memory_budget(sizing, per_gpu_batch=spec.base_batch_size)
        budget = plan.recommended_budget
        print(
            f"auto budget: {budget / 2**20:.0f} MiB of hot embeddings "
            f"(model {plan.model_bytes / 2**20:.0f} MiB, activations "
            f"{plan.activation_bytes / 2**20:.0f} MiB, HBM utilization "
            f"{100 * plan.utilization():.0f}%)"
        )
    workload = characterize(spec, gpu_memory_budget=budget)
    cluster = Cluster(num_gpus=args.gpus)
    sim = TrainingSimulator(cluster, workload)
    pm = PowerModel()
    print(
        f"{args.workload} on {args.gpus}x V100 "
        f"(hot inputs {100 * workload.hot_fraction:.1f}%, "
        f"hot bag {workload.hot_bytes / 2**20:.0f} MiB):"
    )
    for mode in ("baseline", "fae", "nvopt"):
        timeline = sim.epoch(mode)
        print(
            f"  {mode:9}: {args.epochs * timeline.minutes:8.1f} min/{args.epochs} epochs, "
            f"comm {args.epochs * timeline.communication_seconds() / 60:6.1f} min, "
            f"{pm.average_watts(timeline):5.1f} W/GPU"
        )
    print(f"  FAE speedup over baseline: {sim.speedup():.2f}x")
    return 0


def cmd_certify(args) -> int:
    """Run the crash-anywhere certification campaign.

    Exit codes: 0 when every kill point resumed to a byte-identical
    final state, 5 on any mismatch / unfired kill point / failed resume.
    """
    from repro.resilience.certify import (
        CertifyConfig,
        format_certification,
        run_certification,
    )
    from repro.resilience.faults import REFRESH_PHASES

    def _csv_ints(spec: str) -> tuple[int, ...]:
        return tuple(int(part) for part in spec.split(",") if part.strip())

    config = CertifyConfig(
        dataset=args.dataset,
        scale=args.scale,
        samples=args.samples,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        budget_bytes=args.budget_bytes,
        cache_budget=args.cache_budget,
        cache_every=args.cache_every,
        checkpoint_every=args.checkpoint_every,
        refresh_index=args.refresh_index,
        phases=(
            tuple(part.strip() for part in args.phases.split(",") if part.strip())
            if args.phases
            else REFRESH_PHASES
        ),
        checkpoints=_csv_ints(args.checkpoints),
        steps=_csv_ints(args.steps),
        gpus=args.gpus,
        timeout=args.timeout,
    )
    report = run_certification(config, args.out_dir)
    print()
    print(format_certification(report))
    print(f"wrote {Path(args.out_dir) / 'certify_report.json'}")
    return 0 if report["passed"] else 5


def cmd_checkpoint(args) -> int:
    """``checkpoint ls`` / ``checkpoint verify``.

    Both walk ``ckpt-*.npz`` archives, verify their checksums, and exit
    nonzero when any is corrupt — scriptable health checks over a
    checkpoint directory.
    """
    from repro.resilience import read_checkpoint_meta
    from repro.resilience.checkpoint import CheckpointError, checkpoint_paths

    target = Path(args.directory if args.checkpoint_cmd == "ls" else args.path)
    if target.is_dir():
        paths = checkpoint_paths(target)
    elif target.exists():
        paths = [target]
    else:
        print(f"error: {target} does not exist", file=sys.stderr)
        return 2

    rows = []
    corrupt = 0
    for path in paths:
        try:
            meta = read_checkpoint_meta(path)
            rows.append(
                {
                    "file": path.name,
                    "step": meta.get("step"),
                    "epoch": meta.get("epoch"),
                    "schema_version": meta.get("version"),
                    "size_bytes": meta.get("size_bytes"),
                    "status": "ok",
                }
            )
        except (CheckpointError, OSError, ValueError) as exc:
            corrupt += 1
            rows.append(
                {
                    "file": path.name,
                    "step": None,
                    "epoch": None,
                    "schema_version": None,
                    "size_bytes": path.stat().st_size if path.exists() else None,
                    "status": f"corrupt: {exc}",
                }
            )

    if args.checkpoint_cmd == "ls" and args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        if not rows:
            print(f"no checkpoints under {target}")
        else:
            print(f"{'file':<22} {'step':>8} {'epoch':>5} {'schema':>6} {'bytes':>10}  status")
            for row in rows:
                step = "-" if row["step"] is None else row["step"]
                epoch = "-" if row["epoch"] is None else row["epoch"]
                schema = "-" if row["schema_version"] is None else row["schema_version"]
                size = "-" if row["size_bytes"] is None else row["size_bytes"]
                print(
                    f"{row['file']:<22} {step:>8} {epoch:>5} {schema:>6} "
                    f"{size:>10}  {row['status']}"
                )
    if corrupt:
        print(f"error: {corrupt} corrupt checkpoint(s)", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from repro.analysis import write_report

    destination = write_report(args.artifacts, args.out)
    print(f"wrote {destination}")
    return 0


def cmd_serve_bench(args) -> int:
    """Seeded Zipf traffic replay; print + persist the SLO report."""
    from repro.resilience.atomic import atomic_write_text
    from repro.serve import ReplayConfig, format_slo_report, run_slo_replay

    config = ReplayConfig(
        requests=args.requests,
        candidates=args.candidates,
        top_k=args.top_k,
        seed=args.seed,
        dataset=args.dataset,
        scale=args.scale,
        base_rate=args.rate,
        burst_factor=args.burst_factor,
        hot_exponent=args.hot_exponent,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms > 0 else None,
        replicas=args.replicas,
        queue_capacity=args.queue_capacity,
        hedge_after_s=args.hedge_after / 1e3 if args.hedge_after > 0 else None,
        reload_at=args.reload_at,
        faults=args.faults,
    )
    report = run_slo_replay(config)
    print(format_slo_report(report))
    out = Path(args.out) if args.out else Path(args.out_dir) / "slo_report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_drift(args) -> int:
    """Run the popularity-shift scenario and summarize cache vs static.

    Prints a per-day table (hit rates, batches trained, drift flags,
    turnover) plus the post-shift margins and the refresh traffic the
    cache shipped.  ``--out`` writes the full report as sorted-key JSON
    whose bytes are a pure function of the flags — two same-seed runs
    compare equal with ``cmp``.
    """
    from repro.resilience.atomic import atomic_write_text
    from repro.train.popshift import PopShiftConfig, run_popularity_shift

    config = PopShiftConfig(
        dataset=args.dataset,
        scale=args.scale,
        samples_per_day=args.samples_per_day,
        num_days=args.days,
        shift_day=args.shift_day,
        seed=args.seed,
        batch_size=args.batch_size,
        budget_bytes=args.budget_bytes,
    )
    report = run_popularity_shift(config)

    cal = report["calibration"]
    print(
        f"popularity shift: {args.dataset}/{args.scale} seed={args.seed} "
        f"days={args.days} shift_day={args.shift_day}"
    )
    print(
        f"calibration: threshold={cal['threshold']} "
        f"hot_input_fraction={cal['hot_input_fraction']:.3f} "
        f"hot_bytes={cal['hot_bytes']}"
    )
    print()
    header = (
        f"{'day':>3}  {'head':<7} {'static hit':>10} {'cached hit':>10} "
        f"{'online':>7} {'b.stat':>6} {'b.cach':>6} {'drift':>5}  turnover"
    )
    print(header)
    for entry in report["days"]:
        turnover = entry["turnover"]
        turn = (
            f"+{turnover['promoted']}/-{turnover['demoted']}" if turnover else "-"
        )
        print(
            f"{entry['day']:>3}  {'rotated' if entry['rotated'] else 'base':<7} "
            f"{entry['static']['hit_rate']:>10.3f} "
            f"{entry['cached']['hit_rate']:>10.3f} "
            f"{entry['cached']['online_hit_rate']:>7.3f} "
            f"{entry['static']['batches']:>6} "
            f"{entry['cached']['batches']:>6} "
            f"{'yes' if entry['drift']['drifted'] else 'no':>5}  {turn}"
        )
    post = report["post_shift"]
    print()
    print(
        f"post-shift ({post['days']} days, {post['test_samples']} test samples):"
    )
    print(
        f"  hot-access hit rate  static={post['static_hit_rate']:.3f} "
        f"cached={post['cached_hit_rate']:.3f} margin={post['hit_margin']:+.3f}"
    )
    print(
        f"  accuracy             static={post['static_accuracy']:.4f} "
        f"cached={post['cached_accuracy']:.4f} margin={post['accuracy_margin']:+.4f}"
    )
    print(
        f"  test loss            static={post['static_loss']:.4f} "
        f"cached={post['cached_loss']:.4f} margin={post['loss_margin']:+.4f}"
    )
    added = sum(entry["added"] for entry in report["recalibration"].values())
    removed = sum(entry["removed"] for entry in report["recalibration"].values())
    added_bytes = sum(
        entry["added_bytes"] for entry in report["recalibration"].values()
    )
    counters = report["counters"]
    print(
        f"  refresh traffic      +{added}/-{removed} rows "
        f"({added_bytes} bytes) vs frozen calibration"
    )
    print(
        f"  cache counters       promotions={counters['hotcache.promotions']} "
        f"demotions={counters['hotcache.demotions']} "
        f"rebalances={counters['hotcache.rebalances']} "
        f"repacks={counters['hotcache.repack.events']}"
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Failures exit nonzero with a one-line error on stderr; pass
    ``--traceback`` to re-raise with the full stack instead.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "preprocess": cmd_preprocess,
        "train": cmd_train,
        "simulate": cmd_simulate,
        "report": cmd_report,
        "trace": cmd_trace,
        "serve-bench": cmd_serve_bench,
        "drift": cmd_drift,
        "certify": cmd_certify,
        "checkpoint": cmd_checkpoint,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except GuardAbort as exc:
        if args.traceback:
            raise
        print(f"error: GuardAbort[{exc.guard}]: {exc}", file=sys.stderr)
        for hint in exc.hints():
            print(f"  {hint}", file=sys.stderr)
        if exc.guard == "numeric":
            print(
                "  hint: raise the rollback budget (--guards rollbacks=N), "
                "lower --lr, or inspect the quarantine ledger for dirty input",
                file=sys.stderr,
            )
        elif exc.guard == "ingest":
            print(
                "  hint: relax the policy (--validate clamp) or fix the "
                "records listed in the ledger",
                file=sys.stderr,
            )
        return 3
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe: normal for
        # paged output, not an error.  Detach stdout so the interpreter
        # shutdown doesn't print its own BrokenPipeError warning.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception as exc:
        if args.traceback:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
