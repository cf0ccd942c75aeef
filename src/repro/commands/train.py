"""Train baseline and/or FAE on a synthetic log; report accuracy and AUC.

``--mode fae`` trains on the FAE plan with the distributed trainer
(``--gpus 1`` is a world of one) and unlocks the "--mode fae only"
options: atomic checkpoints and resume, seeded chaos (``--faults``; a
dead rank shrinks the world unless ``--rejoin`` re-admits it, and
``--events-jsonl`` logs both even when the run fails), the NaN/loss-spike
guard with rollback (``--guards``), ingest validation with a quarantine
ledger (``--validate``), the online hot cache, whose state rides along in
checkpoints so a crash even mid-refresh resumes byte-exactly
(``--cache-budget``), and the fingerprint ``certify`` compares
(``--final-state``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

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
from repro.core import fae_preprocess
from repro.data import train_test_split
from repro.data.loader import batch_from_log
from repro.dist import DistributedFAETrainer
from repro.models import build_model, workload_for_dataset
from repro.resilience import (
    CheckpointManager,
    FaultPlan,
    NumericGuard,
    NumericGuardConfig,
    SupervisorEventLog,
    latest_checkpoint,
)
from repro.train import BaselineTrainer, roc_auc
from repro.train.metrics import evaluate_model


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_data_args(parser)
    parser.add_argument("--mode", choices=("baseline", "fae", "both"), default="both")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--lr", type=float, default=0.15)
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, help="checkpoint every N segments"
    )
    parser.add_argument("--checkpoint-keep", type=int, default=3, help="keep N newest checkpoints")
    parser.add_argument(
        "--cache-every",
        type=int,
        default=512,
        metavar="INPUTS",
        help="observed inputs between cache rebalances (with --cache-budget)",
    )
    fae_only = parser.add_argument_group("--mode fae only")
    fae_only.add_argument("--gpus", type=int, default=1, help="simulated GPUs (replicas)")
    fae_only.add_argument("--checkpoint-dir", help="save atomic checkpoints here")
    fae_only.add_argument(
        "--resume", action="store_true", help="resume from the newest good checkpoint"
    )
    fae_only.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "inject seeded faults, e.g. "
            "'seed=7,collective=0.05,death=1@40,evict=80,loader=0.02,"
            "ingest=0.01,bad_batch=0.02,bad_grad=30,bad_row=5,corrupt=bitflip'"
        ),
    )
    fae_only.add_argument(
        "--guards",
        nargs="?",
        const="default",
        metavar="SPEC",
        help=(
            "screen NaN/Inf batches and gradients and roll back loss spikes; "
            "optional SPEC like 'spike=4.0,ema=0.9,warmup=8,rollbacks=2,backoff=0.5,skips=16'"
        ),
    )
    fae_only.add_argument(
        "--rejoin", action="store_true", help="re-admit a failed rank at the next segment"
    )
    fae_only.add_argument(
        "--cache-budget", type=int, metavar="BYTES", help="run the online hot cache in BYTES"
    )
    fae_only.add_argument(
        "--final-state", metavar="PATH", help="write the deterministic final-state fingerprint"
    )
    fae_only.add_argument(
        "--events-jsonl", metavar="PATH", help="write the rank death/rejoin event log here"
    )
    add_validate_args(fae_only)
    parser.set_defaults(
        fae_only={
            action.option_strings[0]: (action.dest, action.default)
            for action in fae_only._group_actions
        }
    )


def _usage_error(args: argparse.Namespace) -> str | None:
    given = [
        flag for flag, (dest, default) in args.fae_only.items() if getattr(args, dest) != default
    ]
    if given and args.mode != "fae":
        return f"{'/'.join(given)} require --mode fae"
    if args.resume and not args.checkpoint_dir:
        return "--resume requires --checkpoint-dir"
    if args.gpus < 1:
        return "--gpus must be >= 1"
    if args.rejoin and args.gpus < 2:
        return "--rejoin requires --gpus > 1"
    return None


def run(args: argparse.Namespace) -> int:
    error = _usage_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    event_log = SupervisorEventLog(args.events_jsonl) if args.events_jsonl else None
    sampler = obs.ResourceSampler()
    try:
        with sampler, tracing(args):
            log = make_log(args)
            train, test = train_test_split(log, 0.15, seed=args.seed)
            spec = workload_for_dataset(args.dataset)

            def report(label: str, model) -> None:
                loss, accuracy = evaluate_model(model, test)
                batch = batch_from_log(test, np.arange(min(len(test), 8192)))
                auc = roc_auc(model.forward(batch), batch.labels)
                print(f"{label}: test loss {loss:.4f}  accuracy {accuracy:.4f}  AUC {auc:.4f}")

            if args.mode in ("fae", "both"):
                report("FAE", _train_fae(args, log, train, test, spec, event_log))
            if args.mode in ("baseline", "both"):
                model = build_model(spec, schema=log.schema, seed=args.seed + 1)
                BaselineTrainer(model, lr=args.lr).train(
                    train, test, epochs=args.epochs, batch_size=args.batch_size
                )
                report("baseline", model)
            report_trace(args)
    finally:
        # Both run even when training raises (GuardAbort, chaos overrun):
        # the rank deaths before a failure are the events most worth
        # keeping, and the context manager has already stopped the
        # sampler thread.
        if event_log is not None:
            event_log.flush()
        print(sampler.format_summary())
    return 0


def _train_fae(args, log, train, test, spec, event_log):
    """Train the FAE replicas with every ``--mode fae only`` option; return replica 0."""
    fault_plan = FaultPlan.parse(args.faults) if args.faults else None
    guards = None
    if args.guards is not None:
        guards = NumericGuard(NumericGuardConfig.parse(args.guards))
    if fault_plan is not None:
        injected = fault_plan.corrupt_ingest(train)
        if injected:
            print(f"chaos: poisoned {len(injected)} ingest row(s)")
    policy, ledger = ingest_policy(args)
    if policy is not None:
        from repro.data import validated_log

        before = len(train)
        train = validated_log(train, policy, ledger)
        repaired = before - len(train)
        where = f" -> {ledger.path}" if ledger is not None else ""
        print(f"ingest: {before} records validated, {repaired} quarantined{where}")
    manager = (
        CheckpointManager(
            args.checkpoint_dir, every=args.checkpoint_every, keep=args.checkpoint_keep
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

    plan = fae_preprocess(train, fae_config(args), batch_size=args.batch_size)
    print(f"FAE plan: {plan.summary()}")
    cache = None
    if args.cache_budget is not None:
        from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig

        cache = EmbeddingHotCache(
            plan.bags,
            HotCacheConfig(
                budget_bytes=args.cache_budget, rebalance_every=args.cache_every, seed=args.seed
            ),
            profile=plan.calibration.profile,
        )
    # One engine at every world size: --gpus 1 is a world of one.
    replicas = [build_model(spec, schema=log.schema, seed=args.seed + 1) for _ in range(args.gpus)]
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
        train, test, epochs=args.epochs, checkpoint=manager, resume=resume_path
    )
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
        # Written by run()'s ``finally``, which also runs on failure.
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

        print(f"wrote {write_final_state(args.final_state, replicas[0], result, cache)}")
    return replicas[0]
