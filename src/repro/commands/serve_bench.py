"""Zipf traffic-replay SLO report over the serving cluster.

Replays seeded, bursty open-loop traffic through a ServingCluster of
``--replicas`` engines and reports P50/P95/P99 request and service
latency with rejected and shed rates; the report's bytes are a function
of the flags.  ``--faults`` adds seeded replica kill/slow/flap faults,
``--hedge-after`` hedged requests and ``--reload-at`` a zero-downtime
generation reload.  An absent flag takes its
:class:`~repro.serve.ReplayConfig` default.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.commands.common import DATASETS, config_from, config_options
from repro.resilience.atomic import atomic_write_text
from repro.serve import ReplayConfig, format_slo_report, run_slo_replay


def milliseconds(ms: str) -> float | None:
    """A millisecond budget in seconds; ``<= 0`` disables it (``None``)."""
    value = float(ms)
    return value / 1e3 if value > 0 else None


def add_arguments(parser: argparse.ArgumentParser) -> None:
    config = config_options(parser, ReplayConfig)
    config.add_argument("--requests", type=int)
    config.add_argument("--candidates", type=int)
    config.add_argument("--top-k", type=int)
    config.add_argument("--seed", type=int)
    config.add_argument("--dataset", choices=DATASETS)
    config.add_argument("--scale")
    config.add_argument(
        "--rate", dest="base_rate", type=float, metavar="RATE", help="steady arrival rate, req/s"
    )
    config.add_argument("--burst-factor", type=float, help="arrival-rate multiplier in bursts")
    config.add_argument("--hot-exponent", type=float, help="candidate-key Zipf skew")
    config.add_argument(
        "--deadline-ms",
        dest="deadline_s",
        type=milliseconds,
        metavar="MS",
        help="per-request ranking deadline; <= 0 disables",
    )
    config.add_argument("--replicas", type=int, help="replica pool size")
    config.add_argument(
        "--queue-capacity",
        type=int,
        help="cluster admission backlog bound (reject-with-retry-after beyond it)",
    )
    config.add_argument(
        "--hedge-after",
        dest="hedge_after_s",
        type=milliseconds,
        metavar="MS",
        help="hedge requests slower than this budget on a second replica; <= 0 disables",
    )
    config.add_argument(
        "--reload-at",
        type=int,
        metavar="REQUEST",
        help="begin a zero-downtime generation reload at this request index",
    )
    config.add_argument(
        "--faults",
        metavar="SPEC",
        help="replica fault plan, e.g. 'kill_replica=1@120,slow_replica=0@40:160'",
    )
    parser.add_argument("--out-dir", default="benchmarks/out", help="bench artifact directory")
    parser.add_argument(
        "--out", help="report JSON path (default OUT_DIR/slo_report.json)"
    )


def run(args: argparse.Namespace) -> int:
    report = run_slo_replay(config_from(args, ReplayConfig))
    print(format_slo_report(report))
    out = Path(args.out) if args.out else Path(args.out_dir) / "slo_report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0
