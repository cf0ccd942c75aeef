"""Run the popularity-shift scenario: online hot cache vs frozen hot set.

Streams a seeded day log whose Zipf head rotates mid-run and trains two
arms under one simulated budget, a frozen hot set and the online hot
cache.  Prints per-day hit rates, drift flags and turnover, then the
post-shift hit, accuracy and loss margins and the refresh traffic the
cache shipped.  ``--out`` writes the full report as sorted-key JSON whose
bytes are a function of the flags: two same-seed runs compare equal with
``cmp``.  An absent flag takes its
:class:`~repro.train.popshift.PopShiftConfig` default.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.commands.common import DATASETS, config_from, config_options
from repro.resilience.atomic import atomic_write_text
from repro.train.popshift import PopShiftConfig, run_popularity_shift


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=DATASETS, nargs="?", default=PopShiftConfig.dataset)
    config = config_options(parser, PopShiftConfig)
    config.add_argument("--scale", help="paper|medium|small|tiny or a number")
    config.add_argument("--samples-per-day", type=int)
    config.add_argument(
        "--days", dest="num_days", type=int, metavar="DAYS", help="total days (day 0 calibrates)"
    )
    config.add_argument("--shift-day", type=int, help="first day drawn from the rotated Zipf head")
    config.add_argument("--seed", type=int)
    config.add_argument("--budget-bytes", type=int, help="GPU byte budget for hot rows")
    config.add_argument("--batch-size", type=int)
    parser.add_argument(
        "--out", help="write the full JSON report here (deterministic bytes)"
    )


def run(args: argparse.Namespace) -> int:
    config = config_from(args, PopShiftConfig)
    report = run_popularity_shift(config)

    cal = report["calibration"]
    print(
        f"popularity shift: {config.dataset}/{config.scale} seed={config.seed} "
        f"days={config.num_days} shift_day={config.shift_day}"
    )
    print(
        f"calibration: threshold={cal['threshold']} "
        f"hot_input_fraction={cal['hot_input_fraction']:.3f} "
        f"hot_bytes={cal['hot_bytes']}"
    )
    print()
    print(
        f"{'day':>3}  {'head':<7} {'static hit':>10} {'cached hit':>10} "
        f"{'online':>7} {'b.stat':>6} {'b.cach':>6} {'drift':>5}  turnover"
    )
    for entry in report["days"]:
        turnover = entry["turnover"]
        turn = f"+{turnover['promoted']}/-{turnover['demoted']}" if turnover else "-"
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
    print(f"post-shift ({post['days']} days, {post['test_samples']} test samples):")
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
    recalibration = report["recalibration"].values()
    added = sum(entry["added"] for entry in recalibration)
    removed = sum(entry["removed"] for entry in recalibration)
    added_bytes = sum(entry["added_bytes"] for entry in recalibration)
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
