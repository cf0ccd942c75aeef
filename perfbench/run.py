#!/usr/bin/env python3
"""perfbench: end-to-end benchmark with per-layer attribution.

One workload, one process (what the driver in BENCHMARK.json runs):

    python3 perfbench/run.py --workload train-dlrm-steady --seed 7 --seconds 25 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) and,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` it runs the whole set, each workload in its own
subprocess, untraced and then traced, and writes ``perfbench/out/result.json``
with the numbers and where they came from.  ``--check-repeat`` runs the
untraced set twice and fails when two runs of the same code disagree by more
than a metric's own bound.  ``--smoke`` uses sizes a tenth as large.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one thread, so a run measures the code and not
# how many cores the box happened to have free.  The program's own tracer
# stays off unless a workload turns it on to measure it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ.pop("REPRO_TRACE", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-up is repeated this often, spread evenly over the measured passes so
# that one slow spell of the machine cannot cover every repeat; the repeats
# after the third stop once set-up has taken SETUP_BUDGET_SECONDS in total.
SETUP_REPEATS = 7
SETUP_BUDGET_SECONDS = 6.0


def load_contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# one workload, this process
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]
    from metrics import END_TO_END, PER_LAYER, UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = Path(args.work_dir) if args.work_dir else OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)
    try:
        workload_class = WORKLOADS[args.workload]
        preset = "smoke" if args.smoke else "full"
        workload = workload_class(args.seed, dict(workload_class.SIZES[preset]), work_dir)

        # Set up several times and report the fastest (a floor, like every
        # other timing here), so that work a later change moves out of the
        # measured path and into set-up still shows.  Set-up is deterministic:
        # a repeat between two passes replaces the inputs with equal ones.
        setup_seconds = []

        def set_up_again(time_used: float = 0.0) -> None:
            due = len(setup_seconds) <= time_used * (SETUP_REPEATS - 1)
            affordable = len(setup_seconds) < 3 or (
                sum(setup_seconds) + max(setup_seconds) <= SETUP_BUDGET_SECONDS
            )
            if due and affordable and len(setup_seconds) < SETUP_REPEATS:
                start = time.perf_counter()
                workload.setup()
                setup_seconds.append(time.perf_counter() - start)

        set_up_again()
        if args.trace:
            values, measurement = workload.trace(
                args.seconds, OUT_DIR / f"{args.workload}.trace.jsonl"
            )
            names = [name for name, _unit, _better in PER_LAYER]
        else:
            measurement = workload.measure(args.seconds, between=set_up_again)
            values = {
                "setup_s": min(setup_seconds),
                "work_per_s": measurement.work_per_s,
                "op_p50_ms": statistics.median(measurement.op_ms),
                "op_tail_ms": measurement.tail_ms,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            names = [name for name, *_rest in END_TO_END]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name in names:
        print(f"{name:<40} {values[name]:>16.6f} {UNITS[name]}")
    for problem in measurement.problems:
        print(f"FAILED CHECK: {problem}")
    print("# detail " + json.dumps({"setup_s": setup_seconds, **measurement.detail}, default=str))
    correct = not measurement.problems and measurement.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(measurement.attempted),
                "failed": int(measurement.failed),
                "metrics": {
                    name: {"value": float(values[name]), "unit": UNITS[name]} for name in names
                },
            }
        )
    )
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# the whole set, one subprocess per workload
# ---------------------------------------------------------------------------


def spawn(workload: str, args, trace: int, work_dir: Path) -> dict:
    """Run one workload in its own process; returns its result and detail."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--work-dir", str(work_dir / f"{workload}-{trace}"),
    ]
    if args.smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {workload} (trace {trace}) exited {done.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    result["detail"] = next(
        (json.loads(line[len("# detail "):]) for line in lines if line.startswith("# detail ")), {}
    )
    result["failed_checks"] = [line for line in lines if line.startswith("FAILED CHECK")]
    return result


def provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    blas = "unknown"
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "preset": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def share(values: dict, prefixes: tuple[str, ...]) -> float:
    """Share of the traced wall spent in metrics whose name starts with a prefix."""
    wall = values["obs.trace_wall_s"]["value"]
    total = sum(
        entry["value"]
        for name, entry in values.items()
        if entry["unit"] == "s" and name.startswith(prefixes) and not name.startswith("obs.")
    )
    return total / wall if wall else 0.0


def run_suite(args) -> int:
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]
    work_dir = Path(args.work_dir) if args.work_dir else OUT_DIR / f"work-suite-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    report = {"claim": None, "provenance": provenance(args), "workloads": {}}
    ok = True
    try:
        for workload in workloads:
            runs = [spawn(workload, args, 0, work_dir) for _ in range(2 if args.check_repeat else 1)]
            traced = spawn(workload, args, 1, work_dir)
            entry = {
                "sizes": runs[0]["detail"],
                "end_to_end": runs[0]["metrics"],
                "per_layer": traced["metrics"],
                "attempted": runs[0]["attempted"],
                "failed": runs[0]["failed"],
                "failed_share": runs[0]["failed"] / runs[0]["attempted"],
                "correct": all(run["correct"] for run in runs) and traced["correct"],
                "failed_checks": [c for run in (*runs, traced) for c in run["failed_checks"]],
                "wall_s": {"untraced": runs[0]["wall_s"], "traced": traced["wall_s"]},
                "separation": {
                    "nn_models_share": share(traced["metrics"], ("nn.", "models.")),
                    "turnover_share": share(
                        traced["metrics"],
                        ("train.eval_s", "resilience.checkpoint_save_s", "core.cache_",
                         "core.sync_s", "dist.allreduce_s"),
                    ),
                },
            }
            ok = ok and entry["correct"]
            print(f"\n== {workload}  (correct={entry['correct']}, "
                  f"failed {entry['failed']}/{entry['attempted']})")
            for check in entry["failed_checks"]:
                print(f"  {check}")
            for name, value in entry["end_to_end"].items():
                print(f"  {name:<38} {value['value']:>16.4f} {value['unit']}")
            for name, value in entry["per_layer"].items():
                print(f"    {name:<36} {value['value']:>16.6f} {value['unit']}")
            if args.check_repeat:
                entry["repeat"] = {}
                print("  repeat check (same code, run twice):")
                for name, first in runs[0]["metrics"].items():
                    second = runs[1]["metrics"][name]["value"]
                    gap = (second - first["value"]) / first["value"]
                    worse = gap if better[name] == "lower" else -gap
                    within = abs(gap) <= bounds[name]
                    entry["repeat"][name] = {
                        "first": first["value"], "second": second, "gap": gap,
                        "worse_by": worse, "bound": bounds[name], "within_bound": within,
                    }
                    ok = ok and within
                    print(f"    {name:<36} {first['value']:>14.4f} {second:>14.4f} "
                          f"gap {100 * gap:+6.2f}%  bound {100 * bounds[name]:.0f}%"
                          f"{'' if within else '  << OUTSIDE BOUND'}")
            report["workloads"][workload] = entry
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "result.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json; 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="sizes a tenth as large")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice; fail if a metric moves by more than its bound")
    parser.add_argument("--work-dir", help="scratch directory (removed afterwards)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(load_contract()["run_seconds"])
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
