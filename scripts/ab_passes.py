#!/usr/bin/env python
"""Alternate one perfbench pass at a time between two source trees.

Usage::

    python scripts/ab_passes.py serve-rank PARENT_TREE CHANGE_TREE --passes 30

Each tree gets one long-lived worker process that imports that tree's
``perfbench/workloads.py`` and ``src/`` (read-only: no bytecode is written
into the trees), pins BLAS to one thread as perfbench does, sets the workload up once and
runs one warm-up pass.  The
driver then asks the two workers for one pass each, in turn, swapping which
side goes first every round, so both sides see the same spells of a
machine whose speed drifts by tens of percent within minutes.  A pass is
``prepare_pass`` (untimed) then ``run_pass`` (timed).

Printed: per side, the min / p25 / median pass wall and the work per
second of each; per side, ``work_per_s`` and ``op_p50_ms`` as perfbench
reads them, from per-interval floors (each interval's minimum over the
passes, summed per operation; a pass of another interval count is dropped
with a warning, where perfbench fails the run); the pairwise wins (rounds where the
change's pass was the faster); and whether both sides produced the same
pass signature (the ranking digest or training signature perfbench
verifies), so a speedup that changed the output is visible at once.
Exit status 1 means the signatures differed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


# Pinned to one thread in each worker before numpy loads, as perfbench/run.py
# does: an A/B measures the code under the benchmark's BLAS threading.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker(tree: Path, workload_name: str, seed: int, smoke: bool) -> int:
    """Serve ``pass`` requests on stdin, one JSON line per pass on stdout."""
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    protocol = sys.stdout
    sys.stdout = sys.stderr  # whatever the program prints stays off the protocol
    work_dir = Path(tempfile.mkdtemp(prefix="ab-passes-"))
    os.environ["TMPDIR"] = str(work_dir)
    try:
        from workloads import WORKLOADS

        workload_class = WORKLOADS[workload_name]
        sizes = dict(workload_class.SIZES["smoke" if smoke else "full"])
        workload = workload_class(seed, sizes, work_dir)
        workload.setup()
        workload.run_pass(workload.prepare_pass())  # warm-up, discarded
        threads = {name: os.environ[name] for name in BLAS_THREADS}
        ready = {"ready": True, "items": workload.items_per_pass, "threads": threads}
        protocol.write(json.dumps(ready) + "\n")
        protocol.flush()
        for line in sys.stdin:
            if line.strip() != "pass":
                break
            prepared = workload.prepare_pass()
            start = time.perf_counter()
            output = workload.run_pass(prepared)
            wall = time.perf_counter() - start
            digest = hashlib.sha256(repr(output.signature).encode()).hexdigest()[:16]
            reply = {"wall": wall, "signature": digest,
                     "intervals": output.interval_seconds, "op_ends": output.op_ends}
            protocol.write(json.dumps(reply) + "\n")
            protocol.flush()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def floor_metrics(items: int, interval_seconds: list[list[float]],
                  op_ends: list[int] | None) -> tuple[float, float, int]:
    """``(work_per_s, op_p50_ms, dropped)`` of a set of passes as perfbench's
    ``PassWorkload.measure`` reads them, and a copy of its rule that must
    follow it: only the passes with the last pass's interval count are kept
    (``dropped`` counts the others; perfbench fails a run that has any),
    each interval's floor is its minimum over those passes, and an
    operation's time is the sum of its intervals' floors (``op_ends`` counts
    intervals; ``None``: one interval per operation)."""
    count = len(interval_seconds[-1])
    kept = [intervals for intervals in interval_seconds if len(intervals) == count]
    floors = [1e3 * min(column) for column in zip(*kept)]
    ends = op_ends or range(1, len(floors) + 1)
    op_ms = [sum(floors[start:end]) for start, end in zip([0, *ends[:-1]], ends)]
    return items / (1e-3 * sum(op_ms)), statistics.median(op_ms), len(interval_seconds) - len(kept)


class Side:
    """One tree's worker process."""

    def __init__(self, label: str, tree: Path, args) -> None:
        command = [sys.executable, str(Path(__file__).resolve()), "--worker",
                   args.workload, str(tree), str(tree), "--seed", str(args.seed)]
        if args.smoke:
            command.append("--smoke")
        self.label = label
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.items = self._read()["items"]
        self.walls: list[float] = []
        self.intervals: list[list[float]] = []
        self.op_ends: list[int] | None = None
        self.signatures: set[str] = set()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.label} worker exited (status {self.process.wait()})")
        return json.loads(line)

    def run_pass(self) -> float:
        self.process.stdin.write("pass\n")
        self.process.stdin.flush()
        reply = self._read()
        self.walls.append(reply["wall"])
        self.intervals.append(reply["intervals"])
        self.op_ends = reply["op_ends"]
        self.signatures.add(reply["signature"])
        return reply["wall"]

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            self.process.wait(timeout=60)

    def summary(self) -> str:
        walls = sorted(self.walls)
        p25 = walls[(len(walls) - 1) // 4]
        median = statistics.median(walls)
        return (
            f"{self.label:<7} passes {len(walls):>3}  wall s: min {walls[0]:.4f}  "
            f"p25 {p25:.4f}  median {median:.4f}   work/s: max {self.items / walls[0]:.1f}  "
            f"p25 {self.items / p25:.1f}  median {self.items / median:.1f}"
        )

    def floors(self) -> str:
        work_per_s, op_p50_ms, dropped = floor_metrics(self.items, self.intervals, self.op_ends)
        line = f"{self.label:<7} floors: work_per_s {work_per_s:.1f}  op_p50_ms {op_p50_ms:.4f}"
        if dropped:  # perfbench would report such a run as failed
            line += f"  WARNING: {dropped} passes dropped, their interval count differs"
        return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a perfbench workload name, e.g. serve-rank")
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree with the change")
    parser.add_argument("--passes", type=int, default=10, help="passes per side")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="perfbench's smoke sizes")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # one side: ``--worker WORKLOAD TREE TREE``
        return worker(args.parent.resolve(), args.workload, args.seed, args.smoke)

    sides = []
    try:
        sides = [Side("parent", args.parent.resolve(), args),
                 Side("change", args.change.resolve(), args)]
        parent, change = sides
        wins = 0
        for round_index in range(args.passes):
            order = sides if round_index % 2 == 0 else sides[::-1]
            walls = {side.label: side.run_pass() for side in order}
            wins += walls["change"] < walls["parent"]
    finally:
        for side in sides:
            side.close()
    print(f"{args.workload}, seed {args.seed}, {args.passes} alternating rounds")
    for side in sides:
        print(side.summary())
    for side in sides:
        print(side.floors())
    ratio = statistics.median(parent.walls) / statistics.median(change.walls)
    print(f"change faster in {wins}/{args.passes} pairs; median ratio x{ratio:.3f}")
    same = len(parent.signatures | change.signatures) == 1
    print("signatures: " + ("identical" if same else
          f"DIFFER parent {sorted(parent.signatures)} change {sorted(change.signatures)}"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
