#!/usr/bin/env python
"""Compare the rankings two source trees give perfbench's serve-rank stream.

Usage::

    python scripts/rank_agreement.py PARENT_TREE CHANGE_TREE --seed 7

Each tree runs in a worker process of its own that imports that tree's
``perfbench/workloads.py`` and ``src/`` (read-only: no bytecode is written
into the trees) with BLAS pinned to one thread, as ``ab_passes.py`` does.
The worker sets the serve-rank workload up, sends its warm-up and timed
requests through one fresh engine, and scores every candidate of each
request in one ``predict_batch``.

Printed: the request count, how many top-k lists are identical, how many
differ only by swapping near-ties (items whose parent scores are within
``rtol`` of each other), how many differ otherwise, and the largest relative
change of any candidate's score.  Exit status 1 means some top-k list
differs by more than a near-tie swap.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_passes import BLAS_THREADS

# numpy is imported inside the functions: a worker must pin BLAS first.
NEAR_TIE_RTOL = 1e-6


def worker(tree: Path, seed: int, smoke: bool, out: Path) -> int:
    """Rank the request stream through ``tree`` and save it to ``out``."""
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    with tempfile.TemporaryDirectory(prefix="rank-agreement-") as work_dir:
        import numpy as np
        import verify
        from workloads import WORKLOADS

        workload_class = WORKLOADS["serve-rank"]
        sizes = dict(workload_class.SIZES["smoke" if smoke else "full"])
        workload = workload_class(seed, sizes, Path(work_dir))
        workload.setup()
        engine = workload.fresh_engine()
        items, candidate_lists, scores = [], [], []
        for index in range(sizes["warmup"] + sizes["requests"]):
            items.append(workload.rank(engine, index).item_ids)
            dense, context, candidates = workload.request(index)
            candidate_lists.append(candidates)
            scores.append(verify.brute_force_scores(
                engine, dense, context, workload.candidate_table, candidates
            ))
        np.savez(out, items=np.array(items), candidates=np.array(candidate_lists),
                 scores=np.array(scores))
    return 0


def compare(parent: dict, change: dict, rtol: float = NEAR_TIE_RTOL) -> dict:
    """Count identical top-k lists, near-tie swaps and other differences.

    A list differs only by near-ties when, at every position where the two
    trees return different items, the parent scored the two items within
    ``rtol`` of each other.
    """
    import numpy as np

    identical = near_ties = other = 0
    for request, (mine, theirs) in enumerate(zip(parent["items"], change["items"])):
        if np.array_equal(mine, theirs):
            identical += 1
            continue
        # The parent's score of an item: its best over the request's candidates.
        best = {}
        for item, score in zip(parent["candidates"][request], parent["scores"][request]):
            best[int(item)] = max(score, best.get(int(item), -np.inf))
        swapped = [(int(a), int(b)) for a, b in zip(mine, theirs) if a != b]
        if all(np.isclose(best[a], best[b], rtol=rtol, atol=0) for a, b in swapped):
            near_ties += 1
        else:
            other += 1
    base = np.abs(parent["scores"])
    change_of = np.abs(change["scores"] - parent["scores"]) / np.where(base > 0, base, 1.0)
    return {
        "requests": len(parent["items"]),
        "identical": identical,
        "near_ties": near_ties,
        "other": other,
        "largest_relative_change": float(change_of.max()) if change_of.size else 0.0,
    }


def run_side(tree: Path, args, out: Path) -> dict:
    import numpy as np

    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), str(tree),
               "--seed", str(args.seed), "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    subprocess.run(command, check=True, stdout=sys.stderr)
    with np.load(out) as archive:
        return {name: archive[name] for name in archive.files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree with the change")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="perfbench's smoke sizes")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # one side: ``--worker TREE TREE --out FILE``
        return worker(args.parent.resolve(), args.seed, args.smoke, args.out)

    with tempfile.TemporaryDirectory(prefix="rank-agreement-") as scratch:
        parent = run_side(args.parent.resolve(), args, Path(scratch) / "parent.npz")
        change = run_side(args.change.resolve(), args, Path(scratch) / "change.npz")
    found = compare(parent, change)
    top_k, candidates = parent["items"].shape[1], parent["scores"].shape[1]
    print(f"serve-rank, seed {args.seed}: {found['requests']} requests, "
          f"top-{top_k} of {candidates} candidates")
    print(f"identical top-k lists: {found['identical']}/{found['requests']}")
    print(f"near-tie swaps (parent scores within rtol {NEAR_TIE_RTOL:g}): {found['near_ties']}")
    print(f"other top-k differences: {found['other']}")
    print(f"largest relative score change: {found['largest_relative_change']:.3g}")
    return 1 if found["other"] else 0


if __name__ == "__main__":
    sys.exit(main())
