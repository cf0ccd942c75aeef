#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` (about 30 s).

It checks the harness, not the program:

1. ``BENCHMARK.json`` names exactly the workloads and metrics the code emits,
   inside the limits the contract sets;
2. every workload, at ``--smoke`` size, emits each metric once, finite, with
   its unit; the trace conserves time; the layers a workload must not enter
   read exactly 0;
3. the verifiers fail on tampered output: a plan with a moved input, a wrong
   top-k, a diverged repeat, a corrupt checkpoint -- a check that cannot fail
   checks nothing;
4. where there is no program to measure, the runner exits non-zero and prints
   no result.

Not named ``test_*.py``: neither the tier-1 suite nor ``pytest benchmarks/``
collects it.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

import numpy as np

import verify
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS, PreprocessShards, ServeRank, TrainTbsmTurnover

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        FAILURES.append(message)


def check_contract() -> dict:
    print("BENCHMARK.json")
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    expect(
        sorted(contract) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        "has exactly the contract's keys",
    )
    expect(contract["paths"] == ["perfbench"], "perfbench is the only path")
    expect(contract["command"] == ["python3", "perfbench/run.py"], "command runs perfbench/run.py")
    expect(
        [w["name"] for w in contract["workloads"]] == list(WORKLOADS),
        "names the workloads the code has",
    )
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"]),
           "every why is one line of at most 200 characters")
    expect(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]]
        == list(END_TO_END),
        "end_to_end matches metrics.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == list(PER_LAYER),
        "per_layer matches metrics.PER_LAYER",
    )
    names = [m["name"] for m in (*contract["end_to_end"], *contract["per_layer"])]
    names += [w["name"] for w in contract["workloads"]]
    expect(len(set(names)) == len(names) and all(NAME.match(n) for n in names),
           "names are well-formed and used once")
    expect(all(UNIT.match(m["unit"]) for m in (*contract["end_to_end"], *contract["per_layer"])),
           "units are well-formed")
    expect(all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"]), "bounds are in (0, 0.25]")
    expect(
        any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
            for m in contract["end_to_end"]),
        "setup_s is an end-to-end metric",
    )
    expect(1 <= len(contract["per_layer"]) <= 128 and 1 <= len(contract["end_to_end"]) <= 16,
           "metric counts are within the limits")
    runs = 4 + 22 * len(contract["workloads"])
    expect(isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60,
           f"run_seconds is a whole number in [1, 60] ({runs} driver runs)")
    return contract


def run(workload: str, trace: int, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(contract: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"{workload} --trace {trace} --smoke")
            done = run(workload, trace)
            expect(done.returncode == 0, "exits 0")
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   "last line has exactly correct, attempted, failed, metrics")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   f"correct, {result['attempted']} attempted, 0 failed")
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(expected[trace]), "emits every metric exactly once")
            expect(
                all(sorted(v) == ["unit", "value"] and v["unit"] == expected[trace].get(k)
                    and math.isfinite(v["value"]) for k, v in metrics.items()),
                "every value is finite and carries its unit",
            )
            value = {k: v["value"] for k, v in metrics.items()}
            if trace == 0:
                expect(all(v > 0 for v in value.values()), "no end-to-end metric is 0")
                continue
            expect(value["obs.trace_conservation_error"] < 0.01,
                   "layer self times sum to the root wall within 1 %")
            expect(value["obs.trace_wall_s"] > 0, "obs.trace_wall_s is reported")
            trace_file = BENCH_DIR / "out" / f"{workload}.trace.jsonl"
            expect(trace_file.is_file() and trace_file.stat().st_size > 0, "trace file is written")
            cache = [v for k, v in value.items() if k.startswith("core.cache_")]
            dense = [v for k, v in value.items() if k.startswith(("nn.", "models."))]
            if workload == "preprocess-shards":
                expect(not any(dense) and not any(cache), "nn.*, models.* and core.cache_* are 0")
                expect(value["data.shard_read_s"] > 0 and value["core.fae_save_s"] > 0,
                       "shard read and save are timed")
            if workload == "train-dlrm-steady":
                expect(not any(cache), "every core.cache_* is 0")
                expect(value["nn.mlp_fwd_s"] > 0 and value["train.baseline_samples_per_s"] > 0,
                       "dense math and the baseline run are timed")
            if workload == "train-tbsm-turnover":
                expect(value["core.cache_rebalances"] > 0 and value["resilience.checkpoint_saves"] > 0
                       and value["dist.allreduce_calls"] > 0 and value["nn.attention_s"] > 0,
                       "cache, checkpoints, collectives and attention all worked")
                expect(value["dist.replica_divergence"] == 0, "replicas did not diverge")
            if workload == "serve-rank":
                expect(value["serve.rank_self_ms"] > 0 and value["serve.open_p99_ms"] > 0
                       and value["serve.cluster_virtual_p99_ms"] > 0,
                       "closed, open and cluster phases all ran")
                expect(value["nn.mlp_bwd_s"] == 0 and value["train.loop_self_s"] == 0,
                       "no backward pass and no trainer")


def check_verifiers(work_dir: Path) -> None:
    print("verifiers fail on tampered output")
    # preprocess: a plan that is right, then wrong in three ways
    workload = PreprocessShards(3, dict(PreprocessShards.SIZES["smoke"]), work_dir)
    workload.setup()
    output = workload.run_pass(workload.prepare_pass())
    plan, loaded = output.results["plan"], output.results["loaded"]
    total = workload.sizes["samples"]
    expect(workload.verify([output.signature], output)[2] == [], "clean plan passes")
    dataset = loaded[0]
    hot = [batch.copy() for batch in dataset.hot_batches]
    cold = [batch.copy() for batch in dataset.cold_batches]
    hot[0][0], cold[0][0] = cold[0][0], hot[0][0]
    swapped = replace(dataset, hot_batches=hot, cold_batches=cold)
    expect(any("not hot" in p for p in verify.check_packed_dataset(swapped, total)),
           "a cold input in a hot batch is caught")
    cold = [batch.copy() for batch in dataset.cold_batches]
    cold[0][0] = cold[0][1]
    duplicated = replace(dataset, cold_batches=cold)
    expect(any("exactly once" in p for p in verify.check_packed_dataset(duplicated, total)),
           "a duplicated input is caught")
    expect(verify.check_loaded_plan(plan, (swapped, loaded[1], loaded[2])) != [],
           "a loaded dataset that differs from the plan is caught")
    expect(verify.packed_digest(swapped) != output.signature, "the digest sees the swap")
    expect(workload.verify([output.signature, "0" * 32], output)[1] > 0,
           "a digest that differs between passes counts as failed work")

    # serving: a right answer, then a reordered one and a foreign item
    serve = ServeRank(3, dict(ServeRank.SIZES["smoke"]), work_dir)
    serve.setup()
    engine = serve.fresh_engine()
    ranked = serve.rank(engine, 0)
    dense, context, candidates = serve.request(0)
    scores = verify.brute_force_scores(engine, dense, context, serve.candidate_table, candidates)
    top_k = serve.sizes["top_k"]
    expect(verify.check_top_k(ranked, candidates, scores, top_k) == [], "clean top-k passes")
    worse = replace(ranked, item_ids=ranked.item_ids[::-1].copy(), scores=ranked.scores[::-1].copy())
    expect(verify.check_top_k(worse, candidates, scores, top_k) != [], "a reordered top-k is caught")
    outsider = int(candidates[np.argmin(scores)])
    foreign = replace(ranked, item_ids=np.r_[outsider, ranked.item_ids[1:]])
    expect(verify.check_top_k(foreign, candidates, scores, top_k) != [],
           "an item returned with another item's score is caught")
    expect(verify.check_top_k(replace(ranked, degraded=True), candidates, scores, top_k) != [],
           "a degraded response is caught")

    # training: one real pass, then every way it may go wrong
    train = TrainTbsmTurnover(3, dict(TrainTbsmTurnover.SIZES["smoke"]), work_dir)
    train.setup()
    first = train.run_pass(train.prepare_pass())
    second = train.run_pass(train.prepare_pass())
    expect(first.signature == second.signature, "two passes of one seed have one loss history")
    expect(train.verify([first.signature, second.signature], second)[2] == [], "clean training passes")
    results = second.results["results"]
    values = [np.ones(3)]
    floor = train.accuracy_floor
    expect(train.verify([("other",), second.signature], second)[1] > 0,
           "a loss history that differs between repeats is caught")
    expect(verify.check_training(results, [np.array([1.0, np.nan])], floor) != [],
           "a non-finite parameter is caught")
    expect(verify.check_training(results, values, 1.01) != [],
           "an accuracy below the floor is caught")
    expect(verify.check_training(results, values, floor, divergence=1e-9) != [],
           "diverged replicas are caught")
    skipped = [*results[:-1], replace(results[-1], skipped_steps=1)]
    expect(verify.check_training(skipped, values, floor) != [], "a skipped step is caught")
    newest = Path(second.results["newest"])
    expect(verify.check_checkpoint(newest) == [], "clean checkpoint passes")
    payload = bytearray(newest.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    newest.write_bytes(bytes(payload))
    expect(verify.check_checkpoint(newest) != [], "a corrupt checkpoint is caught")
    expect(verify.check_checkpoint(None) != [], "a missing checkpoint is caught")


def check_bare_directory(work_dir: Path) -> None:
    print("a directory with only BENCHMARK.json and perfbench/")
    bare = work_dir / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run("serve-rank", 0, cwd=bare)
    expect(done.returncode != 0, f"exits non-zero ({done.returncode})")
    expect(not any(line.startswith("{") for line in done.stdout.splitlines()), "prints no result")


def main() -> int:
    contract = check_contract()
    check_runs(contract)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        check_verifiers(work_dir)
        check_bare_directory(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"\n{len(FAILURES)} failed" if FAILURES else "\nall checks passed")
    for failure in FAILURES:
        print(f"  FAILED: {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
