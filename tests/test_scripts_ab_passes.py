"""Smoke test of the A/B pass alternator: one tree against itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_tree_against_itself_alternates_and_matches_signatures():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_passes.py"), "serve-rank", str(ROOT), str(ROOT),
         "--passes", "2", "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "serve-rank, seed 7, 2 alternating rounds"
    assert lines[1].startswith("parent  passes   2") and lines[2].startswith("change  passes   2")
    assert "pairs; median ratio x" in lines[3]
    assert lines[4] == "signatures: identical"


def test_workers_pin_blas_to_one_thread_whatever_the_caller_set():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}
    env.pop("MKL_NUM_THREADS", None)
    with subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "ab_passes.py"), "--worker", "serve-rank",
         str(ROOT), str(ROOT), "--smoke"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    ) as worker:
        ready = json.loads(worker.stdout.readline())
        worker.stdin.close()  # no "pass" request: the worker exits
        worker.wait(timeout=120)
    assert ready["threads"] == dict.fromkeys(
        ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1"
    )
    assert worker.returncode == 0


def test_an_unknown_workload_fails():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_passes.py"), "no-such", str(ROOT), str(ROOT),
         "--passes", "1", "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
