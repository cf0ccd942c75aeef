"""Smoke test of the A/B pass alternator: one tree against itself."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("ab_passes", ROOT / "scripts" / "ab_passes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert lines[3].startswith("parent  floors: work_per_s ") and " op_p50_ms " in lines[3]
    assert lines[4].startswith("change  floors: work_per_s ") and " op_p50_ms " in lines[4]
    assert "pairs; median ratio x" in lines[5]
    assert lines[6] == "signatures: identical"


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


@pytest.mark.parametrize("op_ends", [None, [2, 3, 5]])
def test_floor_metrics_read_like_perfbench(op_ends):
    """Per-interval floors, summed per operation, as ``PassWorkload.measure``
    reads them: the minimum over passes is taken per interval, not per pass."""
    passes = [[0.004, 0.001, 0.002, 0.003, 0.001], [0.002, 0.003, 0.002, 0.001, 0.004]]
    work_per_s, op_p50_ms, dropped = _load_script().floor_metrics(10, passes, op_ends)
    floors = 1e3 * np.min(np.asarray(passes), axis=0)  # 2, 1, 2, 1, 1 ms
    op_ms = np.add.reduceat(floors, [0, *(op_ends or range(1, 6))[:-1]])
    assert work_per_s == pytest.approx(10 / (1e-3 * op_ms.sum()))  # 7 ms, below either pass
    assert op_p50_ms == pytest.approx(np.median(op_ms))
    assert op_p50_ms == (1.0 if op_ends is None else 2.0)
    assert dropped == 0


def test_floor_metrics_drop_passes_of_another_interval_count():
    """As in ``PassWorkload.measure``, a pass whose interval count differs
    from the last pass's is dropped and counted, never cut to fit."""
    passes = [[0.0005, 0.0005, 0.0005], [0.004, 0.001], [0.002, 0.003]]
    script = _load_script()
    assert script.floor_metrics(10, passes, None) == (
        *script.floor_metrics(10, passes[1:], None)[:2],
        1,
    )
    assert script.floor_metrics(10, passes, None)[0] == pytest.approx(10 / 3e-3)  # 2 + 1 ms
