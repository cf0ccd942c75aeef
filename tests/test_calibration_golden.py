"""Calibration and plan bytes pinned across commits.

``tests/golden/fae_calibration.json`` holds, for the ``preprocess-shards``
perfbench configuration (``criteo-kaggle`` at ``medium`` scale, its
Rand-Em chunk size, shard-backed, sharded FAE output) at a test-sized
sample count and seeds 7, 11 and 23, under two GPU budgets: the
workload's, where every threshold of the grid fits, and a tight one, where
the search stops at the first threshold that overflows:

- the calibrated threshold and every field of every threshold evaluation
  (per-table Rand-Em estimates included, floats as their exact ``repr``);
- a blake2b of the packed index streams (``perfbench.verify.packed_digest``'s
  definition);
- a blake2b over the names and bytes of every file the plan saves.

Everything is compared with ``==``.  The plans are deterministic within a
commit (``test_streaming_preprocess``); this pins them
across commits, so a change to the calibrator, the classifier or the FAE
writer that claims to leave the output alone must reproduce it byte for
byte.  Record with ``python tests/test_calibration_golden.py --record``,
and only at a commit whose plans you mean to pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core import FAEConfig, fae_preprocess_source
from repro.data import ShardChunkSource, SyntheticClickLog, SyntheticConfig, dataset_by_name
from repro.data import save_log_shards

GOLDEN = Path(__file__).parent / "golden" / "fae_calibration.json"
SEEDS = (7, 11, 23)
SAMPLES = 16_384
SHARD_SAMPLES = 4_096
BUDGETS = {"perfbench": 2_684_354, "tight": 200_000}
BATCH_SIZE = 1024
OUT_SHARD_BATCHES = 64


def packed_digest(dataset) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for batches in (dataset.hot_batches, dataset.cold_batches):
        digest.update(len(batches).to_bytes(8, "little"))
        for batch in batches:
            digest.update(np.ascontiguousarray(batch, dtype=np.int64).tobytes())
    return digest.hexdigest()


def directory_digest(directory: Path) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(seed: int, budget_bytes: int) -> dict:
    schema = dataset_by_name("criteo-kaggle", "medium")
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=SAMPLES, seed=seed))
    config = FAEConfig(
        gpu_memory_budget=budget_bytes, large_table_min_bytes=1024, chunk_size=64, seed=seed
    )
    with tempfile.TemporaryDirectory() as work:
        source = ShardChunkSource(save_log_shards(Path(work) / "shards", log, SHARD_SAMPLES))
        plan = fae_preprocess_source(source, config, batch_size=BATCH_SIZE)
        plan.save(Path(work) / "fae", shard_size=OUT_SHARD_BATCHES)
        saved = directory_digest(Path(work) / "fae")
    result = plan.calibration.result
    return {
        "threshold": result.threshold,
        "gpu_memory_budget": result.gpu_memory_budget,
        "evaluations": [dataclasses.asdict(e) for e in result.evaluations],
        "packed_digest": packed_digest(plan.dataset),
        "fae_directory_digest": saved,
    }


def as_json(value):
    """``value`` as it reads back from the golden: tuples become lists and
    numpy scalars (the sampled estimates' bounds) their Python values."""
    return json.loads(json.dumps(value, default=lambda scalar: scalar.item()))


def key(seed: int, budget: str) -> str:
    return f"{budget}/{seed}"


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_calibration_and_plan_bytes_equal_the_golden(seed, budget):
    want = json.loads(GOLDEN.read_text())[key(seed, budget)]
    got = as_json(record(seed, BUDGETS[budget]))
    kinds = {e["exact"] for e in got["evaluations"][0]["per_table"]}
    assert kinds == {True, False}  # both estimator paths are pinned
    assert 1 < len(got["evaluations"])
    # The workload's budget walks the whole grid; the tight one exits early.
    assert got["evaluations"][-1]["fits"] == (budget == "perfbench")
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_calibration_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = as_json(
        {key(seed, budget): record(seed, BUDGETS[budget]) for budget in BUDGETS for seed in SEEDS}
    )
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
