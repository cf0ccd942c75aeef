"""Output checks, one function per workload family.

Each returns the list of problems it found (empty = correct).  They take
plain results, not workload objects, so ``selftest.py`` can hand them a
tampered plan or a wrong top-k and see the check fail.
"""

from __future__ import annotations

import hashlib

import numpy as np


def packed_digest(dataset) -> str:
    """Digest of the packed index streams (hot batches, then cold)."""
    digest = hashlib.blake2b(digest_size=16)
    for batches in (dataset.hot_batches, dataset.cold_batches):
        digest.update(len(batches).to_bytes(8, "little"))
        for batch in batches:
            digest.update(np.ascontiguousarray(batch, dtype=np.int64).tobytes())
    return digest.hexdigest()


def check_packed_dataset(dataset, num_inputs: int) -> list[str]:
    """Every input once; hot batches all hot, cold batches all cold."""
    problems = []
    batches = [*dataset.hot_batches, *dataset.cold_batches]
    indices = np.concatenate(batches) if batches else np.zeros(0, np.int64)
    if indices.size != num_inputs or not np.array_equal(
        np.sort(indices), np.arange(num_inputs)
    ):
        problems.append(
            f"packed batches do not cover each of {num_inputs} inputs exactly once "
            f"({indices.size} indices, {np.unique(indices).size} distinct)"
        )
    hot_mask = np.asarray(dataset.hot_mask, dtype=bool)
    if hot_mask.shape[0] != num_inputs:
        problems.append(f"hot mask covers {hot_mask.shape[0]} inputs, expected {num_inputs}")
        return problems
    for kind, group, want in (
        ("hot", dataset.hot_batches, True),
        ("cold", dataset.cold_batches, False),
    ):
        for position, batch in enumerate(group):
            in_range = batch[(batch >= 0) & (batch < num_inputs)]
            if in_range.size != batch.size or not (hot_mask[in_range] == want).all():
                problems.append(f"{kind} batch {position} holds inputs that are not {kind}")
                break
    return problems


def check_loaded_plan(plan, loaded) -> list[str]:
    """The dataset read back from disk equals the in-memory plan."""
    dataset, bags, threshold = loaded
    problems = []
    if threshold != plan.threshold:
        problems.append(f"loaded threshold {threshold!r} != plan threshold {plan.threshold!r}")
    if not np.array_equal(dataset.hot_mask, plan.dataset.hot_mask):
        problems.append("loaded hot mask differs from the plan's")
    if dataset.batch_size != plan.dataset.batch_size:
        problems.append("loaded batch size differs from the plan's")
    for kind in ("hot_batches", "cold_batches"):
        mine, theirs = getattr(plan.dataset, kind), getattr(dataset, kind)
        if len(mine) != len(theirs) or any(
            not np.array_equal(a, b) for a, b in zip(mine, theirs)
        ):
            problems.append(f"loaded {kind} differ from the plan's")
    if sorted(bags) != sorted(plan.bags):
        problems.append("loaded bag tables differ from the plan's")
    else:
        for name, bag in plan.bags.items():
            other = bags[name]
            if bag.whole_table != other.whole_table or not np.array_equal(
                bag.hot_ids, other.hot_ids
            ):
                problems.append(f"loaded hot bag {name!r} differs from the plan's")
                break
    return problems


def history_signature(result) -> tuple:
    """The loss trajectory of a run, exact: equal iff the runs did the same math."""
    return tuple(
        (p.iteration, p.train_loss, p.test_loss, p.test_accuracy) for p in result.history.points
    )


def check_training(
    results: list,
    parameters: list[np.ndarray],
    accuracy_floor: float,
    divergence: float = 0.0,
) -> list[str]:
    """Nothing was skipped, parameters finite, accuracy sane, replicas equal.

    Args:
        results: every ``TrainResult`` of one pass.
        parameters: the trained values (dense and embedding) of that pass.
        accuracy_floor: the final test accuracy must reach it.
        divergence: largest gap between replicas (must be exactly 0).
    """
    problems = []
    for result in results:
        if result.degraded or result.rollbacks or result.skipped_batches or result.skipped_steps:
            problems.append(
                f"run degraded={result.degraded} rollbacks={result.rollbacks} "
                f"skipped_batches={result.skipped_batches} skipped_steps={result.skipped_steps}"
            )
            break
    if not all(np.isfinite(values).all() for values in parameters):
        problems.append("a trained parameter is not finite")
    accuracy = results[-1].final_test_accuracy
    if not accuracy >= accuracy_floor:
        problems.append(f"final test accuracy {accuracy:.4f} is below the floor {accuracy_floor:.4f}")
    if divergence != 0.0:
        problems.append(f"replicas diverged by {divergence!r}")
    return problems


def check_checkpoint(path) -> list[str]:
    """The newest checkpoint passes its checksum and loads finite state."""
    from repro.resilience import checkpoint as checkpoint_module

    if path is None:
        return ["no checkpoint was written"]
    if not checkpoint_module.verify_checkpoint(path):
        return [f"checkpoint {path} fails verification"]
    loaded = checkpoint_module.load_checkpoint(path)
    if not all(np.isfinite(values).all() for values in loaded.params.values()):
        return [f"checkpoint {path} holds non-finite parameters"]
    return []


def ranking_digest(ranked) -> str:
    """Digest of a stream of rankings (items and scores, exact)."""
    digest = hashlib.blake2b(digest_size=16)
    for result in ranked:
        digest.update(np.ascontiguousarray(result.item_ids, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(result.scores, dtype=np.float64).tobytes())
    return digest.hexdigest()


def brute_force_scores(engine, dense, context, table: str, candidates) -> np.ndarray:
    """Score every candidate of one request in a single ``predict_batch``."""
    from repro.data.loader import MiniBatch

    count = len(candidates)
    sparse = {
        name: np.tile(np.asarray(ids, dtype=np.int64)[None, :], (count, 1))
        for name, ids in context.items()
    }
    sparse[table] = np.tile(np.asarray(candidates)[:, None], (1, sparse[table].shape[1]))
    batch = MiniBatch(
        dense=np.tile(np.asarray(dense, dtype=np.float32), (count, 1)),
        sparse=sparse,
        labels=np.zeros(count, dtype=np.float32),
        indices=np.arange(count, dtype=np.int64),
    )
    return np.asarray(engine.predict_batch(batch), dtype=np.float64)


def check_top_k(ranked, candidates, scores: np.ndarray, top_k: int) -> list[str]:
    """``ranked`` is the top-k of ``scores`` (ties may order either way)."""
    if ranked.degraded:
        return ["request was degraded"]
    want = np.sort(scores)[::-1][:top_k]
    if len(ranked.item_ids) != len(want) or not np.allclose(
        ranked.scores, want, rtol=1e-9, atol=1e-12
    ):
        return ["returned scores are not the top-k of a brute-force scoring"]
    best = {}
    for candidate, score in zip(candidates, scores):
        best[int(candidate)] = max(score, best.get(int(candidate), -np.inf))
    for item, score in zip(ranked.item_ids, ranked.scores):
        if int(item) not in best or not np.isclose(best[int(item)], score, rtol=1e-9, atol=1e-12):
            return [f"item {int(item)} was returned with a score that is not its own"]
    return []
