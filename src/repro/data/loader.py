"""Mini-batch construction over synthetic click logs.

The baseline trainer iterates plain shuffled mini-batches; the FAE
trainer instead consumes the pure-hot / pure-cold batches produced by
:class:`repro.core.input_processor.InputProcessor`.  Both paths share the
:class:`MiniBatch` container defined here.

:func:`fetch_batch` is the fault-aware entry point: when given a
:class:`~repro.resilience.faults.FaultPlan` it models transient data-path
hiccups (stalled reads, flaky storage) and absorbs them with bounded
retries, so trainers survive a noisy input pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import SyntheticClickLog

__all__ = [
    "MiniBatch",
    "BatchIterator",
    "batch_from_log",
    "fetch_batch",
    "iter_fae_batches",
    "train_test_split",
]


@dataclass(frozen=True)
class MiniBatch:
    """One training mini-batch.

    Attributes:
        dense: float32 ``(B, num_dense)``.
        sparse: table name -> int64 ``(B, multiplicity)`` lookup ids.
        labels: float32 ``(B,)``.
        indices: int64 ``(B,)`` positions in the source log (provenance).
        hot: FAE tag — True if every lookup in the batch hits a hot row,
            False if cold, None for untagged baseline batches.
    """

    dense: np.ndarray
    sparse: dict[str, np.ndarray]
    labels: np.ndarray
    indices: np.ndarray
    hot: bool | None = None

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.dense.shape[0] != n or self.indices.shape[0] != n:
            raise ValueError("mini-batch arrays disagree on batch size")
        for name, ids in self.sparse.items():
            if ids.shape[0] != n:
                raise ValueError(f"sparse table {name!r} disagrees on batch size")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)


def batch_from_log(log: SyntheticClickLog, indices: np.ndarray, hot: bool | None = None) -> MiniBatch:
    """Materialize a :class:`MiniBatch` from row positions in ``log``."""
    indices = np.asarray(indices, dtype=np.int64)
    return MiniBatch(
        dense=log.dense[indices],
        sparse={name: ids[indices] for name, ids in log.sparse.items()},
        labels=log.labels[indices],
        indices=indices,
        hot=hot,
    )


def fetch_batch(
    log: SyntheticClickLog,
    indices: np.ndarray,
    hot: bool | None = None,
    fault_plan=None,
    retry=None,
) -> MiniBatch:
    """:func:`batch_from_log` with injected-hiccup absorption.

    Args:
        log: source log.
        indices: row positions to materialize.
        hot: FAE temperature tag for the batch.
        fault_plan: optional :class:`~repro.resilience.faults.FaultPlan`
            whose :meth:`check_loader` is consulted per attempt.
        retry: optional :class:`~repro.resilience.retry.RetryPolicy`.

    Raises:
        repro.resilience.retry.RetryExhaustedError: when hiccups outlast
            the retry budget.
    """
    if fault_plan is None:
        return batch_from_log(log, indices, hot=hot)
    from repro.resilience.retry import with_retries

    def attempt() -> MiniBatch:
        fault_plan.check_loader()
        return batch_from_log(log, indices, hot=hot)

    return with_retries(attempt, policy=retry, name="data.fetch_batch")


def iter_fae_batches(
    log: SyntheticClickLog,
    dataset,
    pool: str,
    start: int = 0,
    count: int | None = None,
    hot: bool | None = None,
    fault_plan=None,
    retry=None,
):
    """Materialize mini-batches from one pool of a packed FAE dataset.

    A public helper for draining ``dataset.hot_batches`` /
    ``cold_batches`` outside a trainer (the segment engine in
    :mod:`repro.train.engine` draws its batches one at a time through
    :func:`fetch_batch` and does not call this).  The pool is
    sliced once, so in-memory lists and lazy shard-backed sequences
    (:class:`repro.core.fae_format.ShardBatchSequence`) both stream the
    index arrays without decoding more than they need.

    Args:
        log: source log the index arrays point into.
        dataset: a :class:`~repro.core.input_processor.FAEDataset`.
        pool: ``"hot"`` or ``"cold"`` — which batch stream to drain.
        start: first batch position in the pool.
        count: number of batches to yield (None drains to the end).
        hot: FAE temperature tag for the fetched batches (may differ
            from ``pool`` when a degraded run drains its planned hot
            pool on the cold execution path).
        fault_plan: optional loader-fault injection, per :func:`fetch_batch`.
        retry: retry policy for injected hiccups.
    """
    if pool not in ("hot", "cold"):
        raise ValueError(f"pool must be 'hot' or 'cold', got {pool!r}")
    batches = dataset.hot_batches if pool == "hot" else dataset.cold_batches
    stop = len(batches) if count is None else min(len(batches), start + count)
    for index_array in batches[start:stop]:
        yield fetch_batch(log, index_array, hot=hot, fault_plan=fault_plan, retry=retry)


class BatchIterator:
    """Shuffled mini-batch iterator over a click log (baseline data path).

    Args:
        log: source log.
        batch_size: samples per mini-batch.
        shuffle: reshuffle sample order every epoch.
        drop_last: drop the final short batch (the paper's weak-scaling
            runs keep batch sizes uniform, so benchmarks set this True).
        seed: shuffle seed.
        fault_plan: optional fault plan injecting loader hiccups, which
            are absorbed by ``retry`` per :func:`fetch_batch`.
        retry: retry policy for injected hiccups.
    """

    def __init__(
        self,
        log: SyntheticClickLog,
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int = 0,
        fault_plan=None,
        retry=None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.log = log
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.fault_plan = fault_plan
        self.retry = retry
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.log)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        n = len(self.log)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, stop, self.batch_size):
            yield fetch_batch(
                self.log,
                order[start : start + self.batch_size],
                fault_plan=self.fault_plan,
                retry=self.retry,
            )


def train_test_split(
    log: SyntheticClickLog, test_fraction: float = 0.1, seed: int = 0
) -> tuple[SyntheticClickLog, SyntheticClickLog]:
    """Random train/test split of a click log.

    Args:
        log: source log.
        test_fraction: fraction routed to the test split, in ``(0, 1)``.
        seed: permutation seed.

    Returns:
        ``(train, test)`` logs.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(log)
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    if len(train_idx) == 0:
        raise ValueError("split left no training samples")
    return log.take(train_idx), log.take(test_idx)
