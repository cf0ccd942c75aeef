"""Popularity-shift day streams: same world, rotated Zipf head.

The scenario that breaks a static hot set is a *popularity* shift, not a
*concept* shift: which rows are fashionable changes, but what each row
means does not.  :func:`popularity_shift_days` generates a multi-day
click stream with exactly that separation:

- every day draws sparse ids from the same truncated Zipf *shape*, but
  from ``shift_day`` onward the rank -> id permutation is rotated — a
  different set of rows becomes the head;
- the planted label model (dense weights and per-row affinities) is
  **fixed across all days** up to a per-day base-rate centering, so
  labels stay equally learnable before and after the shift — any
  accuracy gap between arms is attributable to scheduling, not to a
  moved decision boundary.

Days are :class:`~repro.data.synthetic.SyntheticClickLog` instances,
so everything downstream (preprocess, trainers, drift detection,
serving) consumes them unchanged, and
:func:`write_day_shards` persists one shard per day so
:class:`~repro.data.chunk_source.ShardChunkSource` replays the stream
day by day.
"""

from __future__ import annotations

import numpy as np

from repro.data.chunk_source import ShardChunkSource, UnsizedChunkSource, save_log_shards
from repro.data.schema import DatasetSchema
from repro.data.synthetic import SyntheticClickLog, SyntheticConfig
from repro.data.zipf import ZipfSampler

__all__ = ["popularity_shift_days", "write_day_shards"]

#: Seed offset separating the rotated permutation stream from the base one.
_ROTATION_SALT = 6211


def popularity_shift_days(
    schema: DatasetSchema,
    samples_per_day: int,
    num_days: int,
    shift_day: int,
    seed: int = 0,
    label_noise: float = 0.25,
    dense_scale: float = 1.0,
    affinity_scale: float = 1.6,
    dense_signal: float = 1.6,
) -> list[SyntheticClickLog]:
    """Generate a seeded day stream whose Zipf head rotates mid-run.

    Args:
        schema: dataset geometry (tables, dims, Zipf exponents).
        samples_per_day: rows per day.
        num_days: total days in the stream.
        shift_day: first day drawn from the rotated popularity head
            (``0 < shift_day < num_days`` for an actual mid-run shift;
            ``shift_day >= num_days`` yields a shift-free stream).
        seed: master seed; the whole stream is a pure function of it.
        label_noise: std-dev of Gaussian noise on the planted logit.
        dense_scale: std-dev of dense features.
        affinity_scale: std-dev of the (fixed) per-row affinities.
        dense_signal: multiplier on the (fixed) dense weight vector.

    Returns:
        One :class:`SyntheticClickLog` per day, in order.
    """
    if samples_per_day <= 0:
        raise ValueError("samples_per_day must be positive")
    if num_days <= 0:
        raise ValueError("num_days must be positive")
    if shift_day <= 0:
        raise ValueError("shift_day must be positive (day 0 seeds calibration)")

    config = SyntheticConfig(
        num_samples=samples_per_day,
        seed=seed,
        label_noise=label_noise,
        dense_scale=dense_scale,
        affinity_scale=affinity_scale,
        dense_signal=dense_signal,
    )

    # The planted world, fixed for the whole stream: dense weights and
    # per-row affinities (same derivation as SyntheticClickLog, so the
    # Bayes accuracy matches the single-log generator's).
    w_dense = None
    if schema.num_dense:
        w_dense = np.random.default_rng(seed * 53 + 11).normal(
            0.0, dense_signal / np.sqrt(schema.num_dense), size=schema.num_dense
        )
    affinities: dict[str, np.ndarray] = {}
    for t_index, spec in enumerate(schema.tables):
        affinity_rng = np.random.default_rng(seed * 104729 + t_index)
        affinities[spec.name] = affinity_rng.normal(
            0.0, affinity_scale, size=spec.num_rows
        )

    # Two sampler families per table: the base head and the rotated head.
    # Each is STATEFUL — consecutive days continue the same draw stream,
    # so no two days repeat each other's ids.
    base: dict[str, ZipfSampler] = {}
    rotated: dict[str, ZipfSampler] = {}
    for t_index, spec in enumerate(schema.tables):
        base[spec.name] = ZipfSampler(
            num_items=spec.num_rows,
            exponent=spec.zipf_exponent,
            seed=seed * 7919 + t_index,
        )
        rotated[spec.name] = ZipfSampler(
            num_items=spec.num_rows,
            exponent=spec.zipf_exponent,
            seed=seed * 7919 + t_index + _ROTATION_SALT,
        )

    days: list[SyntheticClickLog] = []
    for day in range(num_days):
        day_rng = np.random.default_rng(seed * 9176 + 31 * day + 17)
        samplers = rotated if day >= shift_day else base
        n = samples_per_day

        dense = day_rng.normal(0.0, dense_scale, size=(n, schema.num_dense)).astype(
            np.float32
        )
        logit = np.zeros(n, dtype=np.float64)
        if w_dense is not None:
            logit += dense @ w_dense

        sparse: dict[str, np.ndarray] = {}
        for spec in schema.tables:
            ids = (
                samplers[spec.name]
                .sample(n * spec.multiplicity)
                .reshape(n, spec.multiplicity)
            )
            sparse[spec.name] = ids
            logit += affinities[spec.name][ids].mean(axis=1) / np.sqrt(
                schema.num_sparse
            )

        # Center the day's logits: the Zipf head concentrates lookups on
        # a handful of rows whose affinity mean is a nonzero random draw,
        # which would skew the base rate toward one class and let a
        # majority-class predictor sit at the Bayes accuracy.  Balanced
        # classes keep accuracy sensitive to the *learned* signal.
        logit -= logit.mean()
        logit += day_rng.normal(0.0, label_noise, size=n)
        probs = 1.0 / (1.0 + np.exp(-logit))
        labels = (day_rng.random(n) < probs).astype(np.float32)

        log = object.__new__(SyntheticClickLog)
        log.schema = schema
        log.config = config
        log.dense = dense
        log.sparse = sparse
        log.labels = labels
        log._logits = logit
        log._samplers = dict(samplers)
        days.append(log)
    return days


def write_day_shards(directory, days: list[SyntheticClickLog]) -> ShardChunkSource:
    """Persist a day stream as one shard per day.

    The returned :class:`ShardChunkSource` replays the stream with
    day-granular chunks: one
    :meth:`~repro.core.drift.DriftDetector.check` per chunk pinpoints
    which day broke coverage, and the popularity-shift scenario iterates
    the same surface.
    """
    if not days:
        raise ValueError("need at least one day")
    schema = days[0].schema

    def factory():
        start = 0
        for day in days:
            yield start, day
            start += len(day)

    source = UnsizedChunkSource(schema, factory, chunk_size=len(days[0]))
    save_log_shards(directory, source)
    return ShardChunkSource(directory)
