"""Sparse Input Sampler (paper SS III-A.1).

Profiling every input of a 45-80M-sample dataset is the dominant cost of
a naive calibrator.  The sampler instead draws a uniform random x% subset
of input positions; because inputs are i.i.d. draws from the underlying
popularity distribution, the sampled access profile converges to the full
profile (paper Fig 7 shows 5% suffices), at a 19-55x latency saving
(Fig 8).

Two sampling modes serve the chunked preprocess pipeline:

- when the source length is known (:meth:`SparseInputSampler.sample`
  over a log, a shard directory or any sized chunk source), the exact
  positions are pre-drawn once and each chunk selects its slice of them,
  so the sample, and everything downstream, is byte-identical no matter
  how the input is chunked;
- when the length is unknown (a true stream), the sampler hands out a
  :class:`BernoulliSampleStream` drawing per-row keep masks at the
  configured rate, one chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.chunk_source import as_chunk_source
from repro.obs import timed

__all__ = ["BernoulliSampleStream", "SparseInputSampler", "SampleResult"]


@dataclass(frozen=True)
class SampleResult:
    """Outcome of one sampling pass.

    Attributes:
        indices: sorted int64 positions of the sampled inputs.
        num_total_inputs: size of the full input set.
        elapsed_seconds: wall time of the sampling pass itself.
    """

    indices: np.ndarray
    num_total_inputs: int
    elapsed_seconds: float

    @property
    def num_sampled(self) -> int:
        return int(self.indices.shape[0])

    @property
    def rate(self) -> float:
        return self.num_sampled / self.num_total_inputs


class BernoulliSampleStream:
    """Per-chunk Bernoulli keep masks for sources of unknown length.

    Draws are consumed sequentially from one generator, so the kept set
    depends only on row order, not on where chunk boundaries fall.

    Args:
        rate: keep probability per row, in ``(0, 1]``.
        seed: draw seed.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0 < rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = rate
        self.observed = 0
        self.sampled = 0
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int) -> np.ndarray:
        """Keep mask for the next ``n`` rows of the stream."""
        mask = self._rng.random(n) < self.rate
        self.observed += int(n)
        self.sampled += int(np.count_nonzero(mask))
        return mask


class SparseInputSampler:
    """Uniform random sampler over input positions.

    Args:
        sample_rate: fraction ``x`` of inputs to keep, in ``(0, 1]``.
        seed: sampling seed.
    """

    def __init__(self, sample_rate: float, seed: int = 0) -> None:
        if not 0 < sample_rate <= 1:
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.seed = seed

    def sample(self, source) -> SampleResult:
        """Draw the sample over a sized source.

        The positions depend only on the input count, never on how the
        input is chunked.  At least one input is always kept so
        downstream stages never see an empty profile.

        Args:
            source: anything :func:`~repro.data.chunk_source.as_chunk_source`
                accepts.

        Raises:
            ValueError: if the source length is unknown (use
                :meth:`bernoulli_stream` for those).
        """
        total = _num_inputs(source)
        with timed("calibrate.sample", rate=self.sample_rate) as timer:
            keep = max(1, int(round(total * self.sample_rate)))
            rng = np.random.default_rng(self.seed)
            indices = np.sort(rng.choice(total, size=keep, replace=False)).astype(np.int64)
            timer.set(num_sampled=keep, num_total=total)
        return SampleResult(
            indices=indices,
            num_total_inputs=total,
            elapsed_seconds=timer.seconds,
        )

    def bernoulli_stream(self, full_profile: bool = False) -> BernoulliSampleStream:
        """Streaming keep-mask sampler for sources of unknown length."""
        rate = 1.0 if full_profile else self.sample_rate
        return BernoulliSampleStream(rate, seed=self.seed)

    def sample_all(self, source) -> SampleResult:
        """The naive full-dataset "sample" over a sized source (Fig 8 baseline)."""
        total = _num_inputs(source)
        with timed("calibrate.sample", rate=1.0, full_profile=True) as timer:
            indices = np.arange(total, dtype=np.int64)
            timer.set(num_sampled=total, num_total=total)
        return SampleResult(
            indices=indices,
            num_total_inputs=total,
            elapsed_seconds=timer.seconds,
        )


def _num_inputs(source) -> int:
    total = as_chunk_source(source).num_samples
    if total is None:
        raise ValueError("source length unknown; use bernoulli_stream() for unsized sources")
    return total
