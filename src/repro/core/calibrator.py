"""Calibrator: the static front half of the FAE pipeline (paper Fig 5).

Chains Sparse Input Sampler -> Embedding Logger -> Statistical Optimizer
to produce the final access threshold and the access profile the
classifier and input processor consume.  Runs once per (dataset, model,
system) tuple; its outputs are persisted in the FAE format.

The calibrator consumes any :class:`~repro.data.chunk_source.ChunkSource`
(:meth:`Calibrator.calibrate_source`): sized sources pre-draw the exact
sample positions so the result is byte-identical however the input is
chunked; unsized sources (true streams) fall back to one fused pass with
per-chunk Bernoulli sampling.  The whole-log :meth:`Calibrator.calibrate`
is a thin wrapper over a single-chunk source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.access_profile import AccessProfile
from repro.core.config import FAEConfig
from repro.core.embedding_logger import EmbeddingLogger
from repro.core.optimizer import CalibrationResult, StatisticalOptimizer
from repro.core.sampler import SparseInputSampler
from repro.data.chunk_source import ChunkSource, LogChunkSource
from repro.data.synthetic import SyntheticClickLog
from repro.obs import span, timed

__all__ = ["CalibratorOutput", "Calibrator"]


@dataclass(frozen=True)
class CalibratorOutput:
    """Everything the calibrator learned.

    Attributes:
        profile: sampled access profile (large tables).
        result: threshold search outcome.
        sampling_seconds: wall time of the input-sampling pass.
        profiling_seconds: wall time of the access-counting pass.
        optimize_seconds: wall time of the threshold search.
    """

    profile: AccessProfile
    result: CalibrationResult
    sampling_seconds: float
    profiling_seconds: float
    optimize_seconds: float

    @property
    def threshold(self) -> float:
        return self.result.threshold

    @property
    def total_seconds(self) -> float:
        return self.sampling_seconds + self.profiling_seconds + self.optimize_seconds


class Calibrator:
    """End-to-end static calibration.

    Args:
        config: FAE configuration.
    """

    def __init__(self, config: FAEConfig) -> None:
        self.config = config

    def calibrate(self, log: SyntheticClickLog, full_profile: bool = False) -> CalibratorOutput:
        """Run sampling, profiling, and threshold convergence on ``log``.

        Args:
            log: the training inputs to calibrate against.
            full_profile: bypass sampling and profile every input (the
                naive baseline benchmarked in Fig 8; default False).
        """
        return self.calibrate_source(LogChunkSource(log), full_profile=full_profile)

    def calibrate_source(
        self, source: ChunkSource, full_profile: bool = False
    ) -> CalibratorOutput:
        """Run the calibration passes over a chunk source.

        Sized sources use the exact-count sampler (chunking-invariant);
        unsized sources stream per-chunk Bernoulli keep masks instead,
        fusing sampling and profiling into one pass.

        Args:
            full_profile: bypass sampling and profile every input.
        """
        num_samples = source.num_samples
        with span(
            "calibrate", num_inputs=(-1 if num_samples is None else num_samples)
        ) as calibrate_span:
            sampler = SparseInputSampler(self.config.sample_rate, seed=self.config.seed)
            logger = EmbeddingLogger(self.config)

            if num_samples is not None:
                sample = (
                    sampler.sample_all_source(source)
                    if full_profile
                    else sampler.sample_source(source)
                )
                profile = logger.profile_source(source, sample.indices)
                sampling_seconds = sample.elapsed_seconds
            else:
                profile = self._profile_unsized(source, sampler, logger, full_profile)
                sampling_seconds = 0.0

            optimizer = StatisticalOptimizer(self.config)
            with timed("calibrate.optimize") as optimize_timer:
                result = optimizer.converge(profile)
                optimize_timer.set(iterations=result.iterations, threshold=result.threshold)
            calibrate_span.set(threshold=result.threshold)

        return CalibratorOutput(
            profile=profile,
            result=result,
            sampling_seconds=sampling_seconds,
            profiling_seconds=logger.last_elapsed_seconds,
            optimize_seconds=optimize_timer.seconds,
        )

    def _profile_unsized(
        self,
        source: ChunkSource,
        sampler: SparseInputSampler,
        logger: EmbeddingLogger,
        full_profile: bool,
    ) -> AccessProfile:
        """One fused sample+profile pass for sources of unknown length."""
        stream = sampler.bernoulli_stream(full_profile=full_profile)
        with timed("calibrate.profile", rate=stream.rate, streaming=True) as timer:
            accumulator = logger.accumulator(source.schema)
            first_chunk = None
            for _start, chunk in source:
                if first_chunk is None and len(chunk):
                    first_chunk = chunk
                accumulator.update(chunk, np.flatnonzero(stream.draw(len(chunk))))
            if accumulator.num_sampled == 0 and first_chunk is not None:
                # Bernoulli draws kept nothing; keep one row so downstream
                # stages never see an empty profile (mirrors the exact
                # sampler's at-least-one guarantee).
                accumulator.update(first_chunk, np.array([0]), count_observed=False)
            timer.set(
                num_sampled=accumulator.num_sampled,
                num_total=accumulator.num_observed,
                num_tables=accumulator.num_tables,
            )
        logger.last_elapsed_seconds = timer.seconds
        return accumulator.finalize()
