"""End-to-end FAE static preprocessing (paper Fig 5, left half).

:func:`fae_preprocess_source` is the real pipeline: a thin two-pass
orchestration over a :class:`~repro.data.chunk_source.ChunkSource` —
pass 1 samples, profiles, and calibrates the access threshold; pass 2
classifies each chunk and packs pure hot/cold mini-batches.  Neither
pass materializes the source, so preprocess memory is bounded by one
chunk (plus 8 bytes of packed index per input).

:func:`fae_preprocess` wraps an in-memory log in a chunk source and
delegates; for the same seed the output is byte-identical regardless of
``chunk_size`` (including the default, the whole log as one chunk).  Both
return a :class:`FAEPlan`: the access threshold, the hot bags, the
packed hot/cold mini-batches, and profiling/latency telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.calibrator import Calibrator, CalibratorOutput
from repro.core.classifier import EmbeddingClassifier, HotEmbeddingBagSpec
from repro.core.config import FAEConfig
from repro.core.fae_format import save_fae_dataset, save_fae_dataset_sharded
from repro.core.input_processor import FAEDataset, InputProcessor
from repro.data.chunk_source import ChunkSource, as_chunk_source
from repro.data.synthetic import SyntheticClickLog
from repro.obs import span

__all__ = ["FAEPlan", "fae_preprocess", "fae_preprocess_source"]


@dataclass(frozen=True)
class FAEPlan:
    """Everything the FAE runtime needs, produced once per dataset.

    Attributes:
        config: the configuration the plan was built under.
        calibration: calibrator telemetry (profile, threshold search).
        bags: hot bag specs per table.
        dataset: packed pure-hot / pure-cold mini-batches.
        classify_seconds: input-processor classification wall time.
    """

    config: FAEConfig
    calibration: CalibratorOutput
    bags: dict[str, HotEmbeddingBagSpec]
    dataset: FAEDataset
    classify_seconds: float

    @property
    def threshold(self) -> float:
        return self.calibration.threshold

    @property
    def hot_bytes(self) -> int:
        return EmbeddingClassifier.total_hot_bytes(self.bags)

    @property
    def hot_input_fraction(self) -> float:
        return self.dataset.hot_input_fraction

    def save(self, path: str | Path, shard_size: int | None = None) -> None:
        """Persist the packed dataset + bags in the FAE format.

        Args:
            path: destination — a ``.npz`` file for the flat layout, or
                a directory when ``shard_size`` is given.
            shard_size: batches per shard; None keeps the flat
                single-archive layout.
        """
        if shard_size is None:
            save_fae_dataset(path, self.dataset, self.bags, self.threshold)
        else:
            save_fae_dataset_sharded(
                path, self.dataset, self.bags, self.threshold, shard_size=shard_size
            )

    def summary(self) -> str:
        """Human-readable plan overview (examples print this)."""
        hot_mib = self.hot_bytes / 2**20
        total_mib = self.calibration.profile.schema.total_embedding_bytes / 2**20
        num_hot, num_cold = self.dataset.batch_counts()
        return (
            f"threshold={self.threshold:g}  hot embeddings {hot_mib:.1f} MiB "
            f"(of {total_mib:.1f} MiB)  hot inputs "
            f"{100 * self.hot_input_fraction:.1f}%  batches: {num_hot} hot / {num_cold} cold"
        )


def fae_preprocess_source(
    source: ChunkSource,
    config: FAEConfig | None = None,
    batch_size: int = 1024,
    drop_last: bool = False,
) -> FAEPlan:
    """Run the complete static FAE pipeline over a chunk source.

    Two passes: (1) sample + profile + calibrate the threshold; (2)
    classify each chunk and pack pure mini-batches.  Memory stays
    bounded by one chunk regardless of source length.

    Args:
        source: chunked training inputs (anything
            :func:`~repro.data.chunk_source.as_chunk_source` accepts).
        config: FAE knobs; defaults to the paper's settings.
        batch_size: mini-batch size to pack (weak-scaled by caller).
        drop_last: drop trailing short batches.

    Returns:
        The preprocessing plan (persist with :meth:`FAEPlan.save`).
    """
    config = config or FAEConfig()
    source = as_chunk_source(source)
    num_samples = source.num_samples
    with span(
        "preprocess",
        num_inputs=(-1 if num_samples is None else num_samples),
        chunk_size=source.chunk_size,
    ):
        calibration = Calibrator(config).calibrate_source(source)
        bags = EmbeddingClassifier(config).classify(calibration.profile, calibration.threshold)
        processor = InputProcessor(bags, seed=config.seed)
        dataset = processor.classify_and_pack_stream(
            source, batch_size=batch_size, drop_last=drop_last
        )
    return FAEPlan(
        config=config,
        calibration=calibration,
        bags=bags,
        dataset=dataset,
        classify_seconds=processor.last_classify_seconds,
    )


def fae_preprocess(
    log: SyntheticClickLog,
    config: FAEConfig | None = None,
    batch_size: int = 1024,
    drop_last: bool = False,
    chunk_size: int | None = None,
) -> FAEPlan:
    """Run the complete static FAE pipeline over an in-memory click log.

    Thin wrapper over :func:`fae_preprocess_source`; ``chunk_size``
    bounds the per-pass working set (None processes the log as a single
    chunk).  The packed output is byte-identical for any chunking of the
    same log and seed.
    """
    return fae_preprocess_source(
        as_chunk_source(log, chunk_size=chunk_size),
        config=config,
        batch_size=batch_size,
        drop_last=drop_last,
    )
