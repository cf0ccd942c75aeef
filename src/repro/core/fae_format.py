"""FAE format: persistence of the preprocessed dataset (paper SS III-B).

Calibration, classification, and batch packing run *once* per dataset;
subsequent training jobs load the result directly.  Two layouts share
the same logical content (hot mask, packed batch index arrays, per-table
hot bags, calibration threshold, format version):

- **flat** — a single ``.npz`` archive (:func:`save_fae_dataset`), fine
  for datasets whose batch index arrays fit in one file;
- **sharded** — a directory of ``shard-%06d.npz`` files each holding
  ``shard_size`` batches, plus ``bags.npz``, ``mask.npz``, and a JSON
  manifest with per-shard SHA-256 checksums
  (:func:`save_fae_dataset_sharded`).  Shards are loaded lazily through
  :class:`ShardBatchSequence`, so a trainer never holds more than one
  shard of batch indices in memory.

Every archive goes through the one codec in :mod:`repro.data.npz_codec`
(members stored, not deflated; serialised once in memory, hashed from
that buffer, written once) and every file is written atomically (temp
file + ``os.replace``); the
manifest is written *last* — an interrupted sharded save never leaves a
directory that loads as complete.  :func:`load_fae_dataset` dispatches
on the path (directory or manifest -> sharded, file -> flat); loading a
truncated or corrupt artifact raises a :class:`RuntimeError` naming the
offending file instead of a bare numpy stack trace.

Integer members are stored at the width of their range
(:func:`~repro.data.npz_codec.id_dtype`): batch indices at the input
count's, hot-bag ``hot_ids`` at their table's.  Every loader widens them
to int64 once, so a loaded dataset is what was saved, and int64 archives
from earlier writers load through the same line.  Loaded batch indices,
``hot_ids`` and the sharded layout's hot mask are read-only (the codec
hands out views of the file's bytes; a widened copy is made read-only
too): the one writer of a hot mask, the cache's repack, copies it first.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.input_processor import FAEDataset
from repro.data.npz_codec import NpzReader, id_dtype, write_npz
from repro.resilience.atomic import atomic_write_text

__all__ = [
    "FORMAT_VERSION",
    "ShardBatchSequence",
    "load_fae_dataset",
    "save_fae_dataset",
    "save_fae_dataset_sharded",
]

FORMAT_VERSION = 1

FAE_MANIFEST = "fae_manifest.json"
SHARDED_FORMAT = "fae-sharded"


def _narrow(indices: np.ndarray, count: int) -> np.ndarray:
    """``indices`` (all in ``[0, count)``) at the width they are stored at."""
    return indices.astype(id_dtype(count), copy=False)


def _widened(archive: NpzReader, name: str) -> np.ndarray:
    """Member ``name`` of an integer-array archive, as read-only int64."""
    indices = archive[name].astype(np.int64, copy=False)
    indices.flags.writeable = False  # as read-only as an int64 member's view
    return indices


def _bag_payload(bags: dict[str, HotEmbeddingBagSpec]) -> dict[str, np.ndarray]:
    """Archive entries describing the hot bags (shared by both layouts)."""
    names = sorted(bags)
    payload: dict[str, np.ndarray] = {"bag_names": np.array(names)}
    for name in names:
        bag = bags[name]
        payload[f"bag_{name}_hot_ids"] = _narrow(bag.hot_ids, bag.num_rows)
        payload[f"bag_{name}_meta"] = np.array(
            [bag.num_rows, bag.dim, int(bag.whole_table)], dtype=np.int64
        )
    return payload


def _bags_from_archive(archive) -> dict[str, HotEmbeddingBagSpec]:
    """Inverse of :func:`_bag_payload`."""
    bags: dict[str, HotEmbeddingBagSpec] = {}
    for name in archive["bag_names"]:
        name = str(name)
        num_rows, dim, whole = archive[f"bag_{name}_meta"]
        bags[name] = HotEmbeddingBagSpec(
            table_name=name,
            hot_ids=_widened(archive, f"bag_{name}_hot_ids"),
            num_rows=int(num_rows),
            dim=int(dim),
            whole_table=bool(whole),
        )
    return bags


def save_fae_dataset(
    path: str | Path,
    dataset: FAEDataset,
    bags: dict[str, HotEmbeddingBagSpec],
    threshold: float,
) -> None:
    """Serialize a packed dataset and its hot bags to ``path`` (.npz).

    Args:
        path: destination file; parent directories must exist.
        dataset: packed hot/cold batches.
        bags: hot bag specs by table name.
        threshold: the calibrated access threshold that produced them.
    """
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION),
        "threshold": np.array(threshold, dtype=np.float64),
        "batch_size": np.array(dataset.batch_size),
        "hot_mask": dataset.hot_mask,
        "num_hot_batches": np.array(len(dataset.hot_batches)),
        "num_cold_batches": np.array(len(dataset.cold_batches)),
    }
    for i, batch in enumerate(dataset.hot_batches):
        payload[f"hot_batch_{i:06d}"] = _narrow(batch, dataset.num_inputs)
    for i, batch in enumerate(dataset.cold_batches):
        payload[f"cold_batch_{i:06d}"] = _narrow(batch, dataset.num_inputs)
    payload.update(_bag_payload(bags))
    # numpy's savez appends ".npz" to suffix-less paths; resolve the final
    # name the same way so the atomic replace lands where numpy would.
    final = Path(path)
    if final.suffix != ".npz":
        final = final.with_name(final.name + ".npz")
    write_npz(final, payload)


def save_fae_dataset_sharded(
    directory: str | Path,
    dataset: FAEDataset,
    bags: dict[str, HotEmbeddingBagSpec],
    threshold: float,
    shard_size: int = 256,
) -> Path:
    """Serialize a packed dataset as a sharded directory.

    Batches are grouped ``shard_size`` to a file, hot stream first, each
    shard written atomically and checksummed; the manifest goes last.

    Returns:
        The shard directory path.
    """
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    write_npz(directory / "bags.npz", _bag_payload(bags))
    write_npz(directory / "mask.npz", {"hot_mask": dataset.hot_mask})

    shards: list[dict] = []

    def write_shards(batches, kind: str) -> None:
        for start in range(0, len(batches), shard_size):
            group = list(batches[start : start + shard_size])
            name = f"shard-{len(shards):06d}.npz"
            payload = {
                f"batch_{i:06d}": _narrow(batch, dataset.num_inputs)
                for i, batch in enumerate(group)
            }
            shards.append(
                {
                    "file": name,
                    "kind": kind,
                    "start": start,
                    "count": len(group),
                    "sha256": write_npz(directory / name, payload),
                }
            )

    write_shards(dataset.hot_batches, "hot")
    write_shards(dataset.cold_batches, "cold")

    manifest = {
        "format": SHARDED_FORMAT,
        "format_version": FORMAT_VERSION,
        "threshold": float(threshold),
        "batch_size": int(dataset.batch_size),
        "shard_size": int(shard_size),
        "num_hot_batches": len(dataset.hot_batches),
        "num_cold_batches": len(dataset.cold_batches),
        "files": {"bags": "bags.npz", "mask": "mask.npz"},
        "shards": shards,
    }
    atomic_write_text(directory / FAE_MANIFEST, json.dumps(manifest, indent=1) + "\n")
    return directory


class ShardBatchSequence(Sequence):
    """Lazy list-of-batches view over checksummed shard files.

    Supports ``len()``, integer indexing, slicing, and iteration — the
    full surface the trainers use — while holding at most one decoded
    shard in memory (iteration and slices walk shard by shard).  Each
    load reads the file once, verifies its SHA-256 and decodes the same
    bytes; corruption raises a :class:`RuntimeError` naming the file.
    """

    def __init__(self, directory: Path, shards: list[dict]) -> None:
        self._directory = directory
        self._shards = shards
        self._ends: list[int] = []
        total = 0
        for shard in shards:
            total += int(shard["count"])
            self._ends.append(total)
        self._total = total
        self._cache_index: int | None = None
        self._cache: list[np.ndarray] = []

    def __len__(self) -> int:
        return self._total

    def _load_shard(self, shard_index: int) -> list[np.ndarray]:
        if shard_index == self._cache_index:
            return self._cache
        shard = self._shards[shard_index]
        path = self._directory / str(shard["file"])
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise RuntimeError(f"FAE shard {path} is missing") from None
        # Hashed before any member is decoded, from the bytes that are
        # then decoded: one read, and no window between check and use.
        actual = hashlib.sha256(blob).hexdigest()
        expected = str(shard["sha256"])
        if actual != expected:
            raise RuntimeError(
                f"FAE shard {path} failed its checksum "
                f"(expected {expected[:12]}..., got {actual[:12]}...)"
            )
        archive = NpzReader(blob, f"FAE shard {path}")
        batches = [_widened(archive, f"batch_{i:06d}") for i in range(int(shard["count"]))]
        self._cache_index = shard_index
        self._cache = batches
        return batches

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(f"batch index {index} out of range [0, {self._total})")
        shard_index = bisect_right(self._ends, index)
        offset = index - (self._ends[shard_index - 1] if shard_index else 0)
        return self._load_shard(shard_index)[offset]

    def __iter__(self) -> Iterator[np.ndarray]:
        for shard_index in range(len(self._shards)):
            yield from self._load_shard(shard_index)

    def materialize(self) -> list[np.ndarray]:
        """Decode every shard into a plain list (tests / small datasets)."""
        return list(self)


def _load_sharded(directory: Path) -> tuple[FAEDataset, dict[str, HotEmbeddingBagSpec], float]:
    manifest_path = directory / FAE_MANIFEST
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        raise RuntimeError(f"FAE manifest {manifest_path} is corrupt: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != SHARDED_FORMAT:
        raise RuntimeError(f"FAE manifest {manifest_path} is not a {SHARDED_FORMAT} manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"FAE format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    try:
        threshold = float(manifest["threshold"])
        batch_size = int(manifest["batch_size"])
        num_hot = int(manifest["num_hot_batches"])
        num_cold = int(manifest["num_cold_batches"])
        shards = list(manifest["shards"])
        files = manifest["files"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RuntimeError(
            f"FAE manifest {manifest_path} is truncated: missing {exc}"
        ) from exc

    mask_path = directory / str(files["mask"])
    hot_mask = NpzReader(mask_path.read_bytes(), f"FAE hot mask {mask_path}")["hot_mask"]
    bags_path = directory / str(files["bags"])
    bags = _bags_from_archive(NpzReader(bags_path.read_bytes(), f"FAE hot bags {bags_path}"))

    hot_shards = [s for s in shards if s.get("kind") == "hot"]
    cold_shards = [s for s in shards if s.get("kind") == "cold"]
    hot_batches = ShardBatchSequence(directory, hot_shards)
    cold_batches = ShardBatchSequence(directory, cold_shards)
    if len(hot_batches) != num_hot or len(cold_batches) != num_cold:
        raise RuntimeError(
            f"FAE manifest {manifest_path} shard counts disagree with batch totals "
            f"({len(hot_batches)}/{num_hot} hot, {len(cold_batches)}/{num_cold} cold)"
        )
    dataset = FAEDataset(
        hot_batches=hot_batches,
        cold_batches=cold_batches,
        hot_mask=hot_mask,
        batch_size=batch_size,
    )
    return dataset, bags, threshold


def load_fae_dataset(
    path: str | Path,
) -> tuple[FAEDataset, dict[str, HotEmbeddingBagSpec], float]:
    """Load a dataset written by either :func:`save_fae_dataset` variant.

    A directory (or a path to its manifest) loads the sharded layout
    with lazy, checksum-verified batch sequences; a file loads the flat
    single-archive layout.

    Returns:
        ``(dataset, bags, threshold)``.

    Raises:
        ValueError: on a format-version mismatch.
        FileNotFoundError: if ``path`` does not exist.
        RuntimeError: if an artifact is truncated or corrupt (the error
            names the file).
    """
    path = Path(path)
    if path.is_dir():
        return _load_sharded(path)
    if path.name == FAE_MANIFEST:
        return _load_sharded(path.parent)
    archive = NpzReader(path.read_bytes(), f"packed FAE dataset {path}")
    if "format_version" not in archive:
        raise RuntimeError(
            f"packed FAE dataset {path} is missing its format header — "
            "not a FAE dataset archive"
        )
    version = int(archive["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"FAE format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    threshold = float(archive["threshold"])
    batch_size = int(archive["batch_size"])
    hot_mask = np.array(archive["hot_mask"])  # a view would keep the whole archive alive
    hot_batches = [
        _widened(archive, f"hot_batch_{i:06d}") for i in range(int(archive["num_hot_batches"]))
    ]
    cold_batches = [
        _widened(archive, f"cold_batch_{i:06d}") for i in range(int(archive["num_cold_batches"]))
    ]
    bags = _bags_from_archive(archive)
    dataset = FAEDataset(
        hot_batches=hot_batches,
        cold_batches=cold_batches,
        hot_mask=hot_mask,
        batch_size=batch_size,
    )
    return dataset, bags, threshold
