"""Chunk sources: the one input shape every preprocess stage consumes.

The FAE preprocess stages (sample, profile, classify, pack — paper
§III) are all single-pass by nature, but the original implementation fed
them a fully materialized log, so peak memory scaled with the whole
dataset.  A :class:`ChunkSource` abstracts "the training inputs" down to
what those stages actually need: a re-iterable sequence of
``(start_index, ClickLog)`` column chunks of bounded size, plus the
schema and (when known) the total length.

Backends:

- :class:`LogChunkSource` — zero-copy row-slice views over an in-memory
  log (a ``chunk_size`` of ``None`` yields the whole log as one chunk,
  which is how the legacy whole-log APIs delegate to the streaming code
  without changing a byte of their output);
- :class:`StreamChunkSource` — adapts
  :class:`~repro.data.stream.SyntheticClickStream`, whose chunks are
  generated lazily and never coexist in memory;
- :class:`ShardChunkSource` — on-disk raw-log shards written by
  :func:`save_log_shards` (one ``.npz`` per chunk plus a JSON manifest,
  each written atomically, ids stored at the width of their table); its
  chunks are column-lazy (:class:`ShardChunk`), so a stage pays for the
  columns it reads, widened to int64 as it reads them;
- :class:`UnsizedChunkSource` — wraps a chunk-iterable factory whose
  total length is unknown up front (true streaming ingest); downstream
  samplers fall back to per-chunk Bernoulli draws for these.

Every source is re-iterable: the preprocess pipeline makes two passes
(calibrate, then classify+pack) over the same source.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.data.log import ClickLog
from repro.data.npz_codec import NpzReader, id_dtype, write_npz
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.data.stream import SyntheticClickStream
from repro.obs import span
from repro.resilience.atomic import atomic_write_text

__all__ = [
    "ChunkSource",
    "LogChunkSource",
    "ShardChunk",
    "ShardChunkSource",
    "StreamChunkSource",
    "UnsizedChunkSource",
    "as_chunk_source",
    "save_log_shards",
]

SHARD_MANIFEST = "manifest.json"
SHARD_FORMAT = "click-log-shards"
SHARD_FORMAT_VERSION = 1


class ChunkSource:
    """Re-iterable sequence of ``(start_index, ClickLog)`` chunks.

    Attributes:
        schema: table geometry shared by every chunk.
        chunk_size: nominal samples per chunk (the last may be short).
    """

    schema: DatasetSchema
    chunk_size: int

    @property
    def num_samples(self) -> int | None:
        """Total samples, or None when the length is unknown up front."""
        raise NotImplementedError

    def chunks(self) -> Iterator[tuple[int, ClickLog]]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[int, ClickLog]]:
        return self.chunks()


class LogChunkSource(ChunkSource):
    """Chunk view over an in-memory log (zero copies).

    Args:
        log: any log-shaped object (``schema``/``dense``/``sparse``/
            ``labels``); both :class:`~repro.data.log.ClickLog` and
            :class:`~repro.data.synthetic.SyntheticClickLog` qualify.
        chunk_size: rows per chunk; None yields the whole log as a
            single chunk.

    Chunks are row-slice *views* of the log's C-order arrays, built via
    :meth:`ClickLog.from_trusted`, so iteration allocates nothing.
    """

    def __init__(self, log, chunk_size: int | None = None) -> None:
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.log = log
        self.schema = log.schema
        self.chunk_size = len(log) if chunk_size is None else chunk_size

    @property
    def num_samples(self) -> int:
        return len(self.log)

    def chunks(self) -> Iterator[tuple[int, ClickLog]]:
        total = len(self.log)
        step = max(1, self.chunk_size)
        for start in range(0, total, step):
            stop = min(start + step, total)
            yield start, ClickLog.from_trusted(
                schema=self.schema,
                dense=self.log.dense[start:stop],
                sparse={name: ids[start:stop] for name, ids in self.log.sparse.items()},
                labels=self.log.labels[start:stop],
            )


class StreamChunkSource(ChunkSource):
    """Adapter over a :class:`~repro.data.stream.SyntheticClickStream`.

    Chunks are generated on demand and dropped after use, so memory is
    bounded by one chunk regardless of ``total_samples``.
    """

    def __init__(self, stream: SyntheticClickStream) -> None:
        self.stream = stream
        self.schema = stream.schema
        self.chunk_size = stream.chunk_size

    @property
    def num_samples(self) -> int:
        return self.stream.total_samples

    def chunks(self) -> Iterator[tuple[int, ClickLog]]:
        return iter(self.stream)


class UnsizedChunkSource(ChunkSource):
    """A chunk stream whose total length is unknown until exhausted.

    Args:
        schema: table geometry of the chunks.
        factory: zero-argument callable returning a fresh iterable of
            ``(start_index, ClickLog)`` each call (re-iterability).
        chunk_size: nominal chunk size (informational).

    Sampling over an unsized source cannot pre-draw index positions, so
    the calibrator switches to streaming Bernoulli draws (see
    :class:`~repro.core.sampler.BernoulliSampleStream`).
    """

    def __init__(
        self,
        schema: DatasetSchema,
        factory: Callable[[], Iterable[tuple[int, ClickLog]]],
        chunk_size: int = 8192,
    ) -> None:
        self.schema = schema
        self.chunk_size = chunk_size
        self._factory = factory

    @property
    def num_samples(self) -> None:
        return None

    def chunks(self) -> Iterator[tuple[int, ClickLog]]:
        return iter(self._factory())


def _check_ids(ids: np.ndarray, num_rows: int, where: str) -> None:
    """Raise on an id outside ``[0, num_rows)``: the writer refuses what the reader rejects."""
    if ids.size:
        # An unsigned column holds no negative id: its max alone decides.
        low = 0 if ids.dtype.kind == "u" else ids.min()
        high = ids.max()
        if not (0 <= low and high < num_rows):  # a NaN (float-stored ids) fails too
            bad = high if 0 <= low else low
            raise ValueError(f"{where} id {bad} out of range [0, {num_rows})")


def save_log_shards(
    directory: str | Path,
    source,
    chunk_size: int | None = None,
) -> Path:
    """Write a chunk source (or log) as on-disk raw-log shards.

    One ``.npz`` per chunk (``dense``/``labels``/``sparse_<table>``, ids
    at the width of their table: :func:`~repro.data.npz_codec.id_dtype`,
    members stored, not deflated), each written
    atomically by :func:`~repro.data.npz_codec.write_npz` (equal logs give
    equal bytes), then a JSON manifest carrying the schema and the shard
    list -- written last, so a crashed or refused save never leaves a
    loadable-but-incomplete directory.

    Returns:
        The shard directory path.

    Raises:
        ValueError: an id outside its table's ``[0, num_rows)`` (names the
            table, the id and the shard index; that shard is not written).
    """
    source = as_chunk_source(source, chunk_size=chunk_size)
    schema = source.schema
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    shards: list[dict] = []
    total = 0
    for start, chunk in source:
        name = f"chunk-{len(shards):06d}.npz"
        payload: dict[str, np.ndarray] = {"dense": chunk.dense, "labels": chunk.labels}
        for table, ids in chunk.sparse.items():
            num_rows = schema.table(table).num_rows
            # Checked before the cast: a narrowing cast would wrap a bad id.
            _check_ids(ids, num_rows, f"log shard {len(shards)}: table {table!r}")
            payload[f"sparse_{table}"] = ids.astype(id_dtype(num_rows), copy=False)
        write_npz(directory / name, payload)
        shards.append({"file": name, "start": start, "num_samples": len(chunk)})
        total += len(chunk)

    manifest = {
        "format": SHARD_FORMAT,
        "format_version": SHARD_FORMAT_VERSION,
        "num_samples": total,
        "chunk_size": source.chunk_size,
        "schema": {
            "name": schema.name,
            "num_dense": schema.num_dense,
            "num_samples": schema.num_samples,
            "tables": [
                {
                    "name": spec.name,
                    "num_rows": spec.num_rows,
                    "dim": spec.dim,
                    "zipf_exponent": spec.zipf_exponent,
                    "multiplicity": spec.multiplicity,
                }
                for spec in schema.tables
            ],
        },
        "shards": shards,
    }
    atomic_write_text(directory / SHARD_MANIFEST, json.dumps(manifest, indent=1) + "\n")
    return directory


class _SparseColumns(Mapping):
    """``ShardChunk.sparse``: table name -> ids, decoded on first lookup."""

    def __init__(self, chunk: "ShardChunk") -> None:
        self._chunk = chunk

    def __getitem__(self, name: str) -> np.ndarray:
        spec = self._chunk.schema.table(name)
        return self._chunk._column(
            f"sparse_{name}", np.int64, (spec.multiplicity,), spec.num_rows
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._chunk.schema.table_names)

    def __len__(self) -> int:
        return len(self._chunk.schema.tables)


class ShardChunk(ClickLog):
    """One on-disk log shard whose columns decode on first use.

    Construction does the I/O (one read of the file, its zip directory
    parsed), so a missing or truncated shard fails at once; ``len()`` is
    the manifest's count.  ``sparse[name]``, ``dense`` and ``labels`` are
    each read, CRC-checked and validated -- rows against the manifest,
    shape against the schema, ids against the table's row range -- when
    first touched, then cached: every check an eager load applies, on
    every column that is used.  Damage in a column nobody reads is found
    by whoever first reads it.  Columns are read-only: ``dense`` and
    ``labels`` are views of the file's bytes, ids their widened copy; a
    caller that writes into a log works on a ``take`` of it.

    Raises:
        RuntimeError: missing, truncated or corrupt file or member, or a
            row count that disagrees with the manifest.
        ValueError: a column whose shape or id range violates the schema.
            Both name the file.
    """

    def __init__(self, schema: DatasetSchema, path: str | Path, count: int) -> None:
        self.schema = schema
        self._path = Path(path)
        self._count = count
        self._columns: dict[str, np.ndarray] = {}
        try:
            with span("data.shard.read", file=self._path.name) as read_span:
                blob = self._path.read_bytes()
                read_span.set(bytes=len(blob))
        except FileNotFoundError:
            raise RuntimeError(f"log shard {self._path} is missing") from None
        except OSError as exc:
            raise RuntimeError(f"log shard {self._path} is unreadable: {exc}") from exc
        self._archive = NpzReader(blob, f"log shard {self._path}")

    def __len__(self) -> int:
        return self._count

    @property
    def sparse(self) -> Mapping[str, np.ndarray]:
        # Built per access: stored, it would point back at the chunk, and a
        # cycle keeps a dropped shard's bytes alive until the collector runs.
        return _SparseColumns(self)

    @property
    def dense(self) -> np.ndarray:
        return self._column("dense", np.float32, (self.schema.num_dense,))

    @property
    def labels(self) -> np.ndarray:
        return self._column("labels", np.float32, ())

    def _column(
        self, member: str, dtype, row_shape: tuple[int, ...], num_rows: int | None = None
    ) -> np.ndarray:
        column = self._columns.get(member)
        if column is not None:
            return column
        stored = self._archive[member]
        where = f"log shard {self._path}: {member}"
        if stored.shape[:1] != (self._count,):
            raise RuntimeError(
                f"{where} has shape {stored.shape}, manifest says {self._count} samples"
            )
        if stored.shape[1:] != row_shape:
            raise ValueError(f"{where} shape {stored.shape} != {(self._count, *row_shape)}")
        # Ids are range-checked at their stored width, then widened once.
        if num_rows is not None:
            _check_ids(stored, num_rows, where)
        column = np.ascontiguousarray(stored, dtype=dtype)
        column.flags.writeable = False  # read-only at every width, a view or widened
        self._columns[member] = column
        return column


class ShardChunkSource(ChunkSource):
    """Chunk source over a shard directory written by :func:`save_log_shards`.

    Yields one column-lazy :class:`ShardChunk` per shard, dropped after
    the chunk is consumed, so iteration memory is bounded by the largest
    shard (its file bytes plus the columns a consumer touched).

    Raises:
        FileNotFoundError: if the manifest is missing.
        RuntimeError: if the manifest or a shard is corrupt (the error
            names the offending file).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / SHARD_MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
            raise RuntimeError(f"shard manifest {manifest_path} is corrupt: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != SHARD_FORMAT:
            raise RuntimeError(
                f"shard manifest {manifest_path} is not a {SHARD_FORMAT} manifest"
            )
        version = manifest.get("format_version")
        if version != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"shard format version {version} unsupported (expected {SHARD_FORMAT_VERSION})"
            )
        try:
            schema_spec = manifest["schema"]
            self.schema = DatasetSchema(
                name=schema_spec["name"],
                num_dense=schema_spec["num_dense"],
                tables=tuple(
                    EmbeddingTableSpec(
                        name=t["name"],
                        num_rows=t["num_rows"],
                        dim=t["dim"],
                        zipf_exponent=t["zipf_exponent"],
                        multiplicity=t["multiplicity"],
                    )
                    for t in schema_spec["tables"]
                ),
                num_samples=schema_spec["num_samples"],
            )
            self.chunk_size = int(manifest["chunk_size"])
            self._num_samples = int(manifest["num_samples"])
            self._shards = [
                (str(s["file"]), int(s["start"]), int(s["num_samples"]))
                for s in manifest["shards"]
            ]
        except (KeyError, TypeError) as exc:
            raise RuntimeError(
                f"shard manifest {manifest_path} is truncated: missing {exc}"
            ) from exc

    @property
    def num_samples(self) -> int:
        return self._num_samples

    def chunks(self) -> Iterator[tuple[int, ShardChunk]]:
        for name, start, count in self._shards:
            yield start, ShardChunk(self.schema, self.directory / name, count)


def as_chunk_source(obj, chunk_size: int | None = None) -> ChunkSource:
    """Coerce logs, streams, shard directories, or sources to a ChunkSource.

    Accepts an existing :class:`ChunkSource` (returned as-is), a
    :class:`~repro.data.stream.SyntheticClickStream`, a shard directory
    path, or any in-memory log-shaped object.
    """
    if isinstance(obj, ChunkSource):
        return obj
    if isinstance(obj, SyntheticClickStream):
        return StreamChunkSource(obj)
    if isinstance(obj, (str, Path)):
        return ShardChunkSource(obj)
    if hasattr(obj, "dense") and hasattr(obj, "sparse") and hasattr(obj, "labels"):
        return LogChunkSource(obj, chunk_size=chunk_size)
    raise TypeError(f"cannot build a ChunkSource from {type(obj).__name__}")
