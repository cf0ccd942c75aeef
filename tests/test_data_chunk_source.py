"""Tests for the chunk-source abstraction in :mod:`repro.data.chunk_source`."""

import json
import tempfile
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.chunk_source as chunk_source_module
from repro.core import FAEConfig, fae_preprocess, fae_preprocess_source
from repro.data import (
    ClickLog,
    LogChunkSource,
    ShardChunkSource,
    StreamChunkSource,
    SyntheticClickLog,
    SyntheticClickStream,
    SyntheticConfig,
    UnsizedChunkSource,
    as_chunk_source,
    save_log_shards,
)
from repro.data.chunk_source import SHARD_MANIFEST, ShardChunk
from repro.data.schema import DatasetSchema, EmbeddingTableSpec
from repro.data.npz_codec import NpzReader
from repro.data.validate import ValidatingChunkSource
from repro.obs import get_registry, span, tracing
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import IngestPolicy


@pytest.fixture(scope="module")
def small_log(tiny_schema):
    return SyntheticClickLog(tiny_schema, SyntheticConfig(num_samples=1000, seed=5))


def reassemble(source):
    """Concatenate a source's chunks back into full columns."""
    dense, labels = [], []
    sparse = {name: [] for name in source.schema.table_names}
    starts = []
    for start, chunk in source:
        starts.append((start, len(chunk)))
        dense.append(chunk.dense)
        labels.append(chunk.labels)
        for name, ids in chunk.sparse.items():
            sparse[name].append(ids)
    return (
        starts,
        np.concatenate(dense),
        {name: np.concatenate(parts) for name, parts in sparse.items()},
        np.concatenate(labels),
    )


class TestLogChunkSource:
    def test_single_chunk_default(self, small_log):
        source = LogChunkSource(small_log)
        chunks = list(source)
        assert len(chunks) == 1
        start, chunk = chunks[0]
        assert start == 0
        assert len(chunk) == len(small_log)
        assert source.num_samples == len(small_log)

    def test_chunks_are_views_not_copies(self, small_log):
        source = LogChunkSource(small_log, chunk_size=256)
        for start, chunk in source:
            assert np.shares_memory(chunk.dense, small_log.dense)
            for name, ids in chunk.sparse.items():
                assert np.shares_memory(ids, small_log.sparse[name])

    def test_reassembles_exactly(self, small_log):
        starts, dense, sparse, labels = reassemble(LogChunkSource(small_log, chunk_size=77))
        assert starts[0] == (0, 77)
        assert starts[-1][0] + starts[-1][1] == len(small_log)
        assert np.array_equal(dense, small_log.dense)
        assert np.array_equal(labels, small_log.labels)
        for name in sparse:
            assert np.array_equal(sparse[name], small_log.sparse[name])

    def test_reiterable(self, small_log):
        source = LogChunkSource(small_log, chunk_size=300)
        assert len(list(source)) == len(list(source)) == 4

    def test_rejects_bad_chunk_size(self, small_log):
        with pytest.raises(ValueError):
            LogChunkSource(small_log, chunk_size=0)


class TestStreamChunkSource:
    def test_matches_stream(self, tiny_schema):
        stream = SyntheticClickStream(tiny_schema, total_samples=500, chunk_size=128, seed=9)
        source = StreamChunkSource(stream)
        assert source.num_samples == 500
        assert source.chunk_size == 128
        starts, dense, _sparse, labels = reassemble(source)
        assert sum(n for _s, n in starts) == 500
        assert dense.shape[0] == 500 and labels.shape[0] == 500


class TestUnsizedChunkSource:
    def test_unknown_length_and_reiterable(self, tiny_schema):
        stream = SyntheticClickStream(tiny_schema, total_samples=400, chunk_size=100, seed=2)
        source = UnsizedChunkSource(tiny_schema, lambda: iter(stream), chunk_size=100)
        assert source.num_samples is None
        assert len(list(source)) == 4
        assert len(list(source)) == 4


class TestShardRoundTrip:
    def test_round_trip(self, small_log, tmp_path):
        directory = save_log_shards(
            tmp_path / "shards", LogChunkSource(small_log, chunk_size=256)
        )
        source = ShardChunkSource(directory)
        assert source.num_samples == len(small_log)
        assert source.schema.table_names == small_log.schema.table_names
        _starts, dense, sparse, labels = reassemble(source)
        assert np.array_equal(dense, small_log.dense)
        assert np.array_equal(labels, small_log.labels)
        for name in sparse:
            assert np.array_equal(sparse[name], small_log.sparse[name])

    def test_schema_fields_survive(self, small_log, tmp_path):
        directory = save_log_shards(tmp_path / "shards", small_log)
        schema = ShardChunkSource(directory).schema
        for spec, original in zip(schema.tables, small_log.schema.tables):
            assert spec.name == original.name
            assert spec.num_rows == original.num_rows
            assert spec.dim == original.dim
            assert spec.zipf_exponent == original.zipf_exponent
            assert spec.multiplicity == original.multiplicity

    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            ShardChunkSource(tmp_path / "empty")

    def test_corrupt_manifest_names_file(self, small_log, tmp_path):
        directory = save_log_shards(tmp_path / "shards", small_log)
        (directory / SHARD_MANIFEST).write_text("{not json", encoding="utf-8")
        with pytest.raises(RuntimeError, match=SHARD_MANIFEST):
            ShardChunkSource(directory)

    def test_wrong_format_rejected(self, small_log, tmp_path):
        directory = save_log_shards(tmp_path / "shards", small_log)
        (directory / SHARD_MANIFEST).write_text(json.dumps({"format": "other"}))
        with pytest.raises(RuntimeError, match="manifest"):
            ShardChunkSource(directory)

    def test_missing_shard_names_file(self, small_log, tmp_path):
        directory = save_log_shards(
            tmp_path / "shards", LogChunkSource(small_log, chunk_size=256)
        )
        (directory / "chunk-000001.npz").unlink()
        with pytest.raises(RuntimeError, match="chunk-000001"):
            list(ShardChunkSource(directory))

    def test_truncated_shard_names_file(self, small_log, tmp_path):
        directory = save_log_shards(
            tmp_path / "shards", LogChunkSource(small_log, chunk_size=256)
        )
        shard = directory / "chunk-000000.npz"
        shard.write_bytes(shard.read_bytes()[:40])
        with pytest.raises(RuntimeError, match="chunk-000000"):
            list(ShardChunkSource(directory))


# num_rows -> the narrowest dtype that holds ``num_rows - 1``.
STORED_DTYPE = {
    1: np.uint8, 2: np.uint8, 255: np.uint8, 256: np.uint8, 257: np.uint16,
    65_535: np.uint16, 65_536: np.uint16, 65_537: np.uint32,
    2**32: np.uint32, 2**32 + 1: np.int64,
}


def one_table_log(num_rows, ids):
    """An unvalidated log over one ``num_rows`` table (the schema only: no
    table is allocated), as a chunk source hands chunks to the writer."""
    ids = np.asarray(ids, dtype=np.int64)
    schema = DatasetSchema(
        name="width",
        num_dense=2,
        tables=(EmbeddingTableSpec("t", num_rows, dim=4, zipf_exponent=1.0,
                                   multiplicity=ids.shape[1]),),
        num_samples=len(ids),
    )
    return ClickLog.from_trusted(
        schema=schema,
        dense=np.zeros((len(ids), 2), dtype=np.float32),
        sparse={"t": ids},
        labels=np.zeros(len(ids), dtype=np.float32),
    )


class TestStoredIdWidth:
    """Ids are stored at the width of their table and widened once on decode."""

    @settings(max_examples=60, deadline=None)
    @given(
        num_rows=st.sampled_from(sorted(STORED_DTYPE)),
        multiplicity=st.sampled_from([1, 21]),
        data=st.data(),
    )
    def test_round_trip_at_the_narrowest_width(self, num_rows, multiplicity, data):
        rows = data.draw(st.integers(1, 5))
        flat = data.draw(
            st.lists(st.integers(0, num_rows - 1), min_size=rows * multiplicity,
                     max_size=rows * multiplicity)
        )
        ids = np.array(flat, dtype=np.int64).reshape(rows, multiplicity)
        ids[-1, -1] = num_rows - 1  # the widest id the table has is always there
        with tempfile.TemporaryDirectory() as tmp:
            directory = save_log_shards(tmp, one_table_log(num_rows, ids), chunk_size=3)
            stored = [shard_dtypes(path)["sparse_t"] for path in sorted(directory.glob("*.npz"))]
            assert set(stored) == {np.dtype(STORED_DTYPE[num_rows])}
            _starts, _dense, sparse, _labels = reassemble(ShardChunkSource(directory))
            for _start, chunk in ShardChunkSource(directory):
                got = chunk.sparse["t"]
                assert got.dtype == np.int64
                assert got.flags.c_contiguous and not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[0, 0] = 0
        assert np.array_equal(sparse["t"], ids)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
    def test_an_id_equal_to_num_rows_is_refused_at_every_width(self, dtype):
        # Unsigned columns skip the min (no negative fits their dtype).
        check = chunk_source_module._check_ids
        check(np.array([[0], [299], [7]], dtype=dtype), 300, "shard")
        with pytest.raises(ValueError, match=r"^shard id 300 out of range \[0, 300\)$"):
            check(np.array([[0], [300], [7]], dtype=dtype), 300, "shard")

    @pytest.mark.parametrize(
        "bad, shown", [(np.int64(-1), "-1"), (np.float32("nan"), "nan")]
    )
    def test_signed_and_float_columns_still_check_their_min(self, bad, shown):
        ids = np.array([[0], [bad], [7]], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError, match=rf"^shard id {shown} out of range \[0, 300\)$"):
            chunk_source_module._check_ids(ids, 300, "shard")

    def test_dense_and_labels_are_stored_as_they_are(self, shard_dir):
        assert shard_dtypes(shard_dir / "chunk-000000.npz") == {
            "dense": np.float32, "labels": np.float32,
            "sparse_table_00": np.uint16, "sparse_table_01": np.uint16,
            "sparse_table_02": np.uint8,
        }

    @pytest.mark.parametrize("bad", [-1, 300, 2**40])
    def test_writer_refuses_what_the_reader_would_reject(self, bad, tmp_path):
        ids = np.arange(8, dtype=np.int64).reshape(8, 1)
        ids[5, 0] = bad  # lands in the second shard of three
        with pytest.raises(ValueError) as refusal:
            save_log_shards(tmp_path / "shards", one_table_log(300, ids), chunk_size=3)
        message = str(refusal.value)
        assert "'t'" in message and str(bad) in message and "shard 1" in message
        assert "[0, 300)" in message
        # No file for the refused shard, no manifest, no temp file: not loadable.
        assert [p.name for p in (tmp_path / "shards").iterdir()] == ["chunk-000000.npz"]
        with pytest.raises(FileNotFoundError):
            ShardChunkSource(tmp_path / "shards")


class TestAsChunkSource:
    def test_passthrough(self, small_log):
        source = LogChunkSource(small_log)
        assert as_chunk_source(source) is source

    def test_coerces_log_stream_and_path(self, small_log, tiny_schema, tmp_path):
        assert isinstance(as_chunk_source(small_log), LogChunkSource)
        stream = SyntheticClickStream(tiny_schema, total_samples=100, chunk_size=50)
        assert isinstance(as_chunk_source(stream), StreamChunkSource)
        directory = save_log_shards(tmp_path / "shards", small_log)
        assert isinstance(as_chunk_source(directory), ShardChunkSource)

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            as_chunk_source(42)


# ----------------------------------------------------------------------
# Column-lazy shard chunks
# ----------------------------------------------------------------------

COLUMNS = ("dense", "labels", "table_00", "table_01", "table_02")
# Cutoffs scaled to the tiny schema: table_00/01 are profiled, table_02 is small.
TINY_CONFIG = FAEConfig(
    gpu_memory_budget=16 * 1024, sample_rate=0.2, large_table_min_bytes=1024, chunk_size=32, seed=3
)


def column(chunk, name):
    return getattr(chunk, name) if name in ("dense", "labels") else chunk.sparse[name]


def eager_load(path, schema, count):
    """The eager shard load this repo had before chunks were column-lazy:
    ``np.load`` of every member, then ``ClickLog``'s validation, then the
    manifest count.  The lazy chunk must agree with it column by column
    and fail with the same exception types."""
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            dense = archive["dense"]
            labels = archive["labels"]
            sparse = {s.name: archive[f"sparse_{s.name}"] for s in schema.tables}
    except FileNotFoundError:
        raise RuntimeError(f"log shard {path} is missing") from None
    except (KeyError, OSError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise RuntimeError(f"log shard {path} is truncated or corrupt: {exc}") from exc
    chunk = ClickLog(schema=schema, dense=dense, sparse=sparse, labels=labels)
    if len(chunk) != count:
        raise RuntimeError(f"log shard {path} holds {len(chunk)} samples, manifest says {count}")
    return chunk


def shard_dtypes(path):
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name].dtype for name in archive.files}


def shard_members(path):
    """A shard's members as every earlier writer stored them: ids as int64
    (so a damage case can plant any id), to be re-saved by the in-test eager
    writer ``np.savez_compressed``."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    return {
        name: value.astype(np.int64) if name.startswith("sparse_") else value
        for name, value in members.items()
    }


@pytest.fixture()
def shard_dir(small_log, tmp_path):
    return save_log_shards(tmp_path / "shards", LogChunkSource(small_log, chunk_size=256))


class SpyReader(NpzReader):
    """Records the members the codec decodes, in order."""

    decoded: list[str] = []

    def __getitem__(self, name):
        SpyReader.decoded.append(name)
        return super().__getitem__(name)


@pytest.fixture()
def decoded(monkeypatch):
    monkeypatch.setattr(SpyReader, "decoded", [])
    monkeypatch.setattr(chunk_source_module, "NpzReader", SpyReader)
    return SpyReader.decoded


class TestLazyShardChunk:
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(COLUMNS), repeats=st.lists(st.sampled_from(COLUMNS), max_size=4))
    def test_any_access_order_equals_the_eager_decode(self, small_log, order, repeats):
        with tempfile.TemporaryDirectory() as tmp:
            directory = save_log_shards(tmp, LogChunkSource(small_log, chunk_size=400))
            source = ShardChunkSource(directory)
            manifest = json.loads((directory / SHARD_MANIFEST).read_text(encoding="utf-8"))
            for (start, chunk), shard in zip(source, manifest["shards"]):
                count = shard["num_samples"]
                want = eager_load(directory / shard["file"], source.schema, count)
                assert len(chunk) == count == len(want)
                for name in (*order, *repeats):
                    got, ref = column(chunk, name), column(want, name)
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert np.array_equal(got, ref)
                    assert got.flags.c_contiguous and not got.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        got[:1] = 0
                    assert column(chunk, name) is got  # decoded once, then cached
                assert tuple(chunk.sparse) == source.schema.table_names
                assert np.array_equal(
                    chunk.take(np.arange(3)).sparse["table_01"], want.sparse["table_01"][:3]
                )

    def test_len_and_iteration_decode_nothing(self, shard_dir, decoded):
        chunks = [chunk for _start, chunk in ShardChunkSource(shard_dir)]
        assert [len(c) for c in chunks] == [256, 256, 256, 232]
        assert [list(c.sparse) for c in chunks] == [["table_00", "table_01", "table_02"]] * 4
        assert decoded == []

    def test_preprocess_decodes_only_the_columns_it_reads(
        self, small_log, shard_dir, decoded, tmp_path
    ):
        plan = fae_preprocess_source(ShardChunkSource(shard_dir), TINY_CONFIG, batch_size=64)
        profiled = [s.name for s in small_log.schema.large_tables(TINY_CONFIG.large_table_min_bytes)]
        partial = [name for name, bag in plan.bags.items() if not bag.whole_table]
        assert profiled == ["table_00", "table_01"] and partial  # table_02 is never needed
        shards = 4
        assert sorted(decoded) == sorted(
            [f"sparse_{n}" for n in profiled] * shards + [f"sparse_{n}" for n in partial] * shards
        )
        assert not {"dense", "labels", "sparse_table_02"} & set(decoded)
        # ... and the plan is the in-memory one, byte for byte.
        reference = fae_preprocess(small_log, TINY_CONFIG, batch_size=64, chunk_size=256)
        plan.save(tmp_path / "shards.npz")
        reference.save(tmp_path / "memory.npz")
        assert (tmp_path / "shards.npz").read_bytes() == (tmp_path / "memory.npz").read_bytes()

    def test_decoded_members_are_counted_and_the_read_is_a_span(self, shard_dir):
        registry = get_registry()
        members = registry.counter("data.shard.members_decoded")
        decoded_bytes = registry.counter("data.shard.bytes_decoded")
        before = members.value, decoded_bytes.value
        with tracing() as tracer:
            tracer.reset()
            _start, chunk = next(iter(ShardChunkSource(shard_dir)))
            ids, labels = chunk.sparse["table_00"], chunk.labels
            chunk.sparse["table_00"]  # cached: not decoded, not counted, again
            records = [r for r in tracer.records() if r.name == "data.shard.read"]
            tracer.reset()
        assert members.value - before[0] == 2
        # inflated bytes: each member's payload at its stored width (table_00
        # has 600 rows: uint16 on disk, int64 once decoded) plus its 128-byte
        # npy header
        assert ids.dtype == np.int64
        stored_ids_nbytes = ids.size * np.dtype(np.uint16).itemsize
        assert decoded_bytes.value - before[1] == stored_ids_nbytes + labels.nbytes + 2 * 128
        assert [r.attributes for r in records] == [
            {"file": "chunk-000000.npz", "bytes": (shard_dir / "chunk-000000.npz").stat().st_size}
        ]

    def test_tracer_off_read_uses_the_shared_noop_span(self, shard_dir, monkeypatch):
        opened = []
        real_span = chunk_source_module.span

        def recording_span(name, **attributes):
            opened.append(real_span(name, **attributes))
            return opened[-1]

        monkeypatch.setattr(chunk_source_module, "span", recording_span)
        with tracing(False) as tracer:
            # The tracer is process-global: count only what this read adds.
            earlier = len(tracer.records())
            list(ShardChunkSource(shard_dir))
            assert len(tracer.records()) == earlier
        assert len(opened) == 4 and all(s is span("anything") for s in opened)


class TestShardDamage:
    """What is checked when: the file at ``chunks()``, a column at first touch."""

    def test_truncated_file_fails_at_chunks_before_any_column(self, shard_dir):
        shard = shard_dir / "chunk-000001.npz"
        shard.write_bytes(shard.read_bytes()[:-30])  # the zip directory's tail
        stream = iter(ShardChunkSource(shard_dir))
        next(stream)
        with pytest.raises(RuntimeError, match="chunk-000001"):
            next(stream)

    @pytest.mark.parametrize("member", ["dense", "sparse_table_02"])
    def test_damage_in_an_unread_column_surfaces_at_first_touch(
        self, shard_dir, member, flip_member_byte
    ):
        flip_member_byte(shard_dir / "chunk-000002.npz", member)
        source = ShardChunkSource(shard_dir)
        fae_preprocess_source(source, TINY_CONFIG, batch_size=64)  # never reads it
        chunk = [chunk for _start, chunk in source][2]
        chunk.sparse["table_00"]  # the undamaged columns still decode
        with pytest.raises(RuntimeError, match="chunk-000002"):
            column(chunk, member.removeprefix("sparse_"))
        with pytest.raises(RuntimeError, match="chunk-000002"):
            eager_load(shard_dir / "chunk-000002.npz", source.schema, 256)

    def test_damage_in_a_read_column_fails_the_preprocess(self, shard_dir, flip_member_byte):
        flip_member_byte(shard_dir / "chunk-000002.npz", "sparse_table_00")
        with pytest.raises(RuntimeError, match="chunk-000002"):
            fae_preprocess_source(ShardChunkSource(shard_dir), TINY_CONFIG)

    @pytest.mark.parametrize(
        "damage",
        ["manifest_count", "multiplicity", "id_too_large", "id_negative", "object_dtype",
         "missing_member", "short_column", "int32_ids", "npy_2_0_header", "none",
         "uint16_id_too_large"],
    )
    def test_same_outcome_as_the_eager_load(self, shard_dir, damage):
        path = shard_dir / "chunk-000000.npz"
        members = shard_members(path)
        count = 256
        if damage == "manifest_count":
            count = 255
        elif damage == "multiplicity":
            members["sparse_table_01"] = np.repeat(members["sparse_table_01"], 2, axis=1)
        elif damage == "id_too_large":
            members["sparse_table_01"][17, 0] = 400
        elif damage == "id_negative":
            members["sparse_table_01"][17, 0] = -1
        elif damage == "object_dtype":
            members["sparse_table_01"] = members["sparse_table_01"].astype(object)
        elif damage == "missing_member":
            del members["sparse_table_01"]
        elif damage == "short_column":
            members["sparse_table_01"] = members["sparse_table_01"][:-1]
        elif damage == "int32_ids":
            members["sparse_table_01"] = members["sparse_table_01"].astype(np.int32)
        elif damage == "uint16_id_too_large":  # a value its stored width can hold
            members["sparse_table_01"] = members["sparse_table_01"].astype(np.uint16)
            members["sparse_table_01"][17, 0] = 400
        if damage == "npy_2_0_header":
            with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
                for name, value in members.items():
                    with archive.open(name + ".npy", "w") as handle:
                        np.lib.format.write_array(handle, value, version=(2, 0))
        else:
            np.savez_compressed(path, **members)
        schema = ShardChunkSource(shard_dir).schema

        def outcome(load):
            try:
                chunk = load()
                return {name: column(chunk, name) for name in COLUMNS}
            except (RuntimeError, ValueError) as exc:
                return type(exc)

        want = outcome(lambda: eager_load(path, schema, count))
        got = outcome(lambda: ShardChunk(schema, path, count))
        expected_failure = {
            "manifest_count": RuntimeError, "multiplicity": ValueError,
            "id_too_large": ValueError, "id_negative": ValueError,
            "uint16_id_too_large": ValueError, "object_dtype": RuntimeError,
            "missing_member": RuntimeError, "short_column": RuntimeError,
        }.get(damage)
        if expected_failure is None:
            assert isinstance(want, dict) and isinstance(got, dict)
            for name in COLUMNS:
                assert got[name].dtype == want[name].dtype
                assert np.array_equal(got[name], want[name])
        elif damage == "short_column":
            # One column shorter than the rest: the eager load compared it with
            # ``labels`` (ValueError); a lazy column has only the manifest to
            # compare with, and reports it as it reports any count mismatch.
            assert want is ValueError and got is RuntimeError
        else:
            assert got is want is expected_failure
        if damage == "uint16_id_too_large":  # found on the stored dtype; names file and id
            with pytest.raises(ValueError, match=r"chunk-000000\.npz: sparse_table_01 id 400 "):
                ShardChunk(schema, path, count).sparse["table_01"]
        # Damage confined to table_01 leaves every other column readable.
        if expected_failure is not None and damage != "manifest_count":
            assert len(ShardChunk(schema, path, count).sparse["table_00"]) == 256


class TestReadOnlyColumns:
    """Decoded shard columns are read-only views of the file's bytes.  The
    callers that write into a log -- fault injection and the clamp policy --
    work on their own copy, so no reader of a shard ever sees the write."""

    def test_corrupt_ingest_is_refused_by_a_decoded_chunk_and_poisons_a_copy(self, shard_dir):
        plan = FaultPlan(seed=7, ingest_corruption_rate=0.05)
        files = {path.name: path.read_bytes() for path in shard_dir.iterdir()}
        for _start, chunk in ShardChunkSource(shard_dir):
            columns = [chunk.dense.copy(), chunk.labels.copy(),
                       *(ids.copy() for ids in chunk.sparse.values())]
            with pytest.raises(ValueError, match="read-only"):
                plan.corrupt_ingest(chunk)
            owned = chunk.take(np.arange(len(chunk)))  # what `repro train` poisons: its split
            poisoned = plan.corrupt_ingest(owned)
            assert set(poisoned.values()) == {"dense", "sparse", "label"}
            for got, want in zip([chunk.dense, chunk.labels, *chunk.sparse.values()], columns):
                assert np.array_equal(got, want)
        assert {path.name: path.read_bytes() for path in shard_dir.iterdir()} == files

    def test_clamp_repairs_shard_columns_into_fresh_arrays(self, small_log, tmp_path):
        poisoned = small_log.take(np.arange(len(small_log)))
        poisoned.dense[::97, 0] = np.nan
        poisoned.dense[5::97, 1] = np.inf
        directory = save_log_shards(tmp_path / "poisoned", LogChunkSource(poisoned, chunk_size=256))
        policy = IngestPolicy.parse("sparse=clamp,dense=clamp")
        _starts, dense, sparse, labels = reassemble(
            ValidatingChunkSource(ShardChunkSource(directory), policy)
        )
        _starts, want_dense, want_sparse, want_labels = reassemble(
            ValidatingChunkSource(LogChunkSource(poisoned, chunk_size=256), policy)
        )
        assert np.isfinite(dense).all() and np.array_equal(dense, want_dense)
        assert np.array_equal(labels, want_labels)
        assert all(np.array_equal(sparse[name], want_sparse[name]) for name in sparse)
        # The shards still hold what was written: the repair never reached them.
        _starts, stored, _sparse, _labels = reassemble(ShardChunkSource(directory))
        assert np.array_equal(stored, poisoned.dense, equal_nan=True)
        assert np.isnan(stored[::97, 0]).all()
