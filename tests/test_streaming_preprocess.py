"""Streaming preprocess: chunked equivalence, sharded FAE format, trainers.

The refactor's acceptance bar is *byte-identical* output: running the
sample -> profile -> classify -> pack pipeline chunk-by-chunk must
reproduce the whole-log path exactly, for any chunk size, on the same
seed.  These tests pin that, plus the sharded on-disk format's
round-trip, lazy loading, and corruption detection.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    Calibrator,
    FAEConfig,
    fae_preprocess,
    fae_preprocess_source,
    load_fae_dataset,
)
from repro.core.classifier import HotEmbeddingBagSpec
from repro.core.fae_format import (
    FAE_MANIFEST,
    ShardBatchSequence,
    save_fae_dataset,
    save_fae_dataset_sharded,
)
from repro.core.input_processor import FAEDataset
from repro.data import (
    ClickLog,
    LogChunkSource,
    ShardChunkSource,
    SyntheticClickStream,
    UnsizedChunkSource,
    iter_fae_batches,
    save_log_shards,
    train_test_split,
)
import repro.data.npz_codec as npz_codec
from repro.data.npz_codec import NpzReader, write_npz
from repro.obs import get_registry
from repro.resilience.checkpoint import TrainerCheckpoint, load_checkpoint, save_checkpoint


def assert_plans_equal(actual, expected):
    """Byte-level equality of everything a plan persists."""
    assert actual.threshold == expected.threshold
    assert np.array_equal(actual.dataset.hot_mask, expected.dataset.hot_mask)
    assert len(actual.dataset.hot_batches) == len(expected.dataset.hot_batches)
    assert len(actual.dataset.cold_batches) == len(expected.dataset.cold_batches)
    for got, want in zip(actual.dataset.hot_batches, expected.dataset.hot_batches):
        assert np.array_equal(got, want)
    for got, want in zip(actual.dataset.cold_batches, expected.dataset.cold_batches):
        assert np.array_equal(got, want)
    for name, bag in expected.bags.items():
        assert np.array_equal(actual.bags[name].hot_ids, bag.hot_ids)


class TestChunkedEquivalence:
    @pytest.mark.parametrize("chunk_size", [37, 500, 4000, 8192])
    def test_byte_identical_to_whole_log(self, tiny_log, tiny_fae_config, tiny_plan, chunk_size):
        chunked = fae_preprocess(
            tiny_log, tiny_fae_config, batch_size=64, chunk_size=chunk_size
        )
        assert_plans_equal(chunked, tiny_plan)

    def test_profile_counts_identical(self, tiny_log, tiny_fae_config, tiny_plan):
        chunked = fae_preprocess(tiny_log, tiny_fae_config, batch_size=64, chunk_size=123)
        base = tiny_plan.calibration.profile
        got = chunked.calibration.profile
        assert got.num_sampled_inputs == base.num_sampled_inputs
        assert set(got.tables) == set(base.tables)
        for name, table in base.tables.items():
            assert np.array_equal(got.tables[name].counts, table.counts)

    def test_stream_source_matches_materialized(self, tiny_schema, tiny_fae_config):
        stream = SyntheticClickStream(tiny_schema, total_samples=2000, chunk_size=256, seed=4)
        streamed = fae_preprocess_source(stream, tiny_fae_config, batch_size=64)
        chunks = [chunk for _start, chunk in stream]
        materialized = ClickLog(
            schema=tiny_schema,
            dense=np.concatenate([c.dense for c in chunks]),
            sparse={
                name: np.concatenate([c.sparse[name] for c in chunks])
                for name in tiny_schema.table_names
            },
            labels=np.concatenate([c.labels for c in chunks]),
        )
        in_memory = fae_preprocess(materialized, tiny_fae_config, batch_size=64)
        assert_plans_equal(streamed, in_memory)


class TestUnsizedCalibration:
    def test_bernoulli_fallback_for_unknown_length(self, tiny_schema, tiny_fae_config):
        stream = SyntheticClickStream(tiny_schema, total_samples=4000, chunk_size=512, seed=8)
        source = UnsizedChunkSource(tiny_schema, lambda: iter(stream), chunk_size=512)
        output = Calibrator(tiny_fae_config).calibrate_source(source)
        sampled = output.profile.num_sampled_inputs
        # Binomial(4000, 0.2): mean 800, sd ~25 — 6 sigma on both sides.
        assert 650 <= sampled <= 950
        assert output.threshold > 0

    def test_keeps_at_least_one_sample(self, tiny_schema):
        config = FAEConfig(
            gpu_memory_budget=16 * 1024,
            sample_rate=1e-9,
            large_table_min_bytes=1024,
            seed=3,
        )
        stream = SyntheticClickStream(tiny_schema, total_samples=200, chunk_size=100, seed=1)
        source = UnsizedChunkSource(tiny_schema, lambda: iter(stream), chunk_size=100)
        output = Calibrator(config).calibrate_source(source)
        assert output.profile.num_sampled_inputs == 1

    def test_unsized_preprocess_end_to_end(self, tiny_schema, tiny_fae_config):
        stream = SyntheticClickStream(tiny_schema, total_samples=1500, chunk_size=300, seed=6)
        source = UnsizedChunkSource(tiny_schema, lambda: iter(stream), chunk_size=300)
        plan = fae_preprocess_source(source, tiny_fae_config, batch_size=64)
        assert len(plan.dataset.hot_mask) == 1500
        total = sum(len(b) for b in plan.dataset.hot_batches)
        total += sum(len(b) for b in plan.dataset.cold_batches)
        assert total == 1500


class TestShardedRoundTrip:
    @pytest.fixture()
    def sharded_dir(self, tiny_plan, tmp_path):
        directory = tmp_path / "plan_shards"
        tiny_plan.save(directory, shard_size=3)
        return directory

    def test_round_trip_equals_flat(self, tiny_plan, sharded_dir):
        dataset, bags, threshold = load_fae_dataset(sharded_dir)
        assert threshold == tiny_plan.threshold
        assert dataset.batch_size == tiny_plan.dataset.batch_size
        assert np.array_equal(dataset.hot_mask, tiny_plan.dataset.hot_mask)
        for got, want in zip(dataset.hot_batches, tiny_plan.dataset.hot_batches):
            assert np.array_equal(got, want)
        for got, want in zip(dataset.cold_batches, tiny_plan.dataset.cold_batches):
            assert np.array_equal(got, want)
        for name, bag in tiny_plan.bags.items():
            assert np.array_equal(bags[name].hot_ids, bag.hot_ids)
            assert bags[name].num_rows == bag.num_rows
            assert bags[name].whole_table == bag.whole_table

    def test_accepts_manifest_path(self, sharded_dir):
        dataset, _bags, _threshold = load_fae_dataset(sharded_dir / FAE_MANIFEST)
        assert len(dataset.hot_batches) > 0

    def test_lazy_sequence_surface(self, tiny_plan, sharded_dir):
        dataset, _bags, _threshold = load_fae_dataset(sharded_dir)
        hot = dataset.hot_batches
        assert isinstance(hot, ShardBatchSequence)
        n = len(hot)
        assert n == len(tiny_plan.dataset.hot_batches)
        assert np.array_equal(hot[0], tiny_plan.dataset.hot_batches[0])
        assert np.array_equal(hot[-1], tiny_plan.dataset.hot_batches[n - 1])
        sliced = hot[1:4]
        assert isinstance(sliced, list)
        for got, want in zip(sliced, tiny_plan.dataset.hot_batches[1:4]):
            assert np.array_equal(got, want)
        with pytest.raises(IndexError):
            hot[n]
        assert len(hot.materialize()) == n

    def test_tampered_shard_fails_checksum(self, sharded_dir):
        shard = sharded_dir / "shard-000000.npz"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        dataset, _bags, _threshold = load_fae_dataset(sharded_dir)
        with pytest.raises(RuntimeError, match="shard-000000"):
            list(dataset.hot_batches)

    def test_missing_shard_names_file(self, sharded_dir):
        (sharded_dir / "shard-000000.npz").unlink()
        dataset, _bags, _threshold = load_fae_dataset(sharded_dir)
        with pytest.raises(RuntimeError, match="shard-000000"):
            dataset.hot_batches[0]

    def test_corrupt_manifest_names_file(self, sharded_dir):
        (sharded_dir / FAE_MANIFEST).write_text("{oops", encoding="utf-8")
        with pytest.raises(RuntimeError, match=FAE_MANIFEST):
            load_fae_dataset(sharded_dir)

    def test_version_mismatch_raises_value_error(self, sharded_dir):
        manifest_path = sharded_dir / FAE_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match="999"):
            load_fae_dataset(sharded_dir)

    def test_shard_count_mismatch_detected(self, sharded_dir):
        manifest_path = sharded_dir / FAE_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["num_hot_batches"] += 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RuntimeError, match="disagree"):
            load_fae_dataset(sharded_dir)


def rewrite_as_savez_compressed(path, ids_as=None):
    """Re-save an archive the way every writer did before the shared codec:
    ``np.savez_compressed`` (deflate level 6, zip64 member headers), a log
    shard's ``sparse_*`` members as ``ids_as`` (int64 until PR 21)."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    if ids_as is not None:
        for name in members:
            if name.startswith("sparse_"):
                members[name] = members[name].astype(ids_as)
    np.savez_compressed(path, **members)


def as_previous_writers_shards(directory):
    """Rewrite a log-shard directory as every writer before PR 21 left it."""
    for path in directory.glob("*.npz"):
        rewrite_as_savez_compressed(path, ids_as=np.int64)
    return directory


class TestFormatCompatibility:
    """Old archives still verify and load; new ones are still plain ``.npz``."""

    def test_sharded_directory_from_the_previous_writer_loads(self, tiny_plan, tmp_path):
        directory = tmp_path / "old_shards"
        tiny_plan.save(directory, shard_size=3)
        manifest_path = directory / FAE_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for name in ("bags.npz", "mask.npz"):
            rewrite_as_savez_compressed(directory / name)
        for shard in manifest["shards"]:
            before = (directory / shard["file"]).read_bytes()
            rewrite_as_savez_compressed(directory / shard["file"])
            after = (directory / shard["file"]).read_bytes()
            assert after != before  # a different encoding of the same members
            shard["sha256"] = hashlib.sha256(after).hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")

        dataset, bags, threshold = load_fae_dataset(directory)  # verifies each checksum
        assert threshold == tiny_plan.threshold
        assert dataset.batch_size == tiny_plan.dataset.batch_size
        assert np.array_equal(dataset.hot_mask, tiny_plan.dataset.hot_mask)
        for got, want in zip(
            [*dataset.hot_batches, *dataset.cold_batches],
            [*tiny_plan.dataset.hot_batches, *tiny_plan.dataset.cold_batches],
            strict=True,
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert bags.keys() == tiny_plan.bags.keys()
        for name, bag in tiny_plan.bags.items():
            assert np.array_equal(bags[name].hot_ids, bag.hot_ids)
            assert (bags[name].num_rows, bags[name].dim, bags[name].whole_table) == (
                bag.num_rows, bag.dim, bag.whole_table
            )

    def test_flat_archive_from_the_previous_writer_loads(self, tiny_plan, tmp_path):
        path = tmp_path / "old.npz"
        tiny_plan.save(path)
        rewrite_as_savez_compressed(path)
        dataset, bags, threshold = load_fae_dataset(path)
        assert threshold == tiny_plan.threshold
        assert np.array_equal(dataset.hot_mask, tiny_plan.dataset.hot_mask)
        for got, want in zip(
            [*dataset.hot_batches, *dataset.cold_batches],
            [*tiny_plan.dataset.hot_batches, *tiny_plan.dataset.cold_batches],
            strict=True,
        ):
            assert np.array_equal(got, want)
        for name, bag in tiny_plan.bags.items():
            assert np.array_equal(bags[name].hot_ids, bag.hot_ids)

    def test_new_shard_is_a_plain_stored_npz_with_its_manifest_checksum(
        self, tiny_plan, tmp_path
    ):
        directory = tmp_path / "new_shards"
        tiny_plan.save(directory, shard_size=3)
        manifest = json.loads((directory / FAE_MANIFEST).read_text(encoding="utf-8"))
        batches = [*tiny_plan.dataset.hot_batches, *tiny_plan.dataset.cold_batches]
        seen = 0
        for shard in manifest["shards"]:
            path = directory / shard["file"]
            assert hashlib.sha256(path.read_bytes()).hexdigest() == shard["sha256"]
            with zipfile.ZipFile(path) as archive:
                assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
            with np.load(path) as archive:  # no allow_pickle, no special reader
                assert archive.files == [f"batch_{i:06d}" for i in range(shard["count"])]
                for name in archive.files:
                    assert np.array_equal(archive[name], batches[seen])
                    seen += 1
        assert seen == len(batches)
        assert not list(directory.glob(".*"))  # no temp file left behind

    def test_equal_plans_save_to_equal_bytes(self, tiny_plan, tmp_path):
        tiny_plan.save(tmp_path / "a", shard_size=3)
        tiny_plan.save(tmp_path / "b", shard_size=3)
        for first in sorted((tmp_path / "a").iterdir()):
            assert first.read_bytes() == (tmp_path / "b" / first.name).read_bytes()

    def test_tampered_new_shard_fails_its_checksum_before_any_decode(
        self, tiny_plan, tmp_path
    ):
        directory = tmp_path / "new_shards"
        tiny_plan.save(directory, shard_size=3)
        dataset, _bags, _threshold = load_fae_dataset(directory)
        shard = directory / "shard-000000.npz"
        data = bytearray(shard.read_bytes())
        data[10] ^= 0x01  # a member's timestamp: nothing but the checksum can notice
        shard.write_bytes(bytes(data))
        assert np.array_equal(
            NpzReader(bytes(data), "tampered shard")["batch_000000"], tiny_plan.dataset.hot_batches[0]
        )
        decoded = get_registry().counter("data.shard.members_decoded")
        before = decoded.value
        with pytest.raises(RuntimeError, match="shard-000000.*checksum"):
            dataset.hot_batches[0]
        assert decoded.value == before

    def test_log_shard_bytes_are_the_previous_writers(self, tiny_log, tmp_path):
        """What ``save_log_shards`` promises since it writes through the codec
        (until PR 21 this test pinned ``np.savez_compressed``'s exact bytes):
        two saves of one log are the same bytes, and a directory from the
        previous writer -- int64 ids, level 6 -- still loads, to the same plan."""
        directory = save_log_shards(tmp_path / "log", tiny_log, chunk_size=1000)
        again = save_log_shards(tmp_path / "again", tiny_log, chunk_size=1000)
        names = sorted(path.name for path in directory.iterdir())
        assert names == sorted(path.name for path in again.iterdir()) and len(names) == 5
        for name in names:
            assert (directory / name).read_bytes() == (again / name).read_bytes()
        with zipfile.ZipFile(directory / "chunk-000000.npz") as archive:  # a plain npz
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
            assert {i.date_time for i in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}

        previous = as_previous_writers_shards(again)
        for index, path in enumerate(sorted(previous.glob("*.npz"))):
            assert path.read_bytes() != (directory / path.name).read_bytes()
            rows = slice(1000 * index, 1000 * (index + 1))
            reference = io.BytesIO()
            np.savez_compressed(
                reference,
                dense=tiny_log.dense[rows],
                labels=tiny_log.labels[rows],
                **{f"sparse_{name}": ids[rows] for name, ids in tiny_log.sparse.items()},
            )
            assert path.read_bytes() == reference.getvalue()  # the old writer, exactly
        for (start, new), (old_start, old) in zip(
            ShardChunkSource(directory), ShardChunkSource(previous), strict=True
        ):
            assert start == old_start and len(new) == len(old)
            assert new.dense.tobytes() == old.dense.tobytes()
            assert new.labels.tobytes() == old.labels.tobytes()
            for name in tiny_log.schema.table_names:
                assert new.sparse[name].dtype == old.sparse[name].dtype == np.int64
                assert new.sparse[name].tobytes() == old.sparse[name].tobytes()

    def test_old_and_new_log_shards_preprocess_to_the_same_bytes(
        self, tiny_log, tiny_fae_config, tmp_path
    ):
        """Shard-fed and stream-fed passes over int64 shards from the
        previous writer and over stored-width shards: one profile, one FAE
        output directory, byte for byte -- and the in-memory one."""
        new = save_log_shards(tmp_path / "new", tiny_log, chunk_size=1000)
        old = as_previous_writers_shards(save_log_shards(tmp_path / "old", tiny_log, chunk_size=1000))
        stream = SyntheticClickStream(tiny_log.schema, total_samples=3000, chunk_size=700, seed=4)
        streamed = save_log_shards(tmp_path / "streamed", stream)
        streamed_old = as_previous_writers_shards(save_log_shards(tmp_path / "streamed_old", stream))

        def outputs(source, tag):
            profile = Calibrator(tiny_fae_config).calibrate_source(source).profile
            plan = fae_preprocess_source(source, tiny_fae_config, batch_size=64)
            out = tmp_path / f"fae-{tag}"
            plan.save(out, shard_size=4)
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            counts = {name: table.counts.tobytes() for name, table in profile.tables.items()}
            return files, counts, profile.num_sampled_inputs

        want = outputs(LogChunkSource(tiny_log, chunk_size=1000), "memory")
        assert outputs(ShardChunkSource(new), "new") == want
        assert outputs(ShardChunkSource(old), "old") == want
        want_streamed = outputs(stream, "stream")
        assert outputs(ShardChunkSource(streamed), "streamed") == want_streamed
        assert outputs(ShardChunkSource(streamed_old), "streamed-old") == want_streamed


class TestShardProfiling:
    """What the profile pass accepts and rejects in a log shard: it reads
    only the profiled columns, each checked against the manifest and its
    table, and a failure names the shard."""

    @staticmethod
    def _profile(directory, config):
        return Calibrator(config).calibrate_source(ShardChunkSource(directory)).profile

    def test_flip_in_profiled_column_names_the_file(
        self, tmp_path, tiny_log, tiny_fae_config, flip_member_byte
    ):
        directory = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=1000)
        flip_member_byte(directory / "chunk-000002.npz", "sparse_table_01")
        with pytest.raises(RuntimeError, match="chunk-000002"):
            self._profile(directory, tiny_fae_config)

    def test_flip_in_dense_leaves_counts_equal(
        self, tmp_path, tiny_log, tiny_fae_config, flip_member_byte
    ):
        directory = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=1000)
        clean = self._profile(directory, tiny_fae_config)
        flip_member_byte(directory / "chunk-000002.npz", "dense")
        flipped = self._profile(directory, tiny_fae_config)
        assert sorted(clean.tables) == sorted(flipped.tables)
        for name, table in clean.tables.items():
            assert flipped.tables[name].counts.tobytes() == table.counts.tobytes()
        assert flipped.num_sampled_inputs == clean.num_sampled_inputs

    @pytest.mark.parametrize("flaw", ["count", "id"])
    def test_bad_count_or_id_names_the_file(
        self, tmp_path, tiny_log, tiny_fae_config, flaw
    ):
        directory = save_log_shards(tmp_path / "shards", tiny_log, chunk_size=1000)
        if flaw == "count":  # the manifest's row count
            manifest = json.loads((directory / "manifest.json").read_text())
            manifest["shards"][1]["num_samples"] -= 1
            (directory / "manifest.json").write_text(json.dumps(manifest))
        else:  # an id out of its table's range
            with np.load(directory / "chunk-000001.npz") as archive:
                members = {name: archive[name] for name in archive.files}
            # Stored at table width: the bad id fits the dtype, not the table.
            assert members["sparse_table_00"].dtype == np.uint16
            members["sparse_table_00"][5, 0] = 600
            np.savez_compressed(directory / "chunk-000001.npz", **members)
        error = RuntimeError if flaw == "count" else ValueError
        with pytest.raises(error, match="chunk-000001"):
            self._profile(directory, tiny_fae_config)


def stored_dtypes(path):
    """``{member: stored dtype}`` of an archive, as ``np.load`` sees it."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name].dtype for name in archive.files}


class TestStoredMembers:
    """Every archive the codec writes stores its members: none is deflated."""

    def test_every_writer_stores_every_member(self, tiny_log, tiny_plan, tmp_path):
        from repro.resilience import TrainerCheckpoint, save_checkpoint

        tiny_plan.save(tmp_path / "flat.npz")
        tiny_plan.save(tmp_path / "sharded", shard_size=3)
        log = save_log_shards(tmp_path / "log", tiny_log, chunk_size=1000)
        checkpoint = save_checkpoint(
            tmp_path,
            TrainerCheckpoint(
                step=3, epoch=0, cursors={"hot": 1}, scheduler_state={},
                params={"dense.w": np.ones((4, 2), np.float32)},
                dataset_state=tiny_plan.dataset.state_dict(),
            ),
        )
        written = [
            tmp_path / "flat.npz", *sorted((tmp_path / "sharded").glob("*.npz")),
            *sorted(log.glob("*.npz")), checkpoint,
        ]
        names = {path.name for path in written}
        assert {"bags.npz", "mask.npz", "shard-000000.npz", "chunk-000000.npz"} <= names
        for path in written:
            with zipfile.ZipFile(path) as archive:
                infos = archive.infolist()
            assert infos, path.name
            assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}, path.name
            assert all(info.compress_size == info.file_size for info in infos), path.name


# (count, dtype an index into [0, count) is stored at): both sides of each width.
WIDTHS = [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
          (65_537, np.uint32)]


class TestStoredIndexWidth:
    """FAE batch indices are stored at the width of the input count and hot-bag
    ids at their table's; every loader widens both to int64 once."""

    @staticmethod
    def dataset(num_inputs):
        last = np.array([num_inputs - 1, 0, num_inputs // 2], dtype=np.int64)
        return FAEDataset(
            hot_batches=[last, np.arange(min(num_inputs, 5), dtype=np.int64)],
            cold_batches=[last[::-1].copy()],
            hot_mask=np.arange(num_inputs) % 2 == 0,
            batch_size=3,
        )

    @staticmethod
    def bags(num_rows):
        hot_ids = np.unique(np.array([0, num_rows // 3, num_rows - 1], dtype=np.int64))
        return {"t": HotEmbeddingBagSpec("t", hot_ids, num_rows, dim=4, whole_table=False)}

    @staticmethod
    def assert_loaded(loaded, dataset, bags):
        got, got_bags, threshold = loaded
        assert threshold == 0.5
        assert np.array_equal(got.hot_mask, dataset.hot_mask)
        for kind in ("hot_batches", "cold_batches"):
            batches = list(getattr(got, kind))
            assert len(batches) == len(getattr(dataset, kind))
            for batch, want in zip(batches, getattr(dataset, kind)):
                assert batch.dtype == np.int64 and np.array_equal(batch, want)
                assert batch.flags.c_contiguous and not batch.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    batch[0] = 0
        hot_ids = got_bags["t"].hot_ids
        assert hot_ids.dtype == np.int64 and np.array_equal(hot_ids, bags["t"].hot_ids)
        assert got_bags["t"].num_rows == bags["t"].num_rows

    @pytest.mark.parametrize("num_inputs, width", WIDTHS)
    def test_batches_round_trip_at_the_input_count_width(self, num_inputs, width, tmp_path):
        dataset, bags = self.dataset(num_inputs), self.bags(300)
        flat = tmp_path / "flat.npz"
        save_fae_dataset(flat, dataset, bags, 0.5)
        save_fae_dataset_sharded(tmp_path / "sharded", dataset, bags, 0.5, shard_size=1)
        stored = stored_dtypes(flat)
        assert {stored[name] for name in stored if "_batch_" in name} == {np.dtype(width)}
        for shard in sorted((tmp_path / "sharded").glob("shard-*.npz")):
            assert set(stored_dtypes(shard).values()) == {np.dtype(width)}
        self.assert_loaded(load_fae_dataset(flat), dataset, bags)
        self.assert_loaded(load_fae_dataset(tmp_path / "sharded"), dataset, bags)

    @pytest.mark.parametrize(
        "num_rows, width", [*WIDTHS, (2**32, np.uint32), (2**32 + 1, np.int64)]
    )
    def test_bag_ids_round_trip_at_their_table_width(self, num_rows, width, tmp_path):
        dataset, bags = self.dataset(10), self.bags(num_rows)
        flat = tmp_path / "flat.npz"
        save_fae_dataset(flat, dataset, bags, 0.5)
        save_fae_dataset_sharded(tmp_path / "sharded", dataset, bags, 0.5, shard_size=2)
        assert stored_dtypes(flat)["bag_t_hot_ids"] == width
        assert stored_dtypes(tmp_path / "sharded" / "bags.npz")["bag_t_hot_ids"] == width
        self.assert_loaded(load_fae_dataset(flat), dataset, bags)
        self.assert_loaded(load_fae_dataset(tmp_path / "sharded"), dataset, bags)

    def test_int64_deflated_archives_of_earlier_writers_load(self, tmp_path):
        """What every writer before stored widths left: int64 indices and ids,
        ``np.savez_compressed``; loaded through the same line, to equal values."""
        dataset, bags = self.dataset(300), self.bags(70_000)
        flat = tmp_path / "flat.npz"
        directory = tmp_path / "sharded"
        save_fae_dataset(flat, dataset, bags, 0.5)
        save_fae_dataset_sharded(directory, dataset, bags, 0.5, shard_size=2)
        manifest = json.loads((directory / FAE_MANIFEST).read_text(encoding="utf-8"))
        checksums = {shard["file"]: shard for shard in manifest["shards"]}
        for path in [flat, *directory.glob("*.npz")]:
            with np.load(path, allow_pickle=False) as archive:
                members = {
                    name: archive[name].astype(np.int64)
                    if archive[name].dtype.kind == "u" else archive[name]
                    for name in archive.files
                }
            np.savez_compressed(path, **members)
            if path.name in checksums:
                checksums[path.name]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            with zipfile.ZipFile(path) as archive:
                assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        (directory / FAE_MANIFEST).write_text(json.dumps(manifest), encoding="utf-8")
        assert stored_dtypes(flat)["hot_batch_000000"] == np.int64
        self.assert_loaded(load_fae_dataset(flat), dataset, bags)
        self.assert_loaded(load_fae_dataset(directory), dataset, bags)


def zipfile_archive(arrays):
    """The archive body ``write_npz`` wrote through ``zipfile`` until it built
    the bytes itself: kept here only as the oracle for those bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, value in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)
            archive.writestr(zipfile.ZipInfo(name + ".npy"), member.getbuffer())
    return buffer.getvalue()


# Every dtype an archive in this repository stores, in every memory order.
STORED = st.sampled_from(
    [np.uint8, np.uint16, np.uint32, np.int64, np.float32, np.float64, np.bool_, "<U12"]
)


@st.composite
def member_arrays(draw):
    value = draw(hnp.arrays(STORED, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0)))
    layout = draw(st.sampled_from(["c", "fortran", "strided", "transposed"]))
    if layout == "fortran":
        return np.asfortranarray(value)
    if layout == "strided" and value.ndim:
        return value[::2]
    if layout == "transposed":
        return value.T
    return value


ARCHIVES = st.dictionaries(
    st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True), member_arrays(), max_size=5
)


def small_archive(tmp_path):
    """A three-member stored archive: ids at their stored width, floats, a string."""
    arrays = {
        "ids": np.array([[3, 1], [4, 1], [5, 9]], dtype=np.uint16),
        "dense": np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3),
        "meta_json": np.array('{"k": 1}'),
    }
    write_npz(tmp_path / "small.npz", arrays)
    return arrays, (tmp_path / "small.npz").read_bytes()


def equal_members(reader, arrays):
    """Same dtype, shape and bytes: a NaN member equals itself, -0.0 is not +0.0."""
    for name, want in arrays.items():
        got = reader[name]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestStoredZipCodec:
    """``npz_codec`` builds stored archives itself and reads their members in
    place; ``zipfile`` parses only the directories the struct walk leaves to
    it (zip64, deflated, encrypted) and reads only deflated members."""

    @settings(max_examples=200, deadline=None)
    @given(arrays=ARCHIVES)
    def test_bytes_are_zipfiles_and_read_back_as_read_only_views(self, arrays, tmp_path_factory):
        path = tmp_path_factory.mktemp("oracle") / "a.npz"
        digest = write_npz(path, arrays)
        blob = path.read_bytes()
        assert blob == zipfile_archive(arrays)
        assert digest == hashlib.sha256(blob).hexdigest()
        reader = NpzReader(blob, "oracle")
        assert list(reader) == list(arrays)
        for name, want in arrays.items():
            got = reader[name]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        with np.load(path, allow_pickle=False) as archive:  # still a plain npz
            assert archive.files == list(arrays)

    @pytest.mark.parametrize("mask", [0x01, 0xFF])
    def test_every_single_byte_flip_raises_naming_where_or_reads_equal(self, mask, tmp_path):
        arrays, blob = small_archive(tmp_path)
        for position in range(len(blob)):
            damaged = bytearray(blob)
            damaged[position] ^= mask
            try:
                equal_members(NpzReader(bytes(damaged), "flipped"), arrays)
            except RuntimeError as exc:
                assert str(exc).startswith("flipped is truncated or corrupt"), position

    def test_every_truncation_raises_naming_where(self, tmp_path):
        arrays, blob = small_archive(tmp_path)
        for size in range(len(blob)):
            with pytest.raises(RuntimeError, match="^cut is truncated or corrupt"):
                equal_members(NpzReader(blob[:size], "cut"), arrays)

    def test_a_padded_checkpoint_reads_back_and_its_padding_is_the_end(self, tmp_path):
        params = {"dense.0000": np.ones((300, 8), np.float32)}
        big = TrainerCheckpoint(step=1, epoch=0, cursors={}, scheduler_state={}, params=params)
        small = TrainerCheckpoint(
            step=1, epoch=0, cursors={}, scheduler_state={},
            params={"dense.0000": np.full((10, 8), 2, np.float32)},
        )
        save_checkpoint(tmp_path, big)
        save_checkpoint(tmp_path, big)
        path = save_checkpoint(tmp_path, small)  # over the bigger spare: padded
        blob = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            assert len(archive.comment) > 1000 and blob.endswith(archive.comment)
            assert set(archive.comment) == {ord(" ")}
        np.testing.assert_array_equal(load_checkpoint(path).params["dense.0000"], 2)
        restored = load_checkpoint(path).params["dense.0000"]
        assert restored.flags.writeable and restored.flags.owndata  # a copy the trainer owns
        for cut in (1, 500):
            with pytest.raises(RuntimeError, match="^cut is truncated or corrupt"):
                NpzReader(blob[:-cut], "cut")

    @staticmethod
    def count_zipfile_reads(monkeypatch):
        reads = []
        original = zipfile.ZipFile.read

        def read(self, name, pwd=None):
            reads.append(name)
            return original(self, name, pwd)

        monkeypatch.setattr(zipfile.ZipFile, "read", read)
        return reads

    def test_deflated_archives_load_through_zipfile(self, monkeypatch, tmp_path):
        arrays, blob = small_archive(tmp_path)
        reads = self.count_zipfile_reads(monkeypatch)
        equal_members(NpzReader(blob, "stored"), arrays)
        assert reads == []  # stored archives never go through ZipFile.read
        np.savez(tmp_path / "savez.npz", **arrays)  # stored, zip64 local fields only
        equal_members(NpzReader((tmp_path / "savez.npz").read_bytes(), "savez"), arrays)
        assert reads == []
        np.savez_compressed(tmp_path / "deflated.npz", **arrays)
        equal_members(NpzReader((tmp_path / "deflated.npz").read_bytes(), "deflated"), arrays)
        assert len(reads) == len(arrays)

    @staticmethod
    def zip64_limits(members, limit):
        """``zipfile``'s and the writer's zip64 limits, lowered together."""
        patches = [
            mock.patch.object(zipfile, "ZIP_FILECOUNT_LIMIT", members),
            mock.patch.object(npz_codec, "_MAX_MEMBERS", members),
            mock.patch.object(zipfile, "ZIP64_LIMIT", limit),
            mock.patch.object(npz_codec, "_ZIP64_LIMIT", limit),
        ]
        stack = contextlib.ExitStack()
        for patch in patches:
            stack.enter_context(patch)
        return stack

    @settings(max_examples=100, deadline=None)
    @given(
        arrays=ARCHIVES, members=st.integers(0, 6),
        limit=st.integers(100, 2000),
    )
    # A NaN member is equal to itself only as bytes; -0.0 must stay -0.0.
    @example(arrays={"_": np.array(np.nan, dtype=np.float32)}, members=0, limit=100)
    @example(arrays={"z": np.array([-0.0, 0.0])}, members=0, limit=100)
    def test_zip64_archives_are_zipfiles_and_read_back_in_place(self, arrays, members, limit,
                                                                tmp_path_factory):
        """Past the limits (lowered so small archives reach them), the writer
        still writes ``zipfile``'s bytes, zip64 records included."""
        path = tmp_path_factory.mktemp("zip64") / "a.npz"
        with self.zip64_limits(members, limit):
            write_npz(path, arrays)
            assert path.read_bytes() == zipfile_archive(arrays)
        with mock.patch.object(zipfile.ZipFile, "read", side_effect=AssertionError):
            reader = NpzReader(path.read_bytes(), "zip64")
            assert list(reader) == list(arrays)
            equal_members(reader, arrays)
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == list(arrays)
            equal_members(archive, arrays)

    def test_every_zip64_record_is_written_where_zipfile_puts_it(self, tmp_path):
        arrays = {f"m{i}": np.arange(40 * i, dtype=np.int64) for i in range(4)}
        with self.zip64_limits(members=3, limit=300):
            write_npz(tmp_path / "a.npz", arrays)
        blob = (tmp_path / "a.npz").read_bytes()
        with zipfile.ZipFile(tmp_path / "a.npz") as archive:
            infos = archive.infolist()
        local_extra = [
            int.from_bytes(blob[info.header_offset + 28:info.header_offset + 30], "little")
            for info in infos
        ]
        # m0 (128 B): no field; m1 (448 B): zip64 sizes in both headers; m2
        # and m3 start past 300 B, so their central field adds the offset;
        # 4 members > 3: the zip64 end record.
        assert local_extra == [0, 20, 20, 20]
        assert [len(info.extra) for info in infos] == [0, 20, 28, 28]
        assert [info.header_offset > 300 for info in infos] == [False, False, True, True]
        assert b"PK\x06\x06" in blob and b"PK\x06\x07" in blob  # zip64 end record, locator
        equal_members(NpzReader(blob, "zip64"), arrays)

    def test_a_preprocess_pass_decodes_the_same_members_as_before(self, tiny_log, tiny_fae_config,
                                                                 tmp_path):
        """Counts recorded with the zipfile reader over this exact pass."""
        registry = get_registry()
        members = registry.counter("data.shard.members_decoded")
        decoded = registry.counter("data.shard.bytes_decoded")
        directory = save_log_shards(tmp_path / "log", LogChunkSource(tiny_log, chunk_size=1000))
        before = members.value, decoded.value
        plan = fae_preprocess_source(ShardChunkSource(directory), tiny_fae_config, batch_size=64)
        plan.save(tmp_path / "fae", shard_size=3)
        dataset, _bags, _threshold = load_fae_dataset(tmp_path / "fae")
        assert len(list(dataset.hot_batches)) + len(list(dataset.cold_batches)) == 64
        assert (members.value - before[0], decoded.value - before[1]) == (88, 56_190)
        plan.save(tmp_path / "flat.npz")
        before = members.value, decoded.value
        load_fae_dataset(tmp_path / "flat.npz")
        assert (members.value - before[0], decoded.value - before[1]) == (77, 22_822)


class TestShardBackedTraining:
    def test_iter_fae_batches_over_shards(self, tiny_log, tiny_plan, tmp_path):
        directory = tmp_path / "plan_shards"
        tiny_plan.save(directory, shard_size=4)
        dataset, _bags, _threshold = load_fae_dataset(directory)
        batches = list(iter_fae_batches(tiny_log, dataset, "hot", hot=True))
        assert len(batches) == len(tiny_plan.dataset.hot_batches)
        assert all(b.hot for b in batches)
        windowed = list(iter_fae_batches(tiny_log, dataset, "cold", start=1, count=2))
        assert len(windowed) == min(2, max(0, len(dataset.cold_batches) - 1))

    def test_fae_trainer_on_shard_backed_plan(self, tiny_log, tiny_fae_config, tmp_path):
        from repro.models.dlrm import DLRM, DLRMConfig
        from repro.train import FAETrainer

        train, test = train_test_split(tiny_log, 0.2, seed=7)
        plan = fae_preprocess(train, tiny_fae_config, batch_size=64)
        directory = tmp_path / "plan_shards"
        plan.save(directory, shard_size=5)
        dataset, _bags, _threshold = load_fae_dataset(directory)
        shard_backed = dataclasses.replace(plan, dataset=dataset)

        model = DLRM(train.schema, DLRMConfig("4-8", "8-1", seed=1))
        result = FAETrainer(model, shard_backed, lr=0.2).train(train, test, epochs=1)
        assert 0.0 <= result.final_test_accuracy <= 1.0


class TestPreprocessCLI:
    def test_chunked_sharded_preprocess(self, tmp_path):
        from repro.cli import main

        out_dir = tmp_path / "plan_shards"
        code = main(
            [
                "preprocess",
                "criteo-kaggle",
                "--samples",
                "4000",
                "--batch-size",
                "128",
                "--chunk-size",
                "1000",
                "--shard-size",
                "8",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        dataset, _bags, threshold = load_fae_dataset(out_dir)
        total = sum(len(b) for b in dataset.hot_batches)
        total += sum(len(b) for b in dataset.cold_batches)
        assert total == 4000
        assert threshold > 0

    def test_stream_flag(self, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "plan.npz"
        code = main(
            [
                "preprocess",
                "criteo-kaggle",
                "--samples",
                "3000",
                "--batch-size",
                "128",
                "--stream",
                "--chunk-size",
                "800",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        dataset, _bags, _threshold = load_fae_dataset(out_file)
        total = sum(len(b) for b in dataset.hot_batches)
        total += sum(len(b) for b in dataset.cold_batches)
        assert total == 3000
