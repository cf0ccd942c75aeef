"""Crash-consistent durability: state round-trips, the journaled cache
refresh, phase-targeted kill/resume exactness for both trainers, and the
certification fingerprint + checkpoint CLI."""

import hashlib
import io
import json
import zipfile

import numpy as np
import pytest

from repro.core import fae_preprocess
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.core.input_processor import FAEDataset
from repro.core.scheduler import ShuffleScheduler
from repro.core.sketch import CountMinSketch
from repro.data import train_test_split
from repro.data.npz_codec import write_npz
from repro.dist import DistributedFAETrainer
from repro.models.dlrm import DLRM, DLRMConfig
from repro.obs import get_registry, get_tracer, tracing
from repro.obs.analyze import analyze_records
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    FaultPlan,
    JournalError,
    RefreshJournal,
    TrainerCheckpoint,
    capture_training_state,
    latest_checkpoint,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience.certify import CertifyConfig, run_certification, write_final_state
from repro.resilience.faults import REFRESH_PHASES
from repro.train import FAETrainer


def small_dlrm(schema, seed=3):
    return DLRM(schema, DLRMConfig("4-8", "8-1", seed=seed))


def _zipf_traffic(schema, rng, num=32):
    return {
        spec.name: rng.integers(0, spec.num_rows, size=(num, 1))
        for spec in schema.tables
    }


def _assert_tree_equal(a, b, path=""):
    """Byte-level equality over nested dict/list/array state trees."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for key in a:
            _assert_tree_equal(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            _assert_tree_equal(x, y, f"{path}[{index}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, path


# ----------------------------------------------------------------------
# State round-trips: sketch, drift, cache, dataset
# ----------------------------------------------------------------------


class TestSketchState:
    def test_roundtrip_byte_equality(self):
        sketch = CountMinSketch(width=64, depth=3, seed=9)
        rng = np.random.default_rng(0)
        sketch.add(rng.integers(0, 500, size=200))
        sketch.decay(0.5)
        sketch.add(rng.integers(0, 500, size=100))

        state = sketch.state_dict()
        other = CountMinSketch(width=64, depth=3, seed=77)  # different hashes
        other.load_state_dict(state)
        _assert_tree_equal(other.state_dict(), sketch.state_dict())
        probe = np.arange(500)
        np.testing.assert_array_equal(other.query(probe), sketch.query(probe))

    def test_rejects_geometry_mismatch(self):
        state = CountMinSketch(width=64, depth=3).state_dict()
        with pytest.raises(ValueError):
            CountMinSketch(width=32, depth=3).load_state_dict(state)
        with pytest.raises(ValueError):
            CountMinSketch(width=64, depth=2).load_state_dict(state)

    def test_rejects_wrong_schema_version(self):
        state = CountMinSketch(width=8, depth=2).state_dict()
        state["schema_version"] = 99
        with pytest.raises(ValueError):
            CountMinSketch(width=8, depth=2).load_state_dict(state)


class TestCacheState:
    def _warm_cache(self, tiny_schema, seed=5, rounds=6):
        cache = EmbeddingHotCache.from_schema(
            tiny_schema,
            HotCacheConfig(budget_bytes=8 * 1024, rebalance_every=64, seed=2),
            large_table_min_bytes=1024,
        )
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            cache.observe(_zipf_traffic(tiny_schema, rng))
        cache.rebalance()
        for _ in range(3):
            cache.observe(_zipf_traffic(tiny_schema, rng))
        return cache

    def test_roundtrip_byte_equality(self, tiny_schema):
        cache = self._warm_cache(tiny_schema)
        fresh = EmbeddingHotCache.from_schema(
            tiny_schema,
            HotCacheConfig(budget_bytes=8 * 1024, rebalance_every=64, seed=2),
            large_table_min_bytes=1024,
        )
        fresh.load_state_dict(cache.state_dict())
        _assert_tree_equal(fresh.state_dict(), cache.state_dict())
        assert fresh.stats() == cache.stats()

    def test_restored_cache_continues_identically(self, tiny_schema):
        cache = self._warm_cache(tiny_schema)
        fresh = EmbeddingHotCache.from_schema(
            tiny_schema,
            HotCacheConfig(budget_bytes=8 * 1024, rebalance_every=64, seed=2),
            large_table_min_bytes=1024,
        )
        fresh.load_state_dict(cache.state_dict())
        # Replay identical traffic into both; every observation and the
        # next turnover must agree byte-for-byte.
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(4):
            cache.observe(_zipf_traffic(tiny_schema, rng_a))
            fresh.observe(_zipf_traffic(tiny_schema, rng_b))
        delta_a = cache.rebalance()
        delta_b = fresh.rebalance()
        for name in set(delta_a.promoted) | set(delta_b.promoted):
            np.testing.assert_array_equal(
                delta_a.promoted.get(name), delta_b.promoted.get(name)
            )
            np.testing.assert_array_equal(
                delta_a.demoted.get(name), delta_b.demoted.get(name)
            )
        _assert_tree_equal(fresh.state_dict(), cache.state_dict())

    def test_plan_rebalance_is_pure(self, tiny_schema):
        """plan_rebalance must not mutate — crash recovery re-plans."""
        cache = self._warm_cache(tiny_schema)
        before = cache.state_dict()
        plan_a = cache.plan_rebalance()
        plan_b = cache.plan_rebalance()
        _assert_tree_equal(cache.state_dict(), before)
        assert plan_a.tick == plan_b.tick
        for name in set(plan_a.delta.promoted) | set(plan_b.delta.promoted):
            np.testing.assert_array_equal(
                plan_a.delta.promoted.get(name), plan_b.delta.promoted.get(name)
            )

    def test_apply_rejects_stale_plan(self, tiny_schema):
        cache = self._warm_cache(tiny_schema)
        plan = cache.plan_rebalance()
        rng = np.random.default_rng(1)
        cache.observe(_zipf_traffic(tiny_schema, rng))  # tick moves on
        with pytest.raises(ValueError):
            cache.apply_rebalance(plan)

    def test_rejects_wrong_schema_version(self, tiny_schema):
        cache = self._warm_cache(tiny_schema)
        state = cache.state_dict()
        state["schema_version"] = 42
        with pytest.raises(ValueError):
            cache.load_state_dict(state)


class TestDatasetState:
    def test_roundtrip_with_ragged_tail(self):
        batches = [
            np.arange(0, 64, dtype=np.int64),
            np.arange(64, 128, dtype=np.int64),
            np.arange(128, 150, dtype=np.int64),  # ragged tail
        ]
        dataset = FAEDataset(
            hot_batches=batches,
            cold_batches=[np.arange(150, 170, dtype=np.int64)],
            hot_mask=np.arange(170) < 150,
            batch_size=64,
        )
        rebuilt = FAEDataset.from_state_dict(dataset.state_dict())
        assert rebuilt.batch_size == 64
        assert len(rebuilt.hot_batches) == 3
        for a, b in zip(dataset.hot_batches, rebuilt.hot_batches):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(dataset.cold_batches, rebuilt.cold_batches):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(dataset.hot_mask, rebuilt.hot_mask)

    def test_empty_pools(self):
        dataset = FAEDataset(
            hot_batches=[],
            cold_batches=[np.arange(5, dtype=np.int64)],
            hot_mask=np.zeros(5, dtype=bool),
            batch_size=4,
        )
        rebuilt = FAEDataset.from_state_dict(dataset.state_dict())
        assert rebuilt.hot_batches == []
        assert len(rebuilt.cold_batches) == 1


# ----------------------------------------------------------------------
# Checkpoint v2: nested state, back-compat, corrupt-newest fallback
# ----------------------------------------------------------------------


def _cache_checkpoint(tiny_schema, step=7):
    model = small_dlrm(tiny_schema)
    cache = EmbeddingHotCache.from_schema(
        tiny_schema,
        HotCacheConfig(budget_bytes=8 * 1024, rebalance_every=64, seed=2),
        large_table_min_bytes=1024,
    )
    rng = np.random.default_rng(4)
    for _ in range(5):
        cache.observe(_zipf_traffic(tiny_schema, rng))
    cache.rebalance()
    dataset = FAEDataset(
        hot_batches=[np.arange(10, dtype=np.int64)],
        cold_batches=[np.arange(10, 30, dtype=np.int64)],
        hot_mask=np.arange(30) < 10,
        batch_size=10,
    )
    scheduler = ShuffleScheduler(num_hot_batches=1, num_cold_batches=1)
    return cache, TrainerCheckpoint(
        step=step,
        epoch=0,
        cursors={"hot": 0, "cold": 1},
        scheduler_state=scheduler.state_dict(),
        params=capture_training_state(model.dense_parameters(), model.tables),
        cache_state=cache.state_dict(),
        dataset_state=dataset.state_dict(),
    )


class TestCheckpointV2:
    def test_nested_state_roundtrip(self, tmp_path, tiny_schema):
        cache, ckpt = _cache_checkpoint(tiny_schema)
        path = save_checkpoint(tmp_path, ckpt)
        loaded = load_checkpoint(path)
        _assert_tree_equal(loaded.cache_state, ckpt.cache_state)
        _assert_tree_equal(loaded.dataset_state, ckpt.dataset_state)
        # The restored cache state is loadable and byte-faithful.
        fresh = EmbeddingHotCache.from_schema(
            tiny_schema,
            HotCacheConfig(budget_bytes=8 * 1024, rebalance_every=64, seed=2),
            large_table_min_bytes=1024,
        )
        fresh.load_state_dict(loaded.cache_state)
        _assert_tree_equal(fresh.state_dict(), cache.state_dict())

    def test_none_states_stay_none(self, tmp_path, tiny_schema):
        model = small_dlrm(tiny_schema)
        ckpt = TrainerCheckpoint(
            step=1,
            epoch=0,
            cursors={},
            scheduler_state=ShuffleScheduler(1, 1).state_dict(),
            params=capture_training_state(model.dense_parameters(), model.tables),
        )
        loaded = load_checkpoint(save_checkpoint(tmp_path, ckpt))
        assert loaded.cache_state is None
        assert loaded.dataset_state is None

    def test_v1_archive_is_refused(self, tmp_path, tiny_schema, monkeypatch):
        # A pre-durability archive: written under version 1, no state tree.
        import repro.resilience.checkpoint as ckpt_mod

        model = small_dlrm(tiny_schema)
        v1 = TrainerCheckpoint(
            step=3,
            epoch=0,
            cursors={},
            scheduler_state=ShuffleScheduler(1, 1).state_dict(),
            params=capture_training_state(model.dense_parameters(), model.tables),
        )
        monkeypatch.setattr(ckpt_mod, "CHECKPOINT_VERSION", 1)
        path = save_checkpoint(tmp_path, v1)
        monkeypatch.undo()

        assert verify_checkpoint(path)  # intact bytes, refused for its version
        with pytest.raises(CheckpointError, match="version 1, expected 2"):
            load_checkpoint(path)

    def test_trainer_warns_on_stateless_cache_resume(self, tiny_schema, tiny_plan):
        model = small_dlrm(tiny_schema)
        cache = EmbeddingHotCache(
            tiny_plan.bags, HotCacheConfig(budget_bytes=8 * 1024, seed=2)
        )
        trainer = FAETrainer(model, tiny_plan, cache=cache)
        stats_before = cache.stats()
        ckpt = TrainerCheckpoint(
            step=0,
            epoch=0,
            cursors={},
            scheduler_state=ShuffleScheduler(1, 1).state_dict(),
            params=capture_training_state(model.dense_parameters(), model.tables),
        )
        with pytest.warns(UserWarning, match="cold-start"):
            trainer._restore_cache_state(ckpt)
        assert cache.stats() == stats_before  # untouched: cold start

    def test_latest_checkpoint_skips_corrupt_newest(self, tmp_path, tiny_schema):
        _cache, older = _cache_checkpoint(tiny_schema, step=5)
        _cache2, newer = _cache_checkpoint(tiny_schema, step=9)
        old_path = save_checkpoint(tmp_path, older)
        new_path = save_checkpoint(tmp_path, newer)
        new_path.write_bytes(b"garbage" * 100)
        assert latest_checkpoint(tmp_path) == old_path

    def test_read_checkpoint_meta(self, tmp_path, tiny_schema):
        _cache, ckpt = _cache_checkpoint(tiny_schema, step=11)
        path = save_checkpoint(tmp_path, ckpt)
        meta = read_checkpoint_meta(path)
        assert meta["step"] == 11
        assert meta["version"] == 2
        assert meta["size_bytes"] == path.stat().st_size


def _rewrite_deflated(path):
    """Re-encode an archive the way the parent of PR 13 wrote it:
    ``np.savez_compressed`` members plus a sidecar over those bytes."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **payload)
    blob = buffer.getvalue()
    path.write_bytes(blob)
    path.with_name(path.name + ".sha256").write_text(
        f"{hashlib.sha256(blob).hexdigest()}  {path.name}\n", encoding="utf-8"
    )


def _rewrite_with_drift_entry(path):
    """Re-encode an archive the way it was written while checkpoints still
    carried a drift channel: ``extra_state`` ends in ``"drift": null``."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    meta = json.loads(str(payload["meta_json"]))
    meta["extra_state"]["drift"] = None
    payload["meta_json"] = np.array(json.dumps(meta))
    digest = write_npz(path, payload)
    path.with_name(path.name + ".sha256").write_text(
        f"{digest}  {path.name}\n", encoding="utf-8"
    )


class TestArchiveFormat:
    def test_members_are_stored_not_deflated(self, tmp_path, tiny_schema):
        _cache, ckpt = _cache_checkpoint(tiny_schema)
        path = save_checkpoint(tmp_path, ckpt)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert infos
        assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)
        assert all(info.compress_size == info.file_size for info in infos)

    def test_size_bytes_and_counter_equal_file_size(self, tmp_path, tiny_schema):
        _cache, ckpt = _cache_checkpoint(tiny_schema)
        counter = get_registry().counter("resilience.checkpoint.bytes")
        before = counter.value
        path = save_checkpoint(tmp_path, ckpt)
        assert read_checkpoint_meta(path)["size_bytes"] == path.stat().st_size
        assert counter.value - before == path.stat().st_size
        sidecar = path.with_name(path.name + ".sha256").read_text(encoding="utf-8")
        assert sidecar.split()[0] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_deflated_archive_from_parent_still_loads(self, tmp_path, tiny_schema):
        _cache, ckpt = _cache_checkpoint(tiny_schema, step=11)
        path = save_checkpoint(tmp_path, ckpt)
        stored_size = path.stat().st_size
        _rewrite_deflated(path)
        with zipfile.ZipFile(path) as archive:
            assert all(
                info.compress_type == zipfile.ZIP_DEFLATED for info in archive.infolist()
            )
        assert path.stat().st_size < stored_size
        assert verify_checkpoint(path)
        assert latest_checkpoint(tmp_path) == path
        meta = read_checkpoint_meta(path)
        assert (meta["step"], meta["version"]) == (11, 2)
        assert meta["size_bytes"] == path.stat().st_size
        loaded = load_checkpoint(path)
        _assert_tree_equal(loaded.cache_state, ckpt.cache_state)
        _assert_tree_equal(loaded.dataset_state, ckpt.dataset_state)
        _assert_tree_equal(loaded.params, ckpt.params)


class TestOrphanedTempFiles:
    def test_prune_removes_killed_writers_temp_files(self, tmp_path, tiny_schema):
        manager = CheckpointManager(tmp_path, keep=2)
        _cache, first = _cache_checkpoint(tiny_schema, step=1)
        kept = manager.save(first)
        journal = RefreshJournal(tmp_path)
        journal.begin(refresh_index=0, tick=1, generation=1, delta=_tiny_delta())
        # What a SIGKILL between mkstemp and os.replace leaves behind.
        orphans = [
            tmp_path / ".ckpt-00000002.npz.k1ll3d.tmp.npz",
            tmp_path / ".ckpt-00000002.npz.sha256.k1ll3d.tmp.sha256",
            tmp_path / ".refresh.journal.k1ll3d.tmp.journal",
        ]
        # Another writer's in-flight temp file is not this manager's to delete.
        foreign = tmp_path / ".metrics.jsonl.1nfl1ght.tmp.jsonl"
        for orphan in [*orphans, foreign]:
            orphan.write_bytes(b"half a write")
        _cache, second = _cache_checkpoint(tiny_schema, step=2)
        newest = manager.save(second)
        assert not any(orphan.exists() for orphan in orphans)
        assert foreign.read_bytes() == b"half a write"
        foreign.unlink()
        assert verify_checkpoint(kept) and verify_checkpoint(newest)
        assert journal.pending()["tick"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt-00000001.npz",
            "ckpt-00000001.npz.sha256",
            "ckpt-00000002.npz",
            "ckpt-00000002.npz.sha256",
            "refresh.journal",
        ]

    def test_unbounded_retention_still_sweeps(self, tmp_path, tiny_schema):
        manager = CheckpointManager(tmp_path, keep=None)
        orphan = tmp_path / ".ckpt-00000009.npz.k1ll3d.tmp.npz"
        orphan.write_bytes(b"half a write")
        _cache, ckpt = _cache_checkpoint(tiny_schema, step=3)
        manager.save(ckpt)
        assert not orphan.exists()


class TestAtomicFsync:
    def test_temp_file_is_fsynced_before_rename(self, tmp_path, monkeypatch):
        import os as os_mod

        from repro.resilience import atomic as atomic_mod

        synced = []
        real_fsync = os_mod.fsync
        monkeypatch.setattr(
            atomic_mod.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        target = tmp_path / "durable.txt"
        with atomic_mod.atomic_write(target) as tmp:
            tmp.write_text("payload")
        assert target.read_text() == "payload"
        # At least the temp file; the directory fsync is best-effort.
        assert len(synced) >= 1


# ----------------------------------------------------------------------
# Refresh journal
# ----------------------------------------------------------------------


def _tiny_delta():
    from repro.core.hotcache import CacheDelta

    return CacheDelta(
        promoted={"t": np.array([1, 5], dtype=np.int64)},
        demoted={"t": np.array([9], dtype=np.int64)},
    )


class TestRefreshJournal:
    def test_begin_commit_lifecycle(self, tmp_path):
        journal = RefreshJournal(tmp_path)
        assert journal.read() is None
        assert journal.pending() is None

        journal.begin(refresh_index=0, tick=12, generation=1, delta=_tiny_delta())
        record = journal.pending()
        assert record is not None
        assert record["status"] == "intent"
        assert record["tick"] == 12
        assert record["delta"]["promoted"]["t"] == [1, 5]

        journal.commit()
        assert journal.pending() is None
        assert journal.read()["status"] == "committed"

    def test_commit_without_intent_raises(self, tmp_path):
        journal = RefreshJournal(tmp_path)
        with pytest.raises(JournalError):
            journal.commit()
        journal.begin(refresh_index=0, tick=1, generation=1, delta=_tiny_delta())
        journal.commit()
        with pytest.raises(JournalError):
            journal.commit()  # already committed

    def test_bytes_match_the_per_id_int_encoding(self, tmp_path):
        # The parent of PR 13 wrote [int(i) for i in ids]; tolist() must
        # produce the same file, byte for byte, for intent and commit.
        from repro.core.hotcache import CacheDelta

        delta = CacheDelta(
            promoted={
                "b": np.array([2, 2**40], dtype=np.int64),
                "a": np.array([7], dtype=np.int64),
                "empty": np.zeros(0, dtype=np.int64),
            },
            demoted={"a": np.array([0, 3], dtype=np.int64)},
        )
        record = {
            "version": 1,
            "status": "intent",
            "refresh_index": 4,
            "tick": 77,
            "generation": 9,
            "delta": {
                side: {
                    name: [int(i) for i in ids]
                    for name, ids in sorted(mapping.items())
                    if ids.size
                }
                for side, mapping in (("promoted", delta.promoted), ("demoted", delta.demoted))
            },
        }
        journal = RefreshJournal(tmp_path)
        returned = journal.begin(refresh_index=4, tick=77, generation=9, delta=delta)
        assert returned == record
        assert journal.path.read_text() == json.dumps(record, sort_keys=True) + "\n"
        returned["tick"] = -1  # the caller's copy is not what gets committed
        journal.commit()
        assert returned["status"] == "intent"  # nor is it rewritten
        record["status"] = "committed"
        assert journal.path.read_text() == json.dumps(record, sort_keys=True) + "\n"

    def test_commit_does_not_reread_its_own_intent(self, tmp_path, monkeypatch):
        journal = RefreshJournal(tmp_path)
        journal.begin(refresh_index=0, tick=3, generation=1, delta=_tiny_delta())

        def no_read():
            raise AssertionError("commit() re-read the journal")

        monkeypatch.setattr(journal, "read", no_read)
        journal.commit()
        monkeypatch.undo()
        assert journal.read()["status"] == "committed"
        assert journal.read()["tick"] == 3

    def test_only_the_beginning_object_commits(self, tmp_path):
        # A crashed run's intent is re-begun by the resumed run, never
        # committed as found: commit() has one path, the begun record.
        RefreshJournal(tmp_path).begin(
            refresh_index=0, tick=3, generation=1, delta=_tiny_delta()
        )
        bystander = RefreshJournal(tmp_path)
        with pytest.raises(JournalError):
            bystander.commit()
        assert bystander.pending()["tick"] == 3

    def test_unreadable_record_raises(self, tmp_path):
        journal = RefreshJournal(tmp_path)
        journal.path.write_text("{not json", encoding="utf-8")
        with pytest.raises(JournalError):
            journal.read()

    def test_wrong_version_raises(self, tmp_path):
        journal = RefreshJournal(tmp_path)
        journal.path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(JournalError):
            journal.read()

    def test_rollforward_verifies_matching_intent(self, tmp_path):
        journal = RefreshJournal(tmp_path)
        journal.begin(refresh_index=2, tick=30, generation=3, delta=_tiny_delta())
        before = get_registry().counter("resilience.journal.rollforwards").value
        journal.verify_rollforward(tick=30, delta=_tiny_delta())
        after = get_registry().counter("resilience.journal.rollforwards").value
        assert after == before + 1

    def test_rollforward_rejects_mismatched_delta(self, tmp_path):
        from repro.core.hotcache import CacheDelta

        journal = RefreshJournal(tmp_path)
        journal.begin(refresh_index=2, tick=30, generation=3, delta=_tiny_delta())
        other = CacheDelta(promoted={"t": np.array([2], dtype=np.int64)}, demoted={})
        with pytest.raises(JournalError, match="nondeterministic"):
            journal.verify_rollforward(tick=30, delta=other)

    def test_rollforward_ignores_other_ticks(self, tmp_path):
        from repro.core.hotcache import CacheDelta

        journal = RefreshJournal(tmp_path)
        journal.begin(refresh_index=2, tick=30, generation=3, delta=_tiny_delta())
        # A different tick means the pending intent belongs to a refresh
        # the replay has not reached yet: no verdict either way.
        journal.verify_rollforward(
            tick=8, delta=CacheDelta(promoted={}, demoted={})
        )


# ----------------------------------------------------------------------
# Kill/resume exactness with the online cache (both trainers)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cache_fae_setup(request):
    tiny_log = request.getfixturevalue("tiny_log")
    config = request.getfixturevalue("tiny_fae_config")
    train, test = train_test_split(tiny_log, 0.2, seed=4)
    plan = fae_preprocess(train, config, batch_size=64, drop_last=True)
    return tiny_log.schema, train, test, plan


def _make_cache(plan):
    # Budget below the plan's: the calibrated membership is over budget,
    # so refresh 0 is guaranteed a non-empty delta (demotions at least)
    # and the phase-complete kill points (replicas/repack/pools) fire.
    return EmbeddingHotCache(
        plan.bags,
        HotCacheConfig(budget_bytes=8 * 1024, rebalance_every=256, seed=2),
        profile=plan.calibration.profile,
    )


def _single_trainer(schema, plan, fault_plan=None, seed=21):
    model = small_dlrm(schema, seed=seed)
    return FAETrainer(
        model, plan, lr=0.15, fault_plan=fault_plan, cache=_make_cache(plan)
    )


def _dist_trainer(schema, plan, fault_plan=None, seed=21):
    replicas = [small_dlrm(schema, seed=seed) for _ in range(2)]
    return DistributedFAETrainer(
        replicas, plan, lr=0.15, fault_plan=fault_plan, cache=_make_cache(plan)
    )


def _final_params(trainer):
    return (
        [p.value.copy() for p in trainer.replicas[0].dense_parameters()],
        {name: table.weight.value.copy() for name, table in trainer.master_tables.items()},
    )


def _assert_same_final_state(trainer_a, trainer_b, result_a, result_b):
    dense_a, tables_a = _final_params(trainer_a)
    dense_b, tables_b = _final_params(trainer_b)
    for p, q in zip(dense_a, dense_b):
        np.testing.assert_array_equal(p, q)
    for name in tables_a:
        np.testing.assert_array_equal(tables_a[name], tables_b[name])
    assert result_a.final_test_accuracy == result_b.final_test_accuracy
    assert result_a.final_train_accuracy == result_b.final_train_accuracy
    assert trainer_a.cache.stats() == trainer_b.cache.stats()
    _assert_tree_equal(trainer_a.cache.state_dict(), trainer_b.cache.state_dict())


class _SimulatedKill(BaseException):
    """Stands in for SIGKILL in-process (no handlers, not an Exception)."""


@pytest.fixture()
def simulated_sigkill(monkeypatch):
    monkeypatch.setattr(
        FaultPlan,
        "_sigkill",
        staticmethod(lambda: (_ for _ in ()).throw(_SimulatedKill())),
    )


def _kill_and_resume(
    make_trainer, schema, train, test, plan, tmp_path, faults, rewrite=None
):
    """Crash a run at ``faults``, resume it, return (trainer, result).

    ``rewrite`` (optional) re-encodes every surviving checkpoint before
    the resume reads any of them."""
    crash_dir = tmp_path / "crash"
    manager = CheckpointManager(crash_dir, every=1, keep=None)
    killed = make_trainer(schema, plan, fault_plan=FaultPlan.parse(faults))
    with pytest.raises(_SimulatedKill):
        killed.train(train, test, epochs=1, checkpoint=manager)
    if rewrite is not None:
        for archive in sorted(crash_dir.glob("ckpt-*.npz")):
            if verify_checkpoint(archive):
                rewrite(archive)

    resume_from = latest_checkpoint(crash_dir)
    assert resume_from is not None, "kill fired before any checkpoint was saved"
    resumed = make_trainer(schema, plan, seed=777)  # restore overwrites init
    result = resumed.train(
        train,
        test,
        epochs=1,
        checkpoint=CheckpointManager(crash_dir, every=1, keep=None),
        resume=resume_from,
    )
    return resumed, result, crash_dir


@pytest.mark.parametrize("make_trainer", [_single_trainer, _dist_trainer], ids=["single", "dist"])
class TestKillResumeExactness:
    def test_mid_segment_kill_resumes_exactly(
        self, tmp_path, cache_fae_setup, simulated_sigkill, make_trainer
    ):
        schema, train, test, plan = cache_fae_setup
        reference = make_trainer(schema, plan)
        ref_result = reference.train(
            train,
            test,
            epochs=1,
            checkpoint=CheckpointManager(tmp_path / "ref", every=1, keep=None),
        )
        assert reference.cache.rebalances >= 1

        # Kill mid-segment, two-thirds into the run.
        last_iteration = ref_result.history.points[-1].iteration
        crash_step = max(1, (2 * last_iteration) // 3)
        resumed, result, _ = _kill_and_resume(
            make_trainer, schema, train, test, plan, tmp_path,
            f"crash_step={crash_step}",
        )
        _assert_same_final_state(reference, resumed, ref_result, result)

    @pytest.mark.parametrize("phase", ["intent", "apply", "repack", "pools"])
    def test_mid_refresh_kill_rolls_forward(
        self, tmp_path, cache_fae_setup, simulated_sigkill, make_trainer, phase
    ):
        schema, train, test, plan = cache_fae_setup
        reference = make_trainer(schema, plan)
        ref_result = reference.train(
            train,
            test,
            epochs=1,
            checkpoint=CheckpointManager(tmp_path / "ref", every=1, keep=None),
        )
        stats = reference.cache.stats()
        assert stats["promotions"] + stats["demotions"] > 0, (
            "fixture must produce a non-empty refresh for phase kills"
        )

        resumed, result, crash_dir = _kill_and_resume(
            make_trainer, schema, train, test, plan, tmp_path,
            f"crash_refresh=0@{phase}",
        )
        _assert_same_final_state(reference, resumed, ref_result, result)
        # The journaled transaction the crash interrupted was rolled
        # forward and committed by the resumed run.
        assert RefreshJournal(crash_dir).read()["status"] == "committed"

    def test_resumes_exactly_from_a_deflated_parent_archive(
        self, tmp_path, cache_fae_setup, simulated_sigkill, make_trainer
    ):
        # Checkpoints written before PR 13 were deflated; a run must pick
        # one up mid-refresh and still land on the reference, bit for bit.
        schema, train, test, plan = cache_fae_setup
        reference = make_trainer(schema, plan)
        ref_result = reference.train(
            train,
            test,
            epochs=1,
            checkpoint=CheckpointManager(tmp_path / "ref", every=1, keep=None),
        )
        resumed, result, crash_dir = _kill_and_resume(
            make_trainer, schema, train, test, plan, tmp_path,
            "crash_refresh=0@apply", rewrite=_rewrite_deflated,
        )
        _assert_same_final_state(reference, resumed, ref_result, result)
        assert RefreshJournal(crash_dir).read()["status"] == "committed"
        # The archive it resumed from is still there, and still deflated.
        kinds = set()
        for archive in crash_dir.glob("ckpt-*.npz"):
            with zipfile.ZipFile(archive) as members:
                kinds |= {info.compress_type for info in members.infolist()}
        assert kinds == {zipfile.ZIP_DEFLATED, zipfile.ZIP_STORED}

    def test_resumes_exactly_from_an_archive_with_a_drift_entry(
        self, tmp_path, cache_fae_setup, simulated_sigkill, make_trainer
    ):
        # Archives from before the drift channel was dropped end their
        # extra state in ``"drift": null``; they load and resume bit for bit.
        schema, train, test, plan = cache_fae_setup
        reference = make_trainer(schema, plan)
        ref_result = reference.train(
            train,
            test,
            epochs=1,
            checkpoint=CheckpointManager(tmp_path / "ref", every=1, keep=None),
        )
        resumed, result, crash_dir = _kill_and_resume(
            make_trainer, schema, train, test, plan, tmp_path,
            "crash_refresh=0@apply", rewrite=_rewrite_with_drift_entry,
        )
        _assert_same_final_state(reference, resumed, ref_result, result)
        extras = []
        for archive in sorted(crash_dir.glob("ckpt-*.npz")):
            with np.load(archive) as members:
                extras.append(json.loads(str(members["meta_json"]))["extra_state"])
        # The resumed run read the old archives and wrote new ones without the entry.
        assert any(extra.get("drift", 0) is None for extra in extras)
        assert any("drift" not in extra for extra in extras)

    def test_checkpoint_boundary_kill_resumes_exactly(
        self, tmp_path, cache_fae_setup, simulated_sigkill, make_trainer
    ):
        schema, train, test, plan = cache_fae_setup
        reference = make_trainer(schema, plan)
        ref_result = reference.train(
            train,
            test,
            epochs=1,
            checkpoint=CheckpointManager(tmp_path / "ref", every=1, keep=None),
        )
        resumed, result, _ = _kill_and_resume(
            make_trainer, schema, train, test, plan, tmp_path, "crash_checkpoint=1"
        )
        _assert_same_final_state(reference, resumed, ref_result, result)


class TestRefreshTransactionSpans:
    """ROADMAP 1a: the refresh transaction is legible phase by phase."""

    PHASES = (
        "hotcache.plan",
        "resilience.journal.begin",
        "hotcache.rebalance",
        "resilience.journal.commit",
    )

    def _train(self, tmp_path, cache_fae_setup):
        schema, train, test, plan = cache_fae_setup
        trainer = _single_trainer(schema, plan)
        trainer.train(
            train, test, epochs=1,
            checkpoint=CheckpointManager(tmp_path, every=1, keep=None),
        )
        return trainer

    def test_phases_are_spans_in_protocol_order(self, tmp_path, cache_fae_setup):
        tracer = get_tracer()
        tracer.reset()
        with tracing():
            trainer = self._train(tmp_path, cache_fae_setup)
        records = tracer.records()
        tracer.reset()
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)
        refreshes = trainer.cache.rebalances
        assert refreshes >= 1
        for phase in self.PHASES:
            assert len(by_name[phase]) == refreshes, phase
        for plan, begin, apply, commit in zip(*(by_name[p] for p in self.PHASES)):
            assert plan.end <= begin.start <= begin.end <= apply.start
            assert apply.end <= commit.start
            assert set(plan.attributes) >= {"tick", "candidates", "admitted", "victims"}
            assert begin.attributes["tick"] == plan.attributes["tick"]
        stats = trainer.cache.stats()
        assert sum(r.attributes["admitted"] for r in by_name["hotcache.plan"]) == stats["promotions"]
        assert sum(r.attributes["victims"] for r in by_name["hotcache.plan"]) == stats["demotions"]
        saves = by_name["resilience.checkpoint.save"]
        sizes = sorted(p.stat().st_size for p in tmp_path.glob("ckpt-*.npz"))
        assert sorted(r.attributes["bytes"] for r in saves) == sizes
        # Self times still add up with the new spans in the tree.
        analysis = analyze_records([r.to_dict() for r in records])
        assert analysis.coverage() == pytest.approx(1.0)

    def test_tracer_off_records_nothing(self, tmp_path, cache_fae_setup):
        tracer = get_tracer()
        tracer.reset()
        with tracing(False):
            self._train(tmp_path, cache_fae_setup)
        assert len(tracer) == 0


# ----------------------------------------------------------------------
# Certification fingerprint + CLI surfaces
# ----------------------------------------------------------------------


class TestFinalStateFingerprint:
    def test_deterministic_bytes(self, tmp_path, cache_fae_setup):
        schema, train, test, plan = cache_fae_setup
        trainer = _single_trainer(schema, plan)
        result = trainer.train(train, test, epochs=1)
        a = write_final_state(tmp_path / "a.json", trainer.model, result, trainer.cache)
        b = write_final_state(tmp_path / "b.json", trainer.model, result, trainer.cache)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["version"] == 1
        assert payload["cache"]["stats"]["rebalances"] == trainer.cache.rebalances

    def test_detects_param_drift(self, tmp_path, cache_fae_setup):
        schema, train, test, plan = cache_fae_setup
        trainer = _single_trainer(schema, plan)
        result = trainer.train(train, test, epochs=1)
        a = write_final_state(tmp_path / "a.json", trainer.model, result, trainer.cache)
        trainer.model.dense_parameters()[0].value[0] += 1e-8
        b = write_final_state(tmp_path / "b.json", trainer.model, result, trainer.cache)
        assert a.read_bytes() != b.read_bytes()


class TestCertifyConfig:
    def test_kill_specs_cover_requested_matrix(self):
        config = CertifyConfig(phases=("plan", "commit"), checkpoints=(0, 2), steps=(7,))
        assert config.kill_specs() == [
            "crash_refresh=0@plan",
            "crash_refresh=0@commit",
            "crash_checkpoint=0",
            "crash_checkpoint=2",
            "crash_step=7",
        ]

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            CertifyConfig(phases=("warp",))

    def test_default_phases_are_complete(self):
        assert CertifyConfig().phases == REFRESH_PHASES

    @pytest.mark.parametrize("gpus", [1, 2])
    def test_real_sigkill_resumes_byte_identically(self, tmp_path, gpus):
        """Both world sizes of the one engine, through the CLI, with real
        SIGKILLs: a post-repack refresh phase and a checkpoint boundary."""
        config = CertifyConfig(phases=("pools",), checkpoints=(0,), gpus=gpus)
        report = run_certification(config, tmp_path, log=lambda _line: None)
        assert [p["kill"] for p in report["points"]] == config.kill_specs()
        assert all(p["killed"] and p["resumed"] for p in report["points"])
        assert report["passed"]


class TestCheckpointCLI:
    def test_ls_reports_and_verify_passes(self, tmp_path, tiny_schema, capsys):
        from repro.cli import main

        _cache, ckpt = _cache_checkpoint(tiny_schema, step=4)
        save_checkpoint(tmp_path, ckpt)
        assert main(["checkpoint", "ls", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ckpt-00000004.npz" in out
        assert "ok" in out
        assert main(["checkpoint", "verify", str(tmp_path)]) == 0

    def test_corruption_exits_nonzero(self, tmp_path, tiny_schema, capsys):
        from repro.cli import main

        _cache, older = _cache_checkpoint(tiny_schema, step=4)
        _cache2, newer = _cache_checkpoint(tiny_schema, step=8)
        save_checkpoint(tmp_path, older)
        newest = save_checkpoint(tmp_path, newer)
        newest.write_bytes(b"x" * 64)
        assert main(["checkpoint", "ls", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert main(["checkpoint", "verify", str(tmp_path)]) == 1
        assert main(["checkpoint", "verify", str(tmp_path / "ckpt-00000004.npz")]) == 0

    def test_missing_target_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["checkpoint", "ls", str(tmp_path / "nope")]) == 2


class TestFaultPlanCrashSpecs:
    def test_parse_crash_specs(self):
        plan = FaultPlan.parse("crash_refresh=2@repack,crash_checkpoint=1,crash_step=9")
        assert plan.crash_refresh == (2, "repack")
        assert plan.crash_checkpoint == 1
        assert plan.crash_step == 9

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crash_refresh=0@warp")

    def test_crash_hooks_fire_only_on_target(self, simulated_sigkill):
        plan = FaultPlan.parse("crash_refresh=1@apply")
        plan.maybe_crash_refresh(0, "apply")
        plan.maybe_crash_refresh(1, "plan")
        with pytest.raises(_SimulatedKill):
            plan.maybe_crash_refresh(1, "apply")

    def test_crash_checkpoint_counts_saves(self, simulated_sigkill):
        plan = FaultPlan.parse("crash_checkpoint=1")
        plan.maybe_crash_checkpoint()  # save 0
        with pytest.raises(_SimulatedKill):
            plan.maybe_crash_checkpoint()  # save 1
