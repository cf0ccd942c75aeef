"""Checkpoint directories that free no blocks: the recycling writer.

``repro.resilience.atomic.recycling_write`` writes checkpoint archives,
their ``.sha256`` sidecars and ``refresh.journal`` over the directory's
spare inodes, and ``CheckpointManager`` prunes by retiring files as
spares.  These tests pin what must not change (fsyncs, atomicity, what
readers see) and what must: no call on the steady-state path drops an
inode's last link or a file's blocks.  Plus checkpoint order by step.
"""

import io
import json
import os
import signal
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.hotcache import CacheDelta
from repro.data.npz_codec import NpzReader
from repro.resilience import (
    CheckpointManager,
    JournalError,
    RefreshJournal,
    TrainerCheckpoint,
    latest_checkpoint,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
    verify_checkpoint,
)
from repro.resilience import atomic as atomic_mod
from repro.resilience.atomic import remove_orphaned_temps

ROOT = Path(__file__).resolve().parents[1]
SPARES = (".npz.spare", ".sha256.spare", ".journal.spare")


def _checkpoint(step, rows=64):
    """A snapshot whose archive grows 256 B per row (rows=64: ~17 KiB)."""
    rng = np.random.default_rng(step * 1000 + rows)
    return TrainerCheckpoint(
        step=step,
        epoch=0,
        cursors={"hot": step, "cold": rows},
        scheduler_state={"rate": 0.5},
        params={
            "dense.0000": rng.standard_normal((rows, 64)).astype(np.float32),
            "table.t": np.full((8, 4), step, dtype=np.float32),
        },
    )


def _delta(ids):
    """A refresh delta whose journal record grows ~5 B per id."""
    return CacheDelta(
        promoted={"t": np.arange(10_000, 10_000 + ids, dtype=np.int64)},
        demoted={"t": np.arange(ids // 2, dtype=np.int64)},
    )


def _live_and_spares(directory):
    names = {path.name: path for path in Path(directory).iterdir()}
    spares = {name: path for name, path in names.items() if name in SPARES}
    live = {name: path for name, path in names.items() if name not in SPARES}
    return live, spares


def _assert_spares_detached(directory):
    """At most one spare per kind, none linked to a live file, no temp left."""
    live, spares = _live_and_spares(directory)
    assert not [name for name in live if ".tmp" in name]
    live_inodes = {path.stat().st_ino for path in live.values()}
    for path in spares.values():
        assert path.stat().st_nlink == 1, path.name
        assert path.stat().st_ino not in live_inodes, path.name


def _assert_same_checkpoint(a, b):
    fields = ("step", "epoch", "cursors", "scheduler_state")
    assert [getattr(a, name) for name in fields] == [getattr(b, name) for name in fields]
    assert sorted(a.params) == sorted(b.params)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])


# ----------------------------------------------------------------------
# Order by step
# ----------------------------------------------------------------------


class TestCheckpointOrder:
    def test_steps_past_eight_digits_order_by_step(self, tmp_path, capsys):
        # The names pad to 8 digits, so "ckpt-100000000.npz" sorts below
        # "ckpt-99999999.npz" as a string: resume took the older snapshot
        # and keep=2 pruned the newest one.
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (99_999_998, 99_999_999, 100_000_000):
            manager.save(_checkpoint(step))
        assert sorted(p.name for p in tmp_path.glob("ckpt-*.npz")) == [
            "ckpt-100000000.npz",
            "ckpt-99999999.npz",
        ]
        assert latest_checkpoint(tmp_path) == tmp_path / "ckpt-100000000.npz"
        assert manager.latest() == tmp_path / "ckpt-100000000.npz"
        assert main(["checkpoint", "ls", str(tmp_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["step"] for row in rows] == [99_999_999, 100_000_000]


# ----------------------------------------------------------------------
# The steady state frees nothing
# ----------------------------------------------------------------------


class _FsAudit:
    """Wraps every call that can free an inode or a block, and counts fsyncs.

    A violation is an ``unlink`` / ``replace`` / ``rename`` whose target's
    last link it drops, or an ``ftruncate`` that lowers ``st_blocks``;
    both are measured on the file, so the check holds on any filesystem.
    """

    def __init__(self, monkeypatch):
        self.armed = False
        self.violations = []
        self.fsyncs = 0
        for name, target in (("unlink", 0), ("replace", 1), ("rename", 1)):
            monkeypatch.setattr(os, name, self._links(name, target, getattr(os, name)))
        real_ftruncate, real_fsync = os.ftruncate, os.fsync

        def ftruncate(fd, length):
            blocks = os.fstat(fd).st_blocks
            real_ftruncate(fd, length)
            if self.armed and os.fstat(fd).st_blocks < blocks:
                self.violations.append(("ftruncate", blocks, os.fstat(fd).st_blocks))

        def fsync(fd):
            self.fsyncs += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "ftruncate", ftruncate)
        monkeypatch.setattr(os, "fsync", fsync)

    def _links(self, name, target_index, real):
        def call(*args, **kwargs):
            target = args[target_index]
            if self.armed and os.path.lexists(target) and os.stat(target).st_nlink == 1:
                if target_index == 0 or not os.path.samefile(args[0], target):
                    self.violations.append((name, Path(target).name))
            return real(*args, **kwargs)

        return call


class TestSteadyStateFreesNothing:
    # 4 is saved twice (a restarted trainer re-saves a step); archive and
    # journal sizes swing by more than a block in both directions.
    STEPS = (1, 2, 3, 4, 4, 5, 6, 7)
    ROWS = (40, 120, 60, 100, 50, 110, 40, 90)
    IDS = (2000, 10, 1500, 30, 2500, 5, 1000, 20)

    def test_saves_prunes_and_journal_writes_free_nothing(self, tmp_path, monkeypatch):
        audit = _FsAudit(monkeypatch)
        manager = CheckpointManager(tmp_path, every=1, keep=2)
        journal = RefreshJournal(tmp_path)
        for index, (step, rows, ids) in enumerate(zip(self.STEPS, self.ROWS, self.IDS)):
            before = audit.fsyncs
            manager.save(_checkpoint(step, rows))
            assert audit.fsyncs - before == 4  # archive + sidecar: file and directory each
            if index == 2:
                audit.armed = True  # the first prune just ran
            for write in (
                lambda: journal.begin(
                    refresh_index=index, tick=index, generation=index, delta=_delta(ids)
                ),
                journal.commit,
            ):
                before = audit.fsyncs
                write()
                assert audit.fsyncs - before == 2  # the record: file and directory
        assert audit.armed and audit.violations == []

        live, spares = _live_and_spares(tmp_path)
        assert sorted(live) == [
            "ckpt-00000006.npz",
            "ckpt-00000006.npz.sha256",
            "ckpt-00000007.npz",
            "ckpt-00000007.npz.sha256",
            "refresh.journal",
        ]
        assert sorted(spares) == sorted(SPARES)  # keep + 1 archives: the parent's peak
        _assert_spares_detached(tmp_path)
        assert all(verify_checkpoint(tmp_path / name) for name in live if name.endswith(".npz"))
        _assert_same_checkpoint(load_checkpoint(manager.latest()), _checkpoint(7, 90))
        assert journal.read()["status"] == "committed"
        assert journal.read()["delta"] == {
            "promoted": {"t": list(range(10_000, 10_020))},
            "demoted": {"t": list(range(10))},
        }


# ----------------------------------------------------------------------
# Crash windows
# ----------------------------------------------------------------------


class _Crash(Exception):
    pass


def _inject(monkeypatch, directory, step, kind):
    """Raise :class:`_Crash` once, at ``step`` of the next write of ``kind``."""
    fired = []
    spare = directory / f"{kind}.spare"

    def is_temp(path):
        name = Path(path).name
        return name.startswith(".") and name.endswith(f".tmp{kind}")

    def is_temp_fd(fd):
        inode = os.fstat(fd).st_ino
        return any(path.stat().st_ino == inode for path in directory.iterdir() if is_temp(path))

    def once():
        if fired:
            return False
        fired.append(True)
        return True

    real_rename, real_link, real_replace = os.rename, os.link, os.replace
    real_fsync, real_open = os.fsync, open

    def rename(src, dst, *args, **kwargs):
        real_rename(src, dst, *args, **kwargs)
        if Path(src) == spare and once():
            raise _Crash("after adopting the spare")

    def link(src, dst, *args, **kwargs):
        real_link(src, dst, *args, **kwargs)
        if Path(dst) == spare and once():
            raise _Crash("after the link-aside")

    def replace(src, dst, *args, **kwargs):
        if is_temp(src) and Path(dst) != spare and once():
            raise _Crash("before the replace")
        real_replace(src, dst, *args, **kwargs)

    def fsync(fd):
        real_fsync(fd)
        if is_temp_fd(fd) and once():
            raise _Crash("after the fsync")

    class HalfWriter(io.BufferedRandom):
        def write(self, data):
            super().write(bytes(data)[: len(data) // 2])
            self.flush()
            raise _Crash("mid-write")

    def open_(fd, mode="r", *args, **kwargs):
        handle = real_open(fd, mode, *args, **kwargs)
        if isinstance(fd, int) and is_temp_fd(fd) and once():
            return HalfWriter(handle.detach())
        return handle

    patches = {
        "adopt": (os, "rename", rename),
        "write": (atomic_mod, "open", open_),
        "fsync": (os, "fsync", fsync),
        "link": (os, "link", link),
        "replace": (os, "replace", replace),
    }
    module, name, fake = patches[step]
    monkeypatch.setattr(module, name, fake, raising=False)
    return fired


STEPS = ("adopt", "write", "fsync", "link", "replace")


class TestCrashWindows:
    def _warm(self, directory):
        """Three saves (3 re-saved later) and a journaled refresh: every spare exists."""
        manager = CheckpointManager(directory, keep=2)
        for step, rows in ((1, 40), (2, 120), (3, 60)):
            manager.save(_checkpoint(step, rows))
        journal = RefreshJournal(directory)
        journal.begin(refresh_index=0, tick=1, generation=1, delta=_delta(300))
        journal.commit()
        journal.begin(refresh_index=1, tick=2, generation=2, delta=_delta(900))
        journal.commit()
        _live, spares = _live_and_spares(directory)
        assert sorted(spares) == sorted(SPARES)
        return manager, journal

    @pytest.mark.parametrize("kind", [".npz", ".sha256"])
    @pytest.mark.parametrize("step", STEPS)
    def test_checkpoint_write_crash(self, tmp_path, monkeypatch, step, kind):
        manager, _journal = self._warm(tmp_path)
        archive = tmp_path / "ckpt-00000003.npz"
        sidecar = tmp_path / "ckpt-00000003.npz.sha256"
        old_archive, old_sidecar = archive.read_bytes(), sidecar.read_bytes()
        fired = _inject(monkeypatch, tmp_path, step, kind)
        with pytest.raises(_Crash):
            manager.save(_checkpoint(3, 100))  # re-save: both final names exist
        assert fired
        monkeypatch.undo()

        if kind == ".npz":  # the archive write died: both files are the old ones
            assert archive.read_bytes() == old_archive
            assert latest_checkpoint(tmp_path) == archive
        else:  # the archive is complete and new; its sidecar is the old one
            with np.load(archive) as members:
                np.testing.assert_array_equal(
                    members["param.dense.0000"], _checkpoint(3, 100).params["dense.0000"]
                )
            assert latest_checkpoint(tmp_path) == tmp_path / "ckpt-00000002.npz"
        assert sidecar.read_bytes() == old_sidecar
        _assert_spares_detached(tmp_path)

        newest = manager.save(_checkpoint(4, 80))
        assert latest_checkpoint(tmp_path) == newest
        _assert_same_checkpoint(load_checkpoint(newest), _checkpoint(4, 80))
        _assert_spares_detached(tmp_path)

    @pytest.mark.parametrize("step", STEPS)
    def test_journal_write_crash(self, tmp_path, monkeypatch, step):
        _manager, journal = self._warm(tmp_path)
        committed = journal.read()
        fired = _inject(monkeypatch, tmp_path, step, ".journal")
        with pytest.raises(_Crash):
            journal.begin(refresh_index=2, tick=3, generation=3, delta=_delta(50))
        assert fired
        monkeypatch.undo()

        assert journal.read() == committed and journal.pending() is None
        _assert_spares_detached(tmp_path)
        record = journal.begin(refresh_index=2, tick=3, generation=3, delta=_delta(50))
        assert journal.pending() == record
        journal.commit()
        assert journal.read()["status"] == "committed"
        _assert_spares_detached(tmp_path)

    def test_sigkill_at_the_link_aside(self, tmp_path):
        child = (
            "import os, signal, sys\n"
            "from repro.resilience import CheckpointManager\n"
            "from tests.test_recycling import _checkpoint\n"
            "manager = CheckpointManager(sys.argv[1], keep=2)\n"
            "for step, rows in ((1, 40), (2, 120), (3, 60)):\n"
            "    manager.save(_checkpoint(step, rows))\n"
            "real_link = os.link\n"
            "def link_then_die(src, dst, *args, **kwargs):\n"
            "    real_link(src, dst, *args, **kwargs)\n"
            "    if str(dst).endswith('.npz.spare'):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "os.link = link_then_die\n"
            "manager.save(_checkpoint(3, 100))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"},
            cwd=ROOT,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        archive = tmp_path / "ckpt-00000003.npz"
        # Killed between the link and the replace: the old archive is whole
        # and still verifies, and the spare is a second link to it.
        assert latest_checkpoint(tmp_path) == archive
        _assert_same_checkpoint(load_checkpoint(archive), _checkpoint(3, 60))
        assert os.path.samefile(tmp_path / ".npz.spare", archive)
        assert list(tmp_path.glob(".ckpt-00000003.npz.*.tmp.npz"))

        # The next writer drops that link instead of adopting it.
        manager = CheckpointManager(tmp_path, keep=2)
        newest = manager.save(_checkpoint(4, 80))
        assert latest_checkpoint(tmp_path) == newest
        _assert_same_checkpoint(load_checkpoint(archive), _checkpoint(3, 60))
        _assert_same_checkpoint(load_checkpoint(newest), _checkpoint(4, 80))
        _assert_spares_detached(tmp_path)


# ----------------------------------------------------------------------
# Padded formats read as the unpadded ones
# ----------------------------------------------------------------------


class TestPaddedFormats:
    def _padded_save(self, directory, big_rows, small):
        """Save ``small`` over a spare left by two saves of a bigger archive."""
        save_checkpoint(directory, _checkpoint(small.step, big_rows))
        save_checkpoint(directory, _checkpoint(small.step, big_rows))
        spare_size = (directory / ".npz.spare").stat().st_size
        return save_checkpoint(directory, small), spare_size

    def test_padded_archive_reads_identically(self, tmp_path):
        small = _checkpoint(5, 40)
        padded, spare_size = self._padded_save(tmp_path / "padded", 120, small)
        reference = save_checkpoint(tmp_path / "plain", small)
        plain = reference.read_bytes()
        blob = padded.read_bytes()
        gap = spare_size - len(plain)
        assert 4096 < gap <= 0xFFFF and len(blob) == spare_size
        assert blob[: len(plain) - 2] == plain[:-2]  # only the comment differs
        with zipfile.ZipFile(padded) as archive:
            assert archive.comment == b" " * gap
        with np.load(padded) as a, np.load(reference) as b:
            assert a.files == b.files
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])
        reader, plain_reader = NpzReader(blob, "padded"), NpzReader(plain, "plain")
        for key in ("meta_json", "param.dense.0000", "param.table.t"):
            np.testing.assert_array_equal(reader[key], plain_reader[key])
        _assert_same_checkpoint(load_checkpoint(padded), load_checkpoint(reference))
        meta, plain_meta = read_checkpoint_meta(padded), read_checkpoint_meta(reference)
        assert meta.pop("size_bytes") == spare_size
        plain_meta.pop("size_bytes")
        assert meta == plain_meta

    def test_gap_beyond_a_zip_comment_truncates_exactly(self, tmp_path):
        small = _checkpoint(5, 40)
        padded, spare_size = self._padded_save(tmp_path / "padded", 600, small)
        reference = save_checkpoint(tmp_path / "plain", small)
        assert spare_size - reference.stat().st_size > 0xFFFF
        assert padded.read_bytes() == reference.read_bytes()
        assert verify_checkpoint(padded)

    def test_padded_journal_record_behaves_identically(self, tmp_path):
        journal = RefreshJournal(tmp_path / "padded")
        plain = RefreshJournal(tmp_path / "plain")
        journal.begin(refresh_index=0, tick=1, generation=1, delta=_delta(2000))
        journal.commit()  # the 2000-id intent is now the spare
        small = _delta(20)
        record = journal.begin(refresh_index=1, tick=7, generation=2, delta=small)
        plain.begin(refresh_index=1, tick=7, generation=2, delta=small)
        text = journal.path.read_text()
        assert text.startswith(plain.path.read_text()) and text.endswith("   ")
        assert len(text) > len(plain.path.read_text()) + 4096
        assert journal.read() == plain.read() == record
        assert journal.pending() == plain.pending() == record
        journal.verify_rollforward(tick=7, delta=small)
        journal.verify_rollforward(tick=8, delta=_delta(5))  # another tick: not checked
        with pytest.raises(JournalError):
            journal.verify_rollforward(tick=7, delta=_delta(21))

    def test_spares_are_invisible_to_readers_and_sweeps(self, tmp_path, capsys):
        manager = CheckpointManager(tmp_path, keep=1)
        journal = RefreshJournal(tmp_path)
        for step in (1, 2, 3):
            manager.save(_checkpoint(step))
            journal.begin(refresh_index=step, tick=step, generation=step, delta=_delta(step))
            journal.commit()
        assert sorted(_live_and_spares(tmp_path)[1]) == sorted(SPARES)
        assert latest_checkpoint(tmp_path) == tmp_path / "ckpt-00000003.npz"
        assert main(["checkpoint", "ls", str(tmp_path), "--json"]) == 0
        assert [row["file"] for row in json.loads(capsys.readouterr().out)] == [
            "ckpt-00000003.npz"
        ]
        assert main(["checkpoint", "verify", str(tmp_path)]) == 0
        for name in ("ckpt-*.npz*", RefreshJournal.FILENAME, "*"):
            remove_orphaned_temps(tmp_path, name)
        assert sorted(_live_and_spares(tmp_path)[1]) == sorted(SPARES)
        assert len(list(tmp_path.glob("*.sha256"))) == 1
