"""Atomic, checksummed training checkpoints.

A checkpoint captures everything a trainer needs to continue a run as if
it had never stopped: model parameters (dense layers + embedding
masters), the :class:`~repro.core.scheduler.ShuffleScheduler`'s rate and
adaptation state, the epoch/segment cursor, optimizer state, and the
fault plan's RNG state.  The format is one ``.npz`` archive per
checkpoint plus a ``.sha256`` sidecar:

- the archive is written by :func:`~repro.data.npz_codec.write_npz` (temp
  file + ``os.replace``, recycling a spare inode) so a crash mid-write
  never leaves a truncated checkpoint under the final name;
- the sidecar holds the archive's SHA-256; :func:`load_checkpoint`
  verifies it and raises :class:`CheckpointCorruptionError` (naming the
  file) on any mismatch, truncation, or unreadable archive;
- :func:`latest_checkpoint` scans a directory newest-first and skips
  corrupt entries, so resume falls back to the last *good* snapshot.

Checkpoints are taken at segment boundaries with the CPU master tables
authoritative (hot rows freshly synced), which is why a resumed run's
loss trajectory reproduces the uninterrupted run bit-for-bit — see
``tests/test_resilience.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.atomic import recycling_write, remove_orphaned_temps, set_aside
from repro.resilience.journal import RefreshJournal

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointManager",
    "TrainerCheckpoint",
    "capture_training_state",
    "checkpoint_paths",
    "latest_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "restore_training_state",
    "save_checkpoint",
    "verify_checkpoint",
]

#: v2 carries durable cache / drift / repacked-dataset state, so the
#: exact-resume invariant holds under the online hot cache.  Any other
#: version (v1 had params + scheduler + cursors only) is refused.
CHECKPOINT_VERSION = 2

_DENSE_PREFIX = "param.dense."
_TABLE_PREFIX = "param.table."
_OPT_PREFIX = "opt."
_STATE_PREFIX = "state."

_NDARRAY_MARKER = "__ndarray__"


class CheckpointError(RuntimeError):
    """A checkpoint could not be saved, found, or restored."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint file failed its integrity check."""


@dataclass
class TrainerCheckpoint:
    """A full training snapshot at a segment boundary.

    Attributes:
        step: global iteration count at capture time.
        epoch: epoch index being trained when captured.
        cursors: per-pool batch cursors within the epoch.
        scheduler_state: :meth:`ShuffleScheduler.state_dict` output.
        params: parameter arrays — ``dense.<index>`` entries in
            ``dense_parameters()`` order plus ``table.<name>`` masters.
        optimizer_state: optimizer tensors (empty for stateless SGD).
        rng_state: fault-plan / RNG state (JSON-serializable), or None.
        degraded: whether the run had degraded to cold-only execution.
        last_train_loss: trailing train-loss carry for history fidelity.
        last_train_accuracy: trailing train-accuracy carry.
        epoch_accuracy_sum: sum over the epoch's steps so far of step
            accuracy x trained batch size; with ``epoch_samples`` the
            running train accuracy a resumed run continues exactly
            (absent in an older archive: both load as 0).
        epoch_samples: samples trained so far in the current epoch.
        metadata: free-form JSON-serializable extras.
        cache_state: :meth:`EmbeddingHotCache.state_dict` output, or None
            when the run has no online cache (or the archive predates v2).
        dataset_state: :meth:`FAEDataset.state_dict` of the *repacked*
            dataset, or None while the run still trains the original
            packing (cache turnover rewrites batch geometry mid-epoch,
            so cursors/scheduler state are meaningless without it).
        drift_state: :meth:`DriftDetector.state_dict` output, or None.
    """

    step: int
    epoch: int
    cursors: dict[str, int]
    scheduler_state: dict
    params: dict[str, np.ndarray]
    optimizer_state: dict[str, np.ndarray] = field(default_factory=dict)
    rng_state: dict | None = None
    degraded: bool = False
    last_train_loss: float = 0.0
    last_train_accuracy: float = 0.0
    epoch_accuracy_sum: float = 0.0
    epoch_samples: int = 0
    metadata: dict = field(default_factory=dict)
    cache_state: dict | None = None
    dataset_state: dict | None = None
    drift_state: dict | None = None


# ----------------------------------------------------------------------
# Model-state capture/restore
# ----------------------------------------------------------------------


def capture_training_state(dense_parameters, tables) -> dict[str, np.ndarray]:
    """Copy dense parameters and master-table weights into a state dict.

    Args:
        dense_parameters: the model's ``dense_parameters()`` list.
        tables: master :class:`~repro.nn.embedding.EmbeddingTable` map.
    """
    state: dict[str, np.ndarray] = {}
    for index, param in enumerate(dense_parameters):
        state[f"dense.{index:04d}"] = param.value.copy()
    for name, table in tables.items():
        state[f"table.{name}"] = table.weight.value.copy()
    return state


def restore_training_state(dense_parameters, tables, state: dict[str, np.ndarray]) -> None:
    """Write a captured state dict back into live parameters, in place.

    Raises:
        CheckpointError: on a missing entry or shape mismatch — the
            checkpoint belongs to a different model.
    """

    def _restore(key: str, target) -> None:
        if key not in state:
            raise CheckpointError(f"checkpoint is missing parameter {key!r}")
        saved = state[key]
        if saved.shape != target.value.shape:
            raise CheckpointError(
                f"checkpoint parameter {key!r} has shape {saved.shape}, "
                f"model expects {target.value.shape}"
            )
        target.value[...] = saved

    for index, param in enumerate(dense_parameters):
        _restore(f"dense.{index:04d}", param)
    for name, table in tables.items():
        _restore(f"table.{name}", table.weight)


# ----------------------------------------------------------------------
# Nested-state packing
# ----------------------------------------------------------------------
#
# state_dict trees (cache / drift / dataset) mix JSON scalars with numpy
# arrays.  Arrays cannot ride in the meta JSON and npz archives are flat,
# so the tree is split: every ndarray leaf moves into the archive under a
# generated "state.<path>" key and leaves a {"__ndarray__": key} marker
# behind; the marker-bearing skeleton goes into the meta JSON and is
# re-inflated on load.


def _pack_tree(tree, prefix: str, arrays: dict[str, np.ndarray]):
    if isinstance(tree, np.ndarray):
        arrays[prefix] = tree
        return {_NDARRAY_MARKER: prefix}
    if isinstance(tree, dict):
        if _NDARRAY_MARKER in tree:
            raise CheckpointError(
                f"state dict key {_NDARRAY_MARKER!r} is reserved for array markers"
            )
        return {
            key: _pack_tree(value, f"{prefix}.{key}", arrays)
            for key, value in tree.items()
        }
    if isinstance(tree, (list, tuple)):
        return [
            _pack_tree(value, f"{prefix}.{index}", arrays)
            for index, value in enumerate(tree)
        ]
    if isinstance(tree, (np.integer, np.floating, np.bool_)):
        return tree.item()
    return tree


def _unpack_tree(tree, arrays: dict[str, np.ndarray]):
    if isinstance(tree, dict):
        if set(tree) == {_NDARRAY_MARKER}:
            return arrays[tree[_NDARRAY_MARKER]]
        return {key: _unpack_tree(value, arrays) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_unpack_tree(value, arrays) for value in tree]
    return tree


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _checkpoint_name(step: int) -> str:
    return f"ckpt-{step:08d}.npz"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


def save_checkpoint(directory: str | Path, ckpt: TrainerCheckpoint) -> Path:
    """Atomically persist ``ckpt`` under ``directory``; returns its path.

    The archive goes through :func:`~repro.data.npz_codec.write_npz` with
    *stored* members (not deflated: float32 weights only shrink to 0.93
    and zlib took 14x as long, see DESIGN.md section 14), and only then
    does its checksum sidecar appear — a checkpoint without a valid
    sidecar is treated as corrupt, so no interleaving of crashes can
    yield a resumable-but-wrong snapshot.
    """
    directory = Path(directory)
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": ckpt.step,
        "epoch": ckpt.epoch,
        "cursors": ckpt.cursors,
        "scheduler_state": ckpt.scheduler_state,
        "rng_state": ckpt.rng_state,
        "degraded": ckpt.degraded,
        "last_train_loss": ckpt.last_train_loss,
        "last_train_accuracy": ckpt.last_train_accuracy,
        "epoch_accuracy_sum": ckpt.epoch_accuracy_sum,
        "epoch_samples": ckpt.epoch_samples,
        "metadata": ckpt.metadata,
    }
    state_arrays: dict[str, np.ndarray] = {}
    meta["extra_state"] = _pack_tree(
        {
            "cache": ckpt.cache_state,
            "dataset": ckpt.dataset_state,
            "drift": ckpt.drift_state,
        },
        _STATE_PREFIX[:-1],
        state_arrays,
    )
    payload: dict[str, np.ndarray] = {"meta_json": np.array(json.dumps(meta))}
    payload.update(state_arrays)
    for key, value in ckpt.params.items():
        if key.startswith("dense."):
            payload[_DENSE_PREFIX + key[len("dense."):]] = value
        elif key.startswith("table."):
            payload[_TABLE_PREFIX + key[len("table."):]] = value
        else:
            raise CheckpointError(f"unrecognized parameter key {key!r}")
    for key, value in ckpt.optimizer_state.items():
        payload[_OPT_PREFIX + key] = value

    from repro.data.npz_codec import write_npz  # deferred: npz_codec -> obs -> resilience

    path = directory / _checkpoint_name(ckpt.step)
    with span("resilience.checkpoint.save", step=ckpt.step) as sp:
        digest = write_npz(path, payload, deflate=False, recycle=True)
        recycling_write(_sidecar(path), f"{digest}  {path.name}\n".encode())
        nbytes = path.stat().st_size
        sp.set(bytes=nbytes)

    registry = get_registry()
    registry.counter("resilience.checkpoint.saves").inc()
    registry.counter("resilience.checkpoint.bytes").inc(nbytes)
    return path


def _read_verified(path: Path) -> bytes:
    """Read a checkpoint's bytes, enforcing the checksum sidecar."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    sidecar = _sidecar(path)
    if not sidecar.exists():
        raise CheckpointCorruptionError(
            f"checkpoint {path} has no {sidecar.name} sidecar — "
            "treating it as an interrupted write"
        )
    expected = sidecar.read_text(encoding="utf-8").split()[0]
    blob = path.read_bytes()
    actual = hashlib.sha256(blob).hexdigest()
    if actual != expected:
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed its integrity check "
            f"(sha256 {actual[:12]}… != recorded {expected[:12]}…)"
        )
    return blob


def verify_checkpoint(path: str | Path) -> bool:
    """True if ``path`` exists and passes its checksum."""
    try:
        _read_verified(Path(path))
    except (FileNotFoundError, CheckpointCorruptionError, OSError):
        return False
    return True


def load_checkpoint(path: str | Path) -> TrainerCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises:
        FileNotFoundError: if ``path`` does not exist.
        CheckpointCorruptionError: on checksum mismatch or an unreadable
            archive (the error names the file).
        CheckpointError: on any version but :data:`CHECKPOINT_VERSION`.
    """
    path = Path(path)
    blob = _read_verified(path)
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta_json"]))
            arrays = {key: archive[key] for key in archive.files if key != "meta_json"}
    except Exception as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} is unreadable despite a matching checksum: {exc}"
        ) from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}, expected {CHECKPOINT_VERSION}"
        )
    params: dict[str, np.ndarray] = {}
    optimizer_state: dict[str, np.ndarray] = {}
    state_arrays: dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        if key.startswith(_DENSE_PREFIX):
            params["dense." + key[len(_DENSE_PREFIX):]] = value
        elif key.startswith(_TABLE_PREFIX):
            params["table." + key[len(_TABLE_PREFIX):]] = value
        elif key.startswith(_OPT_PREFIX):
            optimizer_state[key[len(_OPT_PREFIX):]] = value
        elif key.startswith(_STATE_PREFIX):
            state_arrays[key] = value
    extra_state = _unpack_tree(meta.get("extra_state") or {}, state_arrays)
    get_registry().counter("resilience.checkpoint.restores").inc()
    return TrainerCheckpoint(
        step=int(meta["step"]),
        epoch=int(meta["epoch"]),
        cursors={k: int(v) for k, v in meta["cursors"].items()},
        scheduler_state=meta["scheduler_state"],
        params=params,
        optimizer_state=optimizer_state,
        rng_state=meta.get("rng_state"),
        degraded=bool(meta.get("degraded", False)),
        last_train_loss=float(meta.get("last_train_loss", 0.0)),
        last_train_accuracy=float(meta.get("last_train_accuracy", 0.0)),
        epoch_accuracy_sum=float(meta.get("epoch_accuracy_sum", 0.0)),
        epoch_samples=int(meta.get("epoch_samples", 0)),
        metadata=meta.get("metadata", {}),
        cache_state=extra_state.get("cache"),
        dataset_state=extra_state.get("dataset"),
        drift_state=extra_state.get("drift"),
    )


def read_checkpoint_meta(path: str | Path) -> dict:
    """Verified metadata of one checkpoint, without loading its arrays.

    Returns the raw meta dict (version, step, epoch, degraded, ...) plus
    ``size_bytes``; used by ``repro checkpoint ls``.  Raises the same
    errors as :func:`load_checkpoint` on missing/corrupt files.
    """
    path = Path(path)
    blob = _read_verified(path)
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta_json"]))
    except Exception as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} is unreadable despite a matching checksum: {exc}"
        ) from exc
    meta["size_bytes"] = len(blob)
    return meta


def checkpoint_paths(directory: str | Path) -> list[Path]:
    """``ckpt-<step>.npz`` archives in ``directory``, oldest first by parsed step (not name)."""
    steps = {path: path.stem[len("ckpt-"):] for path in Path(directory).glob("ckpt-*.npz")}
    return sorted(steps, key=lambda p: (int(steps[p]) if steps[p].isdecimal() else -1, p.name))


def latest_checkpoint(directory: str | Path) -> Path | None:
    """Newest checkpoint in ``directory`` that passes verification.

    Corrupt or half-written entries are skipped (and counted under
    ``resilience.checkpoint.corrupt_skipped``), so resume falls back to
    the last good snapshot instead of dying on a truncated file.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    for candidate in reversed(checkpoint_paths(directory)):
        if verify_checkpoint(candidate):
            return candidate
        get_registry().counter("resilience.checkpoint.corrupt_skipped").inc()
    return None


class CheckpointManager:
    """Periodic checkpointing into a directory with bounded retention.

    Args:
        directory: where checkpoints live.
        every: save every N completed segments (>= 1).
        keep: how many newest checkpoints to retain, or None for all.
    """

    def __init__(self, directory: str | Path, every: int = 1, keep: int | None = 3) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if keep is not None and keep < 1:
            raise ValueError("keep must be >= 1 (or None for unlimited)")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep

    def should_save(self, segments_done: int) -> bool:
        """Whether a checkpoint is due after ``segments_done`` segments."""
        return segments_done > 0 and segments_done % self.every == 0

    def save(self, ckpt: TrainerCheckpoint) -> Path:
        """Persist ``ckpt`` and prune beyond the retention limit."""
        path = save_checkpoint(self.directory, ckpt)
        self._prune()
        return path

    def latest(self) -> Path | None:
        return latest_checkpoint(self.directory)

    def _prune(self) -> None:
        # A SIGKILL mid-write leaves recycling_write's temp file behind.  The
        # save that just returned has none in flight and the trainer that
        # owns this directory journals between saves, so any temp of an
        # archive, a sidecar or the journal found here is dead.
        for name in ("ckpt-*.npz*", RefreshJournal.FILENAME):
            remove_orphaned_temps(self.directory, name)
        if self.keep is None:
            return
        # Retired as the directory's spares, not unlinked: the next save
        # overwrites them in place instead of freeing blocks.
        for stale in checkpoint_paths(self.directory)[: -self.keep]:
            set_aside(stale)
            set_aside(_sidecar(stale))
