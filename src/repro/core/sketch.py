"""Streaming access counting with a Count-Min Sketch.

The Embedding Logger keeps one exact counter per embedding row — cheap at
Kaggle scale, but a Terabyte-class deployment profiling many models
concurrently may not want 26 x 73M counters per job.  A Count-Min Sketch
bounds memory at a fixed ``width x depth`` grid with a one-sided error
guarantee: estimates never undercount, and overcount by at most
``epsilon * total`` with probability ``1 - delta`` for
``width = ceil(e / epsilon)``, ``depth = ceil(ln(1/delta))``.

Overcounting is the *safe* direction for FAE: a row whose count is
inflated gets classified hot (wasting a few bytes of GPU memory), never
cold (which would poison pure-hot batches).  :class:`SketchLogger` is a
drop-in alternative to :class:`~repro.core.embedding_logger.EmbeddingLogger`
that produces the same :class:`~repro.core.access_profile.AccessProfile`
surface from sketched counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import AccessProfile, TableProfile
from repro.core.config import FAEConfig
from repro.data.synthetic import SyntheticClickLog

__all__ = ["CountMinSketch", "SketchLogger", "SKETCH_STATE_VERSION"]

#: Schema version of :meth:`CountMinSketch.state_dict` payloads.
SKETCH_STATE_VERSION = 1


class CountMinSketch:
    """Count-Min Sketch over non-negative integer item ids.

    Args:
        width: counters per row (error scale ~ total/width).
        depth: independent hash rows (failure probability ~ exp(-depth)).
        seed: hash-parameter seed.
    """

    #: A large Mersenne prime for universal hashing.
    _PRIME = (1 << 61) - 1

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, self._PRIME, size=depth, dtype=np.int64)
        self._b = rng.integers(0, self._PRIME, size=depth, dtype=np.int64)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    @classmethod
    def from_error_bounds(cls, epsilon: float, delta: float, seed: int = 0) -> "CountMinSketch":
        """Size a sketch for overcount <= ``epsilon * total`` w.p. ``1 - delta``."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("epsilon and delta must be in (0, 1)")
        width = int(np.ceil(np.e / epsilon))
        depth = int(np.ceil(np.log(1.0 / delta)))
        return cls(width=width, depth=max(1, depth), seed=seed)

    def _cells(self, ids: np.ndarray) -> np.ndarray:
        """(depth, n) indices into the flattened table via universal hashing."""
        # row * width + ((a*x + b) mod p) mod width, row-wise.
        hashed = (self._a[:, None] * ids[None, :] + self._b[:, None]) % self._PRIME
        return hashed % self.width + np.arange(self.depth)[:, None] * self.width

    def add(self, ids: np.ndarray, counts: np.ndarray | None = None) -> None:
        """Count accesses for every id in ``ids`` (duplicates counted).

        Args:
            ids: item ids; flattened before counting.
            counts: optional per-id weights (one access each when None).
                The hot cache uses this to re-inject a demoted row's exact
                counter back into the sketch, so its popularity history
                survives the demotion.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return
        if counts is None:
            weights: np.ndarray | int = 1
            added = int(ids.size)
        else:
            weights = np.asarray(counts, dtype=np.int64).ravel()
            if weights.shape != ids.shape:
                raise ValueError(
                    f"counts shape {weights.shape} != ids shape {ids.shape}"
                )
            if weights.size and int(weights.min()) < 0:
                raise ValueError("counts must be non-negative")
            added = int(weights.sum())
            # One copy per hash row, spelled out: handing ufunc.at a 2-D
            # index with 1-D values reads out of bounds (numpy 2.4).
            weights = np.concatenate([weights] * self.depth)
        # One exact integer scatter over all rows; it touches n * depth
        # cells, where a bincount would sweep the whole table per add.
        np.add.at(self.table.reshape(-1), self._cells(ids).ravel(), weights)
        self.total += added

    def decay(self, factor: float) -> None:
        """Exponentially age every counter: ``table = floor(table * factor)``.

        Periodic decay turns the sketch's lifetime counts into
        recency-weighted estimates (the aging trick CAFE applies to its
        hot-tracking sketch): rows that stopped appearing shrink toward
        zero geometrically, so a rotated popularity head overtakes the old
        one after a few windows instead of never.  The floor keeps
        counters integral — estimates stay deterministic and never
        undercount the *decayed* truth (every true count passed through
        the same floor-scaling).
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"decay factor must be in (0, 1], got {factor}")
        if factor == 1.0 or self.total == 0:
            # Every row sums to at most ``total``: an empty sketch stays empty.
            return
        self.table = np.floor(self.table * factor).astype(np.int64)
        self.total = int(np.floor(self.total * factor))

    def query(self, ids: np.ndarray) -> np.ndarray:
        """Estimated counts (never below the true counts)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        return self.table.ravel()[self._cells(ids)].min(axis=0)

    @property
    def nbytes(self) -> int:
        return int(self.table.nbytes)

    def state_dict(self) -> dict:
        """Complete sketch state for checkpointing (schema-versioned).

        The hash parameters travel with the counters: a restored sketch
        answers every query byte-identically even if the constructor seed
        that produced ``a``/``b`` is no longer known.
        """
        return {
            "schema_version": SKETCH_STATE_VERSION,
            "width": self.width,
            "depth": self.depth,
            "total": int(self.total),
            "a": self._a.copy(),
            "b": self._b.copy(),
            "table": self.table.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this sketch.

        Raises:
            ValueError: on schema-version or geometry mismatch.
        """
        version = state.get("schema_version")
        if version != SKETCH_STATE_VERSION:
            raise ValueError(
                f"sketch state schema_version {version} != {SKETCH_STATE_VERSION}"
            )
        if int(state["width"]) != self.width or int(state["depth"]) != self.depth:
            raise ValueError(
                f"sketch geometry mismatch: state is "
                f"{state['depth']}x{state['width']}, sketch is "
                f"{self.depth}x{self.width}"
            )
        self._a = np.asarray(state["a"], dtype=np.int64).copy()
        self._b = np.asarray(state["b"], dtype=np.int64).copy()
        table = np.asarray(state["table"], dtype=np.int64)
        if table.shape != (self.depth, self.width):
            raise ValueError(f"sketch table shape {table.shape} != {(self.depth, self.width)}")
        self.table = table.copy()
        self.total = int(state["total"])


class SketchLogger:
    """Access profiling through Count-Min Sketches (one per large table).

    Args:
        config: FAE configuration (large-table cutoff).
        epsilon: relative overcount bound per sketch.
        delta: failure probability per sketch.
    """

    def __init__(self, config: FAEConfig, epsilon: float = 1e-4, delta: float = 1e-3) -> None:
        self.config = config
        self.epsilon = epsilon
        self.delta = delta
        self.last_sketch_bytes = 0

    def profile(self, log: SyntheticClickLog, sample_indices: np.ndarray) -> AccessProfile:
        """Sketch-based counterpart of ``EmbeddingLogger.profile``.

        The returned profile materializes per-row *estimates* by querying
        the sketch for every row id — still smaller than exact counting
        in streaming settings because the counting state is bounded while
        the stream flows.
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        if sample_indices.size == 0:
            raise ValueError("sample_indices must be non-empty")

        tables: dict[str, TableProfile] = {}
        self.last_sketch_bytes = 0
        for spec in log.schema.large_tables(self.config.large_table_min_bytes):
            sketch = CountMinSketch.from_error_bounds(
                self.epsilon, self.delta, seed=self.config.seed
            )
            sketch.add(log.sparse[spec.name][sample_indices])
            self.last_sketch_bytes += sketch.nbytes
            counts = sketch.query(np.arange(spec.num_rows))
            # Rows never touched can still alias to non-empty buckets;
            # exact-zero traffic is recoverable because CMS never
            # undercounts: a row with estimate 0 truly has count 0, and
            # rows that alias keep their (safe) overcount.
            tables[spec.name] = TableProfile(name=spec.name, counts=counts, dim=spec.dim)

        return AccessProfile(
            schema=log.schema,
            tables=tables,
            num_sampled_inputs=int(sample_indices.shape[0]),
            num_total_inputs=len(log),
        )
