"""Power-law (Zipfian) samplers and skew diagnostics.

Real recommendation datasets access embedding rows with a heavy-tailed,
approximately Zipfian distribution (paper SS V cites [45]).  The synthetic
datasets in :mod:`repro.data.synthetic` draw every sparse feature from a
:class:`ZipfSampler`, and the calibration utilities here let tests assert
that generated logs reproduce the paper's headline skew numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ZipfSampler",
    "generalized_harmonic",
    "zipf_probabilities",
    "zipf_top_k_coverage",
    "zipf_rows_above_probability",
]


def generalized_harmonic(n: int, s: float) -> float:
    """Generalized harmonic number ``H_n(s) = sum_{k=1..n} k^-s``.

    Computed exactly for small ``n`` and by Euler-Maclaurin (midpoint
    integral plus endpoint corrections) for large ``n`` — O(1) in ``n``,
    accurate to ~1e-10 relative for the exponents click logs exhibit.
    Used for analytic paper-scale coverage where materializing 73M-row
    probability vectors would be wasteful.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    cutoff = 20000
    if n <= cutoff:
        return float((np.arange(1, n + 1, dtype=np.float64) ** -s).sum())
    head = float((np.arange(1, cutoff + 1, dtype=np.float64) ** -s).sum())
    # integral_{cutoff}^{n} x^-s dx + trapezoid endpoint correction
    if abs(s - 1.0) < 1e-12:
        integral = np.log(n / cutoff)
    else:
        integral = (n ** (1.0 - s) - cutoff ** (1.0 - s)) / (1.0 - s)
    correction = 0.5 * (float(n) ** -s - float(cutoff) ** -s)
    return head + integral + correction


def zipf_top_k_coverage(num_items: int, exponent: float, top_k: int) -> float:
    """Access share captured by the ``top_k`` most popular items (analytic)."""
    if top_k <= 0:
        return 0.0
    top_k = min(top_k, num_items)
    return generalized_harmonic(top_k, exponent) / generalized_harmonic(num_items, exponent)


def zipf_rows_above_probability(num_items: int, exponent: float, probability: float) -> int:
    """How many ranks have individual probability >= ``probability``.

    For Zipf, ``p_k = k^-s / H_N(s) >= t`` iff ``k <= (t H_N)^(-1/s)``.
    """
    if probability <= 0:
        return num_items
    if exponent == 0:
        uniform = 1.0 / num_items
        return num_items if uniform >= probability else 0
    h_n = generalized_harmonic(num_items, exponent)
    k = (probability * h_n) ** (-1.0 / exponent)
    return int(min(num_items, max(0.0, np.floor(k))))


def zipf_probabilities(num_items: int, exponent: float) -> np.ndarray:
    """Return the probability vector of a truncated Zipf distribution.

    ``p[k] proportional to 1 / (k + 1) ** exponent`` for ranks ``k`` in
    ``[0, num_items)``.  ``exponent == 0`` degenerates to uniform.

    Args:
        num_items: support size; must be positive.
        exponent: Zipf exponent ``s >= 0``.  Typical click logs measure
            ``s`` in ``[0.7, 1.2]``.

    Raises:
        ValueError: if ``num_items <= 0`` or ``exponent < 0``.
    """
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


@dataclass
class ZipfSampler:
    """Samples item ids from a truncated Zipf distribution.

    The mapping from popularity rank to item id is a fixed random
    permutation, so hot ids are scattered across the table exactly as in a
    hashed production embedding table (this matters: the Rand-Em Box's
    random-chunk sampling assumes hot rows are not clustered).

    Attributes:
        num_items: table cardinality.
        exponent: Zipf exponent ``s``.
        seed: seed for both the rank permutation and the draw stream.
    """

    num_items: int
    exponent: float
    seed: int = 0
    _probs: np.ndarray = field(init=False, repr=False)
    _rank_to_id: np.ndarray = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._probs = zipf_probabilities(self.num_items, self.exponent)
        perm_rng = np.random.default_rng(self.seed)
        self._rank_to_id = perm_rng.permutation(self.num_items)
        self._rng = np.random.default_rng(self.seed + 1)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` item ids (int64, shape ``(size,)``)."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        ranks = self._rng.choice(self.num_items, size=size, p=self._probs)
        return self._rank_to_id[ranks].astype(np.int64)

    def probability_of_id(self, item_id: int) -> float:
        """Ground-truth access probability of a concrete item id."""
        ranks = np.argsort(self._rank_to_id)
        return float(self._probs[ranks[item_id]])

    def id_probabilities(self) -> np.ndarray:
        """Ground-truth probability vector indexed by item id."""
        probs = np.empty(self.num_items, dtype=np.float64)
        probs[self._rank_to_id] = self._probs
        return probs

    def hot_ids(self, access_share: float) -> np.ndarray:
        """Smallest set of ids jointly covering ``access_share`` of mass.

        Used by tests as an oracle for "which rows *should* be hot".
        """
        if not 0 < access_share <= 1:
            raise ValueError(f"access_share must be in (0, 1], got {access_share}")
        cumulative = np.cumsum(self._probs)
        cutoff = int(np.searchsorted(cumulative, access_share)) + 1
        return np.sort(self._rank_to_id[:cutoff])
