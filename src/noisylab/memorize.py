"""Empirical binary label distributions and the memorizing predictor's error.

A model that memorizes an instance's noisy labels is represented purely by
its output distribution: the empirical distribution of the l observed -1/+1
labels.  Its error on the true label is the mass on the other label; the
importance weight tau_l (see freqmodel) scales that error into the
instance's share of the excess generalization error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import _label_to_index

_TOL = 1e-12  # far above the rounding of the treatments' label algebra, e.g. (1 - a) p + a / 2


def _finite_pair(values, what: str) -> np.ndarray:
    """A copy of values as a flat float array, or ValueError unless it holds two finite entries."""
    arr = np.array(values, dtype=float).ravel()
    if arr.size != 2:
        raise ValueError(f"a {what} has two entries, got {arr.size}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"{what} entries must be finite")
    return arr


@dataclass(frozen=True)
class LabelDist:
    """A distribution over the two labels, index 0 = label -1, index 1 = label +1.

    signed=True admits entries outside [0, 1] while keeping the sum-to-one
    constraint; pre-cap corrected labels live there.  probs is a read-only
    copy of the given entries, so editing those later leaves it unchanged.
    """

    probs: np.ndarray
    signed: bool = False

    def __post_init__(self) -> None:
        probs = _finite_pair(self.probs, "label distribution")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        lo, hi = probs.tolist()
        if abs(lo + hi - 1.0) > _TOL:
            raise ValueError(f"label distribution must sum to 1, got {probs.sum()!r}")
        if not self.signed and not (-_TOL <= lo <= 1.0 + _TOL and -_TOL <= hi <= 1.0 + _TOL):
            raise ValueError(f"proper distribution entries must lie in [0, 1], got {probs}")

    def prob_of(self, y: int) -> float:
        return float(self.probs[_label_to_index(y)])


def _label_counts(labels) -> np.ndarray:
    """Counts of the observed -1 and +1 labels, in class-index order.

    Integral floats such as 1.0 count as labels; a bool anywhere in the input, as
    a bool label, and other values are rejected, never truncated.
    """
    raw = np.asarray(labels).ravel()
    if raw.size == 0:
        raise ValueError("need at least one label")
    if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(labels, dtype=object).flat):
        raise ValueError("labels must be -1 or +1, got bools")
    arr = raw.astype(np.int64, copy=False)
    if arr is not raw and not np.array_equal(arr, raw):
        raise ValueError("labels must be integer-valued")
    n_plus = np.count_nonzero(arr == 1)
    if n_plus + np.count_nonzero(arr == -1) != arr.size:
        raise ValueError("labels must all be -1 or +1")
    return np.array([arr.size - n_plus, n_plus])


def empirical_distribution(labels) -> LabelDist:
    """Empirical distribution of observed -1/+1 labels: probs[k] = count(k) / l."""
    counts = _label_counts(labels)
    # count/l with a common integer denominator keeps one-hot cases exact
    return LabelDist(counts / counts.sum())


def memorization_error(dist: LabelDist, y: int) -> float:
    """Error of the memorizing predictor: the mass 1 - probs[y] on the other label."""
    if dist.signed:
        raise ValueError("memorization error is defined for proper distributions")
    return 1.0 - dist.prob_of(y)
