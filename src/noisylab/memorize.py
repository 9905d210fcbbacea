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
        probs = np.array(self.probs, dtype=float).ravel()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.size != 2:
            raise ValueError(f"a label distribution has two entries, got {probs.size}")
        lo, hi = probs.tolist()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("label distribution entries must be finite")
        if abs(lo + hi - 1.0) > 1e-12:
            raise ValueError(f"label distribution must sum to 1, got {probs.sum()!r}")
        if not self.signed and not (-1e-12 <= lo <= 1.0 + 1e-12 and -1e-12 <= hi <= 1.0 + 1e-12):
            raise ValueError(f"proper distribution entries must lie in [0, 1], got {probs}")

    def prob_of(self, y: int) -> float:
        return float(self.probs[_label_to_index(y)])


def _label_counts(labels) -> np.ndarray:
    """Counts of the observed -1 and +1 labels, in class-index order.

    Integral floats such as 1.0 count as labels; other values are rejected,
    never truncated.
    """
    raw = np.asarray(labels).ravel()
    if raw.size == 0:
        raise ValueError("need at least one label")
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
