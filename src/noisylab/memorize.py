"""Empirical noisy-label distributions and excess-generalization-error accounting.

A model that memorizes an instance's noisy labels is represented purely by
its output distribution: the empirical distribution of the l observed
labels.  Its error contribution is weighted by the instance's importance
weight tau_l, and the frequency-weighted sum over instances is the excess
generalization error these tools account for.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .freqmodel import tau_lower_large
from .noise import label_to_index

__all__ = [
    "LabelDist",
    "ExcessRecord",
    "empirical_distribution",
    "memorization_error",
    "argmax_error",
    "individual_excess",
    "total_excess",
    "impact_lower_bound",
]


@dataclass(frozen=True)
class LabelDist:
    """A distribution over class indices (index 0 = label -1 in binary).

    signed=True admits entries outside [0, 1] while keeping the sum-to-one
    constraint; pre-cap corrected labels live there.
    """

    probs: np.ndarray
    signed: bool = False

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float).ravel()
        object.__setattr__(self, "probs", probs)
        if probs.size < 2:
            raise ValueError("a label distribution needs at least two classes")
        if probs.size == 2:
            # the binary case runs the same checks on Python floats
            lo, hi = probs.tolist()
            finite = math.isfinite(lo) and math.isfinite(hi)
            total = lo + hi
            in_range = -1e-12 <= lo <= 1.0 + 1e-12 and -1e-12 <= hi <= 1.0 + 1e-12
        else:
            finite = bool(np.all(np.isfinite(probs)))
            total = probs.sum()
            in_range = not np.any((probs < -1e-12) | (probs > 1.0 + 1e-12))
        if not finite:
            raise ValueError("label distribution entries must be finite")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"label distribution must sum to 1, got {probs.sum()!r}")
        if not self.signed and not in_range:
            raise ValueError(f"proper distribution entries must lie in [0, 1], got {probs}")

    @property
    def m(self) -> int:
        return int(self.probs.size)

    def prob_of(self, y: int) -> float:
        return float(self.probs[label_to_index(y, self.m)])


def _label_counts(labels, m: int = 2) -> np.ndarray:
    """Per-class counts of observed labels, in class-index order.

    Binary labels use the -1/+1 convention; multiclass labels are indices.
    Integral floats such as 1.0 count as labels; other values are rejected,
    never truncated.
    """
    raw = np.asarray(labels).ravel()
    if raw.size == 0:
        raise ValueError("need at least one label")
    arr = raw.astype(np.int64, copy=False)
    if arr is not raw and not np.array_equal(arr, raw):
        raise ValueError("labels must be integer-valued")
    if m == 2:
        n_plus = np.count_nonzero(arr == 1)
        if n_plus + np.count_nonzero(arr == -1) == arr.size:
            return np.array([arr.size - n_plus, n_plus])
    if not np.all((arr >= 0) & (arr < m)):
        raise ValueError(f"labels must all be -1/+1 (binary) or indices below {m}")
    return np.bincount(arr, minlength=m)


def empirical_distribution(labels, m: int = 2) -> LabelDist:
    """Empirical distribution of observed labels: probs[k] = count(k) / l.

    Binary labels use the -1/+1 convention; multiclass labels are indices.
    """
    counts = _label_counts(labels, m)
    # count/l with a common integer denominator keeps one-hot cases exact
    return LabelDist(counts / counts.sum())


def memorization_error(dist: LabelDist, y: int) -> float:
    """Error of the memorizing predictor: the off-label mass sum_{k != y} probs[k].

    Computed as 1 - probs[y], which is the same quantity without accumulating
    a sum over classes.
    """
    if dist.signed:
        raise ValueError("memorization error is defined for proper distributions")
    return 1.0 - dist.prob_of(y)


def argmax_error(dist: LabelDist, y: int) -> float:
    """Error of the order-preserving (argmax) relaxation of memorization.

    0 when y is the unique mode, 1 when it is not a mode, and the uniform
    tie-break value when several classes share the mode.  Exposed for
    experimentation only; no guarantee in this package is stated for it.
    """
    if dist.signed:
        raise ValueError("argmax error is defined for proper distributions")
    top = dist.probs.max()
    modes = np.flatnonzero(dist.probs >= top - 1e-12)
    if label_to_index(y, dist.m) not in modes:
        return 1.0
    return 1.0 - 1.0 / modes.size


@dataclass(frozen=True)
class ExcessRecord:
    """One instance's contribution to the excess generalization error."""

    l: int
    tau: float
    err: float

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if not 0.0 <= self.err <= 1.0:
            raise ValueError(f"err must lie in [0, 1], got {self.err}")

    @property
    def individual_excess(self) -> float:
        return individual_excess(self.tau, self.err)


def individual_excess(tau: float, err: float) -> float:
    """tau_l * P[h(x) != y] for one instance."""
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if not 0.0 <= err <= 1.0:
        raise ValueError(f"err must lie in [0, 1], got {err}")
    return tau * err


def total_excess(records) -> float:
    """Sum of individual excesses: sum_l tau_l sum_{x with count l} P[h(x) != y].

    fsum keeps the total independent of record ordering.
    """
    return math.fsum(record.individual_excess for record in records)


def impact_lower_bound(n: int, l: int, weight_value: float, dist: LabelDist, y: int) -> float:
    """Lower bound on one instance's excess: tau lower bound times its error.

    Combines the large-regime importance-weight floor with the memorizing
    predictor's off-label mass.  Degenerates to 0 at l = 1 (warned), where
    the tau bound is vacuous.
    """
    if l == 1:
        warnings.warn("impact bound degenerates at l = 1", stacklevel=2)
    return tau_lower_large(n, l, weight_value) * memorization_error(dist, y)
