"""Noise transition matrices, noisy-label sampling, and per-instance flip-rate synthesis.

Class-order convention, fixed package-wide: index 0 holds label -1 and index 1
holds label +1 for binary problems; multiclass labels are plain indices
0..m-1.  All distribution vectors and loss vectors follow this order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spec import Spec, field_violations, raise_first
from .bounds import _deferred_special

__all__ = [
    "BinaryNoiseRates",
    "TransitionMatrix",
    "InstanceNoiseSynth",
    "binary_transition",
    "invert_transition",
    "sample_noisy_labels",
    "truncated_normal",
    "combine_rate",
    "synth_instance_noise",
    "label_to_index",
    "index_to_label",
]

expit, ndtr, ndtri = _deferred_special(globals(), "expit", "ndtr", "ndtri")

_RATE_CEIL = 1.0 - 1e-6

_RATE = Spec(lo=0.0, hi=1.0, hi_open=True)
_RATE_FIELDS = {"e_plus": _RATE, "e_minus": _RATE}
_RATE_RULES = {  # see BinaryNoiseRates for why the sum stays below 1
    "e_minus": ("e_plus", ("e_plus", "e_minus"), lambda a, b: a + b < 1.0,
                lambda a, b: f"e_plus + e_minus must be < 1, got {a + b}"),
}
_SYNTH_FIELDS = {
    "epsilon": Spec(lo=0.0, hi=1.0),
    "sigma": Spec(lo=0.0, lo_open=True, required=False),
}


def label_to_index(y: int, m: int = 2) -> int:
    """Map a label to its class index (binary: -1 -> 0, +1 -> 1)."""
    if m == 2 and y in (-1, 1):
        return 0 if y == -1 else 1
    if isinstance(y, (int, np.integer)) and 0 <= y < m:
        return int(y)
    raise ValueError(f"label {y!r} is not valid for {m} classes")


def index_to_label(idx: int) -> int:
    """Inverse of label_to_index for the binary convention."""
    if idx not in (0, 1):
        raise ValueError(f"binary class index must be 0 or 1, got {idx}")
    return -1 if idx == 0 else 1


@dataclass(frozen=True)
class BinaryNoiseRates:
    """Class-dependent binary flip rates.

    e_plus  = P[observed -1 | true +1], e_minus = P[observed +1 | true -1].
    The strict constraint e_plus + e_minus < 1 keeps observed labels
    positively correlated with the truth and the transition invertible.
    """

    e_plus: float
    e_minus: float

    def __post_init__(self) -> None:
        raise_first(field_violations(vars(self), _RATE_FIELDS, _RATE_RULES))

    def rate_for(self, y: int) -> float:
        """Flip rate applied to true label y."""
        return self.e_plus if label_to_index(y) == 1 else self.e_minus


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic noise transition; entry (k, k') = P[observed k' | true k]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {entries.shape}")
        if np.any(entries < 0.0):
            raise ValueError("transition matrix entries must be nonnegative")
        row_sums = entries.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise ValueError(f"transition rows must sum to 1 within 1e-12, got sums {row_sums}")

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def binary_transition(rates: BinaryNoiseRates) -> TransitionMatrix:
    """Binary transition [[1-e_minus, e_minus], [e_plus, 1-e_plus]], rows ordered (-1, +1)."""
    e_p, e_m = rates.e_plus, rates.e_minus
    return TransitionMatrix(np.array([[1.0 - e_m, e_m], [e_p, 1.0 - e_p]]))


def invert_transition(t: TransitionMatrix) -> np.ndarray:
    """Inverse of a transition matrix.

    Binary case uses the closed form
    (1/(1-e_plus-e_minus)) * [[1-e_plus, -e_minus], [-e_plus, 1-e_minus]],
    whose scale is the determinant itself, so it needs no verification;
    larger matrices go through standard inversion and a residual check.  The
    determinant must stay at least 1e-12 away from zero.  The result is
    returned as a plain array: its rows still sum to 1 but entries may be
    negative, so it is not itself a TransitionMatrix.
    """
    a = t.entries
    if t.m == 2:
        e_m, e_p = float(a[0, 1]), float(a[1, 0])
        det = 1.0 - e_p - e_m  # the determinant of a 2x2 row-stochastic matrix
        if abs(det) < 1e-12:
            raise ValueError(f"transition matrix is singular (det={det:.3e})")
        return np.array([[1.0 - e_p, -e_m], [-e_p, 1.0 - e_m]]) / det
    det = float(np.linalg.det(a))
    if abs(det) < 1e-12:
        raise ValueError(f"transition matrix is singular (det={det:.3e})")
    inv = np.linalg.inv(a)
    residual = np.abs(a @ inv - np.eye(t.m)).max()
    if residual > 1e-10:
        raise ValueError(f"inverse failed verification, max |T T^-1 - I| = {residual:.3e}")
    return inv


def sample_noisy_labels(y, l: int, noise, rng: np.random.Generator) -> np.ndarray:
    """Draw l independent noisy labels from row y of the transition.

    With BinaryNoiseRates, y and the output use the -1/+1 convention; with a
    TransitionMatrix, y and the output are class indices.
    """
    if l < 1:
        raise ValueError(f"need at least one draw, got l={l}")
    if isinstance(noise, BinaryNoiseRates):
        flip = noise.rate_for(y)
        flipped = rng.random(l) < flip
        return np.where(flipped, -y, y).astype(np.int64)
    if isinstance(noise, TransitionMatrix):
        row = noise.entries[label_to_index(y, noise.m)]
        return rng.choice(noise.m, size=l, p=row)
    raise TypeError(f"expected BinaryNoiseRates or TransitionMatrix, got {type(noise)!r}")


def truncated_normal(
    mean: float,
    sd: float,
    low: float,
    high: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Sample a normal(mean, sd^2) conditioned on [low, high].

    Rejection sampling from the untruncated normal, which accepts nearly
    always for the default sigma=0.1 band; when the window captures less
    than half the mass the sampler switches to inverse-CDF so extreme means
    stay cheap and exact.  Both paths consume the generator deterministically.
    """
    if sd <= 0.0:
        raise ValueError(f"sd must be positive, got {sd}")
    if not low < high:
        raise ValueError(f"need low < high, got [{low}, {high}]")
    lo_cdf = float(ndtr((low - mean) / sd))
    hi_cdf = float(ndtr((high - mean) / sd))
    accept_mass = hi_cdf - lo_cdf
    if accept_mass <= 0.0:
        raise ValueError("truncation window carries no mass")
    n = 1 if size is None else int(size)
    if accept_mass < 0.5:
        u = rng.uniform(lo_cdf, hi_cdf, size=n)
        out = mean + sd * ndtri(u)
        out = np.clip(out, low, high)
    else:
        out = np.empty(n)
        filled = 0
        while filled < n:
            want = n - filled
            draw = mean + sd * rng.standard_normal(want)
            ok = draw[(draw >= low) & (draw <= high)]
            out[filled : filled + ok.size] = ok
            filled += ok.size
    return float(out[0]) if size is None else out


def combine_rate(q: float, projection: float) -> float:
    """Default combiner turning (q, feature projection) into a flip rate.

    rate = clamp(q * 2*logistic(z), 0, 1 - 1e-6) with z the standardized
    projection.  The doubled logistic averages to one under a symmetric
    projection, so across instances the mean rate tracks q's mean.
    """
    return float(min(max(q * 2.0 * expit(projection), 0.0), _RATE_CEIL))


def _synth_parts(feature_vector, epsilon, sigma, rng, w) -> tuple[float, float, float]:
    """(q, projection, rate) for one instance; q is drawn first, then w when it is None."""
    feature = np.asarray(feature_vector, dtype=float).ravel()
    q = truncated_normal(epsilon, sigma, 0.0, 1.0, rng)
    if w is None:
        w = rng.standard_normal(feature.size)
    norm = float(np.linalg.norm(feature))
    projection = float(feature @ w) / norm if norm > 0.0 else 0.0
    return q, projection, combine_rate(q, projection)


def synth_instance_noise(
    feature_vector,
    epsilon: float,
    sigma: float,
    rng: np.random.Generator,
    w: np.ndarray | None = None,
) -> float:
    """Per-instance flip rate: q ~ truncated-normal(epsilon, sigma^2, [0,1]),
    modulated by the feature's standardized projection onto random weights.

    When w is omitted, fresh standard-normal projection weights are drawn;
    pass a shared w (see InstanceNoiseSynth) to hold the projection fixed
    across a dataset.
    """
    raise_first(field_violations({"epsilon": epsilon}, _SYNTH_FIELDS))
    return _synth_parts(feature_vector, epsilon, sigma, rng, w)[2]


@dataclass(frozen=True)
class InstanceNoiseSynth:
    """Instance-noise synthesizer with projection weights fixed once per dataset."""

    epsilon: float
    w: np.ndarray
    sigma: float = 0.1

    def __post_init__(self) -> None:
        raise_first(field_violations(vars(self), _SYNTH_FIELDS))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).ravel())

    @classmethod
    def sample(
        cls, epsilon: float, dim: int, rng: np.random.Generator, sigma: float = 0.1
    ) -> "InstanceNoiseSynth":
        if dim < 1:
            raise ValueError(f"feature dimension must be >= 1, got {dim}")
        return cls(epsilon=epsilon, w=rng.standard_normal(dim), sigma=sigma)

    def rate(self, feature_vector, rng: np.random.Generator) -> float:
        return self.draw(feature_vector, rng)[2]

    def draw(self, feature_vector, rng: np.random.Generator) -> tuple[float, float, float]:
        """Sample (q, projection, rate) for one instance, exposing the parts."""
        return _synth_parts(feature_vector, self.epsilon, self.sigma, rng, self.w)
