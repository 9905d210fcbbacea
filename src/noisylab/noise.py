"""Binary flip rates and per-instance flip-rate synthesis.

Class order, fixed package-wide: index 0 holds label -1 and index 1 holds
label +1.  All distribution vectors and loss vectors follow this order.
Synthesis has one batched path, InstanceNoiseSynth.draw_rows; draw runs it
on one row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spec import _COUNT, Spec, field_violations, raise_first
from .bounds import _special

_RATE_CEIL = 1.0 - 1e-6
_LABEL = {"y": Spec(choices=(-1, 1))}  # a bool or a float equal to a label is not one

_RATE = Spec(lo=0.0, hi=1.0, hi_open=True)
_RATE_FIELDS = {"e_plus": _RATE, "e_minus": _RATE}
_RATE_RULES = {  # see BinaryNoiseRates for why the sum stays below 1
    "e_minus": ("e_plus", ("e_plus", "e_minus"), lambda a, b: a + b < 1.0,
                lambda a, b: f"e_plus + e_minus must be < 1, got {a + b}"),
}
# q's window [0, 1] spans 1 / sigma standard deviations, so its uniforms span about
# 0.4 / sigma next to 0.5, where doubles lie 2**-53 apart: 3.6e9 > 2**31 distinct q at 1e6
_SYNTH_FIELDS = {
    "epsilon": Spec(lo=0.0, hi=1.0),
    "sigma": Spec(lo=0.0, lo_open=True, hi=1e6, required=False),
}
_NORMAL = {"mean": Spec(), "sd": Spec(lo=0.0, lo_open=True), "size": Spec("integer", lo=0, nullable=True)}


def _label_to_index(y: int) -> int:
    """Map a binary label to its class index: -1 -> 0, +1 -> 1."""
    raise_first(field_violations({"y": y}, _LABEL))
    return 0 if y == -1 else 1


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
        return self.e_plus if _label_to_index(y) == 1 else self.e_minus


def truncated_normal(mean: float, sd: float, low: float, high: float, rng: np.random.Generator,
                     size: int | None = None):
    """Sample a normal(mean, sd^2) conditioned on [low, high], by the inverse CDF.

    Each draw reads one uniform u between the normal CDF at the two window ends,
    which may be infinite, and returns mean + sd * ndtri(u), clipped into the
    window against rounding.  An empty window, or one whose mass rounds to zero, raises.
    """
    raise_first(field_violations({"mean": mean, "sd": sd, "size": size}, _NORMAL))
    special = _special()
    lo_cdf = float(special.ndtr((low - mean) / sd))
    hi_cdf = float(special.ndtr((high - mean) / sd))
    if not hi_cdf > lo_cdf:  # so also when low >= high, or either is NaN
        raise ValueError(f"truncation window [{low}, {high}] carries no mass")
    u = rng.uniform(lo_cdf, hi_cdf, size=1 if size is None else size)
    out = np.clip(mean + sd * special.ndtri(u), low, high)
    return float(out[0]) if size is None else out


def combine_rate(q, projection):
    """Default combiner turning (q, feature projection) into a flip rate.

    rate = clamp(q * 2*logistic(z), 0, 1 - 1e-6) with z the standardized
    projection, elementwise for arrays.  The doubled logistic averages to one
    under a symmetric projection, so across instances the mean rate tracks
    q's mean.
    """
    return np.clip(q * 2.0 * _special().expit(projection), 0.0, _RATE_CEIL)


@dataclass(frozen=True)
class InstanceNoiseSynth:
    """Instance-noise synthesizer with projection weights w fixed once per dataset.

    Each instance's flip rate is q ~ truncated-normal(epsilon, sigma^2, [0, 1])
    modulated by the feature's standardized projection onto w (combine_rate).
    w is a read-only copy of the given weights.
    """

    epsilon: float
    w: np.ndarray
    sigma: float = 0.1

    def __post_init__(self) -> None:
        raise_first(field_violations(vars(self), _SYNTH_FIELDS))
        w = np.array(self.w, dtype=float).ravel()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def sample(
        cls, epsilon: float, dim: int, rng: np.random.Generator, sigma: float = 0.1
    ) -> "InstanceNoiseSynth":
        raise_first(field_violations({"dim": dim}, {"dim": _COUNT}))
        return cls(epsilon=epsilon, w=rng.standard_normal(dim), sigma=sigma)

    def draw_rows(self, features, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """Sample (q, projection, rate) arrays for a block of feature rows, all q in one draw.

        Each projection is summed along its row, not by BLAS, whose rounding of a
        row depends on the rows around it; a zero row projects to 0.0.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.w.size:
            raise ValueError(f"features must be rows of {self.w.size} values, got {features.shape}")
        q = truncated_normal(self.epsilon, self.sigma, 0.0, 1.0, rng, size=len(features))
        norms = np.linalg.norm(features, axis=1)
        projection = np.divide((features * self.w).sum(axis=1), norms,
                               out=np.zeros(len(norms)), where=norms > 0.0)
        return q, projection, combine_rate(q, projection)

    def draw(self, feature_vector, rng: np.random.Generator) -> tuple[float, float, float]:
        """Sample (q, projection, rate) for one instance: draw_rows on one row."""
        rows = self.draw_rows(np.reshape(feature_vector, (1, -1)), rng)
        return tuple(float(part[0]) for part in rows)
