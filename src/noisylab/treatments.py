"""The three noisy-label treatments: loss correction, label smoothing, peer loss.

Loss correction inverts the noise transition, either on the loss vector
(surrogate loss T^-1 l) or on the empirical label distribution (corrected
labels, capped back into the simplex when the inversion exits it).  Label
smoothing mixes the empirical distribution toward uniform.  Peer loss pairs
the cross-entropy on observed labels with a penalty on labels drawn
independently of the features; its expectation decomposes into a difference
of KL divergences and pushes predictions to the simplex boundary.

Label distributions and loss vectors are binary, in the package class
order: index 0 = label -1, index 1 = label +1.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._spec import Spec, field_violations, raise_first
from .memorize import LabelDist, _label_counts, memorization_error
from .noise import _LABEL, BinaryNoiseRates

_TIE_EPS = 1e-12
# the comparators' scalar arguments, each checked where it is given
_UNIT = Spec(lo=0.0, hi=1.0, required=False)
_ARGUMENTS = {"a": _UNIT, "global_noisy_positive_rate": _UNIT, "global_rate": _UNIT,
              "predicted": replace(_LABEL["y"], required=False), "grid_points": Spec("integer", lo=3, required=False),
              "q_min": Spec(lo=0.0, hi=0.5, lo_open=True, hi_open=True, required=False)}


class Comparison(enum.Enum):
    LC_BETTER = "LC_better"
    LS_BETTER = "LS_better"
    TIE = "tie"


def _as_loss_vector(loss) -> np.ndarray:
    """Validate and return a binary loss vector (l(h(x), -1), l(h(x), +1)) as an array."""
    arr = np.asarray(loss, dtype=float).ravel()
    if arr.size != 2:
        raise ValueError(f"a loss vector has two entries, got {arr.size}")
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError("loss vector entries must be finite")
    return arr


@dataclass(frozen=True)
class CorrectedLabel:
    """Noise-inverted label distribution, raw and capped.

    raw = (T^-1)^T applied to the empirical distribution; its entries sum
    to one but may exit [0, 1].  capped is raw when already proper and
    otherwise the one-hot vector on the side the violation points to.
    Algebraic identities (the empirical-loss equivalence, unbiasedness)
    hold for raw only; memorization-style error comparisons use capped.
    """

    raw: LabelDist
    capped: LabelDist


def corrected_label(dist: LabelDist, rates: BinaryNoiseRates) -> CorrectedLabel:
    """Apply the inverse binary transition to an empirical label distribution.

    raw[+1] = ((1-e_minus) P[+1] - e_minus P[-1]) / (1 - e_plus - e_minus)
    and raw[-1] = ((1-e_plus) P[-1] - e_plus P[+1]) / (1 - e_plus - e_minus):
    each class sheds the cross-contamination flowing into it, so the two
    entries always sum to 1.  The correction amplifies the majority class
    exactly when the rates are equal (raw[+1] - P[+1] has the sign of
    e_plus P[+1] - e_minus P[-1] in general).  raw[+1] > 1 caps to [0, 1];
    raw[+1] < 0 caps to [1, 0].
    """
    p_minus, p_plus = dist.probs.tolist()
    e_p, e_m = rates.e_plus, rates.e_minus
    gap = 1.0 - e_p - e_m
    raw_plus = ((1.0 - e_m) * p_plus - e_m * p_minus) / gap
    raw_minus = ((1.0 - e_p) * p_minus - e_p * p_plus) / gap
    raw = (raw_minus, raw_plus)
    capped = (0.0, 1.0) if raw_plus > 1.0 else (1.0, 0.0) if raw_plus < 0.0 else raw
    return CorrectedLabel(raw=LabelDist(raw, signed=True), capped=LabelDist(capped))


def lc_loss_vector(loss, rates: BinaryNoiseRates) -> np.ndarray:
    """Surrogate loss T^-1 l whose noisy expectation is the clean loss, in closed form."""
    loss_minus, loss_plus = _as_loss_vector(loss).tolist()
    if not isinstance(rates, BinaryNoiseRates):
        raise TypeError(f"expected BinaryNoiseRates, got {type(rates)!r}")
    e_p, e_m = rates.e_plus, rates.e_minus
    gap = 1.0 - e_p - e_m
    return np.array([((1.0 - e_p) * loss_minus - e_m * loss_plus) / gap,
                     ((1.0 - e_m) * loss_plus - e_p * loss_minus) / gap])


def lc_empirical_loss(labels, rates: BinaryNoiseRates, loss) -> float:
    """Mean corrected loss over observed labels, (1/l) sum_i l_LC(y_i).

    Equal (to float accuracy) to the raw corrected label dotted with the
    uncorrected loss — training on corrected losses and training on
    (uncapped) corrected labels are the same computation.  The labels are
    counted directly rather than through a distribution object.
    """
    surrogate_minus, surrogate_plus = lc_loss_vector(loss, rates).tolist()
    n_minus, n_plus = _label_counts(labels).tolist()
    l = n_minus + n_plus
    return (n_minus / l) * surrogate_minus + (n_plus / l) * surrogate_plus


def smoothed_label(dist: LabelDist, a: float) -> LabelDist:
    """Convex combination (1 - a) dist + (a/2) ones."""
    raise_first(field_violations({"a": a}, _ARGUMENTS))
    if dist.signed:
        raise ValueError("smoothing applies to proper distributions")
    return LabelDist((1.0 - a) * dist.probs + a / 2)


def compare_ls_lc(dist: LabelDist, y: int, rates: BinaryNoiseRates, a: float) -> Comparison:
    """Which treated label memorizes better: capped corrected vs smoothed.

    Under equal rates the empirical mass on the true label decides: above
    1/2 the corrected label wins, below 1/2 the smoothed label wins, and
    [0.5, 0.5] is an exact tie (the corrected label is a fixed point there,
    so both errors coincide; testing the mass directly keeps the tie exact
    instead of comparing two float error values that agree only to
    rounding).  Under unequal rates the even split is not a fixed point, so
    the two memorization errors are compared directly.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"smoothing weight must lie in (0, 1), got {a}")
    p_true = dist.prob_of(y)
    if rates.e_plus == rates.e_minus and abs(p_true - 0.5) <= _TIE_EPS:
        return Comparison.TIE
    err_lc = memorization_error(corrected_label(dist, rates).capped, y)
    err_ls = memorization_error(smoothed_label(dist, a), y)
    if err_lc == err_ls:
        return Comparison.TIE
    return Comparison.LC_BETTER if err_lc < err_ls else Comparison.LS_BETTER


@dataclass(frozen=True)
class PeerDecision:
    """Peer-loss-optimal prediction for one instance."""

    predicted: int
    margin: float
    tie: bool

    def __post_init__(self) -> None:
        raise_first(field_violations({"predicted": self.predicted}, _ARGUMENTS))
        if self.tie != (abs(self.margin) <= _TIE_EPS):
            raise ValueError("tie flag must mirror a zero margin")


def peer_predict(dist_local: LabelDist, global_noisy_positive_rate: float) -> PeerDecision:
    """Predict +1 iff the local noisy positive mass exceeds the global one.

    margin = P[+1 | x] - global rate.  At zero margin the objective is
    flat; the decision is a tie and predicts +1.
    """
    raise_first(field_violations({"global_noisy_positive_rate": global_noisy_positive_rate}, _ARGUMENTS))
    margin = float(dist_local.probs[1]) - global_noisy_positive_rate
    tie = abs(margin) <= _TIE_EPS
    return PeerDecision(predicted=1 if tie or margin > 0 else -1, margin=margin, tie=tie)


@dataclass(frozen=True)
class PeerLossDecomposition:
    """Expected peer loss under the model's own label draws, with its KL form.

    value = E_{x}[ E_{k ~ Q(.|x)}[-log P(y=k|x)] - E_{k ~ Q(.|x)}[-log P(y=k)] ];
    exactly kl_model_vs_joint - kl_model_vs_product, where the model joint
    is Q(y|x) P(x).
    """

    value: float
    kl_model_vs_joint: float
    kl_model_vs_product: float


def peer_expected_loss(joint, predictor, q_min: float = 1e-3) -> PeerLossDecomposition:
    """Expected peer loss and its exact KL decomposition.

    joint is the data table P(x, y~) over finite X x Y; predictor rows are
    Q(y~ | x), clamped toward uniform by q_min before use.  The expectation
    weighs the cross-entropy terms by the model joint Q(y~|x) P(x): under
    that weighting the difference of the conditional and marginal CE terms
    equals KL(Q || P) - KL(Q || P_x x P_y~) identically.  Minimizing over Q
    therefore rewards matching the joint while diverging from the
    independent product — confident predictions.
    """
    joint = np.asarray(joint, dtype=float)
    predictor = np.asarray(predictor, dtype=float)
    if joint.ndim != 2 or joint.shape != predictor.shape:
        raise ValueError(
            f"joint and predictor must be matching 2-d tables, got {joint.shape} vs {predictor.shape}"
        )
    for name, table in (("joint", joint), ("predictor", predictor)):
        if not np.isfinite(table).all():
            raise ValueError(f"{name} entries must be finite")
    if np.any(joint < 0.0) or abs(joint.sum() - 1.0) > 1e-9:
        raise ValueError("joint must be a proper distribution over X x Y")
    if np.any(joint.sum(axis=1) <= 0.0):
        raise ValueError("every feature must carry positive probability")
    if np.any(predictor < 0.0) or np.any(np.abs(predictor.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("predictor rows must be proper distributions")
    m = predictor.shape[1]
    if not 0.0 < q_min < 1.0 / m:
        raise ValueError(f"q_min must lie in (0, 1/m), got {q_min}")
    q = (1.0 - m * q_min) * predictor + q_min  # rows shrunk toward uniform
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    if np.any(py <= 0.0):
        raise ValueError("every label must carry positive probability")
    model_joint = q * px[:, None]
    cond = joint / px[:, None]
    ce_conditional = -(model_joint * np.log(cond)).sum()
    ce_marginal = -(model_joint * np.log(py)[None, :]).sum()
    value = ce_conditional - ce_marginal
    kl_vs_joint = float((model_joint * np.log(model_joint / joint)).sum())
    kl_vs_product = float((model_joint * np.log(model_joint / (px[:, None] * py[None, :]))).sum())
    return PeerLossDecomposition(
        value=float(value), kl_model_vs_joint=kl_vs_joint, kl_model_vs_product=kl_vs_product
    )


def _peer_instance_objective(
    dist_local: LabelDist, global_rate: float, q, q_min: float = 1e-3
) -> np.ndarray:
    """Per-instance expected peer loss at prediction mass q = P[h(x) = +1].

    CE on the local noisy distribution minus CE on the global noisy label
    rate, with the prediction clamped to [q_min, 1 - q_min]:
    -(p log q + (1-p) log(1-q)) + (r log q + (1-r) log(1-q)).
    The coefficient of -log q is the decision margin, so the objective is
    monotone in q and flat exactly when the margin vanishes.
    """
    q = np.clip(np.asarray(q, dtype=float), q_min, 1.0 - q_min)
    p = float(dist_local.probs[1])
    ce_local = -(p * np.log(q) + (1.0 - p) * np.log1p(-q))
    ce_global = -(global_rate * np.log(q) + (1.0 - global_rate) * np.log1p(-q))
    return ce_local - ce_global


def peer_vertex_check(
    dist_local: LabelDist, global_rate: float, grid_points: int = 1001, q_min: float = 1e-3
) -> float:
    """Grid argmin of the per-instance peer objective over [q_min, 1 - q_min].

    A nonzero margin makes the objective strictly monotone, so the argmin
    sits at a grid boundary; a zero margin leaves it flat (the returned
    point is then the first grid entry).
    """
    raise_first(field_violations({"global_rate": global_rate, "grid_points": grid_points,
                                  "q_min": q_min}, _ARGUMENTS))
    grid = np.linspace(q_min, 1.0 - q_min, grid_points)
    objective = _peer_instance_objective(dist_local, global_rate, grid, q_min=q_min)
    return float(grid[int(np.argmin(objective))])
