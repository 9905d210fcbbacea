"""Closed-form probability bounds for treatment success and failure.

Everything here is a deterministic function of (l, noise rates); the Monte
Carlo machinery checks these expressions against exact binomial tails and
empirical event rates.  Success events are strict-majority events; failure
bounds are stated for the tie-inclusive complement (wrong >= l/2) and are
only asserted as true lower bounds at even l, where the tie carries the
mass the l/sqrt term needs.  Odd-l values are still computed for reporting
but carry regime_ok=False.  The exact tails use scipy.special, which
_special imports on first use.  A public function checks its arguments against
a _spec table, where no bool (numpy's included) is a number, then calls its kernel.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._spec import _COUNT, _OPEN_UNIT, _RATE_FIELDS, _RATE_RULES, _UNIT, Spec, field_violations, raise_first

# each public function's arguments, in its signature's order
_TAIL = {"l": _COUNT, "p": _UNIT, "k": Spec("integer", lo=0)}
_TAIL_RULES = {"k": ("k", ("k", "l"), lambda k, l: k <= l, lambda k, l: f"must be <= l, got k={k}, l={l}")}
_SUCCESS = {"l": _COUNT, "e": Spec(lo=0.0, hi=0.5)}
_FAILURE = {"l": _COUNT, "e": _OPEN_UNIT}
_PEER_SUCCESS = {"l": Spec("integer", lo=0), "p_opposite": _OPEN_UNIT, **_RATE_FIELDS}


def _special():
    """scipy.special, imported on first call: validate, tau and weight never load it.

    It costs about half of a cold `import noisylab.cli`; later calls only look it up.
    """
    import scipy.special

    return scipy.special


class BoundKind(str, enum.Enum):
    """Which closed form produced a BoundValue: a treatment's (see _FORMS) or a tau_l floor."""

    HOEFFDING_SUCCESS = "hoeffding_success"
    BINOMIAL_FAILURE_LOWER = "binomial_failure_lower"
    PEER_SUCCESS = "peer_success"
    PEER_FAILURE_LOWER = "peer_failure_lower"
    TAU_LOWER_LARGE = "tau_lower_large"
    TAU_LOWER_SMALL = "tau_lower_small"


@dataclass(frozen=True)
class BoundValue:
    """A bound together with what produced it and whether its regime held.

    regime_ok records whether the assumptions under which the bound is
    asserted were satisfied; when False the value is reported for reference
    only and no ordering against exact probabilities is claimed.  Every
    kind bounds a probability, so value lies in [0, 1].
    """

    kind: BoundKind
    value: float
    regime_ok: bool = True

    def __post_init__(self) -> None:
        message = _UNIT.violation(self.value)  # not field_violations: a grid builds tens of thousands
        if message is not None:
            raise ValueError(f"{self.kind.value}.value: {message}")


_ORDER_SLACK = 1e-12  # a bound met with equality may round a few ulps above an exact tail
_Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def ordering_holds(exact: float, bound: BoundValue | None) -> bool | None:
    """exact >= bound - _ORDER_SLACK; None unless the bound exists and its regime holds."""
    return None if bound is None or not bound.regime_ok else exact >= bound.value - _ORDER_SLACK


def _open_unit(e):
    """Whether flip rates e lie in (0, 1), elementwise for arrays; NaN does not."""
    return (0.0 < e) & (e < 1.0)


def binom_tail(l: int, p: float, k: int) -> float:
    """Exact upper tail P[Bin(l, p) >= k].

    The binomial-beta identity P[Bin(l, p) >= k] = I_p(k, l - k + 1)
    (Abramowitz & Stegun 26.5.24) gives it as one regularized incomplete beta
    call, accurate to a few ulps in relative terms even in deep tails.
    """
    raise_first(field_violations({"l": l, "p": p, "k": k}, _TAIL, _TAIL_RULES))
    if k == 0:
        return 1.0
    return float(_special().betainc(k, l - k + 1, p))


def _hoeffding(l, margin):
    """Hoeffding's floor 1 - exp(-2 l margin^2) on l draws whose mean clears a threshold by margin."""
    return -math.expm1(-2.0 * l * margin ** 2)


def _kl_floor(l, e):
    """The anti-concentration floor exp(-l KL(1/2 || e)) / sqrt(2l); see lc_failure_lower."""
    kl = 0.5 * math.log(0.5 / e) + 0.5 * math.log(0.5 / (1.0 - e))
    return math.exp(-l * kl) / math.sqrt(2.0 * l)


def lc_success_lower(l: int, e: float) -> float:
    """Lower bound 1 - exp(-2l(1/2 - e)^2) on strict-majority success.

    Covers the event that more than half of l noisy draws keep the true
    label when each flips independently with rate e <= 1/2.  At e = 1/2 the
    bound is vacuously 0.
    """
    raise_first(field_violations({"l": l, "e": e}, _SUCCESS))
    return _hoeffding(l, 0.5 - e)


def lc_failure_lower(l: int, e: float) -> float:
    """Anti-concentration floor (1/sqrt(2l)) * exp(-l * KL(1/2 || e)).

    Lower-bounds the tie-inclusive failure probability
    P[Bin(l, e) >= l/2]; asserted only at even l, where the tie point k=l/2
    is part of the event.  Requires e in (0, 1).
    """
    raise_first(field_violations({"l": l, "e": e}, _FAILURE))
    return _kl_floor(l, e)


def peer_success_lower(l: int, p_opposite: float, e_plus: float, e_minus: float) -> float:
    """Lower bound 1 - exp(-2 l (p_opposite (1 - e_plus - e_minus))^2) on peer strict success.

    The margin between the correct-label vote rate and the global noisy
    positive rate is p_opposite * (1 - e_plus - e_minus), so Hoeffding's
    inequality on l draws bounds the chance that the correct-label count
    stays above the peer threshold (Liu & Guo 2020, "Peer Loss Functions",
    arXiv 1910.03231).  The bound weakens as the margin shrinks and is
    vacuously 0 at l = 0.
    """
    args = {"l": l, "p_opposite": p_opposite, "e_plus": e_plus, "e_minus": e_minus}
    raise_first(field_violations(args, _PEER_SUCCESS, _RATE_RULES))
    return _hoeffding(l, p_opposite * (1.0 - e_plus - e_minus))


def peer_failure_lower(l: int, e: float) -> float:
    """Tie-inclusive failure floor for the peer decision, symmetric regime.

    With p_plus = p_minus = 1/2 and e_plus = e_minus = e, the peer decision
    fails (ties included) exactly when at least half of the l draws flip,
    which is the same binomial event lc_failure_lower floors; asserted at
    even l only.
    """
    return lc_failure_lower(l, e)


# A scenario report's closed forms, by kind: the e_y it is given at, as an elementwise test,
# its function's domain but for Hoeffding's e_y = 0, where every loss-correction trial ties;
# the regime its ordering needs, as flags: equal rates, even l, p_plus = 1/2 and a positive
# peer margin; and the form's kernel, on (l, e_y, p_opposite, e_plus, e_minus) unchecked:
# InstanceScenario has checked them, and the e_y test gates every call.
_FORMS = {
    BoundKind.HOEFFDING_SUCCESS: (lambda e: (0.0 < e) & (e <= 0.5), (1, 0, 0, 0),
                                  lambda l, e, p, a, b: _hoeffding(l, 0.5 - e)),
    BoundKind.BINOMIAL_FAILURE_LOWER: (_open_unit, (1, 1, 0, 0), lambda l, e, p, a, b: _kl_floor(l, e)),
    BoundKind.PEER_SUCCESS: (lambda e: (0.0 <= e) & (e < 1.0), (0, 0, 0, 1),
                             lambda l, e, p, a, b: _hoeffding(l, p * (1.0 - a - b))),
    BoundKind.PEER_FAILURE_LOWER: (_open_unit, (1, 1, 1, 0), lambda l, e, p, a, b: _kl_floor(l, e)),
}
