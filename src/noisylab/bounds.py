"""Closed-form probability bounds for treatment success and failure.

Everything here is a deterministic function of (l, noise rates); the Monte
Carlo machinery checks these expressions against exact binomial tails and
empirical event rates.  Success events are strict-majority events; failure
bounds are stated for the tie-inclusive complement (wrong >= l/2) and are
only asserted as true lower bounds at even l, where the tie carries the
mass the l/sqrt term needs.  Odd-l values are still computed for reporting
but carry regime_ok=False.  The exact tails use scipy.special, which
_special imports on first use.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._spec import _TYPES

# _spec's integer types, read inline (a plain int first): sweep runs the closed forms per scenario
_INTEGER = _TYPES["integer"]


def _special():
    """scipy.special, imported on first call: validate, tau and weight never load it.

    It costs about half of a cold `import noisylab.cli`; later calls only look it up.
    """
    import scipy.special

    return scipy.special


class BoundKind(str, enum.Enum):
    """Which closed form produced a BoundValue."""

    HOEFFDING_SUCCESS = "hoeffding_success"
    BINOMIAL_FAILURE_LOWER = "binomial_failure_lower"
    PEER_SUCCESS = "peer_success"
    PEER_FAILURE_LOWER = "peer_failure_lower"


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
        if not 0.0 <= self.value <= 1.0:  # NaN fails too
            raise ValueError(f"{self.kind.value} bound must lie in [0, 1], got {self.value}")


def binom_tail(l: int, p: float, k: int) -> float:
    """Exact upper tail P[Bin(l, p) >= k].

    The binomial-beta identity P[Bin(l, p) >= k] = I_p(k, l - k + 1)
    (Abramowitz & Stegun 26.5.24) gives it as one regularized incomplete beta
    call, accurate to a few ulps in relative terms even in deep tails.
    """
    if type(l) is not int and (isinstance(l, bool) or not isinstance(l, _INTEGER)) or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    if isinstance(p, bool) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if type(k) is not int and (isinstance(k, bool) or not isinstance(k, _INTEGER)) or not 0 <= k <= l:
        raise ValueError(f"threshold must be an integer in [0, l], got k={k!r} with l={l}")
    if k == 0:
        return 1.0
    return float(_special().betainc(k, l - k + 1, p))


def lc_success_lower(l: int, e: float) -> float:
    """Lower bound 1 - exp(-2l(1/2 - e)^2) on strict-majority success.

    Covers the event that more than half of l noisy draws keep the true
    label when each flips independently with rate e <= 1/2.  At e = 1/2 the
    bound is vacuously 0.
    """
    if type(l) is not int and (isinstance(l, bool) or not isinstance(l, _INTEGER)) or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    if isinstance(e, bool) or not 0.0 <= e <= 0.5:
        raise ValueError(f"e must lie in [0, 1/2], got {e!r}")
    return -math.expm1(-2.0 * l * (0.5 - e) ** 2)


def lc_failure_lower(l: int, e: float) -> float:
    """Anti-concentration floor (1/sqrt(2l)) * exp(-l * KL(1/2 || e)).

    Lower-bounds the tie-inclusive failure probability
    P[Bin(l, e) >= l/2]; asserted only at even l, where the tie point k=l/2
    is part of the event.  Requires e in (0, 1).
    """
    if type(l) is not int and (isinstance(l, bool) or not isinstance(l, _INTEGER)) or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    if isinstance(e, bool) or not 0.0 < e < 1.0:
        raise ValueError(f"e must lie in (0, 1), got {e!r}")
    kl = 0.5 * math.log(0.5 / e) + 0.5 * math.log(0.5 / (1.0 - e))
    return math.exp(-l * kl) / math.sqrt(2.0 * l)


def peer_success_lower(l: int, p_opposite: float, e_plus: float, e_minus: float) -> float:
    """Lower bound 1 - exp(-2 l (p_opposite (1 - e_plus - e_minus))^2) on peer strict success.

    The margin between the correct-label vote rate and the global noisy
    positive rate is p_opposite * (1 - e_plus - e_minus), so Hoeffding's
    inequality on l draws bounds the chance that the correct-label count
    stays above the peer threshold (Liu & Guo 2020, "Peer Loss Functions",
    arXiv 1910.03231).  The bound weakens as the margin shrinks and is
    vacuously 0 at l = 0.
    """
    if type(l) is not int and (isinstance(l, bool) or not isinstance(l, _INTEGER)) or l < 0:
        raise ValueError(f"l must be an integer >= 0, got {l!r}")
    if isinstance(p_opposite, bool) or not 0.0 < p_opposite < 1.0:
        raise ValueError(f"p_opposite must lie in (0, 1), got {p_opposite!r}")
    if (isinstance(e_plus, bool) or isinstance(e_minus, bool)
            or not (0.0 <= e_plus < 1.0 and 0.0 <= e_minus < 1.0 and e_plus + e_minus < 1.0)):
        raise ValueError(f"e_plus, e_minus must lie in [0, 1) and sum below 1, got {e_plus!r}, {e_minus!r}")
    return -math.expm1(-2.0 * l * (p_opposite * (1.0 - e_plus - e_minus)) ** 2)


def peer_failure_lower(l: int, e: float) -> float:
    """Tie-inclusive failure floor for the peer decision, symmetric regime.

    With p_plus = p_minus = 1/2 and e_plus = e_minus = e, the peer decision
    fails (ties included) exactly when at least half of the l draws flip,
    which is the same binomial event lc_failure_lower floors; asserted at
    even l only.
    """
    return lc_failure_lower(l, e)
