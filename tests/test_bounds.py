"""Closed-form bound checks against exact binomial enumeration.

Every closed form is compared with an independent oracle: binomial tails
against an exact rational sum, a direct math.comb enumeration and scipy's
survival function, the
Hoeffding/anti-concentration expressions against frozen values computed
once from their defining formulas.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from noisylab import (
    BoundKind,
    BoundValue,
    binom_tail,
    lc_failure_lower,
    lc_success_lower,
    peer_failure_lower,
    peer_success_lower,
)


def _tail_by_enumeration(l: int, p: float, k: int) -> float:
    # independent route: plain comb/power sum, no log-space tricks
    return math.fsum(
        math.comb(l, j) * p**j * (1.0 - p) ** (l - j) for j in range(k, l + 1)
    )


class TestBernoulliKl:
    """KL(1/2 || e), the one divergence lc_failure_lower reads, through its l = 1 value."""

    @staticmethod
    def _kl(e: float) -> float:
        # lc_failure_lower(1, e) = exp(-KL(1/2 || e)) / sqrt(2)
        return -math.log(lc_failure_lower(1, e) * math.sqrt(2.0))

    def test_anchor_half_vs_fifth(self):
        np.testing.assert_allclose(self._kl(0.2), 0.22314355131420976, rtol=1e-14)
        # same number from the defining formula, written out independently
        direct = 0.5 * math.log(0.5 / 0.2) + 0.5 * math.log(0.5 / 0.8)
        np.testing.assert_allclose(self._kl(0.2), direct, rtol=1e-14)

    def test_identity_is_zero(self):
        # KL(1/2 || 1/2) = 0 exactly, so the floor is 1/sqrt(2l) exactly
        for l in (1, 2, 7, 100, 2**53):
            assert lc_failure_lower(l, 0.5) == 1.0 / math.sqrt(2.0 * l)

    def test_nonnegative_everywhere(self):
        # KL >= 0, so no rate lifts the floor past 1/sqrt(2l)
        rng = np.random.default_rng(42)
        for _ in range(2000):
            l = int(rng.integers(1, 400))
            e = float(rng.uniform(1e-9, 1.0 - 1e-9))
            assert lc_failure_lower(l, e) <= 1.0 / math.sqrt(2.0 * l)


def _rational_tail(l: int, p: float, k: int) -> Fraction:
    # exact: a float p is a dyadic rational num/den, so every pmf term is an
    # integer over den**l
    num, den = Fraction(p).as_integer_ratio()
    total = sum(math.comb(l, j) * num**j * (den - num) ** (l - j) for j in range(k, l + 1))
    return Fraction(total, den**l)


class TestBinomTail:
    def test_anchor_values(self):
        # frozen from the enumeration oracle
        np.testing.assert_allclose(binom_tail(10, 0.2, 5), 0.0327934976, rtol=1e-12)
        np.testing.assert_allclose(binom_tail(10, 0.8, 6), 0.9672065024, rtol=1e-12)
        np.testing.assert_allclose(binom_tail(3, 0.2, 2), 0.104, rtol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            l = int(rng.integers(1, 60))
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(0, l + 1))
            np.testing.assert_allclose(
                binom_tail(l, p, k), _tail_by_enumeration(l, p, k), rtol=1e-11, atol=1e-300
            )

    def test_matches_the_exact_rational_tail(self):
        rng = np.random.default_rng(13)
        cases = [(int(l), float(rng.uniform(0.0, 1.0)), int(rng.integers(1, l + 1)))
                 for l in rng.integers(1, 201, size=150)]
        cases += [  # deep lower and upper tails
            (200, 0.01, 150), (500, 0.01, 200), (1000, 0.5, 900), (1000, 0.999, 10),
            (60, 0.3, 60), (1000, 0.2, 501),
        ]
        for l, p, k in cases:
            exact = _rational_tail(l, p, k)
            assert abs(Fraction(binom_tail(l, p, k)) - exact) <= Fraction(1e-13) * exact, (l, p, k)

    def test_matches_scipy_survival_function(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            l = int(rng.integers(1, 200))
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(1, l + 1))
            np.testing.assert_allclose(
                binom_tail(l, p, k), stats.binom.sf(k - 1, l, p), rtol=1e-9, atol=0
            )

    def test_deep_tail_keeps_relative_accuracy(self):
        # far tail: values ~1e-180 still agree in relative terms
        got = binom_tail(500, 0.01, 200)
        want = stats.binom.sf(199, 500, 0.01)
        assert got > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_threshold_zero_and_degenerate_p(self):
        assert binom_tail(5, 0.3, 0) == 1.0
        assert binom_tail(5, 0.0, 3) == 0.0
        assert binom_tail(5, 1.0, 3) == 1.0
        assert binom_tail(5, 0.0, 0) == 1.0

    def test_monotone_in_threshold_and_rate(self):
        tails = [binom_tail(20, 0.3, k) for k in range(21)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        rates = [binom_tail(20, p, 10) for p in np.linspace(0.05, 0.95, 19)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(ValueError):
            binom_tail(10, 0.2, 11)
        with pytest.raises(ValueError):
            binom_tail(10, 0.2, -1)
        with pytest.raises(ValueError):
            binom_tail(0, 0.2, 0)
        with pytest.raises(ValueError):
            binom_tail(10, 1.2, 3)


class TestSuccessLowerBound:
    def test_anchor_values(self):
        np.testing.assert_allclose(lc_success_lower(10, 0.2), 0.8347011117784134, rtol=1e-14)
        np.testing.assert_allclose(lc_success_lower(4, 0.2), 0.5132477440400284, rtol=1e-14)

    def test_dominated_by_exact_majority_probability(self):
        # the substantive ordering this expression exists for
        for l in (4, 10, 20, 50):
            for e in (0.1, 0.2, 0.3):
                exact = binom_tail(l, 1.0 - e, l // 2 + 1)
                assert exact >= lc_success_lower(l, e) - 1e-12

    def test_vacuous_at_half(self):
        assert lc_success_lower(25, 0.5) == 0.0

    def test_monotone_in_l(self):
        vals = [lc_success_lower(l, 0.2) for l in range(1, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            lc_success_lower(10, 0.6)
        with pytest.raises(ValueError):
            lc_success_lower(0, 0.2)


class TestFailureLowerBound:
    def test_anchor_values(self):
        np.testing.assert_allclose(lc_failure_lower(10, 0.2), 0.02400959708748615, rtol=1e-14)
        np.testing.assert_allclose(lc_failure_lower(4, 0.2), 0.1448154687870049, rtol=1e-14)

    def test_direct_formula_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            l = int(rng.integers(1, 200))
            e = float(rng.uniform(0.01, 0.99))
            # KL(1/2 || e) from scipy's elementwise x log(x / y), an independent route
            kl = special.rel_entr(0.5, e) + special.rel_entr(0.5, 1.0 - e)
            direct = math.exp(-l * kl) / math.sqrt(2.0 * l)
            # KL's absolute rounding error, below 1e-16, grows l-fold through the exponential
            np.testing.assert_allclose(lc_failure_lower(l, e), direct, rtol=1e-15 * l)

    def test_floors_tie_inclusive_tail_at_even_l(self):
        for l in (4, 10, 20, 50, 100):
            for e in (0.1, 0.2, 0.3, 0.4):
                tail = binom_tail(l, e, l // 2)
                assert tail >= lc_failure_lower(l, e) - 1e-12

    def test_strict_tail_can_dip_below_floor(self):
        # the tie carries the mass: excluding it breaks the ordering
        strict = binom_tail(10, 0.2, 6)
        np.testing.assert_allclose(strict, 0.0063693824, rtol=1e-12)
        assert strict < lc_failure_lower(10, 0.2)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            lc_failure_lower(10, 0.0)
        with pytest.raises(ValueError):
            lc_failure_lower(10, 1.0)
        with pytest.raises(ValueError):
            lc_failure_lower(0, 0.2)


class TestPeerBounds:
    def test_success_anchor(self):
        np.testing.assert_allclose(
            peer_success_lower(50, 0.5, 0.2, 0.2), 0.9998765901959134, rtol=1e-14
        )

    def test_zero_draws_is_vacuous(self):
        assert peer_success_lower(0, 0.5, 0.2, 0.2) == 0.0

    def test_corrected_form_is_default_and_valid(self):
        # margin shrinks -> bound weakens; the corrected exponent must shrink too
        weak = peer_success_lower(50, 0.5, 0.45, 0.45)
        strong = peer_success_lower(50, 0.5, 0.05, 0.05)
        assert weak < strong

    def test_success_validation(self):
        with pytest.raises(ValueError):
            peer_success_lower(10, 0.0, 0.2, 0.2)
        with pytest.raises(ValueError):
            peer_success_lower(10, 0.5, 0.6, 0.5)
        with pytest.raises(ValueError):
            peer_success_lower(-1, 0.5, 0.2, 0.2)

    def test_failure_floor_matches_symmetric_binomial_event(self):
        np.testing.assert_allclose(
            peer_failure_lower(20, 0.2), 0.0018229289589729739, rtol=1e-14
        )
        # identical event to the correction failure floor in this regime
        assert peer_failure_lower(20, 0.2) == lc_failure_lower(20, 0.2)
        for l in (4, 10, 20):
            assert binom_tail(l, 0.2, l // 2) >= peer_failure_lower(l, 0.2) - 1e-12


class TestBoundValue:
    def test_probability_kinds_must_be_probabilities(self):
        BoundValue(kind=BoundKind.HOEFFDING_SUCCESS, value=0.5)
        with pytest.raises(ValueError):
            BoundValue(kind=BoundKind.HOEFFDING_SUCCESS, value=1.5)

    def test_negative_and_nonfinite_rejected(self):
        for kind in BoundKind:
            for value in (-0.1, math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError):
                    BoundValue(kind=kind, value=value)
