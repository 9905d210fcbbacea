"""Frequency-prior construction, weight estimation, and importance weights.

tau_exact is validated against a direct power-product evaluation (no
log-space) wherever that route cannot underflow, weight_estimate and the
normalized-mode tau_monte_carlo and estimate_taus against closed-form
enumeration oracles for a two-value prior, and the lower bounds
against frozen hand-computed constants.  The shared realization batch is
held to its determinism contract: an estimate does not depend on the other
l requested with it, on mc_replicates (for the bound columns), or on the
chunking; the chunk loop matches a fresh-temporary np.where reference bit
for bit, and its working set stays a few chunk buffers.
"""
import hashlib
import math
import tracemalloc
import types

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from noisylab import freqmodel
from noisylab import (
    McEstimate,
    PriorSpec,
    build_prior,
    large_interval,
    tau_exact,
    tau_lower_large,
    tau_monte_carlo,
    weight_estimate,
)
from noisylab.bounds import BoundKind
from noisylab.freqmodel import _TAU_FORMS, estimate_tau, estimate_taus

_SMALL_WINDOW, _SMALL_FACTOR, _ = _TAU_FORMS[BoundKind.TAU_LOWER_SMALL]


def _tau_two_values(a: float, k: int, b: float, slots: int, n: int, l: int) -> float:
    """Exact normalized-mode tau_l for a prior of k values a and slots - k values b.

    A realization depends only on the number m ~ Binomial(slots, k / slots)
    of slots drawing a, so E[sum_x D^(l+1) (1-D)^(n-l)] and
    E[sum_x D^l (1-D)^(n-l)] are finite sums over m, taken in log space.
    """
    m = np.arange(slots + 1)
    log_pmf = stats.binom.logpmf(m, slots, k / slots)
    total = m * a + (slots - m) * b
    log_num, log_den = [], []
    for count, value in ((m, a), (slots - m, b)):
        drawn = count > 0  # a value no slot draws adds no term
        d = value / total[drawn]
        log_den.append(log_pmf[drawn] + np.log(count[drawn]) + l * np.log(d)
                       + (n - l) * np.log1p(-d))
        log_num.append(log_den[-1] + np.log(d))
    return float(np.exp(logsumexp(np.concatenate(log_num)) - logsumexp(np.concatenate(log_den))))


def _tau_direct(values: np.ndarray, n: int, l: int) -> float:
    # independent route: raw powers, safe only while (1-v)^(n-l) stays normal
    num = np.mean(values ** (l + 1) * (1.0 - values) ** (n - l))
    den = np.mean(values**l * (1.0 - values) ** (n - l))
    return float(num / den)


class TestPriorSpec:
    def test_values_kept_as_given(self):
        p = PriorSpec(np.array([0.1, 0.2]))
        np.testing.assert_array_equal(p.values, [0.1, 0.2])
        assert p.n_values == 2

    def test_positivity_and_range_enforced(self):
        with pytest.raises(ValueError):
            PriorSpec(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            PriorSpec(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            PriorSpec(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            PriorSpec(np.array([]))
        with pytest.raises(ValueError):
            PriorSpec(np.array([np.nan]))

    def test_regime_flag_thresholds(self):
        prior = build_prior("uniform", n=100)  # pi_max = 0.01 <= 1/20
        assert prior.regime_ok(n=1000, l=100)
        assert not prior.regime_ok(n=999, l=10)  # n too small
        assert not prior.regime_ok(n=1000, l=101)  # l > n/10
        small = build_prior("uniform", n=99)
        assert not small.regime_ok(n=1000, l=10)  # too few values
        peaked = PriorSpec(np.concatenate([[0.2], np.full(199, 0.004)]))
        assert not peaked.regime_ok(n=10_000, l=10)  # pi_max > 1/20
        # pi_max at 1/20 and an ulp past it, as a built prior may round, sit in the regime
        for top, inside in ((0.05, True), (np.nextafter(0.05, 1.0), True), (0.05 + 1e-14, False)):
            prior = PriorSpec(np.concatenate([[top], np.full(199, 0.004)]))
            assert prior.regime_ok(n=1000, l=10) is inside, top


class TestBuildPrior:
    def test_uniform(self):
        p = build_prior("uniform", n=4)
        np.testing.assert_array_equal(p.values, [0.25, 0.25, 0.25, 0.25])

    def test_zipf_harmonic_weights(self):
        p = build_prior("zipf", n=3, exponent=1.0)
        np.testing.assert_allclose(p.values, [6 / 11, 3 / 11, 2 / 11], rtol=1e-12)
        np.testing.assert_allclose(p.values, [0.545455, 0.272727, 0.181818], atol=5e-7)

    def test_zipf_exponent_shapes_the_decay(self):
        p = build_prior("zipf", n=10, exponent=1.5)
        np.testing.assert_allclose(p.values[0] / p.values[1], 2**1.5, rtol=1e-12)

    def test_explicit_raw(self):
        p = build_prior("explicit", values=[0.1, 0.2])
        np.testing.assert_array_equal(p.values, [0.1, 0.2])

    def test_cap_applied_when_requested(self):
        p = build_prior("zipf", n=1000, exponent=1.1, cap=0.05)
        assert p.values.max() <= 0.05 + 1e-12
        np.testing.assert_allclose(p.values.sum(), 1.0, atol=1e-9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_prior("uniform")
        with pytest.raises(ValueError):
            build_prior("zipf", n=10)
        with pytest.raises(ValueError):
            build_prior("zipf", n=10, exponent=0.0)
        with pytest.raises(ValueError):
            build_prior("explicit", values=[0.0, 1.0])
        with pytest.raises(ValueError):
            build_prior("pareto", n=10)
        # the config rule: a prior takes only its generator's fields and cap
        with pytest.raises(ValueError, match=r"^prior\.exponent: unknown field$"):
            build_prior("uniform", n=10, exponent=1.1)
        with pytest.raises(ValueError, match=r"^prior\.values: unknown field$"):
            build_prior("zipf", n=10, exponent=1.1, values=[0.5])


class TestCapped:
    def test_total_preserved_and_cap_respected(self):
        rng = np.random.default_rng(21)
        for i in range(500):
            n = int(rng.integers(2, 50))
            raw = rng.uniform(0.01, 1.0, size=n)
            if i < 200:  # normalized input, caps well inside feasibility
                raw = raw / raw.sum()
                cap = float(rng.uniform(1.5 / n, 0.9))
            else:  # skewed input of any total, caps from the feasibility edge up
                raw = raw ** float(rng.uniform(1.0, 8.0))
                cap = min(1.0, float(raw.sum()) / n * float(rng.uniform(1.0, 1.5)))
            out = build_prior("explicit", values=raw, cap=cap)
            assert (out.values <= cap).all()
            # ties may order either way, so compare values in the input's rank order
            assert (np.diff(out.values[np.argsort(raw, kind="stable")]) >= 0).all()
            np.testing.assert_allclose(out.values.sum(), raw.sum(), rtol=1e-12)

    def test_rank_order_preserved(self):
        raw = np.array([0.5, 0.25, 0.15, 0.1])
        out = build_prior("explicit", values=raw, cap=0.3).values
        assert np.all(np.argsort(raw) == np.argsort(out))

    def test_unpinned_entries_share_a_common_scale(self):
        raw = np.array([0.5, 0.25, 0.15, 0.1])
        out = build_prior("explicit", values=raw, cap=0.3).values
        free = out < 0.3 - 1e-12
        ratios = out[free] / raw[free]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_noop_when_already_under_cap(self):
        raw = np.array([0.2, 0.3, 0.5])
        out = build_prior("explicit", values=raw, cap=0.5)
        np.testing.assert_allclose(out.values, raw, rtol=1e-12)

    def test_a_cap_just_inside_feasibility_pins_every_entry(self):
        # n * cap falls 5e-13 short of the total, within the 1e-12 feasibility
        # tolerance, and no scale fits: every entry sits at the cap
        cap = (1 - 5e-13) / 3
        out = build_prior("explicit", values=np.array([0.5, 0.3, 0.2]), cap=cap).values
        assert (out == cap).all()

    @pytest.mark.parametrize("cap", [0.9, float(np.nextafter(0.9, 1.0))])
    def test_a_cap_an_ulp_past_the_total_pins_every_entry(self, cap):
        # 10 * cap passes the total 9 by at most an ulp, under the same relative 1e-12
        # as feasibility, and no scale fits past the subnormal: every entry sits at the cap
        out = build_prior("explicit", values=[1.0] * 9 + [1e-310], cap=cap).values
        assert (out == cap).all()

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ValueError):
            build_prior("explicit", values=np.array([0.5, 0.5]), cap=0.3)
        with pytest.raises(ValueError):
            build_prior("explicit", values=np.array([0.5, 0.5]), cap=0.0)

    def test_subnormal_values_keep_their_waterfilling(self):
        # zipf's weights at exponent 190 reach subnormals, and some scales overflow
        out = build_prior("zipf", n=50, exponent=190, cap=0.05).values
        digest = "dbb04aa456d9d6abf9f2fbc7e1aae22e8c035b674c67099cc8a279895702a5e6"
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_a_scale_past_the_largest_double_is_rejected(self):
        # the third entry would need the scale 0.025 / 1e-310
        with pytest.raises(ValueError, match=r"^prior\.cap: no waterfilling scale as a double"):
            build_prior("explicit", values=np.array([0.9, 1e-310, 0.125]), cap=0.5)

    @pytest.mark.parametrize("values, cap", [
        (np.full(1000, 1.0 / 1000), 1e-3),
        (np.full(1000, 1.0 / 1000), 2e-3),
        (freqmodel._zipf({"n_values": 4096, "exponent": 1.1}), 1e-3),
        (np.array([0.3, 0.1, 0.3, 0.05, 0.1, 0.3, 0.02, 0.1]), 0.2),
        (np.random.default_rng(8).choice([0.01, 0.02, 0.05, 0.1], size=500), 0.06),
    ], ids=["uniform-at-cap", "uniform-below-cap", "zipf", "explicit-ties", "explicit-many-ties"])
    def test_ties_come_out_as_under_the_reversed_sort(self, monkeypatch, values, cap):
        # the waterfill sorts -values stably, which orders ties by index; the reference
        # order np.argsort(values)[::-1] puts them the other way round, and equal
        # values must still come out bit for bit equal
        out, _ = freqmodel._waterfilled(values, cap)
        reference = dict(vars(np), argsort=lambda *_, **__: np.argsort(values)[::-1])
        monkeypatch.setattr(freqmodel, "np", types.SimpleNamespace(**reference))
        assert out.tobytes() == freqmodel._waterfilled(values, cap)[0].tobytes()


class TestSampleFrequencies:
    # one realization draws p_x uniformly from the value set per slot, then
    # normalizes D(x) = p_x / sum p_x; window masses expose the realized D
    def test_single_distinct_value_gives_uniform_split(self):
        prior = PriorSpec(np.full(7, 0.3))
        rng = np.random.default_rng(0)
        window = (1.0 / 7.0 - 1e-12, 1.0 / 7.0 + 1e-12)
        masses = freqmodel._realizations(prior, rng, windows=[window], weight_replicates=20)[2][0]
        np.testing.assert_allclose(masses, 1.0, rtol=1e-14)
        est = tau_monte_carlo(prior, n=50, l=3, replicates=10, rng=rng)
        np.testing.assert_allclose(est.value, 1.0 / 7.0, rtol=1e-12)

    def test_normalization_forced(self):
        # two slots realizing (0.3, 0.1) in either order must normalize to
        # (0.75, 0.25); equal draws give (0.5, 0.5) and nothing in the windows
        prior = PriorSpec(np.array([0.3, 0.1]))
        rng = np.random.default_rng(1)
        high, low = freqmodel._realizations(
            prior, rng, windows=[(0.7, 0.8), (0.2, 0.3)], weight_replicates=50
        )[2]
        mixed = high > 0.0
        assert mixed.any() and not mixed.all()
        np.testing.assert_allclose(high[mixed], 0.75, rtol=1e-12)
        np.testing.assert_allclose(low[mixed], 0.25, rtol=1e-12)
        assert not np.any(low[~mixed])


class TestWeightEstimate:
    def test_full_interval_is_exactly_one(self):
        prior = build_prior("zipf", n=50, exponent=1.1)
        for seed in (0, 7, 123):
            est = weight_estimate(prior, (0.0, 1.0), 500, np.random.default_rng(seed))
            assert est.value == 1.0
            assert est.stderr == 0.0

    def test_single_value_prior_mass_all_inside(self):
        n = 16
        prior = PriorSpec(np.full(n, 0.02))
        est = weight_estimate(prior, (1.0 / (2 * n), 2.0 / n), 200, np.random.default_rng(3))
        assert est.value == 1.0

    def test_empty_interval_is_zero(self):
        prior = build_prior("uniform", n=100)  # every D(x) near 0.01
        est = weight_estimate(prior, (0.5, 1.0), 300, np.random.default_rng(4))
        assert est.value == 0.0

    def test_two_value_prior_matches_enumeration_oracle(self):
        # With only 2 distinct candidate values the realized mass depends
        # solely on how many of the N slots draw the first one, so the
        # expectation is a finite binomial sum -- an exact oracle for the
        # Monte-Carlo route.
        a, b, n = 0.05, 0.02, 16
        prior = PriorSpec(np.array([a] * (n // 2) + [b] * (n // 2)))
        lo, hi = 0.055, 0.12
        exact = 0.0
        for k in range(n + 1):
            total = k * a + (n - k) * b
            d_a, d_b = a / total, b / total
            mass = 0.0
            if lo <= d_a <= hi:
                mass += k * a / total
            if lo <= d_b <= hi:
                mass += (n - k) * b / total
            exact += stats.binom.pmf(k, n, 0.5) * mass
        est = weight_estimate(prior, (lo, hi), 40_000, np.random.default_rng(5))
        assert est.stderr > 0.0
        assert abs(est.value - exact) <= 5.0 * est.stderr

    def test_interval_validation(self):
        prior = build_prior("uniform", n=4)
        with pytest.raises(ValueError):
            weight_estimate(prior, (0.6, 0.4), 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            weight_estimate(prior, (0.0, 1.0), 0, np.random.default_rng(0))
        # one replicate has no standard error, so no CI
        with pytest.raises(ValueError, match=r"^replicates: must be >= 2, got 1$"):
            weight_estimate(prior, (0.0, 1.0), 1, np.random.default_rng(0))


class TestMcEstimateInterval:
    def test_the_normal_interval_is_clipped_to_the_unit_interval(self):
        z = 1.959963984540054  # the two-sided 95% normal quantile, written out
        assert McEstimate(0.5, 0.1).ci == (0.5 - z * 0.1, 0.5 + z * 0.1)
        assert McEstimate(0.05, 0.1).ci == (0.0, 0.05 + z * 0.1)
        assert McEstimate(0.95, 0.1).ci == (0.95 - z * 0.1, 1.0)
        assert McEstimate(0.5, 1.0).ci == (0.0, 1.0)
        assert McEstimate(1.0, 0.0).ci == (1.0, 1.0)


class TestTauExact:
    def test_two_value_anchor(self):
        prior = PriorSpec(np.array([0.1, 0.2]))
        got = tau_exact(prior, n=10, l=3)
        num = 0.5 * (0.1**4 * 0.9**7 + 0.2**4 * 0.8**7)
        den = 0.5 * (0.1**3 * 0.9**7 + 0.2**3 * 0.8**7)
        np.testing.assert_allclose(got, num / den, rtol=1e-13)
        np.testing.assert_allclose(got, 0.177815733, rtol=1e-9)

    def test_point_mass_identity_is_bitwise(self):
        for c in (0.001, 0.3, 1.0 / 3.0):
            prior = PriorSpec(np.array([c]))
            for n, l in [(1, 1), (10, 3), (10_000, 10), (10**7, 5)]:
                assert tau_exact(prior, n, l) == c
        # many equal slots behave identically to one
        wide = PriorSpec(np.full(1000, 0.001))
        assert tau_exact(wide, 10_000, 17) == 0.001

    def test_log_space_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            size = int(rng.integers(2, 30))
            values = rng.uniform(0.001, 0.6, size=size)
            n = int(rng.integers(2, 51))
            l = int(rng.integers(1, n + 1))
            prior = PriorSpec(values)
            np.testing.assert_allclose(
                tau_exact(prior, n, l), _tau_direct(values, n, l), rtol=1e-12
            )

    def test_deep_n_does_not_underflow(self):
        prior = PriorSpec(np.array([0.001, 0.002]))
        got = tau_exact(prior, n=10**7, l=10)
        assert 0.0 < got <= 0.002
        assert math.isfinite(got)

    def test_bounded_by_largest_prior_value(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            values = rng.uniform(0.001, 0.9, size=int(rng.integers(1, 20)))
            n = int(rng.integers(1, 1000))
            l = int(rng.integers(1, n + 1))
            got = tau_exact(PriorSpec(values), n, l)
            assert 0.0 < got <= values.max() * (1.0 + 1e-12)

    def test_monotone_in_l_for_two_point_prior(self):
        prior = PriorSpec(np.array([0.05, 0.3]))
        vals = [tau_exact(prior, 100, l) for l in range(1, 101)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_appearance_count_validation(self):
        prior = PriorSpec(np.array([0.1]))
        with pytest.raises(ValueError):
            tau_exact(prior, 10, 0)
        with pytest.raises(ValueError):
            tau_exact(prior, 10, 11)


class TestTauMonteCarlo:
    def test_agrees_with_closed_form_at_large_slot_count(self):
        # normalized-mode sampling converges to the raw-mode ratio as the
        # number of slots grows; at N=1000 the residual bias is far below
        # the Monte-Carlo standard error used here
        prior = build_prior("zipf", n=1000, exponent=1.1, cap=0.05)
        exact = tau_exact(prior, n=10_000, l=10)
        est = tau_monte_carlo(prior, n=10_000, l=10, replicates=2000, rng=np.random.default_rng(9))
        assert est.stderr > 0.0
        assert abs(est.value - exact) <= 5.0 * est.stderr

    # (a, k, b, slots, n, l, seed), fixed before the estimates were seen
    @pytest.mark.parametrize("a, k, b, slots, n, l, seed", [
        (0.2, 4, 0.05, 16, 40, 3, 21),
        (0.3, 3, 0.1, 8, 8, 8, 22),  # n = l: no (1-D) factor
        (0.008, 50, 0.004, 200, 1000, 5, 23),
        (0.9, 1, 0.025, 5, 20, 2, 24),
    ])
    def test_matches_the_exact_two_value_oracle(self, a, k, b, slots, n, l, seed):
        prior = PriorSpec(np.array([a] * k + [b] * (slots - k)))
        oracle = _tau_two_values(a, k, b, slots, n, l)
        est = tau_monte_carlo(prior, n, l, 40_000, np.random.default_rng(seed))
        assert 0.0 < est.stderr and abs(est.value - oracle) <= 4.0 * est.stderr
        # at so few slots the raw-mode closed form is no stand-in for the oracle
        assert abs(tau_exact(prior, n, l) - oracle) > 10.0 * est.stderr

    def test_estimate_taus_matches_the_oracle_for_every_l(self):
        a, k, b, slots, n = 0.3, 3, 0.1, 8, 8
        prior = PriorSpec(np.array([a] * k + [b] * (slots - k)))
        ls = [1, 2, 5, 8]  # up to n = l
        estimates = estimate_taus(prior, n, ls, np.random.default_rng(25), mc_replicates=40_000)
        for l, est in zip(ls, estimates):
            oracle = _tau_two_values(a, k, b, slots, n, l)
            assert abs(est.mc.value - oracle) <= 4.0 * est.mc.stderr, (l, est.mc, oracle)

    def test_point_mass_replicates_are_constant(self):
        prior = PriorSpec(np.full(64, 0.015625))
        est = tau_monte_carlo(prior, n=1000, l=3, replicates=50, rng=np.random.default_rng(10))
        np.testing.assert_allclose(est.value, 1.0 / 64.0, rtol=1e-12)
        assert est.stderr <= 1e-15

    def test_replicate_validation(self):
        prior = PriorSpec(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            tau_monte_carlo(prior, 10, 3, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tau_monte_carlo(prior, 10, 11, 10, np.random.default_rng(0))


class TestTauLowerBounds:
    def test_large_regime_anchor(self):
        np.testing.assert_allclose(
            tau_lower_large(10**4, 100, 1.0), 3.9603960396039605e-05, rtol=1e-14
        )
        np.testing.assert_allclose(tau_lower_large(10**4, 100, 1.0), 3.9604e-5, rtol=1e-5)

    def test_small_regime_anchor(self):
        np.testing.assert_allclose(
            _SMALL_FACTOR(1001, 5) * 1.0, 0.4 * (4.0 / 1000.0) / 1.1**5, rtol=1e-14
        )
        np.testing.assert_allclose(_SMALL_FACTOR(1001, 5) * 1.0, 9.9348e-4, rtol=1e-4)

    def test_vacuous_cases(self):
        assert tau_lower_large(100, 1, 1.0) == 0.0
        assert tau_lower_large(100, 7, 0.0) == 0.0
        assert _SMALL_FACTOR(100, 1) * 1.0 == 0.0
        assert _SMALL_FACTOR(100, 7) * 0.0 == 0.0

    def test_weight_range_validation(self):
        with pytest.raises(ValueError):
            tau_lower_large(100, 7, 1.5)
        with pytest.raises(ValueError):
            tau_lower_large(100, 7, -0.1)
        with pytest.raises(ValueError):
            tau_lower_large(5, 7, 0.5)

    def test_interval_definitions(self):
        lo, hi = large_interval(10_000, 100)
        np.testing.assert_allclose(lo, (2.0 / 3.0) * 99.0 / 9999.0, rtol=1e-14)
        np.testing.assert_allclose(hi, (4.0 / 3.0) * 100.0 / 10_000.0, rtol=1e-14)
        lo, hi = _SMALL_WINDOW(1001, 5)
        np.testing.assert_allclose(lo, 0.7 * 4.0 / 1000.0, rtol=1e-14)
        np.testing.assert_allclose(hi, (4.0 / 3.0) * 4.0 / 1000.0, rtol=1e-14)

    def test_every_function_of_one_l_takes_one_integer_up_to_n(self):
        # a list is a tau config's l, not one of these functions': it fails the check, not numpy
        prior, rng = PriorSpec(np.array([0.1, 0.2, 0.3, 0.4])), np.random.default_rng(0)
        calls = [lambda l: tau_exact(prior, 10, l), lambda l: tau_monte_carlo(prior, 10, l, 10, rng),
                 lambda l: tau_lower_large(10, l, 0.5), lambda l: large_interval(10, l)]
        for call in calls:
            for l in ([3], [2, 3]):
                with pytest.raises(ValueError, match=rf"^l: must be an integer, got \[{l[0]}"):
                    call(l)
            with pytest.raises(ValueError, match=r"^l: must be <= n, got l=11, n=10$"):
                call(11)
            call(10)


class TestEstimateTau:
    def test_bounds_sit_below_exact_in_regime(self):
        prior = build_prior("zipf", n=1000, exponent=1.1, cap=0.05)
        rng = np.random.default_rng(11)
        for l in (2, 10, 100):
            est = estimate_tau(prior, 10_000, l, rng)
            large, small = est.bounds
            assert large.regime_ok and small.regime_ok
            assert est.exact >= large.value
            assert est.exact >= small.value
            assert est.mc is None

    def test_monte_carlo_route_attached_on_request(self):
        prior = build_prior("zipf", n=200, exponent=1.1, cap=0.05)
        est = estimate_tau(
            prior, 2000, 5, np.random.default_rng(12), mc_replicates=500
        )
        assert est.mc is not None
        assert abs(est.mc.value - est.exact) <= 6.0 * est.mc.stderr + 1e-4

    def test_single_appearance_flagged_vacuous(self):
        prior = build_prior("uniform", n=100)
        est = estimate_tau(prior, 1000, 1, np.random.default_rng(13))
        # the prior sits in the large-l regime, yet both bounds vanish at
        # l = 1; the small-l one, below its smallest l, is not asserted
        large, small = est.bounds
        assert large.regime_ok and not small.regime_ok
        assert large.value == 0.0
        assert small.value == 0.0
        assert est.exact > 0.0

    @pytest.mark.parametrize("prior", [build_prior("zipf", n=200, exponent=1.1, cap=0.05),
                                       build_prior("zipf", n=2, exponent=20.0)],
                             ids=["in-regime", "mass-near-1"])
    def test_the_table_gives_the_public_bounds_bit_for_bit(self, prior):
        n, ls, replicates, seed = 2000, [1, 2, 10, 200, 1600], 400, 29
        LARGE = BoundKind.TAU_LOWER_LARGE
        # each form's window and factor on its weight, in the float operations written out
        written = {
            LARGE: (lambda l: ((2.0 / 3.0) * (l - 1.0) / (n - 1.0), (4.0 / 3.0) * l / n),
                    lambda l: 0.4 * (l * (l - 1.0)) / (n * (n - 1.0))),
            BoundKind.TAU_LOWER_SMALL: (lambda l: (0.7 * ((l - 1.0) / (n - 1.0)),
                                                   (4.0 / 3.0) * ((l - 1.0) / (n - 1.0))),
                                        lambda l: 0.4 * ((l - 1.0) / (n - 1.0)) * (1.1 ** -l)),
        }
        for (window, factor, _), (want_window, want_factor) in zip(_TAU_FORMS.values(),
                                                                   written.values()):
            assert all(window(n, l) == want_window(l) and factor(n, l) == want_factor(l)
                       for l in range(1, n + 1))
        # the large window at l = 1600 ends above 1: estimate_taus weighs it unclipped where
        # weight_estimate takes it clipped; on the two-value prior a realization mixing both
        # values puts D = 1 - 2**-20 inside it
        assert written[LARGE][0](1600)[1] > 1.0
        estimates = estimate_taus(prior, n, ls, np.random.default_rng(seed), mc_replicates=0,
                                  weight_replicates=replicates)
        weights = []
        for l, est in zip(ls, estimates):
            for bound, (kind, (want_window, want_factor)) in zip(est.bounds, written.items()):
                lo, hi = want_window(l)
                weight = weight_estimate(prior, (lo, min(hi, 1.0)), replicates,
                                         np.random.default_rng(seed)).value
                weights.append(weight)
                assert bound.kind is kind and bound.value == want_factor(l) * weight, (l, bound)
                if kind is LARGE:  # the one form with a public function
                    assert bound.value == tau_lower_large(n, l, weight)
                # the small-l form is not asserted at l = 1, where it is vacuous
                assert bound.regime_ok is (prior.regime_ok(n, l) and (kind is LARGE or l > 1))
        assert any(weights)


class _DrawRecorder:
    """Delegates to a Generator and records the shape of every index draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, low, high, size):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size)


def _masked_reference(prior, rng, *, n=0, ls=(), mc_replicates=0, windows=(), weight_replicates=0):
    # the realization reduction written with fresh temporaries and np.where
    # masks, drawing the whole batch at once
    values, log_values = prior.values, np.log(prior.values)
    total = max(mc_replicates, weight_replicates)
    idx = rng.integers(0, prior.n_values, size=(total, prior.n_values))
    p = values[idx]
    totals = p.sum(axis=1)
    d = p / totals[:, None]
    k = weight_replicates
    masses = np.array([
        np.where((d[:k] >= b1) & (d[:k] <= b2), p[:k], 0.0).sum(axis=1) / totals[:k]
        for b1, b2 in windows
    ]).reshape(len(windows), k)
    k = mc_replicates
    lnum, lden = np.empty((len(ls), k)), np.empty((len(ls), k))
    log_d = log_values[idx[:k]] - np.log(totals[:k])[:, None]
    with np.errstate(divide="ignore"):
        log_rest = np.log1p(-d[:k])
    for i, l in enumerate(ls):
        w = log_d * l
        if n > l:
            w += (n - l) * log_rest
        top = w.max(axis=1)
        u = np.exp(w - top[:, None])
        lden[i] = top + np.log(u.sum(axis=1))
        lnum[i] = top + np.log((u * d[:k]).sum(axis=1))
    return lnum, lden, masses


class TestBitIdentity:
    # (prior, n, ls, mc_replicates, windows, weight_replicates, rows per chunk or None)
    ODD = build_prior("zipf", n=199, exponent=1.1, cap=0.05)
    WINDOWS = [large_interval(2000, 5), _SMALL_WINDOW(2000, 5), (0.0, 1.0), (0.5, 1.0)]
    CASES = {
        "odd-slot-count": (ODD, 2000, [2, 5, 40], 500, WINDOWS, 500, None),
        "one-row-per-chunk": (ODD, 2000, [2, 5, 40], 30, WINDOWS, 30, 1),
        "more-mc-than-weight": (ODD, 2000, [2, 40], 700, WINDOWS, 90, None),
        "more-weight-than-mc": (ODD, 2000, [2, 40], 90, WINDOWS, 700, 7),
        "no-mc": (ODD, 2000, (), 0, WINDOWS, 400, None),
        "n-equals-l": (build_prior("uniform", n=31), 40, [3, 40], 200, WINDOWS, 200, None),
        "window-0-1": (ODD, 2000, [5], 300, [(0.0, 1.0)], 300, None),
        "empty-window": (ODD, 2000, [5], 300, [(0.5, 1.0)], 300, 3),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_realizations_match_the_masked_reference(self, monkeypatch, case):
        prior, n, ls, mc, windows, weight, rows = self.CASES[case]
        if rows is not None:
            monkeypatch.setattr(freqmodel, "_CHUNK_ELEMENTS", rows * prior.n_values)
        kwargs = dict(n=n, ls=ls, mc_replicates=mc, windows=windows, weight_replicates=weight)
        got = freqmodel._realizations(prior, np.random.default_rng(17), **kwargs)
        want = _masked_reference(prior, np.random.default_rng(17), **kwargs)
        assert [a.shape for a in got] == [b.shape for b in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        if (0.0, 1.0) in windows:
            assert np.all(got[2][windows.index((0.0, 1.0))] == 1.0)
        if (0.5, 1.0) in windows:
            assert not np.any(got[2][windows.index((0.5, 1.0))])


class TestSharedRealizations:
    # an odd slot count, so no chunk of index draws splits evenly into pairs
    PRIOR = build_prior("zipf", n=199, exponent=1.1, cap=0.05)
    N_DRAWS = 2000
    LS = (2, 5, 40)

    def _taus(self, ls=LS, seed=31, mc_replicates=300, weight_replicates=500):
        return estimate_taus(self.PRIOR, self.N_DRAWS, list(ls), np.random.default_rng(seed),
                             mc_replicates=mc_replicates, weight_replicates=weight_replicates)

    def test_each_l_is_the_same_alone_or_in_a_list(self):
        together = self._taus()
        assert [est.l for est in together] == list(self.LS)
        for est in together:
            assert est.mc is not None
            assert self._taus(ls=[est.l]) == [est]
            alone = estimate_tau(self.PRIOR, self.N_DRAWS, est.l, np.random.default_rng(31),
                                 mc_replicates=300, weight_replicates=500)
            assert alone == est
        assert self._taus(ls=self.LS[::-1]) == together[::-1]

    def test_bound_columns_do_not_depend_on_mc_replicates(self):
        def bounds(mc_replicates):
            return [(e.exact, *e.bounds) for e in self._taus(mc_replicates=mc_replicates)]

        reference = bounds(0)
        assert all(large.value > 0.0 for _, large, _ in reference)
        for mc_replicates in (2, 300, 500, 1200):
            assert bounds(mc_replicates) == reference

    @pytest.mark.parametrize("rows", [1, 7, 1200])
    def test_results_do_not_depend_on_the_chunking(self, monkeypatch, rows):
        # one row per chunk, a prime row count, and the whole batch in one chunk
        reference = (
            self._taus(mc_replicates=1200),
            tau_monte_carlo(self.PRIOR, self.N_DRAWS, 5, 301, np.random.default_rng(3)),
            weight_estimate(self.PRIOR, (0.004, 0.01), 503, np.random.default_rng(4)),
        )
        monkeypatch.setattr(freqmodel, "_CHUNK_ELEMENTS", rows * self.PRIOR.n_values)
        assert (
            self._taus(mc_replicates=1200),
            tau_monte_carlo(self.PRIOR, self.N_DRAWS, 5, 301, np.random.default_rng(3)),
            weight_estimate(self.PRIOR, (0.004, 0.01), 503, np.random.default_rng(4)),
        ) == reference

    def test_one_batch_of_budget_sized_chunks(self):
        rng = _DrawRecorder(np.random.default_rng(5))
        estimate_taus(self.PRIOR, self.N_DRAWS, list(self.LS), rng,
                      mc_replicates=3000, weight_replicates=700)
        full = freqmodel._CHUNK_ELEMENTS // self.PRIOR.n_values
        assert [rows for rows, _ in rng.sizes] == [full] * (3000 // full) + [3000 % full]
        assert {n_values for _, n_values in rng.sizes} == {self.PRIOR.n_values}

    def test_working_set_is_a_few_chunk_buffers(self):
        # tau_zipf's shape, cut to 1000 replicates: 32 chunks of 32 realizations
        prior = build_prior("zipf", n=1000, exponent=1.1, cap=0.05)
        rng = _DrawRecorder(np.random.default_rng(7))
        # first calls allocate once-per-process state that is no chunk's working set
        estimate_taus(prior, 10_000, [2], np.random.default_rng(0), mc_replicates=2,
                      weight_replicates=2)
        tracemalloc.start()
        try:
            estimate_taus(prior, 10_000, [2, 10, 100], rng,
                          mc_replicates=1000, weight_replicates=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rng.sizes) >= 30
        # lnum, lden and six windows' masses, one float per replicate each
        outputs = 8 * 1000 * (2 * 3 + 6)
        assert peak < 12 * 8 * freqmodel._CHUNK_ELEMENTS + outputs

    def test_a_million_values_stay_within_the_chunk_budget(self):
        prior = build_prior("zipf", n=1_000_000, exponent=1.1, cap=0.05)
        assert prior.n_values > freqmodel._CHUNK_ELEMENTS  # one realization per chunk
        tracemalloc.start()
        try:
            rng = _DrawRecorder(np.random.default_rng(6))
            weight = weight_estimate(prior, large_interval(10**7, 10), 64, rng)
            taus = estimate_taus(prior, 10**7, [2, 10], rng,
                                 mc_replicates=64, weight_replicates=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rng.sizes == [(1, prior.n_values)] * 128
        # a few realization-sized temporaries at a time, never the batch
        assert peak < 16 * 8 * prior.n_values
        assert 0.0 < weight.value <= 1.0
        for est in taus:
            assert all(est.exact >= bound.value for bound in est.bounds)
            assert math.isfinite(est.mc.value) and est.mc.stderr > 0.0
