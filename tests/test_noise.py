"""Binary flip rates, label indexing, the transition inverse, and flip-rate synthesis.

The rate constraints are checked at their edges, the binary closed-form
inverse of the transition (the columns of lc_loss_vector) against generic
matrix inversion, and the truncated-normal sampler against a quadrature
oracle for its mean.
"""
import math
import re

import numpy as np
import pytest
from scipy import integrate, stats

from noisylab import (
    BinaryNoiseRates,
    InstanceNoiseSynth,
    combine_rate,
    lc_loss_vector,
    truncated_normal,
)
from noisylab.noise import _label_to_index


class TestLabelIndexing:
    def test_binary_round_trip(self):
        assert _label_to_index(-1) == 0
        assert _label_to_index(1) == 1

    def test_invalid_labels_rejected(self):
        for bad in (0, 2, 3):
            with pytest.raises(ValueError):
                _label_to_index(bad)

    @pytest.mark.parametrize("y", [True, False, 1.0, -1.0, np.float64(1.0)])
    def test_bools_and_floats_are_not_labels(self, y):
        # the scenario y rule: only the integers -1 and 1, Python or numpy
        message = re.escape(f"y: must be -1 or 1, got {y!r}")
        with pytest.raises(ValueError, match=message):
            _label_to_index(y)
        with pytest.raises(ValueError, match=message):
            BinaryNoiseRates(e_plus=0.1, e_minus=0.3).rate_for(y)
        assert _label_to_index(np.int64(-1)) == 0 and _label_to_index(np.int32(1)) == 1


class TestBinaryNoiseRates:
    def test_valid_rates_and_lookup(self):
        r = BinaryNoiseRates(e_plus=0.1, e_minus=0.3)
        assert r.rate_for(1) == 0.1
        assert r.rate_for(-1) == 0.3

    def test_identifiability_constraint(self):
        with pytest.raises(ValueError):
            BinaryNoiseRates(e_plus=0.6, e_minus=0.5)
        with pytest.raises(ValueError):
            BinaryNoiseRates(e_plus=0.5, e_minus=0.5)
        BinaryNoiseRates(e_plus=0.49, e_minus=0.49)  # strictly below 1 is fine

    def test_individual_rate_range(self):
        with pytest.raises(ValueError):
            BinaryNoiseRates(e_plus=-0.1, e_minus=0.2)
        with pytest.raises(ValueError):
            BinaryNoiseRates(e_plus=1.0, e_minus=0.0)


def _transition(rates):
    # T[k, k'] = P[observed k' | true k]; row 0 is the true -1 class
    e_p, e_m = rates.e_plus, rates.e_minus
    return np.array([[1.0 - e_m, e_m], [e_p, 1.0 - e_p]])


def _inverse(rates):
    # lc_loss_vector(loss) = T^-1 loss, so the unit losses give T^-1's columns
    return np.column_stack([lc_loss_vector(unit, rates) for unit in np.eye(2)])


class TestInvertTransition:
    def test_zero_noise_inverse_is_identity(self):
        np.testing.assert_array_equal(_inverse(BinaryNoiseRates(0.0, 0.0)), np.eye(2))

    def test_binary_closed_form_matches_generic_inversion(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            e_p = float(rng.uniform(0.0, 0.9))
            e_m = float(rng.uniform(0.0, max(1e-9, 0.98 - e_p)))
            rates = BinaryNoiseRates(e_p, e_m)
            loss = rng.uniform(-3.0, 3.0, size=2)
            t = _transition(rates)
            want = np.linalg.inv(t) @ loss
            np.testing.assert_allclose(lc_loss_vector(loss, rates), want, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(t @ _inverse(rates), np.eye(2), atol=1e-10)

    def test_inverse_rows_sum_to_one_with_negative_entries(self):
        inv = _inverse(BinaryNoiseRates(0.2, 0.2))
        np.testing.assert_allclose(inv.sum(axis=1), [1.0, 1.0], atol=1e-12)
        assert inv[0, 1] < 0.0 and inv[1, 0] < 0.0

    def test_singular_matrix_rejected(self):
        # det T = 1 - e_plus - e_minus; rates on the singular line never exist
        for e_p in (0.5, 0.3, 0.9):
            with pytest.raises(ValueError):
                BinaryNoiseRates(e_p, 1.0 - e_p)
        near = BinaryNoiseRates(0.4999, 0.4999)
        np.testing.assert_allclose(_transition(near) @ _inverse(near), np.eye(2), atol=1e-9)


class TestTruncatedNormal:
    def test_degenerate_sigma_collapses_to_the_mean(self):
        rng = np.random.default_rng(3)
        q = truncated_normal(0.2, 1e-9, 0.0, 1.0, rng)
        assert abs(q - 0.2) <= 1e-6

    def test_mean_matches_quadrature_oracle(self):
        mean, sd = 0.2, 0.1
        pdf = lambda x: stats.norm.pdf(x, mean, sd)
        mass, _ = integrate.quad(pdf, 0.0, 1.0)
        first, _ = integrate.quad(lambda x: x * pdf(x), 0.0, 1.0)
        oracle = first / mass
        rng = np.random.default_rng(4)
        draws = truncated_normal(mean, sd, 0.0, 1.0, rng, size=10**5)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - oracle) <= 3.0 * se

    def test_draws_respect_the_window(self):
        rng = np.random.default_rng(5)
        draws = truncated_normal(0.9, 0.3, 0.0, 1.0, rng, size=5000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_low_acceptance_path_still_correct(self):
        # a window holding about 2e-2 of the mass, far in the tail
        mean, sd = -0.2, 0.1
        rng = np.random.default_rng(6)
        draws = truncated_normal(mean, sd, 0.0, 1.0, rng, size=20_000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        pdf = lambda x: stats.norm.pdf(x, mean, sd)
        mass, _ = integrate.quad(pdf, 0.0, 1.0)
        first, _ = integrate.quad(lambda x: x * pdf(x), 0.0, 1.0)
        oracle = first / mass
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - oracle) <= 4.0 * se

    @pytest.mark.parametrize("mean, sd", [(0.2, 0.1), (-0.2, 0.1), (0.5, 3.0), (3.0, 0.5)])
    def test_every_window_reads_one_uniform_per_draw(self, mean, sd):
        rng, same = np.random.default_rng(8), np.random.default_rng(8)
        truncated_normal(mean, sd, 0.0, 1.0, rng, size=1000)
        same.random(1000)
        assert rng.random() == same.random()

    def test_window_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            truncated_normal(0.2, 0.0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            truncated_normal(0.2, 0.1, 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            truncated_normal(-100.0, 0.1, 0.0, 1.0, rng)


class TestSigmaCeiling:
    def test_q_at_the_ceiling_is_uniform_on_the_window(self):
        # at sigma = 1e6 the window [0, 1] spans 1e-6 standard deviations, and
        # more than 2**31 distinct uniforms still resolve it; seeds fixed in advance
        for seed, epsilon in ((10, 0.0), (11, 0.5), (12, 1.0)):
            synth = InstanceNoiseSynth(epsilon, np.ones(3), sigma=1e6)
            q = synth.draw_rows(np.ones((10_000, 3)), np.random.default_rng(seed))[0]
            assert 0.0 <= q.min() and q.max() <= 1.0 and np.unique(q).size == q.size
            assert stats.kstest(q, "uniform").pvalue > 1e-3

    def test_sigma_past_the_ceiling_is_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma: must be <= 1000000.0, got 2000000.0$"):
            InstanceNoiseSynth(0.2, np.ones(3), sigma=2e6)


class TestCombineRate:
    def test_neutral_projection_returns_q(self):
        assert combine_rate(0.37, 0.0) == 0.37

    def test_zero_q_is_zero(self):
        assert combine_rate(0.0, 3.0) == 0.0

    def test_clamped_below_one(self):
        assert combine_rate(0.9, 40.0) == 1.0 - 1e-6
        assert combine_rate(1.0, 40.0) == 1.0 - 1e-6

    def test_monotone_in_projection(self):
        rates = [combine_rate(0.3, z) for z in np.linspace(-5, 5, 41)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))


class TestSynthInstanceNoise:
    def test_epsilon_validation(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            InstanceNoiseSynth.sample(1.5, 3, rng)
        with pytest.raises(ValueError):
            InstanceNoiseSynth(-0.1, np.ones(3))

    def test_rates_lie_in_range(self):
        rng = np.random.default_rng(9)
        synth = InstanceNoiseSynth.sample(0.2, 8, rng)
        for _ in range(500):
            rate = synth.draw(rng.standard_normal(8), rng)[2]
            assert 0.0 <= rate < 1.0

    def test_draw_exposes_consistent_parts(self):
        rng = np.random.default_rng(10)
        synth = InstanceNoiseSynth.sample(0.2, 4, rng)
        feature = np.array([1.0, -2.0, 0.5, 0.0])
        q, projection, rate = synth.draw(feature, rng)
        assert 0.0 <= q <= 1.0
        np.testing.assert_allclose(projection, float(feature @ synth.w) / np.linalg.norm(feature), rtol=1e-12)
        assert rate == combine_rate(q, projection)

    def test_draws_keep_their_stream_order(self):
        # each instance draws q only (values frozen when a q and three fresh
        # weights preceded them)
        feature = np.array([1.0, -2.0, 0.5])
        w = np.array([0.3, 0.1, -0.4])
        rng = np.random.default_rng(21)
        truncated_normal(0.2, 0.1, 0.0, 1.0, rng)
        rng.standard_normal(3)
        synth = InstanceNoiseSynth(0.2, w)
        assert synth.draw(feature, rng)[2] == 0.23046900549657903
        assert synth.draw(feature, rng)[2] == 0.3991195162458768
        assert synth.draw(feature, rng) == (
            0.18402088065339356, -0.04364357804719849, 0.18000585310556722
        )
        assert rng.random() == 0.11240308334734228

    def test_draw_is_draw_rows_on_one_row(self):
        synth = InstanceNoiseSynth.sample(0.2, 4, np.random.default_rng(14))
        feature = np.array([1.0, -2.0, 0.5, 0.0])
        rng, rng_copy = np.random.default_rng(15), np.random.default_rng(15)
        for _ in range(3):
            q, projection, rate = synth.draw_rows(feature[None], rng_copy)
            assert synth.draw(feature, rng) == (q[0], projection[0], rate[0])

    def test_a_zero_row_in_a_block_projects_to_zero(self):
        rng = np.random.default_rng(16)
        synth = InstanceNoiseSynth.sample(0.3, 3, rng)
        features = rng.standard_normal((50, 3))
        features[17] = 0.0
        q, projection, rate = synth.draw_rows(features, rng)
        assert projection[17] == 0.0
        assert rate[17] == q[17]
        # a row projects as it does alone, whatever block holds it
        assert projection.tolist() == [synth.draw(row, rng)[1] for row in features]

    def test_rows_must_match_the_weights(self):
        rng = np.random.default_rng(17)
        synth = InstanceNoiseSynth.sample(0.2, 3, rng)
        for features in (np.ones((4, 1)), np.ones(3), np.ones((2, 4))):
            with pytest.raises(ValueError, match="features must be rows of 3 values"):
                synth.draw_rows(features, rng)

    def test_zero_feature_vector_neutral_projection(self):
        rng = np.random.default_rng(11)
        synth = InstanceNoiseSynth.sample(0.3, 3, rng)
        q, projection, rate = synth.draw(np.zeros(3), rng)
        assert projection == 0.0
        assert rate == q

    def test_shared_weights_fix_the_projection(self):
        rng = np.random.default_rng(12)
        synth = InstanceNoiseSynth.sample(0.2, 5, rng)
        feature = np.arange(1.0, 6.0)
        p1 = synth.draw(feature, rng)[1]
        p2 = synth.draw(feature, rng)[1]
        assert p1 == p2

    def test_mean_q_matches_quadrature_oracle(self):
        mean, sd = 0.2, 0.1
        pdf = lambda x: stats.norm.pdf(x, mean, sd)
        mass, _ = integrate.quad(pdf, 0.0, 1.0)
        first, _ = integrate.quad(lambda x: x * pdf(x), 0.0, 1.0)
        oracle = first / mass
        rng = np.random.default_rng(13)
        synth = InstanceNoiseSynth.sample(mean, 3, rng, sigma=sd)
        qs = np.array([synth.draw(rng.standard_normal(3), rng)[0] for _ in range(20_000)])
        se = qs.std(ddof=1) / math.sqrt(qs.size)
        assert abs(qs.mean() - oracle) <= 3.0 * se
