"""Transition matrices, noisy-label sampling, and flip-rate synthesis.

The binary closed-form inverse is cross-checked against generic matrix
inversion, sampled label frequencies against 3-standard-error binomial
windows, and the truncated-normal sampler against a quadrature oracle for
its mean.
"""
import math

import numpy as np
import pytest
from scipy import integrate, stats

from noisylab import (
    BinaryNoiseRates,
    InstanceNoiseSynth,
    TransitionMatrix,
    binary_transition,
    combine_rate,
    index_to_label,
    invert_transition,
    label_to_index,
    sample_noisy_labels,
    synth_instance_noise,
    truncated_normal,
)


class TestLabelIndexing:
    def test_binary_round_trip(self):
        assert label_to_index(-1) == 0
        assert label_to_index(1) == 1
        assert index_to_label(0) == -1
        assert index_to_label(1) == 1

    def test_multiclass_passthrough(self):
        assert label_to_index(2, m=4) == 2

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError):
            label_to_index(3, m=2)
        with pytest.raises(ValueError):
            index_to_label(2)


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


class TestBinaryTransition:
    def test_zero_noise_is_identity(self):
        t = binary_transition(BinaryNoiseRates(0.0, 0.0))
        np.testing.assert_array_equal(t.entries, np.eye(2))

    def test_symmetric_anchor(self):
        t = binary_transition(BinaryNoiseRates(0.2, 0.2))
        np.testing.assert_array_equal(t.entries, [[0.8, 0.2], [0.2, 0.8]])

    def test_row_layout_follows_class_order(self):
        # row 0 is the true -1 class, so its off-diagonal is e_minus
        t = binary_transition(BinaryNoiseRates(e_plus=0.1, e_minus=0.3))
        np.testing.assert_allclose(t.entries, [[0.7, 0.3], [0.1, 0.9]], rtol=1e-15)


class TestTransitionMatrixValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.4], [0.2, 0.8]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.1, -0.1], [0.2, 0.8]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.ones((2, 3)) / 3.0)

    def test_m_property(self):
        t = TransitionMatrix(np.eye(3))
        assert t.m == 3


class TestInvertTransition:
    def test_zero_noise_inverse_is_identity(self):
        t = binary_transition(BinaryNoiseRates(0.0, 0.0))
        np.testing.assert_array_equal(invert_transition(t), np.eye(2))

    def test_binary_closed_form_matches_generic_inversion(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            e_p = float(rng.uniform(0.0, 0.9))
            e_m = float(rng.uniform(0.0, max(1e-9, 0.98 - e_p)))
            t = binary_transition(BinaryNoiseRates(e_p, e_m))
            inv = invert_transition(t)
            np.testing.assert_allclose(inv, np.linalg.inv(t.entries), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(t.entries @ inv, np.eye(2), atol=1e-10)

    def test_inverse_rows_sum_to_one_with_negative_entries(self):
        inv = invert_transition(binary_transition(BinaryNoiseRates(0.2, 0.2)))
        np.testing.assert_allclose(inv.sum(axis=1), [1.0, 1.0], atol=1e-12)
        assert inv[0, 1] < 0.0 and inv[1, 0] < 0.0

    def test_three_class_inverse(self):
        t = TransitionMatrix(
            np.array([[0.5, 0.25, 0.25], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
        )
        inv = invert_transition(t)
        np.testing.assert_allclose(t.entries @ inv, np.eye(3), atol=1e-10)

    def test_singular_matrix_rejected(self):
        t = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            invert_transition(t)


class TestSampleNoisyLabels:
    def test_zero_noise_keeps_the_label(self):
        rng = np.random.default_rng(0)
        draws = sample_noisy_labels(1, 5, BinaryNoiseRates(0.0, 0.0), rng)
        np.testing.assert_array_equal(draws, [1, 1, 1, 1, 1])
        draws = sample_noisy_labels(-1, 5, BinaryNoiseRates(0.0, 0.0), rng)
        np.testing.assert_array_equal(draws, [-1, -1, -1, -1, -1])

    def test_flip_fraction_tracks_the_rate(self):
        rng = np.random.default_rng(1)
        n = 10**5
        draws = sample_noisy_labels(1, n, BinaryNoiseRates(0.2, 0.05), rng)
        flipped = np.count_nonzero(draws == -1) / n
        se = math.sqrt(0.2 * 0.8 / n)
        assert abs(flipped - 0.2) <= 3.0 * se

    def test_multiclass_row_frequencies(self):
        row = np.array([0.5, 0.25, 0.25])
        t = TransitionMatrix(np.array([row, [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]))
        rng = np.random.default_rng(2)
        n = 10**5
        draws = sample_noisy_labels(0, n, t, rng)
        for k in range(3):
            freq = np.count_nonzero(draws == k) / n
            se = math.sqrt(row[k] * (1.0 - row[k]) / n)
            assert abs(freq - row[k]) <= 3.0 * se

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_noisy_labels(1, 0, BinaryNoiseRates(0.1, 0.1), np.random.default_rng(0))
        with pytest.raises(TypeError):
            sample_noisy_labels(1, 5, "not noise", np.random.default_rng(0))


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
        # window mass ~2e-2 forces the inverse-CDF branch
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

    def test_window_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            truncated_normal(0.2, 0.0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            truncated_normal(0.2, 0.1, 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            truncated_normal(-100.0, 0.1, 0.0, 1.0, rng)


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
            synth_instance_noise([1.0, 0.0], 1.5, 0.1, rng)
        with pytest.raises(ValueError):
            InstanceNoiseSynth.sample(1.5, 3, rng)

    def test_rates_lie_in_range(self):
        rng = np.random.default_rng(9)
        synth = InstanceNoiseSynth.sample(0.2, 8, rng)
        for _ in range(500):
            rate = synth.rate(rng.standard_normal(8), rng)
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
        # q is drawn before the projection weights when w is omitted; rate and
        # draw read the same numbers (values frozen from the separate code paths)
        feature = np.array([1.0, -2.0, 0.5])
        w = np.array([0.3, 0.1, -0.4])
        rng = np.random.default_rng(21)
        assert synth_instance_noise(feature, 0.2, 0.1, rng) == 0.43872912855934326
        assert synth_instance_noise(feature, 0.2, 0.1, rng, w=w) == 0.19100785183852984
        synth = InstanceNoiseSynth(0.2, w)
        assert synth.rate(feature, rng) == 0.11738389572831202
        assert synth.draw(feature, rng) == (
            0.11970432816096381, -0.04364357804719849, 0.11709258011664507
        )
        assert rng.random() == 0.11240308334734228

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
