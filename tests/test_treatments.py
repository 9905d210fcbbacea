"""Loss correction, label smoothing, and peer loss.

The corrected-label algebra is verified by evaluating both routes of each
identity independently (surrogate-loss route vs corrected-label route,
expectation route vs KL route), the comparison logic against exhaustive
case analysis, and the peer objective against its direct formula.
"""
import math

import numpy as np
import pytest

from noisylab import (
    BinaryNoiseRates,
    Comparison,
    LabelDist,
    PeerDecision,
    compare_ls_lc,
    corrected_label,
    empirical_distribution,
    lc_empirical_loss,
    lc_loss_vector,
    memorization_error,
    peer_expected_loss,
    peer_predict,
    peer_vertex_check,
    smoothed_label,
)
from noisylab.noise import _label_to_index
from noisylab.treatments import _peer_instance_objective

SYMM_02 = BinaryNoiseRates(0.2, 0.2)


def _random_rates(rng, lo=0.01):
    e_p = float(rng.uniform(lo, 0.8))
    e_m = float(rng.uniform(lo, max(lo + 1e-6, 0.98 - e_p)))
    return BinaryNoiseRates(e_p, e_m)


def _transition(rates):
    # T[k, k'] = P[observed k' | true k]; row 0 is the true -1 class
    e_p, e_m = rates.e_plus, rates.e_minus
    return np.array([[1.0 - e_m, e_m], [e_p, 1.0 - e_p]])


def _random_joint(rng, n_x, n_y=2):
    table = rng.uniform(0.05, 1.0, size=(n_x, n_y))
    return table / table.sum()


def _random_predictor(rng, n_x, n_y=2):
    rows = rng.uniform(0.05, 1.0, size=(n_x, n_y))
    return rows / rows.sum(axis=1, keepdims=True)


def _mutual_information(joint):
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    terms = np.where(joint > 0.0, joint * np.log(joint / (px * py)), 0.0)
    return float(terms.sum())


def _assert_cap_rule(out) -> None:
    """capped is the one-hot vector on the violated side exactly when raw leaves [0, 1]."""
    raw = out.raw.probs
    want = [0.0, 1.0] if raw[1] > 1.0 else [1.0, 0.0] if raw[1] < 0.0 else raw
    np.testing.assert_array_equal(out.capped.probs, want)


class TestCorrectedLabel:
    def test_raw_entries_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            p_plus = float(rng.uniform(0.0, 1.0))
            dist = LabelDist(np.array([1.0 - p_plus, p_plus]))
            raw = corrected_label(dist, _random_rates(rng)).raw
            np.testing.assert_allclose(raw.probs.sum(), 1.0, atol=1e-12)

    def test_anchor_two_of_three_positive(self):
        out = corrected_label(empirical_distribution([1, 1, -1]), SYMM_02)
        np.testing.assert_allclose(out.raw.probs, [2.0 / 9.0, 7.0 / 9.0], rtol=1e-12)
        np.testing.assert_allclose(out.raw.probs, [0.22222, 0.77778], atol=5e-6)
        _assert_cap_rule(out)

    def test_cap_direction_follows_the_violated_side(self):
        # all-positive observations push raw[+1] above 1
        high = corrected_label(empirical_distribution([1, 1, 1]), SYMM_02)
        assert high.raw.probs[1] > 1.0
        np.testing.assert_array_equal(high.capped.probs, [0.0, 1.0])
        _assert_cap_rule(high)
        low = corrected_label(empirical_distribution([-1, -1, -1]), SYMM_02)
        assert low.raw.probs[1] < 0.0
        np.testing.assert_array_equal(low.capped.probs, [1.0, 0.0])
        _assert_cap_rule(low)

    def test_capped_point_masses_are_read_only(self):
        capped = corrected_label(empirical_distribution([1, 1, 1]), SYMM_02).capped
        assert not capped.signed
        with pytest.raises(ValueError):
            capped.probs[0] = 0.5
        np.testing.assert_array_equal(capped.probs, [0.0, 1.0])

    def test_posterior_proportions_invert_to_one_hot(self):
        # empirical mass (0.2, 0.8) is exactly the noisy posterior of +1
        out = corrected_label(empirical_distribution([1, 1, 1, 1, -1]), SYMM_02)
        np.testing.assert_array_equal(out.raw.probs, [0.0, 1.0])
        _assert_cap_rule(out)

    def test_order_equivalence_under_equal_rates(self):
        # strict majority for +1 <=> correction strictly amplifies it
        rng = np.random.default_rng(43)
        for _ in range(2000):
            p_plus = float(rng.uniform(0.0, 1.0))
            if abs(p_plus - 0.5) < 1e-9:
                continue
            e = float(rng.uniform(0.01, 0.49))
            dist = LabelDist(np.array([1.0 - p_plus, p_plus]))
            raw = corrected_label(dist, BinaryNoiseRates(e, e)).raw
            assert (p_plus > 0.5) == (raw.probs[1] > p_plus)

    def test_signed_margin_formula(self):
        # raw[+1] - P[+1] = (e_plus P[+1] - e_minus P[-1]) / gap at any rates
        rng = np.random.default_rng(44)
        for _ in range(2000):
            p_plus = float(rng.uniform(0.0, 1.0))
            rates = _random_rates(rng)
            dist = LabelDist(np.array([1.0 - p_plus, p_plus]))
            raw = corrected_label(dist, rates).raw
            gap = 1.0 - rates.e_plus - rates.e_minus
            want = (rates.e_plus * p_plus - rates.e_minus * (1.0 - p_plus)) / gap
            np.testing.assert_allclose(raw.probs[1] - p_plus, want, atol=1e-12)

    def test_zero_flip_rate_fixes_the_label(self):
        dist = LabelDist(np.array([0.3, 0.7]))
        raw = corrected_label(dist, BinaryNoiseRates(0.0, 0.0)).raw
        np.testing.assert_array_equal(raw.probs, dist.probs)

    def test_binary_only(self):
        with pytest.raises(ValueError):
            corrected_label(LabelDist(np.ones(3) / 3.0), SYMM_02)


class TestLcLossVector:
    def test_anchor_surrogate(self):
        got = lc_loss_vector([2.0, 0.1], SYMM_02)
        np.testing.assert_allclose(got, [1.58 / 0.6, -0.32 / 0.6], rtol=1e-12)
        np.testing.assert_allclose(got, [2.63333, -0.53333], atol=5e-6)

    def test_zero_noise_is_identity(self):
        got = lc_loss_vector([2.0, 0.1], BinaryNoiseRates(0.0, 0.0))
        np.testing.assert_array_equal(got, [2.0, 0.1])

    def test_unbiased_under_the_noisy_posterior(self):
        # row y of T dotted with the surrogate recovers the clean loss at y
        rng = np.random.default_rng(45)
        for _ in range(2000):
            rates = _random_rates(rng, lo=0.0)
            loss = rng.uniform(-3.0, 3.0, size=2)
            surrogate = lc_loss_vector(loss, rates)
            t = _transition(rates)
            np.testing.assert_allclose(t @ surrogate, loss, atol=1e-12)

    def test_anchor_unbiasedness_value(self):
        surrogate = lc_loss_vector([2.0, 0.1], SYMM_02)
        expectation = 0.8 * surrogate[1] + 0.2 * surrogate[0]
        np.testing.assert_allclose(expectation, 0.1, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(TypeError):
            lc_loss_vector([1.0, 0.0], "rates")
        with pytest.raises(ValueError, match="^a loss vector has two entries, got 3$"):
            lc_loss_vector([1.0, 0.0, 2.0], SYMM_02)
        with pytest.raises(ValueError, match="^a loss vector has two entries, got 1$"):
            lc_loss_vector([1.0], SYMM_02)
        for loss in ([np.inf, 0.0], [0.0, np.nan], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="^loss vector entries must be finite$"):
                lc_loss_vector(loss, SYMM_02)


class TestLcEmpiricalLoss:
    def test_anchor_both_routes(self):
        got = lc_empirical_loss([1, 1, -1], SYMM_02, [2.0, 0.1])
        np.testing.assert_allclose(got, 0.5222222222222223, rtol=1e-12)
        raw = corrected_label(empirical_distribution([1, 1, -1]), SYMM_02).raw
        np.testing.assert_allclose(got, float(raw.probs @ [2.0, 0.1]), atol=1e-10)

    def test_equals_raw_label_route_everywhere(self):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            l = int(rng.integers(1, 30))
            labels = rng.choice([-1, 1], size=l)
            rates = _random_rates(rng, lo=0.0)
            loss = rng.uniform(-3.0, 3.0, size=2)
            via_loss = lc_empirical_loss(labels, rates, loss)
            raw = corrected_label(empirical_distribution(labels), rates).raw
            np.testing.assert_allclose(via_loss, float(raw.probs @ loss), atol=1e-10)

    def test_zero_noise_recovers_the_clean_loss(self):
        clean = BinaryNoiseRates(0.0, 0.0)
        np.testing.assert_allclose(lc_empirical_loss([1, 1, 1], clean, [2.0, 0.1]), 0.1, atol=1e-15)
        np.testing.assert_allclose(lc_empirical_loss([-1], clean, [2.0, 0.1]), 2.0, atol=1e-15)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            lc_empirical_loss([], SYMM_02, [2.0, 0.1])

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            lc_empirical_loss([1.5, -1.0], SYMM_02, [2.0, 0.1])
        # True is 1 to numpy, but no label, as memorization_error's y
        for labels in ([True], [True, -1]):
            with pytest.raises(ValueError, match="^labels must be -1 or \\+1, got bools$"):
                lc_empirical_loss(labels, BinaryNoiseRates(0.1, 0.1), [1.0, 0.0])
        assert lc_empirical_loss([1.0, 1.0, -1.0], SYMM_02, [2.0, 0.1]) == lc_empirical_loss(
            [1, 1, -1], SYMM_02, [2.0, 0.1]
        )


class TestSmoothedLabel:
    def test_identity_and_uniform_endpoints(self):
        dist = LabelDist(np.array([0.4, 0.6]))
        np.testing.assert_array_equal(smoothed_label(dist, 0.0).probs, dist.probs)
        np.testing.assert_allclose(smoothed_label(dist, 1.0).probs, [0.5, 0.5], atol=1e-15)

    def test_anchor_mix(self):
        got = smoothed_label(LabelDist(np.array([0.4, 0.6])), 0.1)
        np.testing.assert_allclose(got.probs, [0.41, 0.59], rtol=1e-12)

    def test_stays_proper_for_all_weights(self):
        rng = np.random.default_rng(49)
        for _ in range(500):
            probs = rng.dirichlet(np.ones(2))
            a = float(rng.uniform(0.0, 1.0))
            out = smoothed_label(LabelDist(probs / probs.sum()), a)
            assert np.all(out.probs >= 0.0) and np.all(out.probs <= 1.0)
            np.testing.assert_allclose(out.probs.sum(), 1.0, atol=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            smoothed_label(LabelDist(np.array([0.4, 0.6])), 1.2)
        with pytest.raises(ValueError):
            smoothed_label(LabelDist(np.array([1.2, -0.2]), signed=True), 0.1)


class TestCompareLsLc:
    def test_anchor_cases(self):
        dist_up = LabelDist(np.array([0.4, 0.6]))
        assert compare_ls_lc(dist_up, 1, SYMM_02, 0.1) is Comparison.LC_BETTER
        dist_down = LabelDist(np.array([0.6, 0.4]))
        assert compare_ls_lc(dist_down, 1, SYMM_02, 0.1) is Comparison.LS_BETTER
        split = LabelDist(np.array([0.5, 0.5]))
        assert compare_ls_lc(split, 1, SYMM_02, 0.1) is Comparison.TIE
        assert compare_ls_lc(split, -1, SYMM_02, 0.1) is Comparison.TIE

    def test_majority_rule_under_equal_rates(self):
        rng = np.random.default_rng(51)
        for _ in range(2000):
            p_plus = float(rng.uniform(0.0, 1.0))
            if abs(p_plus - 0.5) < 1e-6:
                continue
            dist = LabelDist(np.array([1.0 - p_plus, p_plus]))
            e = float(rng.uniform(0.0, 0.49))
            a = float(rng.uniform(0.01, 0.99))
            for y in (1, -1):
                want = Comparison.LC_BETTER if dist.prob_of(y) > 0.5 else Comparison.LS_BETTER
                assert compare_ls_lc(dist, y, BinaryNoiseRates(e, e), a) is want

    def test_unequal_rates_can_flip_the_majority_rule(self):
        # with heavy contamination of the +1 pool, the correction distrusts
        # the observed majority and smoothing wins despite it
        dist = LabelDist(np.array([0.4, 0.6]))
        rates = BinaryNoiseRates(0.1, 0.5)
        raw = corrected_label(dist, rates).raw
        np.testing.assert_allclose(raw.probs[1], 0.25, rtol=1e-12)
        assert compare_ls_lc(dist, 1, rates, 0.1) is Comparison.LS_BETTER

    def test_unequal_rates_break_the_even_split_tie(self):
        dist = LabelDist(np.array([0.5, 0.5]))
        rates = BinaryNoiseRates(0.1, 0.3)
        raw = corrected_label(dist, rates).raw
        np.testing.assert_allclose(raw.probs[1], 1.0 / 3.0, rtol=1e-12)
        assert compare_ls_lc(dist, 1, rates, 0.1) is Comparison.LS_BETTER
        assert compare_ls_lc(dist, -1, rates, 0.1) is Comparison.LC_BETTER

    def test_comparison_tracks_the_actual_errors(self):
        # away from the tie point the enum must agree with the two error
        # numbers it summarizes
        rng = np.random.default_rng(53)
        for _ in range(500):
            p_plus = float(rng.uniform(0.05, 0.95))
            if abs(p_plus - 0.5) < 1e-3:
                continue
            dist = LabelDist(np.array([1.0 - p_plus, p_plus]))
            rates = _random_rates(rng)
            a = float(rng.uniform(0.05, 0.5))
            err_lc = memorization_error(corrected_label(dist, rates).capped, 1)
            err_ls = memorization_error(smoothed_label(dist, a), 1)
            got = compare_ls_lc(dist, 1, rates, a)
            if err_lc < err_ls:
                assert got is Comparison.LC_BETTER
            elif err_ls < err_lc:
                assert got is Comparison.LS_BETTER

    def test_parameter_validation(self):
        dist = LabelDist(np.array([0.4, 0.6]))
        # a is a scenario's smoothing_a, open at both ends, though smoothed_label takes 0 and 1
        with pytest.raises(ValueError, match="^a: must be > 0.0, got 0.0$"):
            compare_ls_lc(dist, 1, SYMM_02, 0.0)
        with pytest.raises(ValueError, match="^a: must be < 1.0, got 1.0$"):
            compare_ls_lc(dist, 1, SYMM_02, 1.0)
        with pytest.raises(ValueError):
            compare_ls_lc(LabelDist(np.ones(3) / 3.0), 0, SYMM_02, 0.1)


class TestPeerPredict:
    def test_margin_decides(self):
        up = peer_predict(LabelDist(np.array([0.4, 0.6])), 0.5)
        assert up.predicted == 1 and not up.tie
        np.testing.assert_allclose(up.margin, 0.1, atol=1e-15)
        down = peer_predict(LabelDist(np.array([0.6, 0.4])), 0.5)
        assert down.predicted == -1 and not down.tie
        np.testing.assert_allclose(down.margin, -0.1, atol=1e-15)

    def test_tie_rules(self):
        # a zero margin, or one within the tie tolerance, ties and predicts +1
        flat = LabelDist(np.array([0.5, 0.5]))
        for rate in (0.5, 0.5 + 1e-13, 0.5 - 1e-13):
            decision = peer_predict(flat, rate)
            assert decision.tie and decision.predicted == 1

    def test_decision_invariants(self):
        with pytest.raises(ValueError):
            PeerDecision(predicted=0, margin=0.1, tie=False)
        with pytest.raises(ValueError):
            PeerDecision(predicted=1, margin=0.0, tie=False)
        with pytest.raises(ValueError):
            peer_predict(LabelDist(np.array([0.4, 0.6])), 1.5)


class TestPeerExpectedLoss:
    def test_kl_identity_on_random_joints(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n_x = int(rng.integers(2, 5))
            joint = _random_joint(rng, n_x)
            predictor = _random_predictor(rng, n_x)
            for q_min in (1e-3, 1e-6):
                out = peer_expected_loss(joint, predictor, q_min=q_min)
                np.testing.assert_allclose(
                    out.value, out.kl_model_vs_joint - out.kl_model_vs_product, atol=1e-10
                )

    def test_independent_joint_is_exactly_zero(self):
        # dyadic marginals keep the conditional bitwise equal to the label
        # marginal, so the two cross-entropy terms cancel exactly
        px = np.array([0.25, 0.25, 0.5])
        py = np.array([0.375, 0.625])
        joint = np.outer(px, py)
        predictor = _random_predictor(np.random.default_rng(57), 3)
        out = peer_expected_loss(joint, predictor)
        assert out.value == 0.0
        assert out.kl_model_vs_joint == out.kl_model_vs_product

    def test_independent_joint_general_marginals(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            px = rng.dirichlet(np.ones(3))
            py = rng.dirichlet(np.ones(2))
            out = peer_expected_loss(np.outer(px, py), _random_predictor(rng, 3))
            np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_perfect_memorizer_attains_minus_mutual_information(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            joint = _random_joint(rng, 3)
            cond = joint / joint.sum(axis=1, keepdims=True)
            out = peer_expected_loss(joint, cond, q_min=1e-12)
            np.testing.assert_allclose(out.value, -_mutual_information(joint), atol=1e-9)

    def test_input_validation(self):
        rng = np.random.default_rng(63)
        with pytest.raises(ValueError):
            peer_expected_loss(np.array([[0.5, 0.6]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            peer_expected_loss(_random_joint(rng, 2), np.array([[0.9, 0.2], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="^q_min: must be < 0.5, got 0.6$"):
            peer_expected_loss(_random_joint(rng, 2), _random_predictor(rng, 2), q_min=0.6)
        with pytest.raises(ValueError, match="^q_min: must be > 0.0, got 0.0$"):
            peer_expected_loss(_random_joint(rng, 2), _random_predictor(rng, 2), q_min=0.0)
        # the tables are binary: an (X, 3) pair, or a flat one, is no peer table
        for joint, predictor in ((_random_joint(rng, 2, 3), _random_predictor(rng, 2, 3)),
                                 (np.array([0.5, 0.5]), np.array([0.5, 0.5]))):
            with pytest.raises(ValueError, match="^joint and predictor must be matching \\(X, 2\\) tables"):
                peer_expected_loss(joint, predictor)
        # NaN passes the sign and sum checks, so each table is checked finite first
        nan = float("nan")
        with pytest.raises(ValueError, match="^joint entries must be finite$"):
            peer_expected_loss([[0.2, nan], [0.4, 0.1]], np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="^predictor entries must be finite$"):
            peer_expected_loss([[0.2, 0.3], [0.4, 0.1]], [[0.5, 0.5], [nan, 0.5]])


class TestPeerObjectiveGeometry:
    def test_boundary_argmin_anchors(self):
        q_min = 1e-3
        up = peer_vertex_check(LabelDist(np.array([0.4, 0.6])), 0.5, q_min=q_min)
        np.testing.assert_allclose(up, 1.0 - q_min, atol=1e-15)
        down = peer_vertex_check(LabelDist(np.array([0.6, 0.4])), 0.5, q_min=q_min)
        np.testing.assert_allclose(down, q_min, atol=1e-15)

    def test_zero_margin_objective_is_flat(self):
        grid = np.linspace(1e-3, 1.0 - 1e-3, 1001)
        objective = _peer_instance_objective(LabelDist(np.array([0.5, 0.5])), 0.5, grid)
        assert np.ptp(objective) <= 1e-12

    def test_interior_never_wins_off_the_tie(self):
        rng = np.random.default_rng(73)
        q_min = 1e-3
        for _ in range(1000):
            p_plus = float(rng.uniform(0.0, 1.0))
            rate = float(rng.uniform(0.0, 1.0))
            if abs(p_plus - rate) <= 1e-9:
                continue
            got = peer_vertex_check(LabelDist(np.array([1.0 - p_plus, p_plus])), rate, q_min=q_min)
            assert got in (q_min, 1.0 - q_min)
            # and the winning side follows the margin sign
            assert got == (1.0 - q_min if p_plus > rate else q_min)

    def test_objective_value_matches_direct_formula(self):
        dist = LabelDist(np.array([0.3, 0.7]))
        q = 0.25
        got = _peer_instance_objective(dist, 0.5, q)
        direct = (
            -(0.7 * math.log(q) + 0.3 * math.log(1 - q))
            + (0.5 * math.log(q) + 0.5 * math.log(1 - q))
        )
        np.testing.assert_allclose(got, direct, rtol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            peer_vertex_check(LabelDist(np.array([0.4, 0.6])), 0.5, grid_points=2)


def _paradox_gap(labels, rates, loss, y):
    # corrected empirical loss minus the clean loss l(y): the unbiasedness
    # argument assumes a model independent of the draws, which a memorizing
    # model is not, and this is the per-instance discrepancy
    return lc_empirical_loss(labels, rates, loss) - float(loss[_label_to_index(y)])


class TestParadoxGap:
    def test_posterior_matching_labels_close_the_gap(self):
        # four +1s in five draws is exactly the noisy posterior of y = +1 under 0.2
        rng = np.random.default_rng(75)
        for _ in range(50):
            loss = rng.uniform(-3.0, 3.0, size=2)
            gap = _paradox_gap([1, 1, 1, 1, -1], SYMM_02, loss, 1)
            np.testing.assert_allclose(gap, 0.0, atol=1e-14)

    def test_anchor_gap(self):
        got = _paradox_gap([1, 1, -1], SYMM_02, [2.0, 0.1], 1)
        np.testing.assert_allclose(got, 0.4222222222222223, rtol=1e-12)
        np.testing.assert_allclose(got, 0.422222, atol=5e-7)

    def test_zero_noise_all_correct_is_exact_zero(self):
        clean = BinaryNoiseRates(0.0, 0.0)
        assert _paradox_gap([1, 1, 1], clean, [2.0, 0.1], 1) == 0.0
        assert _paradox_gap([-1, -1], clean, [2.0, 0.1], -1) == 0.0
