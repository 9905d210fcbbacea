"""Empirical label distributions and excess-error accounting.

memorization_error is pinned to the exact identity 1 - probs[y]; the
aggregation layer is checked for permutation invariance and against frozen
hand-computed products.
"""
import numpy as np
import pytest

from noisylab import (
    ExcessRecord,
    LabelDist,
    argmax_error,
    empirical_distribution,
    impact_lower_bound,
    individual_excess,
    memorization_error,
    total_excess,
)
from noisylab.memorize import _label_counts


class TestLabelDist:
    def test_sum_to_one_enforced(self):
        with pytest.raises(ValueError):
            LabelDist(np.array([0.6, 0.5]))
        LabelDist(np.array([0.5, 0.5]))

    def test_range_enforced_unless_signed(self):
        with pytest.raises(ValueError):
            LabelDist(np.array([1.2, -0.2]))
        d = LabelDist(np.array([1.2, -0.2]), signed=True)
        assert d.signed

    def test_minimum_two_classes(self):
        with pytest.raises(ValueError):
            LabelDist(np.array([1.0]))

    def test_prob_lookup_binary_convention(self):
        d = LabelDist(np.array([0.3, 0.7]))
        assert d.prob_of(-1) == 0.3
        assert d.prob_of(1) == 0.7

    def test_prob_lookup_multiclass(self):
        d = LabelDist(np.array([0.2, 0.3, 0.5]))
        assert d.prob_of(2) == 0.5


class TestEmpiricalDistribution:
    def test_binary_counts(self):
        d = empirical_distribution([1, 1, -1])
        np.testing.assert_allclose(d.probs, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_one_hot_is_exact(self):
        d = empirical_distribution([-1] * 7)
        np.testing.assert_array_equal(d.probs, [1.0, 0.0])

    def test_multiclass_indices(self):
        d = empirical_distribution([0, 2, 2, 1], m=3)
        np.testing.assert_allclose(d.probs, [0.25, 0.25, 0.5], rtol=1e-15)

    def test_binary_convention_takes_precedence(self):
        # 0/1 labels in binary mode are read as indices only when a -1 or a
        # value >= m rules out the signed convention; all +/-1 means signed
        d = empirical_distribution([1, 1, 1])
        assert d.prob_of(1) == 1.0

    def test_mixed_or_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution([-1, 3])
        with pytest.raises(ValueError):
            empirical_distribution([])
        with pytest.raises(ValueError):
            empirical_distribution([0, 3], m=3)

    def test_non_integer_labels_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integer"):
            _label_counts(np.array([1.5, -1.0]))
        with pytest.raises(ValueError, match="integer"):
            empirical_distribution([1.9, -1])
        with pytest.raises(ValueError, match="integer"):
            empirical_distribution([0.0, 2.5], m=3)
        np.testing.assert_array_equal(_label_counts(np.array([1.0, -1.0, 1.0])), [1, 2])
        np.testing.assert_array_equal(empirical_distribution([0.0, 2.0], m=3).probs, [0.5, 0.0, 0.5])


class TestMemorizationError:
    def test_exact_complement_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            m = int(rng.integers(2, 6))
            raw = rng.dirichlet(np.ones(m))
            d = LabelDist(raw / raw.sum())
            y = int(rng.integers(0, m))
            assert memorization_error(d, y) == 1.0 - d.probs[y]

    def test_anchor_values(self):
        d = empirical_distribution([1, 1, -1, -1, 1])
        np.testing.assert_allclose(memorization_error(d, 1), 0.4, rtol=1e-15)
        np.testing.assert_allclose(memorization_error(d, -1), 0.6, rtol=1e-15)

    def test_zero_when_distribution_is_one_hot_at_y(self):
        d = empirical_distribution([1] * 9)
        assert memorization_error(d, 1) == 0.0

    def test_signed_distributions_rejected(self):
        d = LabelDist(np.array([1.2, -0.2]), signed=True)
        with pytest.raises(ValueError):
            memorization_error(d, 1)


class TestArgmaxError:
    def test_unique_mode(self):
        d = LabelDist(np.array([0.3, 0.7]))
        assert argmax_error(d, 1) == 0.0
        assert argmax_error(d, -1) == 1.0

    def test_tie_break_uniform(self):
        d = LabelDist(np.array([0.5, 0.5]))
        assert argmax_error(d, 1) == 0.5
        assert argmax_error(d, -1) == 0.5

    def test_three_way_tie(self):
        d = LabelDist(np.ones(3) / 3.0)
        np.testing.assert_allclose(argmax_error(d, 0), 2.0 / 3.0, rtol=1e-15)


class TestExcessAccounting:
    def test_individual_product(self):
        np.testing.assert_allclose(individual_excess(0.01, 0.3), 0.003, rtol=1e-15)
        assert individual_excess(0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            individual_excess(-0.1, 0.5)
        with pytest.raises(ValueError):
            individual_excess(0.1, 1.5)

    def test_record_carries_its_product(self):
        r = ExcessRecord(l=3, tau=0.02, err=0.25)
        np.testing.assert_allclose(r.individual_excess, 0.005, rtol=1e-15)
        with pytest.raises(ValueError):
            ExcessRecord(l=0, tau=0.02, err=0.25)

    def test_total_is_permutation_invariant(self):
        rng = np.random.default_rng(33)
        records = [
            ExcessRecord(
                l=int(rng.integers(1, 100)),
                tau=float(rng.uniform(0.0, 0.05)),
                err=float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(500)
        ]
        forward = total_excess(records)
        backward = total_excess(records[::-1])
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert forward == backward == total_excess(shuffled)

    def test_total_matches_direct_sum(self):
        records = [ExcessRecord(l=2, tau=0.01, err=0.5), ExcessRecord(l=3, tau=0.02, err=0.25)]
        np.testing.assert_allclose(total_excess(records), 0.01, rtol=1e-15)


class TestImpactLowerBound:
    def test_anchor_product(self):
        # tau floor 0.4*(100*99)/(1e4*9999) = 3.9604e-5 times error 0.2
        d = LabelDist(np.array([0.2, 0.8]))
        got = impact_lower_bound(10**4, 100, 1.0, d, 1)
        np.testing.assert_allclose(got, 7.920792079207921e-06, rtol=1e-12)
        np.testing.assert_allclose(got, 7.9208e-6, rtol=1e-4)

    def test_zero_error_gives_zero(self):
        d = empirical_distribution([1, 1, 1])
        assert impact_lower_bound(10**4, 100, 1.0, d, 1) == 0.0

    def test_single_appearance_degenerates_with_warning(self):
        d = LabelDist(np.array([0.2, 0.8]))
        with pytest.warns(UserWarning):
            assert impact_lower_bound(10**4, 1, 1.0, d, 1) == 0.0
