"""Empirical binary label distributions and the memorizing predictor's error.

memorization_error is pinned to the exact identity 1 - probs[y], label
counting to integer-valued -1/+1 labels, and one instance's impact floor,
tau_lower_large times memorization_error, to frozen hand-computed products.
"""
import numpy as np
import pytest

from noisylab import (
    InstanceNoiseSynth,
    LabelDist,
    PriorSpec,
    empirical_distribution,
    memorization_error,
    tau_lower_large,
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
        with pytest.raises(ValueError):
            LabelDist(np.ones(3) / 3.0)

    def test_prob_lookup_binary_convention(self):
        d = LabelDist(np.array([0.3, 0.7]))
        assert d.prob_of(-1) == 0.3
        assert d.prob_of(1) == 0.7


@pytest.mark.parametrize("build, field, edit", [
    (LabelDist, "probs", [5.0, -4.0]),
    (PriorSpec, "values", [0.0, 2.0]),
    (lambda w: InstanceNoiseSynth(0.2, w), "w", [np.nan, np.inf]),
], ids=["LabelDist", "PriorSpec", "InstanceNoiseSynth"])
def test_frozen_objects_own_a_read_only_copy_of_their_array(build, field, edit):
    given = np.array([0.3, 0.7])
    held = build(given)
    given[:] = edit
    np.testing.assert_array_equal(getattr(held, field), [0.3, 0.7])
    with pytest.raises(ValueError):
        getattr(held, field)[0] = 0.5
    np.testing.assert_array_equal(getattr(held, field), [0.3, 0.7])


class TestEmpiricalDistribution:
    def test_binary_counts(self):
        d = empirical_distribution([1, 1, -1])
        np.testing.assert_allclose(d.probs, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_one_hot_is_exact(self):
        d = empirical_distribution([-1] * 7)
        np.testing.assert_array_equal(d.probs, [1.0, 0.0])

    def test_binary_convention_takes_precedence(self):
        # labels are -1/+1, never class indices: 1 is the +1 class
        d = empirical_distribution([1, 1, 1])
        assert d.prob_of(1) == 1.0

    def test_mixed_or_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution([-1, 3])
        with pytest.raises(ValueError):
            empirical_distribution([])
        with pytest.raises(ValueError):
            empirical_distribution([0, 1])

    def test_non_integer_labels_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integer"):
            _label_counts(np.array([1.5, -1.0]))
        with pytest.raises(ValueError, match="integer"):
            empirical_distribution([1.9, -1])
        with pytest.raises(ValueError, match="integer"):
            empirical_distribution([-1.0, 0.5])
        np.testing.assert_array_equal(_label_counts(np.array([1.0, -1.0, 1.0])), [1, 2])

    def test_bool_labels_rejected_as_a_scalar_label_is(self):
        # numpy reads True as 1: without the check a bool array counts as +1 labels, and a
        # list mixing bools and numbers turns into numbers before any dtype shows a bool
        for labels in ([True, True], np.array([False, True]), [True, -1], [True, 1.0],
                       [np.True_, -1], np.array([True, -1], dtype=object), [[-1], [False]]):
            with pytest.raises(ValueError, match="^labels must be -1 or \\+1, got bools$"):
                _label_counts(labels)
            with pytest.raises(ValueError, match="^labels must be -1 or \\+1, got bools$"):
                empirical_distribution(labels)
        np.testing.assert_array_equal(empirical_distribution([-1.0, 1.0, 1.0, 1.0]).probs, [0.25, 0.75])


class TestMemorizationError:
    def test_exact_complement_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            raw = rng.dirichlet(np.ones(2))
            d = LabelDist(raw / raw.sum())
            y = int(rng.choice([-1, 1]))
            assert memorization_error(d, y) == 1.0 - d.probs[(y + 1) // 2]

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

    @pytest.mark.parametrize("y", [True, False, 1.0, -1.0, 0, 2])
    def test_only_the_two_integer_labels_are_labels(self, y):
        # a bool or a float equal to a label is rejected, not read as that label
        d = LabelDist(np.array([0.3, 0.7]))
        with pytest.raises(ValueError, match=f"y: must be -1 or 1, got {y!r}"):
            memorization_error(d, y)
        assert memorization_error(d, np.int64(1)) == memorization_error(d, 1)


class TestImpactLowerBound:
    # one instance's excess is at least the large-regime tau floor times the
    # memorizing predictor's error; both factors are public
    def test_anchor_product(self):
        # tau floor 0.4*(100*99)/(1e4*9999) = 3.9604e-5 times error 0.2
        d = LabelDist(np.array([0.2, 0.8]))
        got = tau_lower_large(10**4, 100, 1.0) * memorization_error(d, 1)
        np.testing.assert_allclose(got, 7.920792079207921e-06, rtol=1e-12)
        np.testing.assert_allclose(got, 7.9208e-6, rtol=1e-4)

    def test_zero_error_gives_zero(self):
        d = empirical_distribution([1, 1, 1])
        assert tau_lower_large(10**4, 100, 1.0) * memorization_error(d, 1) == 0.0
