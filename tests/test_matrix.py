"""Score-matrix statistics and checks against independent sort oracles.

The threshold rules read a center and a spread of a layer's scores: mean and
population std, or lower median and unscaled MAD. They are tested through
``layer_threshold``: at gamma = 0 it returns the center, at gamma = 1 the
center plus the spread.
"""

import math

import numpy as np
import pytest

from nmfprune import masking
from nmfprune.masking import ThresholdConfig, layer_threshold
from nmfprune.nmf import ScoreMatrix
from nmfprune.pipeline import score_magnitude


def stats_oracle(values):
    """Sort-and-scan reference for mean/std/median/mad."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    mean = math.fsum(xs) / n
    var = math.fsum((x - mean) ** 2 for x in xs) / n
    median = xs[(n - 1) // 2]
    deviations = sorted(abs(x - median) for x in xs)
    mad = deviations[(n - 1) // 2]
    return mean, math.sqrt(var), median, mad


def two_copy_median_mad(a):
    """Lower median and MAD from two partitioned copies: the median's, then
    |a - median|'s. ``_center_spread`` reuses one copy in place."""
    flat = a.ravel()
    k = (flat.size - 1) // 2
    median = float(np.partition(flat, k)[k])
    return median, float(np.partition(np.abs(flat - median), k)[k])


def threshold(values, t_type, gamma):
    scores = ScoreMatrix("l", np.asarray(values, dtype=np.float64))
    return layer_threshold(scores, ThresholdConfig(t_type, gamma))


def assert_matches_oracle(a):
    mean, std, median, mad = stats_oracle(a.ravel())
    assert abs(threshold(a, "std", 0.0) - mean) <= 1e-12
    assert abs(threshold(a, "std", 1.0) - (mean + std)) <= 1e-12
    assert threshold(a, "mad", 0.0) == median
    assert threshold(a, "mad", 1.0) == median + 1.0 * mad


class TestStats:
    def test_constant_matrix(self):
        for t_type in ("std", "mad"):
            for gamma in (0.0, 1.0):
                assert threshold([[1.0, 1.0], [1.0, 1.0]], t_type, gamma) == 1.0

    def test_hand_computed_odd_length(self):
        a = [[1.0, 2.0, 3.0, 4.0, 5.0]]
        assert threshold(a, "std", 0.0) == 3.0
        # Population std sqrt(2), not the sample std sqrt(2.5).
        assert threshold(a, "std", 1.0) == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-15)
        assert threshold(a, "mad", 0.0) == 3.0
        # Unscaled MAD 1, not 1.4826 (the normal-consistency factor).
        assert threshold(a, "mad", 1.0) == 4.0

    def test_lower_median_for_even_counts(self):
        assert threshold([[1.0, 2.0, 3.0, 4.0]], "mad", 0.0) == 2.0

    def test_matches_sort_oracle(self):
        assert_matches_oracle(np.random.default_rng(4).normal(size=(5, 10)))

    def test_oracle_on_even_sizes(self):
        rng = np.random.default_rng(5)
        for shape in [(1, 2), (2, 2), (3, 4), (8, 8)]:
            assert_matches_oracle(rng.normal(size=shape))

    def test_in_place_mad_matches_two_copy_formula(self):
        rng = np.random.default_rng(6)
        cases = [rng.normal(size=shape) for shape in [(1, 1), (1, 2), (3, 5), (4, 6), (31, 17)]]
        cases += [rng.integers(0, 4, size=shape).astype(np.float64) for shape in [(5, 7), (6, 8)]]
        cases.append(rng.exponential(size=(6, 9)).T)  # a strided view
        for a in cases:
            before = a.copy()
            assert masking._center_spread(a, "mad") == two_copy_median_mad(a), a.shape
            assert np.array_equal(a, before)  # the caller's scores are left alone

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="scores of 'l' must have at least one row"):
            ScoreMatrix("l", np.zeros((0, 3)))


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="^scores of 'layer0_linear' contains NaN or Inf$"):
            ScoreMatrix("layer0_linear", np.array([[1.0, float("nan")]]))

    def test_inf_rejected(self):
        # The magnitude scorer's scores are checked where they are built, too.
        with pytest.raises(ValueError, match="^scores of 'layer2_linear' contains NaN or Inf$"):
            score_magnitude(np.array([[-np.inf, 1.0]]), "layer2_linear")
