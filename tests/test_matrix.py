"""Matrix operation tests against independent loop/sort oracles."""

import math

import numpy as np
import pytest

from nmfprune.matrix import abs_map, check_matrix, frobenius_sq, lower_median, stats


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


class TestAbsMap:
    def test_sign_stripping(self):
        assert np.array_equal(abs_map(np.array([[-1.0, 2.0], [0.0, -3.0]])), [[1, 2], [0, 3]])

    def test_nonnegative_unchanged(self):
        a = np.array([[0.5, 0.0], [2.0, 7.0]])
        assert np.array_equal(abs_map(a), a)

    def test_idempotent_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(4, 6))
            once = abs_map(a)
            assert np.all(once >= 0)
            assert np.array_equal(abs_map(once), once)


class TestStats:
    def test_constant_matrix(self):
        st = stats(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert (st.mean, st.std, st.median, st.mad) == (1.0, 0.0, 1.0, 0.0)

    def test_hand_computed_odd_length(self):
        st = stats(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        assert st.mean == 3.0
        assert st.std == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert st.median == 3.0
        assert st.mad == 1.0

    def test_lower_median_for_even_counts(self):
        assert lower_median(np.array([[1.0, 2.0, 3.0, 4.0]])) == 2.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 10))
        st = stats(a)
        mean, std, median, mad = stats_oracle(a.ravel())
        assert abs(st.mean - mean) <= 1e-12
        assert abs(st.std - std) <= 1e-12
        assert st.median == median
        assert st.mad == mad

    def test_oracle_on_even_sizes(self):
        rng = np.random.default_rng(5)
        for shape in [(1, 2), (2, 2), (3, 4), (8, 8)]:
            a = rng.normal(size=shape)
            st = stats(a)
            mean, std, median, mad = stats_oracle(a.ravel())
            assert abs(st.mean - mean) <= 1e-12
            assert abs(st.std - std) <= 1e-12
            assert st.median == median
            assert st.mad == mad

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats(np.zeros((0, 3)))


class TestFrobeniusSq:
    def test_zero_matrix(self):
        assert frobenius_sq(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_sq(np.array([[3.0, 4.0]])) == 25.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(6, 5))
        expected = math.fsum(float(v) ** 2 for v in a.ravel())
        assert abs(frobenius_sq(a) - expected) <= 1e-12


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            check_matrix(np.array([[1.0, float("nan")]]))

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            abs_map(np.array([[np.inf, 1.0]]))

    def test_no_nan_escapes_finite_inputs(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4))
        assert np.all(np.isfinite(abs_map(a)))
        st = stats(a)
        assert all(np.isfinite(v) for v in (st.mean, st.std, st.median, st.mad))
        assert np.isfinite(frobenius_sq(a))
