"""Factorization and score tests: convergence, monotonicity, determinism."""

import logging
import tracemalloc

import numpy as np
import pytest

from nmfprune.masking import (
    GammaSearchConfig, LayerThreshold, generate_all_masks, layer_thresholds, tune_gamma,
)
from nmfprune.nmf import NmfConfig, _check_matrix, factorize, score_layer


def rank_one_matrix(rng, m, p):
    u = rng.uniform(0.1, 1.0, (m, 1))
    v = rng.uniform(0.1, 1.0, (1, p))
    return u @ v


class TestFactorize:
    def test_rank_one_input_recovered(self):
        w = rank_one_matrix(np.random.default_rng(0), 30, 20)
        result = factorize(w, NmfConfig(k=1), seed=1)
        assert result.objective_trace[-1] <= 1e-6 * np.sum(w * w)

    def test_zero_matrix(self):
        result = factorize(np.zeros((4, 5)), NmfConfig(k=2), seed=0)
        assert np.all(result.objective_trace == 0.0)
        assert np.array_equal(result.f @ result.g, np.zeros((4, 5)))

    def test_objective_trace_non_increasing(self):
        w = np.random.default_rng(2).random((8, 6))
        result = factorize(w, NmfConfig(k=3), seed=3)
        trace = result.objective_trace
        assert len(trace) == 201
        assert np.all(trace[1:] <= trace[:-1] + 1e-9)

    def test_factors_nonnegative(self):
        w = np.random.default_rng(4).random((10, 7))
        result = factorize(w, NmfConfig(k=4), seed=5)
        assert np.all(result.f >= 0)
        assert np.all(result.g >= 0)

    def test_deterministic_bit_exact(self):
        w = np.random.default_rng(6).random((9, 9))
        cfg = NmfConfig(k=3)
        a = factorize(w, cfg, seed=42)
        b = factorize(w, cfg, seed=42)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            factorize(np.array([[1.0, -0.5]]), NmfConfig(k=1), seed=0)

    def test_rank_clamped_to_matrix_dims(self):
        w = np.random.default_rng(7).random((3, 5))
        result = factorize(w, NmfConfig(k=10), seed=0)
        assert result.k_eff == 3
        assert result.f.shape == (3, 3)
        assert result.g.shape == (3, 5)

    @pytest.mark.parametrize("k, warns", [(10, True), (4, True), (3, False)])
    def test_full_rank_warns(self, caplog, k, warns):
        w = np.random.default_rng(7).random((4, 6))
        with caplog.at_level(logging.WARNING, logger="nmfprune"):
            factorize(w, NmfConfig(k=k), seed=0)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        if warns:
            assert messages == [
                f"rank 4 (k = {k}) is the full rank of a 4x6 matrix: the fit is exact up to "
                "rounding and its scores are noise"
            ]
        else:
            assert messages == []

    def test_zero_rows_converge_to_zero_reconstruction(self):
        w = np.random.default_rng(8).random((6, 4))
        w[2, :] = 0.0
        result = factorize(w, NmfConfig(k=2), seed=1)
        recon = result.f @ result.g
        assert np.max(recon[2, :]) <= 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NmfConfig(k=0)
        with pytest.raises(ValueError):
            NmfConfig(k=1, n_iter=0)


class TestScoreLayer:
    def test_rank_one_scores_near_zero(self):
        rng = np.random.default_rng(10)
        w = rank_one_matrix(rng, 25, 15)
        signs = np.where(rng.random((25, 15)) < 0.5, -1.0, 1.0)
        scores = score_layer(w * signs, NmfConfig(k=1), "l", seed=2)
        assert scores.max() <= 1e-3 * np.abs(w).max()

    def test_zero_weights_zero_scores(self):
        scores = score_layer(np.zeros((3, 4)), NmfConfig(k=1), "l", seed=0)
        assert np.array_equal(scores, np.zeros((3, 4)))

    def test_sign_flip_invariance(self):
        w = np.random.default_rng(11).normal(size=(7, 9))
        cfg = NmfConfig(k=2)
        flipped = -w
        assert np.array_equal(score_layer(w, cfg, seed=9), score_layer(flipped, cfg, seed=9))

    def test_input_overwritten_with_its_absolute_value(self):
        w = np.random.default_rng(12).normal(size=(5, 5))
        w_abs = np.abs(w)
        score_layer(w, NmfConfig(k=2), seed=0)
        assert np.array_equal(w, w_abs)

    def test_in_place_factorizes_the_weights_buffer(self):
        w = np.random.default_rng(12).normal(size=(6, 5))
        w_abs = np.abs(w)
        result = factorize(w_abs.copy(), NmfConfig(k=2), seed=0)
        expected = np.abs(w_abs - result.f @ result.g)
        scores = score_layer(w, NmfConfig(k=2), seed=0)
        assert np.array_equal(scores, expected)
        assert np.array_equal(w, w_abs) and not np.shares_memory(scores, w)

    def test_scores_nonnegative_and_finite(self):
        w = np.random.default_rng(13).normal(size=(12, 8))
        scores = score_layer(w, NmfConfig(k=3), seed=1)
        assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
        assert np.all(scores >= 0)
        assert np.all(np.isfinite(scores))
        assert scores.shape == w.shape


class TestObjectiveTrace:
    @pytest.mark.parametrize("k", [1, 3])
    def test_non_negative_and_final_entry_matches_direct_norm(self, k):
        rng = np.random.default_rng(20)
        matrices = [rank_one_matrix(rng, 30, 20), rng.random((12, 9)), rng.random((40, 7)) ** 3]
        for i, w in enumerate(matrices):
            result = factorize(w, NmfConfig(k=k), seed=i)
            assert np.all(result.objective_trace >= 0.0)
            r = w - result.f @ result.g
            assert abs(result.objective_trace[-1] - np.sum(r * r)) <= 1e-12 * np.sum(w * w)


class TestMonotonicityProperty:
    def test_twenty_random_matrices(self):
        for i in range(20):
            rng = np.random.default_rng(100 + i)
            w = rng.random((rng.integers(2, 12), rng.integers(2, 12)))
            result = factorize(w, NmfConfig(k=3), seed=i)
            trace = result.objective_trace
            assert np.all(trace[1:] <= trace[:-1] + 1e-9), f"matrix {i} not monotone"


# Inputs every entry point rejects with a ValueError that names its argument
# or layer: factorization checks the weights it factorizes, and masking each
# layer's scores as it reads them.
BAD_MATRICES = {
    "nan": np.array([[1.0, np.nan]]),
    "inf": np.array([[np.inf, 1.0]]),
    "1d": np.ones(4),
    "empty": np.zeros((0, 3)),
    "int": np.ones((2, 2), dtype=np.int64),
}
ENTRY_POINTS = {
    "factorize": (lambda a: factorize(a, NmfConfig(k=1), seed=0), "w_abs"),
    "score_layer": (
        lambda a: score_layer(a, NmfConfig(k=1), "layer0_linear", seed=0),
        "layer0_linear: w_abs",
    ),
    "tune_gamma": (
        lambda a: tune_gamma({"layer0_linear": a}, "std", GammaSearchConfig(s_target=0.5)),
        "scores of 'layer0_linear'",
    ),
    "layer_thresholds": (
        lambda a: layer_thresholds({"layer0_linear": a}, "std", 1.0),
        "scores of 'layer0_linear'",
    ),
    "generate_all_masks": (
        lambda a: generate_all_masks(
            {"layer0_linear": a}, {"layer0_linear": LayerThreshold(0.0, 0.0, 1.0)}
        ),
        "scores of 'layer0_linear'",
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("bad", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
def test_entry_points_reject_bad_matrices(entry, bad):
    call, name = entry
    with pytest.raises(ValueError, match=f"^{name} "):
        call(bad)


class TestCheckMatrix:
    def test_allocates_nothing_the_size_of_the_matrix(self):
        a = np.random.default_rng(30).random((1000, 1000))
        _check_matrix(a, "a")  # NumPy's first-use allocations are not counted
        tracemalloc.start()
        try:
            _check_matrix(a, "a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejects_one_non_finite_entry(self, bad):
        a = np.ones((1000, 1000))
        a[500, 321] = bad
        with pytest.raises(ValueError, match=r"^a contains NaN or Inf$"):
            _check_matrix(a, "a")
