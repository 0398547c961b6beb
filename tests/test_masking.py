"""Threshold, mask, sparsity accounting, and gamma-search tests."""

import logging
import math

import numpy as np
import pytest

from nmfprune import masking
from nmfprune.masking import (
    GammaSearchConfig,
    Mask,
    ThresholdConfig,
    generate_all_masks,
    generate_mask,
    global_sparsity,
    layer_threshold,
    tune_gamma,
)
from nmfprune.nmf import ScoreMatrix


def sm(values, layer_id="l"):
    return ScoreMatrix(layer_id, np.array(values, dtype=np.float64))


def quantile_oracle_sparsity(score_sets, t_type, gamma):
    """Per-layer sort-based threshold oracle: recompute every statistic by
    sorting and scanning, count strictly-below entries with a flat loop."""
    zeros = total = 0
    for scores in score_sets:
        xs = sorted(scores.ravel().tolist())
        n = len(xs)
        mean = math.fsum(xs) / n
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / n)
        median = xs[(n - 1) // 2]
        mad = sorted(abs(x - median) for x in xs)[(n - 1) // 2]
        tau = mean + gamma * std if t_type == "std" else median + gamma * mad
        zeros += sum(1 for x in xs if x < tau)
        total += n
    return zeros, total


class TestLayerThreshold:
    def test_constant_scores_collapse_to_constant(self):
        scores = sm([[4.0, 4.0], [4.0, 4.0]])
        for gamma in (0.0, 1.0, 7.5):
            assert layer_threshold(scores, ThresholdConfig("std", gamma)) == 4.0

    def test_std_hand_computed(self):
        scores = sm([[1.0, 2.0, 3.0, 4.0, 5.0]])
        tau = layer_threshold(scores, ThresholdConfig("std", 1.0))
        assert tau == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-12)

    def test_mad_hand_computed(self):
        scores = sm([[1.0, 2.0, 3.0, 4.0, 5.0]])
        assert layer_threshold(scores, ThresholdConfig("mad", 2.0)) == 5.0

    def test_t_type_case_insensitive(self):
        scores = sm([[1.0, 2.0, 3.0]])
        assert layer_threshold(scores, ThresholdConfig("STD", 0.0)) == 2.0

    def test_unknown_t_type_rejected(self):
        with pytest.raises(ValueError, match="unknown threshold type"):
            ThresholdConfig("mean", 1.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ThresholdConfig("std", -0.1)


class TestGenerateMask:
    def test_threshold_below_min_keeps_all(self):
        mask = generate_mask(sm([[1.0, 2.0], [3.0, 4.0]]), 0.5)
        assert np.array_equal(mask.bits, np.ones((2, 2)))

    def test_threshold_above_max_prunes_all(self):
        mask = generate_mask(sm([[1.0, 2.0], [3.0, 4.0]]), 5.0)
        assert np.array_equal(mask.bits, np.zeros((2, 2)))

    def test_tie_is_kept(self):
        mask = generate_mask(sm([[1.0, 2.0], [3.0, 4.0]]), 3.0)
        assert np.array_equal(mask.bits, [[0.0, 0.0], [1.0, 1.0]])

    def test_bits_are_exactly_zero_or_one(self):
        scores = sm(np.random.default_rng(0).random((6, 6)))
        mask = generate_mask(scores, 0.5)
        assert set(np.unique(mask.bits)) <= {0.0, 1.0}

    def test_deterministic(self):
        scores = sm(np.random.default_rng(1).random((5, 5)))
        assert np.array_equal(generate_mask(scores, 0.3).bits, generate_mask(scores, 0.3).bits)

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            generate_mask(sm([[1.0]]), float("nan"))


class TestGlobalSparsity:
    def test_single_layer(self):
        report = global_sparsity({"a": Mask("a", np.array([[0.0, 0.0], [1.0, 1.0]]))})
        assert report.global_sparsity == 0.5
        assert report.global_zeros == 2
        assert report.global_total == 4

    def test_weighted_pooling(self):
        masks = {
            "small": Mask("small", np.concatenate([np.zeros(5), np.ones(5)]).reshape(1, 10)),
            "large": Mask("large", np.concatenate([np.zeros(45), np.ones(45)]).reshape(9, 10)),
        }
        report = global_sparsity(masks)
        assert report.global_sparsity == 0.5
        assert report.per_layer["small"].zeros == 5
        assert report.per_layer["large"].zeros == 45

    def test_matches_flat_scan_oracle(self):
        rng = np.random.default_rng(2)
        masks = {
            f"l{i}": Mask(f"l{i}", (rng.random((rng.integers(2, 9), rng.integers(2, 9))) < 0.5).astype(float))
            for i in range(5)
        }
        report = global_sparsity(masks)
        zeros = sum(1 for m in masks.values() for v in m.bits.ravel() if v == 0.0)
        total = sum(m.bits.size for m in masks.values())
        assert report.global_zeros == zeros
        assert report.global_total == total
        assert report.global_sparsity == zeros / total
        assert sum(ls.zeros for ls in report.per_layer.values()) == zeros

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            global_sparsity({})


class TestTuneGamma:
    def test_random_scores_hit_target(self):
        scores = {"l": ScoreMatrix("l", np.random.default_rng(3).random((64, 64)))}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8))
        assert result.hit_target
        assert abs(result.achieved - 0.8) <= 0.005
        assert result.iterations <= 30
        # Same thresholds => same masks: the sort-based oracle agrees exactly.
        zeros, total = quantile_oracle_sparsity(
            [scores["l"].scores], "std", result.gamma_star
        )
        assert result.achieved == zeros / total

    def test_constant_scores_return_guess_with_warning(self):
        scores = {
            "a": ScoreMatrix("a", np.full((8, 8), 2.0)),
            "b": ScoreMatrix("b", np.full((4, 4), 0.5)),
        }
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8, gamma_guess=1.0))
        assert result.gamma_star == 1.0
        assert result.achieved == 0.0
        assert not result.hit_target
        assert all(t.achieved == 0.0 for t in result.trace)

    def test_gamma_shared_thresholds_per_layer(self):
        rng = np.random.default_rng(4)
        scores = {
            "a": ScoreMatrix("a", rng.random((32, 32))),
            "b": ScoreMatrix("b", rng.random((32, 32)) * 10.0),
        }
        result = tune_gamma(scores, "mad", GammaSearchConfig(s_target=0.7))
        masks = generate_all_masks(scores, "mad", result.gamma_star)
        report = global_sparsity(masks)
        assert abs(report.global_sparsity - result.achieved) == 0.0
        # Layer thresholds differ through each layer's own statistics.
        cfg = ThresholdConfig("mad", result.gamma_star)
        assert layer_threshold(scores["a"], cfg) != layer_threshold(scores["b"], cfg)

    def test_sweep_monotone_in_gamma(self):
        scores = {"l": ScoreMatrix("l", np.random.default_rng(5).random((48, 48)))}
        achieved = []
        for gamma in np.linspace(0.01, 10.0, 50):
            masks = generate_all_masks(scores, "std", float(gamma))
            achieved.append(global_sparsity(masks).global_sparsity)
        assert all(b >= a for a, b in zip(achieved, achieved[1:]))

    def test_trace_records_probes_and_bracket(self):
        scores = {"l": ScoreMatrix("l", np.random.default_rng(6).random((64, 64)))}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.9))
        assert result.trace[0].iteration == 0
        assert result.trace[0].gamma == 1.0  # the initial guess evaluation
        mids = result.trace[1:]
        assert [t.iteration for t in mids] == list(range(1, len(mids) + 1))
        for t in mids:
            assert t.gamma_low < t.gamma < t.gamma_high

    def test_unreachable_target_returns_best_so_far(self):
        # Two distinct score values: achievable sparsities are only {0, 0.5, ~1}.
        bits = np.concatenate([np.full(32, 1.0), np.full(32, 2.0)]).reshape(8, 8)
        scores = {"l": ScoreMatrix("l", bits)}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.75))
        assert not result.hit_target
        assert result.achieved in (0.0, 0.5, 1.0)
        assert abs(result.achieved - 0.75) == min(
            abs(s - 0.75) for s in {t.achieved for t in result.trace}
        )

    def test_a_miss_logs_one_warning_and_a_hit_none(self, caplog):
        hit = {"l": ScoreMatrix("l", np.random.default_rng(3).random((64, 64)))}
        missed = {"l": ScoreMatrix("l", np.full((8, 8), 2.0))}
        with caplog.at_level(logging.WARNING, logger="nmfprune.masking"):
            assert tune_gamma(hit, "std", GammaSearchConfig(s_target=0.8)).hit_target
            assert caplog.records == []
            result = tune_gamma(missed, "std", GammaSearchConfig(s_target=0.8))
        [record] = caplog.records
        assert (record.name, record.levelno) == ("nmfprune.masking", logging.WARNING)
        assert record.getMessage() == (
            "sparsity target 0.8 missed: the gamma search achieved 0.0000 "
            f"after {result.iterations} iterations"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GammaSearchConfig(s_target=1.5)
        with pytest.raises(ValueError):
            GammaSearchConfig(s_target=0.5, gamma_min=5.0, gamma_max=1.0)
        with pytest.raises(ValueError):
            GammaSearchConfig(s_target=0.5, n_search=0)
        with pytest.raises(ValueError):
            GammaSearchConfig(s_target=0.5, epsilon_sparsity=0.0)
        with pytest.raises(ValueError, match="gamma_guess must be >= 0"):
            GammaSearchConfig(s_target=0.5, gamma_guess=-0.5)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="no score"):
            tune_gamma({}, "std", GammaSearchConfig(s_target=0.5))

    def test_stats_computed_once_per_layer_per_search(self, monkeypatch):
        calls = []

        center_spread = masking._center_spread

        def counting_center_spread(a, t_type):
            calls.append(id(a))
            return center_spread(a, t_type)

        monkeypatch.setattr(masking, "_center_spread", counting_center_spread)
        rng = np.random.default_rng(8)
        scores = {lid: ScoreMatrix(lid, rng.random((24, 16))) for lid in ("a", "b", "c")}
        for t_type in ("std", "mad"):
            calls.clear()
            result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.6))
            assert len(result.trace) > 1
            assert sorted(calls) == sorted(id(sm.scores) for sm in scores.values())


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_every_probe_matches_the_mask_path(t_type):
    # The search's per-probe count and the final masks cannot drift apart.
    rng = np.random.default_rng(9)
    scores = {
        "a": ScoreMatrix("a", rng.random((40, 30))),
        "b": ScoreMatrix("b", rng.exponential(3.0, (20, 50))),
        "c": ScoreMatrix("c", rng.normal(size=(16, 16)) ** 2),
    }
    result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.75, epsilon_sparsity=1e-4))
    assert len(result.trace) > 3
    for entry in result.trace:
        masks = generate_all_masks(scores, t_type, entry.gamma)
        assert entry.achieved == global_sparsity(masks).global_sparsity
