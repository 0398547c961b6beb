"""Threshold, mask, sparsity accounting, and gamma-search tests."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from nmfprune import masking
from nmfprune.masking import (
    GammaSearchConfig,
    LayerThreshold,
    ThresholdConfig,
    generate_all_masks,
    layer_thresholds,
    sparsity_report,
    tune_gamma,
)
from nmfprune.network import Linear, ReLU, convert_to_masked, init_network


def f64(values):
    return np.array(values, dtype=np.float64)


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


def tau(scores, t_type, gamma):
    """The one layer's tau that ``layer_thresholds`` hands to the masks."""
    return layer_thresholds({"l": scores}, t_type, gamma)["l"].tau


def masks_at(scores, threshold):
    """The bool mask ``generate_all_masks`` makes of one layer whose tau is
    ``threshold``."""
    return generate_all_masks({"l": scores}, {"l": LayerThreshold(0.0, 0.0, threshold)})["l"]


class TestLayerThreshold:
    def test_constant_scores_collapse_to_constant(self):
        scores = f64([[4.0, 4.0], [4.0, 4.0]])
        for gamma in (0.0, 1.0, 7.5):
            assert tau(scores, "std", gamma) == 4.0

    def test_std_hand_computed(self):
        scores = f64([[1.0, 2.0, 3.0, 4.0, 5.0]])
        [(lid, threshold)] = layer_thresholds({"a": scores}, "std", 1.0).items()
        assert lid == "a"
        assert (threshold.center, threshold.spread) == (3.0, math.sqrt(2.0))
        assert threshold.tau == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-12)

    def test_mad_hand_computed(self):
        scores = f64([[1.0, 2.0, 3.0, 4.0, 5.0]])
        assert layer_thresholds({"a": scores}, "mad", 2.0) == {"a": LayerThreshold(3.0, 1.0, 5.0)}

    def test_t_type_case_insensitive(self):
        scores = f64([[1.0, 2.0, 3.0]])
        assert tau(scores, "STD", 0.0) == 2.0

    def test_unknown_t_type_rejected(self):
        with pytest.raises(ValueError, match="unknown threshold type"):
            ThresholdConfig("mean", 1.0)
        with pytest.raises(ValueError, match="unknown threshold type"):
            layer_thresholds({"a": f64([[1.0]])}, "mean", 1.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            ThresholdConfig("std", -0.1)
        with pytest.raises(ValueError, match="gamma"):
            layer_thresholds({"a": f64([[1.0]])}, "std", -0.1)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite and >= 0"):
            ThresholdConfig("std", gamma)
        with pytest.raises(ValueError, match="^gamma must be finite and >= 0"):
            layer_thresholds({"a": f64([[1.0, 2.0]])}, "mad", gamma)


class TestGenerateMask:
    def test_threshold_below_min_keeps_all(self):
        mask = masks_at(f64([[1.0, 2.0], [3.0, 4.0]]), 0.5)
        assert np.array_equal(mask, np.ones((2, 2), dtype=bool))

    def test_threshold_above_max_prunes_all(self):
        mask = masks_at(f64([[1.0, 2.0], [3.0, 4.0]]), 5.0)
        assert np.array_equal(mask, np.zeros((2, 2), dtype=bool))

    def test_tie_is_kept(self):
        mask = masks_at(f64([[1.0, 2.0], [3.0, 4.0]]), 3.0)
        assert np.array_equal(mask, [[False, False], [True, True]])

    def test_bits_are_exactly_zero_or_one(self):
        scores = f64(np.random.default_rng(0).random((6, 6)))
        mask = masks_at(scores, 0.5)
        assert mask.dtype == np.bool_ and mask.shape == (6, 6)

    def test_deterministic(self):
        scores = f64(np.random.default_rng(1).random((5, 5)))
        assert np.array_equal(masks_at(scores, 0.3), masks_at(scores, 0.3))

    def test_bool_masks_attach_to_their_layers(self):
        net = init_network([Linear(6, 5), ReLU(), Linear(5, 4), ReLU(), Linear(4, 2)], seed=3)
        scores = {l.layer_id: np.abs(l.weights) for l in net.prunable_layers}
        masks = generate_all_masks(scores, layer_thresholds(scores, "std", 0.5))
        assert all(m.dtype == np.bool_ for m in masks.values())
        convert_to_masked(net, masks)
        for layer in net.prunable_layers:
            mask = masks[layer.layer_id]
            assert 0 < np.count_nonzero(mask) < mask.size
            assert np.array_equal(layer.mask, mask)
            assert np.array_equal(layer.weights != 0.0, mask)

    def test_non_finite_threshold_rejected(self):
        # A finite gamma whose tau overflows: 10 + 1e308 * 10 is inf. The
        # one place a tau is built rejects it, naming the layer.
        with pytest.raises(ValueError, match="^threshold of 'a' must be finite, got inf$"):
            layer_thresholds({"a": f64([[0.0, 20.0]])}, "std", 1e308)


class TestGlobalSparsity:
    def test_single_layer(self):
        report = sparsity_report({"a": np.array([[False, False], [True, True]])})
        assert report.global_sparsity == 0.5
        assert report.global_zeros == 2
        assert report.global_total == 4

    def test_weighted_pooling(self):
        masks = {
            "small": (np.arange(10) >= 5).reshape(1, 10),
            "large": (np.arange(90) >= 45).reshape(9, 10),
        }
        report = sparsity_report(masks)
        assert report.global_sparsity == 0.5
        assert report.per_layer["small"].zeros == 5
        assert report.per_layer["large"].zeros == 45

    def test_matches_flat_scan_oracle(self):
        rng = np.random.default_rng(2)
        masks = {
            f"l{i}": rng.random((rng.integers(2, 9), rng.integers(2, 9))) < 0.5 for i in range(5)
        }
        report = sparsity_report(masks)
        zeros = sum(1 for m in masks.values() for v in m.ravel() if not v)
        total = sum(m.size for m in masks.values())
        assert report.global_zeros == zeros
        assert report.global_total == total
        assert report.global_sparsity == zeros / total
        assert sum(ls.zeros for ls in report.per_layer.values()) == zeros

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sparsity_report({})


class TestTuneGamma:
    def test_random_scores_hit_target(self):
        scores = {"l": np.random.default_rng(3).random((64, 64))}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8))
        assert result.hit_target
        assert abs(result.achieved - 0.8) <= 0.005
        assert result.iterations <= 30
        # Same thresholds => same masks: the sort-based oracle agrees exactly.
        zeros, total = quantile_oracle_sparsity([scores["l"]], "std", result.gamma_star)
        assert result.achieved == zeros / total

    def test_constant_scores_return_guess_with_warning(self):
        scores = {"a": np.full((8, 8), 2.0), "b": np.full((4, 4), 0.5)}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8, gamma_guess=1.0))
        assert result.gamma_star == 1.0
        assert result.achieved == 0.0
        assert not result.hit_target
        assert all(t.achieved == 0.0 for t in result.trace)

    def test_gamma_shared_thresholds_per_layer(self):
        rng = np.random.default_rng(4)
        scores = {"a": rng.random((32, 32)), "b": rng.random((32, 32)) * 10.0}
        result = tune_gamma(scores, "mad", GammaSearchConfig(s_target=0.7))
        masks = generate_all_masks(scores, result.thresholds)
        report = sparsity_report(masks)
        assert abs(report.global_sparsity - result.achieved) == 0.0
        # Layer thresholds differ through each layer's own statistics.
        assert result.thresholds["a"].tau != result.thresholds["b"].tau

    def test_sweep_monotone_in_gamma(self):
        scores = {"l": np.random.default_rng(5).random((48, 48))}
        achieved = []
        for gamma in np.linspace(0.01, 10.0, 50):
            masks = generate_all_masks(scores, layer_thresholds(scores, "std", float(gamma)))
            achieved.append(sparsity_report(masks).global_sparsity)
        assert all(b >= a for a, b in zip(achieved, achieved[1:]))

    def test_trace_records_probes_and_bracket(self):
        scores = {"l": np.random.default_rng(6).random((64, 64))}
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
        scores = {"l": bits}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.75))
        assert not result.hit_target
        assert result.achieved in (0.0, 0.5, 1.0)
        assert abs(result.achieved - 0.75) == min(
            abs(s - 0.75) for s in {t.achieved for t in result.trace}
        )

    def test_a_miss_logs_one_warning_and_a_hit_none(self, caplog):
        hit = {"l": np.random.default_rng(3).random((64, 64))}
        missed = {"l": np.full((8, 8), 2.0)}
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

        layer_stats = masking._layer_stats

        def counting_layer_stats(a, t_type, in_place=False):
            calls.append(id(a))
            return layer_stats(a, t_type, in_place)

        monkeypatch.setattr(masking, "_layer_stats", counting_layer_stats)
        rng = np.random.default_rng(8)
        scores = {lid: rng.random((24, 16)) for lid in ("a", "b", "c")}
        for t_type in ("std", "mad"):
            calls.clear()
            result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.6))
            assert len(result.trace) > 1
            assert sorted(calls) == sorted(id(s) for s in scores.values())


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_in_place_search_matches_the_copying_one(t_type):
    # Sorting in the scores' own buffers changes nothing the search reports;
    # under MAD it leaves the arrays sorted, while the default leaves them
    # untouched. The std rule sorts nothing.
    rng = np.random.default_rng(12)
    scores = {
        "a": rng.random((40, 30)),
        "b": rng.integers(0, 9, (20, 50)).astype(np.float64),
        "c": rng.exponential(3.0, (16, 16)),
    }
    before = {lid: s.copy() for lid, s in scores.items()}
    cfg = GammaSearchConfig(s_target=0.75, epsilon_sparsity=1e-4)
    copying = tune_gamma(scores, t_type, cfg)
    for lid, s in scores.items():
        assert np.array_equal(s, before[lid])
    in_place = tune_gamma(scores, t_type, cfg, in_place=True)
    assert len(copying.trace) > 3
    assert (in_place.gamma_star, in_place.achieved, in_place.hit_target, in_place.iterations) == (
        copying.gamma_star, copying.achieved, copying.hit_target, copying.iterations,
    )
    assert in_place.trace == copying.trace
    for lid, s in scores.items():
        if t_type == "mad":
            assert np.array_equal(s.ravel(), np.sort(before[lid], axis=None))
        else:
            assert np.array_equal(s, before[lid])


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_copying_search_peak_memory(t_type):
    # The default MAD search keeps every layer's sorted copy for its probes:
    # one more copy of the scores, and no other layer-sized buffer. The std
    # search copies nothing; np.std's temporary and a probe's bool array of
    # the largest layer are its peak.
    rng = np.random.default_rng(13)
    shapes = [(512, 256), (512, 512), (10, 512)]
    scores = {f"layer{i}": np.abs(rng.standard_normal(s)) for i, s in enumerate(shapes)}
    bound = {
        "mad": 1.05 * sum(s.nbytes for s in scores.values()),
        "std": 1.2 * max(s.nbytes for s in scores.values()),
    }
    cfg = GammaSearchConfig(s_target=0.8)
    tune_gamma(scores, t_type, cfg)  # the first call's imports are not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tune_gamma(scores, t_type, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound[t_type]


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_every_probe_matches_the_mask_path(t_type):
    # The search's per-probe count and the final masks cannot drift apart.
    rng = np.random.default_rng(9)
    scores = {
        "a": rng.random((40, 30)),
        "b": rng.exponential(3.0, (20, 50)),
        "c": rng.normal(size=(16, 16)) ** 2,
    }
    result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.75, epsilon_sparsity=1e-4))
    assert len(result.trace) > 3
    assert result.thresholds == layer_thresholds(scores, t_type, result.gamma_star)
    for entry in result.trace:
        masks = generate_all_masks(scores, layer_thresholds(scores, t_type, entry.gamma))
        assert entry.achieved == sparsity_report(masks).global_sparsity


def test_each_score_array_checked_once_per_call(monkeypatch):
    checked = []
    check = masking._check_matrix

    def counting_check(a, name):
        checked.append(name)
        check(a, name)

    monkeypatch.setattr(masking, "_check_matrix", counting_check)
    rng = np.random.default_rng(10)
    scores = {"a": rng.random((12, 10)), "b": rng.random((6, 9))}
    tune_gamma(scores, "mad", GammaSearchConfig(s_target=0.5))
    assert checked == ["scores of 'a'", "scores of 'b'"]
    checked.clear()
    thresholds = layer_thresholds(scores, "std", 1.0)
    assert checked == ["scores of 'a'", "scores of 'b'"]
    checked.clear()
    generate_all_masks(scores, thresholds)
    assert checked == ["scores of 'a'", "scores of 'b'"]
