"""Threshold, mask, sparsity accounting, and gamma-search tests."""

import math
import tracemalloc
import warnings
from dataclasses import replace

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
from nmfprune.nmf import MagnitudeScorer, NmfConfig
from nmfprune.pipeline import compute_scores

# The start of the UserWarning a search that misses its target issues.
MISSED = r"^sparsity target [0-9.]+ missed: "


def missed(target, result):
    """The whole text of that warning for a search's result."""
    return (
        f"sparsity target {target:g} missed: the gamma search achieved "
        f"{result.achieved:.4f} after {result.iterations} iterations"
    )


def messages(record):
    return [str(w.message) for w in record]


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

    def test_all_zero_spread_returns_gamma_zero_with_warning(self):
        # No layer's threshold moves with gamma, so there is nothing to
        # bisect: one probe, and no division by a zero spread (filterwarnings
        # = error would turn numpy's RuntimeWarning into a failure).
        scores = {"a": np.full((8, 8), 2.0), "b": np.full((4, 4), 0.5)}
        with pytest.warns(UserWarning, match=MISSED) as record:
            result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8))
        assert result.gamma_star == 0.0
        assert result.achieved == 0.0
        assert not result.hit_target
        assert len(result.trace) == 1
        assert result.iterations == 0
        assert messages(record) == [
            "sparsity target 0.8 missed: the gamma search achieved 0.0000 after 0 iterations"
        ]

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
        assert result.trace[0].gamma == 0.0  # the gamma = 0 probe
        mids = result.trace[1:]
        assert [t.iteration for t in mids] == list(range(1, len(mids) + 1))
        for t in mids:
            assert t.gamma_low < t.gamma < t.gamma_high
        assert result.trace[-1].gamma == result.gamma_star
        assert result.trace[-1].achieved == result.achieved
        assert result.iterations == len(result.trace) - 1

    def test_unreachable_target_returns_best_so_far(self):
        # Two distinct score values: achievable sparsities are only {0, 0.5, ~1}.
        bits = np.concatenate([np.full(32, 1.0), np.full(32, 2.0)]).reshape(8, 8)
        scores = {"l": bits}
        with pytest.warns(UserWarning, match=MISSED) as record:
            result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.75))
        assert messages(record) == [missed(0.75, result)]
        assert not result.hit_target
        assert result.achieved in (0.0, 0.5, 1.0)
        assert abs(result.achieved - 0.75) == min(
            abs(s - 0.75) for s in {t.achieved for t in result.trace}
        )

    def test_a_miss_warns_once_and_a_hit_not_at_all(self):
        hit = {"l": np.random.default_rng(3).random((64, 64))}
        flat = {"l": np.full((8, 8), 2.0)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tune_gamma(hit, "std", GammaSearchConfig(s_target=0.8)).hit_target
        with pytest.warns(UserWarning, match=MISSED) as record:
            result = tune_gamma(flat, "std", GammaSearchConfig(s_target=0.8))
        assert messages(record) == [
            "sparsity target 0.8 missed: the gamma search achieved 0.0000 "
            f"after {result.iterations} iterations"
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GammaSearchConfig(s_target=1.5)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="no score"):
            tune_gamma({}, "std", GammaSearchConfig(s_target=0.5))

    def test_stats_computed_once_per_layer_per_search(self, monkeypatch):
        calls = []

        layer_stats = masking._layer_stats

        def counting_layer_stats(layer_id, a, t_type, in_place=False):
            calls.append(id(a))
            return layer_stats(layer_id, a, t_type, in_place)

        monkeypatch.setattr(masking, "_layer_stats", counting_layer_stats)
        rng = np.random.default_rng(8)
        scores = {lid: rng.random((24, 16)) for lid in ("a", "b", "c")}
        for t_type in ("std", "mad"):
            calls.clear()
            result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.6))
            assert len(result.trace) > 1
            assert sorted(calls) == sorted(id(s) for s in scores.values())


def zeros_of(scores, result):
    """The global zero count of the masks made at the search's thresholds."""
    return sparsity_report(generate_all_masks(scores, result.thresholds)).global_zeros


@pytest.fixture(scope="module")
def mlp_score_sets():
    """Magnitude and NMF (k=10) scores of a 784-300-100-10 MLP, seeds 1-3."""
    model = [Linear(784, 300), ReLU(), Linear(300, 100), ReLU(), Linear(100, 10)]
    scorers = {"magnitude": MagnitudeScorer(), "nmf": NmfConfig(k=10)}
    return {
        (name, seed): compute_scores(init_network(model, seed), scorer, seed)
        for name, scorer in scorers.items()
        for seed in (1, 2, 3)
    }


class TestExactCount:
    @pytest.mark.parametrize("t_type", ["std", "mad"])
    @pytest.mark.parametrize("scorer", ["magnitude", "nmf"])
    def test_continuous_scores_prune_exactly_the_target_count(
        self, mlp_score_sets, scorer, t_type
    ):
        for seed in (1, 2, 3):
            scores = mlp_score_sets[scorer, seed]
            n = sum(s.size for s in scores.values())
            for target in (0.8, 0.9, 0.98, 0.99):
                result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=target))
                zeros = zeros_of(scores, result)
                assert zeros == round(target * n), f"seed {seed}, target {target}"
                assert result.achieved == zeros / n
                assert result.hit_target

    def test_target_below_gamma_zero_returns_it_after_one_probe(self):
        # Exponential scores' mean sits above their median: under the std
        # rule gamma = 0 already prunes about 1 - 1/e of them.
        scores = {"l": np.random.default_rng(14).exponential(1.0, (64, 64))}
        with pytest.warns(UserWarning, match=MISSED) as record:
            result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.5))
        assert result.gamma_star == 0.0
        assert len(result.trace) == 1
        assert result.iterations == 0
        assert result.achieved == result.trace[0].achieved > 0.6
        assert not result.hit_target
        assert messages(record) == [missed(0.5, result)]

    @pytest.mark.parametrize("t_type", ["std", "mad"])
    def test_zero_spread_layer_beside_a_normal_one_hits_the_count(self, t_type):
        scores = {"flat": np.full((8, 8), 2.0), "l": np.random.default_rng(15).random((64, 64))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a hit issues no warning
            result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.8))
        assert zeros_of(scores, result) == round(0.8 * (64 + 64 * 64))
        assert result.hit_target

    @pytest.mark.parametrize("t_type", ["std", "mad"])
    def test_tie_groups_bound_the_miss(self, t_type):
        # Quantized scores: no threshold can split a group of equal scores,
        # so the count can miss K by at most the tie group beside tau. The
        # search stops once every gamma between its edges counts as one of
        # them: 8-10 trace entries here, and 4-11 for these shapes over seeds
        # 16-39, where bisecting until the edges are adjacent floats took
        # 57-60 probes here and up to 63.
        scores = quantized_scores(16)
        n = sum(s.size for s in scores.values())
        with pytest.warns(UserWarning, match=MISSED):  # ties make some targets miss
            for target in (0.6, 0.75, 0.9, 0.97):
                result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=target))
                assert result.trace[0].achieved < target  # reachable: gamma = 0 prunes less
                groups = []
                for lid, s in scores.items():
                    tau = result.thresholds[lid].tau
                    if (s >= tau).any():
                        groups.append(np.count_nonzero(s == s[s >= tau].min()))
                    if (s < tau).any():
                        groups.append(np.count_nonzero(s == s[s < tau].max()))
                assert abs(zeros_of(scores, result) - round(target * n)) <= max(groups)
                assert len(result.trace) <= 12

    @pytest.mark.parametrize("t_type", ["std", "mad"])
    def test_early_stop_changes_no_result(self, t_type, monkeypatch):
        # The same searches bisected until their edges are adjacent floats
        # return the same gamma*, count and thresholds; the stopped trace is
        # the full one cut short, plus the closing entry.
        shortened = 0
        with pytest.warns(UserWarning, match=MISSED):  # ties make some targets miss
            for seed in range(16, 24):
                scores = quantized_scores(seed)
                for target in (0.6, 0.75, 0.9, 0.97):
                    cfg = GammaSearchConfig(s_target=target)
                    stopped = tune_gamma(scores, t_type, cfg)
                    with monkeypatch.context() as m:
                        m.setattr(masking, "_no_new_count", lambda *args: False)
                        full = tune_gamma(scores, t_type, cfg)
                    shortened += len(stopped.trace) < len(full.trace)
                    assert (stopped.gamma_star, stopped.achieved, stopped.hit_target) == (
                        full.gamma_star, full.achieved, full.hit_target,
                    )
                    assert stopped.thresholds == full.thresholds
                    probes = len(stopped.trace) - 1
                    assert stopped.trace[:probes] == full.trace[:probes]
                    assert replace(stopped.trace[-1], iteration=0) == replace(
                        full.trace[-1], iteration=0
                    )
        assert shortened >= 30  # of 32; a search that prunes exactly K stops there


def quantized_scores(seed):
    """Two layers of integer-valued scores, with large groups of equal scores."""
    rng = np.random.default_rng(seed)
    return {
        "a": rng.integers(0, 12, (48, 40)).astype(np.float64),
        "b": np.round(rng.exponential(2.0, (30, 50))),
    }


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_in_place_search_matches_the_copying_one(t_type):
    # Sorting in the scores' own buffers changes nothing the search reports;
    # under either rule it leaves the arrays sorted, while the default leaves
    # them untouched.
    rng = np.random.default_rng(12)
    scores = {
        "a": rng.random((40, 30)),
        "b": rng.integers(0, 9, (20, 50)).astype(np.float64),
        "c": rng.exponential(3.0, (16, 16)),
    }
    before = {lid: s.copy() for lid, s in scores.items()}
    cfg = GammaSearchConfig(s_target=0.75)
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
        assert np.array_equal(s.ravel(), np.sort(before[lid], axis=None))


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_copying_search_peak_memory(t_type):
    # The default search keeps every layer's sorted copy for its probes: one
    # more copy of the scores, and no other layer-sized buffer. Under std,
    # np.std's temporary of a layer is freed before that layer's copy is made.
    rng = np.random.default_rng(13)
    shapes = [(512, 256), (512, 512), (10, 512)]
    scores = {f"layer{i}": np.abs(rng.standard_normal(s)) for i, s in enumerate(shapes)}
    cfg = GammaSearchConfig(s_target=0.8)
    tune_gamma(scores, t_type, cfg)  # the first call's imports are not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tune_gamma(scores, t_type, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * sum(s.nbytes for s in scores.values())


@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_every_probe_matches_the_mask_path(t_type):
    # The search's per-probe count and the final masks cannot drift apart.
    rng = np.random.default_rng(9)
    scores = {
        "a": rng.random((40, 30)),
        "b": rng.exponential(3.0, (20, 50)),
        "c": rng.normal(size=(16, 16)) ** 2,
    }
    result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.75))
    assert len(result.trace) > 3
    assert result.thresholds == layer_thresholds(scores, t_type, result.gamma_star)
    for entry in result.trace:
        masks = generate_all_masks(scores, layer_thresholds(scores, t_type, entry.gamma))
        assert entry.achieved == sparsity_report(masks).global_sparsity


class _Reads(np.ndarray):
    """A score array that logs every ufunc call it is an operand of: each is
    one pass over its values (sorting and binary searches are none)."""

    log: list[str] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Reads.log.append(f"{ufunc.__name__}.{method}")
        inputs = [a.view(np.ndarray) if isinstance(a, _Reads) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_each_score_array_checked_once_per_call(monkeypatch):
    # Each call checks each layer once. Where it sorts (the search, MAD
    # thresholds) the check is the O(1) part and the sort finds non-finite
    # scores, so the only passes over a score array are the std rule's mean
    # and std.
    checked = []
    check = masking._check_matrix

    def counting_check(a, name, finite=True):
        checked.append((name, finite))
        check(a, name, finite)

    monkeypatch.setattr(masking, "_check_matrix", counting_check)
    rng = np.random.default_rng(10)
    scores = {"a": rng.random((12, 10)), "b": rng.random((6, 9))}

    def reads(call, t_type, **kwargs):
        checked.clear()
        _Reads.log = []
        call({lid: s.copy().view(_Reads) for lid, s in scores.items()}, t_type, **kwargs)
        return checked, _Reads.log

    statistics = []
    for s in scores.values():
        _Reads.log = []
        s.view(_Reads).mean(), s.view(_Reads).std()
        statistics += _Reads.log
    sorted_only = [("scores of 'a'", False), ("scores of 'b'", False)]
    search = GammaSearchConfig(s_target=0.5)
    with pytest.warns(UserWarning, match=MISSED):
        for in_place in (False, True):
            assert reads(tune_gamma, "mad", cfg=search, in_place=in_place) == (sorted_only, [])
            assert reads(tune_gamma, "std", cfg=search, in_place=in_place) == (
                sorted_only, statistics
            )
    assert reads(layer_thresholds, "mad", gamma=1.0) == (sorted_only, [])
    checked_once = [("scores of 'a'", True), ("scores of 'b'", True)]
    assert reads(layer_thresholds, "std", gamma=1.0)[0] == checked_once
    checked.clear()
    generate_all_masks(scores, layer_thresholds(scores, "std", 1.0))
    assert checked == checked_once * 2
