"""Score statistics and checks against independent sort oracles.

The threshold rules read a center and a spread of a layer's scores: mean and
population std, or lower median and unscaled MAD. They are tested as the
``center`` and ``spread`` of the ``LayerThreshold`` that ``layer_thresholds``
hands to the masks.
"""

import math

import numpy as np
import pytest

from nmfprune import masking
from nmfprune.masking import (
    GammaSearchConfig, LayerThreshold, generate_all_masks, layer_thresholds, tune_gamma,
)
from nmfprune.network import Linear, ReLU, init_network
from nmfprune.nmf import MagnitudeScorer, score_magnitude
from nmfprune.pipeline import compute_scores

# The three entry points that read a dict of layer scores, each on one layer.
READERS = {
    "tune_gamma": lambda scores: tune_gamma(scores, "mad", GammaSearchConfig(s_target=0.5)),
    "layer_thresholds": lambda scores: layer_thresholds(scores, "std", 1.0),
    "generate_all_masks": lambda scores: generate_all_masks(
        scores, dict.fromkeys(scores, LayerThreshold(0.0, 0.0, 1.0))
    ),
}


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
    |a - median|'s. ``_layer_stats`` selects both from one sorted run."""
    flat = a.ravel()
    k = (flat.size - 1) // 2
    median = float(np.partition(flat, k)[k])
    return median, float(np.partition(np.abs(flat - median), k)[k])


def center_spread(values, t_type):
    """The (center, spread) of one layer's ``LayerThreshold``."""
    scores = np.asarray(values, dtype=np.float64)
    threshold = layer_thresholds({"l": scores}, t_type, 1.0)["l"]
    assert threshold.tau == threshold.center + threshold.spread
    return threshold.center, threshold.spread


def assert_matches_oracle(a):
    mean, std, median, mad = stats_oracle(a.ravel())
    center, spread = center_spread(a, "std")
    assert abs(center - mean) <= 1e-12
    assert abs(spread - std) <= 1e-12
    assert center_spread(a, "mad") == (median, mad)


class TestStats:
    def test_constant_matrix(self):
        for t_type in ("std", "mad"):
            assert center_spread([[1.0, 1.0], [1.0, 1.0]], t_type) == (1.0, 0.0)

    def test_hand_computed_odd_length(self):
        a = [[1.0, 2.0, 3.0, 4.0, 5.0]]
        center, spread = center_spread(a, "std")
        assert center == 3.0
        # Population std sqrt(2), not the sample std sqrt(2.5).
        assert spread == pytest.approx(math.sqrt(2.0), abs=1e-15)
        # Unscaled MAD 1, not 1.4826 (the normal-consistency factor).
        assert center_spread(a, "mad") == (3.0, 1.0)

    def test_lower_median_for_even_counts(self):
        assert center_spread([[1.0, 2.0, 3.0, 4.0]], "mad")[0] == 2.0

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
            flat, *median_mad = masking._layer_stats("l", a, "mad")
            assert tuple(median_mad) == two_copy_median_mad(a), a.shape
            assert np.array_equal(flat, np.sort(a, axis=None))
            assert np.array_equal(a, before)  # the caller's scores are left alone
            own = a.copy()
            flat, *median_mad = masking._layer_stats("l", own, "mad", in_place=True)
            assert tuple(median_mad) == two_copy_median_mad(a), a.shape
            assert np.shares_memory(flat, own)
            assert np.array_equal(own.ravel(), np.sort(a, axis=None))

    def test_stats_match_the_oracles_on_random_arrays(self):
        # MAD: exactly the two-copy partition values, ties and strides
        # included. std: the unsorted array's own mean and std, bit for bit.
        # Both beside the sorted scores, in the array's own buffer in place.
        rng = np.random.default_rng(11)
        draws = [
            lambda n: rng.normal(size=n),
            lambda n: rng.integers(-3, 4, size=n).astype(np.float64),
            lambda n: rng.exponential(size=n),
            lambda n: rng.normal(size=(n, 3))[:, 1],  # a strided view
        ]
        for trial in range(2400):
            a = draws[trial % len(draws)](int(rng.integers(1, 41)))
            expected = {
                "mad": two_copy_median_mad(a), "std": (float(a.mean()), float(a.std())),
            }
            for t_type, stats in expected.items():
                for in_place in (False, True):
                    own = a.copy() if in_place else a
                    counted, *got = masking._layer_stats("l", own, t_type, in_place=in_place)
                    assert tuple(got) == stats, (t_type, in_place, a)
                    assert np.array_equal(counted, np.sort(a))
                    assert np.shares_memory(counted, own) == in_place

    def test_empty_rejected(self):
        for read in READERS.values():
            with pytest.raises(ValueError, match="scores of 'l' must have at least one row"):
                read({"l": np.zeros((0, 3))})


class TestValidation:
    def test_nan_rejected(self):
        for read in READERS.values():
            with pytest.raises(
                ValueError, match="^scores of 'layer0_linear' contains NaN or Inf$"
            ):
                read({"layer0_linear": np.array([[1.0, float("nan")]])})

    def test_inf_rejected(self):
        # The magnitude scorer builds no check; masking rejects what it reads.
        scores = {"layer2_linear": score_magnitude(np.array([[-np.inf, 1.0]]))}
        for read in READERS.values():
            with pytest.raises(
                ValueError, match="^scores of 'layer2_linear' contains NaN or Inf$"
            ):
                read(scores)

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("t_type", ["std", "mad"])
    def test_non_finite_score_rejected_from_the_sorted_run(self, monkeypatch, t_type, in_place):
        # The search finds NaN and infinities at the ends of each layer's
        # sorted run, wherever they sit, and rejects them before any probe.
        probes = []
        monkeypatch.setattr(masking, "_zeros_at", lambda *args: probes.append(args))
        rng = np.random.default_rng(12)
        for layer in ("a", "b"):
            for value in (np.nan, np.inf, -np.inf):
                for position in (0, 27, 59):
                    scores = {"a": rng.random((6, 10)), "b": rng.random((10, 6))}
                    scores[layer].flat[position] = value
                    with pytest.raises(
                        ValueError, match=f"^scores of '{layer}' contains NaN or Inf$"
                    ):
                        tune_gamma(scores, t_type, GammaSearchConfig(0.5), in_place=in_place)
                    with pytest.raises(
                        ValueError, match=f"^scores of '{layer}' contains NaN or Inf$"
                    ):
                        layer_thresholds(scores, t_type, 1.0)
        assert probes == []

    def test_nan_weight_scored_by_magnitude_rejected_by_the_search(self):
        net = init_network([Linear(4, 3), ReLU(), Linear(3, 2)], seed=0)
        layer = net.prunable_layers[0]
        layer.weights[1, 2] = np.nan
        scores = compute_scores(net, MagnitudeScorer(), root_seed=0)
        assert np.isnan(scores[layer.layer_id][1, 2])
        with pytest.raises(
            ValueError, match=f"^scores of '{layer.layer_id}' contains NaN or Inf$"
        ):
            tune_gamma(scores, "std", GammaSearchConfig(s_target=0.5))
