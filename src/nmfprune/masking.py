"""Score thresholding, bool masks, and the global-sparsity gamma search.

Each layer gets its own threshold from its score statistics: mean + gamma*std
("std" mode, population std) or median + gamma*mad ("mad" mode, lower median,
unscaled MAD). One shared scaling factor ``gamma`` therefore controls how
aggressively every layer prunes; a bisection search tunes it until the global
fraction of pruned weights hits a target. Under the MAD rule the search sorts
each layer's scores once, for the median, so a probe is one binary search per
layer; under the std rule a probe is one compare per layer, since sorting
would cost more than the handful of probes it saves. Statistics are computed
once per layer per run: the search hands each layer's ``LayerThreshold``
(center, spread, tau) at gamma* to the masks, as ``layer_thresholds`` does at
a fixed gamma. Scores at or above tau are kept (ties survive). Scores are the
scorers' float64 arrays, each checked once per call that reads it. A mask is
the bool array of that comparison, True where kept; it goes unchanged to
``network.convert_to_masked``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .nmf import _check_matrix

log = logging.getLogger(__name__)

T_TYPES = ("std", "mad")

# Floor applied to a probed gamma inside the search, never to user config.
_GAMMA_FLOOR = 1e-6


def _validate_t_type(t_type: str) -> str:
    t = t_type.lower()
    if t not in T_TYPES:
        raise ValueError(f"unknown threshold type {t_type!r}, expected one of {T_TYPES}")
    return t


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold rule: which dispersion statistic, and its scaling factor."""

    t_type: str
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "t_type", _validate_t_type(self.t_type))
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class GammaSearchConfig:
    """Parameters of the bisection search for the global-sparsity target."""

    s_target: float
    epsilon_sparsity: float = 0.005
    n_search: int = 30
    gamma_min: float = 0.01
    gamma_max: float = 10.0
    gamma_guess: float = 1.0
    epsilon_gamma_conv: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.s_target < 1.0:
            raise ValueError(f"s_target must be in (0, 1), got {self.s_target}")
        if not 0.0 < self.epsilon_sparsity < 1.0:
            raise ValueError(f"epsilon_sparsity must be in (0, 1), got {self.epsilon_sparsity}")
        if self.n_search < 1:
            raise ValueError(f"n_search must be >= 1, got {self.n_search}")
        if not self.gamma_min < self.gamma_max:
            raise ValueError(
                f"gamma_min must be < gamma_max, got [{self.gamma_min}, {self.gamma_max}]"
            )
        if not self.gamma_guess >= 0:
            raise ValueError(f"gamma_guess must be >= 0, got {self.gamma_guess}")


@dataclass(frozen=True)
class LayerSparsity:
    zeros: int
    total: int
    sparsity: float


@dataclass
class SparsityReport:
    """Per-layer and pooled zero-weight accounting."""

    # Field order is the key order of report.json's "sparsity" block.
    global_zeros: int
    global_total: int
    global_sparsity: float
    per_layer: dict[str, LayerSparsity]


@dataclass(frozen=True)
class GammaTraceEntry:
    """One probe of the search: iteration 0 is the initial-guess evaluation."""

    iteration: int
    gamma: float
    achieved: float
    gamma_low: float
    gamma_high: float


@dataclass(frozen=True)
class LayerThreshold:
    """One layer's rule at a gamma: its score center and spread, and the
    threshold ``tau = center + gamma * spread`` its mask keeps from."""

    center: float
    spread: float
    tau: float

    @classmethod
    def at(cls, layer_id: str, center: float, spread: float, gamma: float) -> LayerThreshold:
        tau = center + gamma * spread
        if not math.isfinite(tau):
            raise ValueError(f"threshold of {layer_id!r} must be finite, got {tau}")
        return cls(center, spread, tau)


@dataclass
class GammaSearchResult:
    gamma_star: float
    achieved: float
    hit_target: bool  # False means best-so-far was returned outside tolerance
    iterations: int
    thresholds: dict[str, LayerThreshold]  # each layer's, at gamma_star
    trace: list[GammaTraceEntry] = field(default_factory=list)


def _layer_stats(
    scores: np.ndarray, t_type: str, in_place: bool = False
) -> tuple[np.ndarray, float, float]:
    """What the search and the masks read of one layer under the ``t_type``
    rule: the scores to count, and the rule's center and spread.

    The std rule reads no order: it returns ``scores`` as given, with their
    mean and population std. The MAD rule returns the scores as one ascending
    flat array, with their lower median and unscaled MAD; the lower median
    takes the lower of the two middle elements for even counts: deterministic
    and oracle-checkable, unlike the interpolating convention. With
    ``in_place`` the MAD rule sorts a contiguous ``scores`` in its own buffer,
    so its positions are lost; otherwise it sorts a copy.
    """
    if t_type == "std":
        return scores, float(scores.mean()), float(scores.std())
    flat = scores.ravel("K") if in_place else scores.flatten()
    flat.sort()
    return flat, *_median_mad(flat)


def _median_mad(s: np.ndarray) -> tuple[float, float]:
    """Lower median and unscaled MAD of the ascending array ``s``.

    With ``k = (n - 1) // 2`` and ``m = s[k]``, the deviations |s - m| are two
    ascending runs, ``m - s[k - i]`` and ``s[k + 1 + j] - m``; IEEE
    subtraction is sign-symmetric, so both are bit for bit |s - m|. The MAD
    is their (k+1)-th smallest value, found by bisecting on how many of them
    come from the first run, in scalar arithmetic with no n-sized buffer.
    """
    k = (s.size - 1) // 2
    m = float(s[k])
    n_low, n_high = k + 1, s.size - k - 1

    def low(i):  # i-th smallest deviation at or below the median
        return m - float(s[k - i])

    def high(j):  # j-th smallest deviation above it
        return float(s[k + 1 + j]) - m

    # Take i from the low run and k + 1 - i from the high run; the smallest
    # i whose next high value is no larger than its next low value is right.
    lo, hi = max(0, n_low - n_high), n_low
    while lo < hi:
        i = (lo + hi) // 2
        if high(k - i) > low(i):
            lo = i + 1
        else:
            hi = i
    i, j = lo, k + 1 - lo
    return m, max(low(i - 1) if i else 0.0, high(j - 1) if j else 0.0)


def _checked(all_scores: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``all_scores``, after one check of each array, named by its layer id."""
    for layer_id, scores in all_scores.items():
        _check_matrix(scores, f"scores of {layer_id!r}")
    return all_scores


def layer_thresholds(
    all_scores: dict[str, np.ndarray], t_type: str, gamma: float
) -> dict[str, LayerThreshold]:
    """Every layer's threshold at one fixed gamma, by layer id, from one
    statistics pass per layer; under MAD one layer's sorted copy at a time."""
    cfg = ThresholdConfig(t_type=t_type, gamma=gamma)
    return {
        layer_id: LayerThreshold.at(layer_id, *_layer_stats(scores, cfg.t_type)[1:], cfg.gamma)
        for layer_id, scores in _checked(all_scores).items()
    }


def generate_all_masks(
    all_scores: dict[str, np.ndarray], thresholds: dict[str, LayerThreshold]
) -> dict[str, np.ndarray]:
    """Final bool masks for every layer, by layer id: True (kept) where the
    score is >= the layer's tau, False (pruned) elsewhere."""
    return {
        layer_id: scores >= thresholds[layer_id].tau
        for layer_id, scores in _checked(all_scores).items()
    }


def sparsity_report(arrays: dict[str, np.ndarray]) -> SparsityReport:
    """Exact zero counts per named array and pooled across all of them. A
    bool mask's pruned (False) entries count as zeros."""
    if not arrays:
        raise ValueError("cannot compute sparsity of an empty set of arrays")
    per_layer: dict[str, LayerSparsity] = {}
    global_zeros = 0
    global_total = 0
    for name, values in arrays.items():
        zeros = int(np.count_nonzero(values == 0.0))
        total = int(values.size)
        per_layer[name] = LayerSparsity(zeros=zeros, total=total, sparsity=zeros / total)
        global_zeros += zeros
        global_total += total
    return SparsityReport(
        per_layer=per_layer,
        global_zeros=global_zeros,
        global_total=global_total,
        global_sparsity=global_zeros / global_total,
    )


def _sparsity_at(
    layers: list[tuple[np.ndarray, float, float]], t_type: str, gamma: float
) -> float:
    """Global sparsity if masks were generated at ``gamma`` (masks not kept),
    from each layer's ``_layer_stats``: the MAD rule's scores are sorted, so
    a layer's count of scores below its threshold is one binary search; the
    std rule's are counted by one compare."""
    if t_type == "mad":
        zeros = sum(int(np.searchsorted(s, c + gamma * sp, "left")) for s, c, sp in layers)
    else:
        zeros = sum(int(np.count_nonzero(s < c + gamma * sp)) for s, c, sp in layers)
    return zeros / sum(s.size for s, _, _ in layers)


def tune_gamma(
    all_scores: dict[str, np.ndarray], t_type: str, cfg: GammaSearchConfig, *,
    in_place: bool = False,
) -> GammaSearchResult:
    """Bisect gamma on [gamma_min, gamma_max] to hit the sparsity target.

    Each iteration probes the bracket midpoint (floored at 1e-6), measures the
    global sparsity it would achieve, and narrows the bracket: too little
    pruning raises the lower edge, too much lowers the upper edge. Returns as
    soon as a probe lands within ``epsilon_sparsity`` of the target, or stops
    early when the bracket's relative width drops below
    ``epsilon_gamma_conv``. If no probe reaches tolerance, the closest gamma
    seen is returned with ``hit_target=False`` and a warning on this module's
    logger; the best-so-far slot starts at ``gamma_guess``, so a search that
    never improves on it hands it back.

    Each layer's center and spread do not depend on gamma, so they are
    computed once per search. The MAD rule's median needs the scores sorted,
    so it holds one ascending copy of each layer's scores for the search and
    a probe counts the scores below each threshold by binary search; the std
    rule counts the scores as given. The result holds each layer's
    ``LayerThreshold`` at gamma*, for ``generate_all_masks``. With
    ``in_place=True`` the MAD rule sorts each contiguous score array in its
    own buffer instead of a copy, losing its positions: for a caller that
    drops the scores after the search.
    """
    if not all_scores:
        raise ValueError("cannot tune gamma with no score matrices")
    t = _validate_t_type(t_type)
    layers = [_layer_stats(s, t, in_place) for s in _checked(all_scores).values()]

    lo = cfg.gamma_min
    hi = cfg.gamma_max
    gamma_best = cfg.gamma_guess
    s_closest = _sparsity_at(layers, t, cfg.gamma_guess)
    trace = [GammaTraceEntry(0, cfg.gamma_guess, s_closest, lo, hi)]

    iterations = 0
    for it in range(1, cfg.n_search + 1):
        iterations = it
        gamma = (lo + hi) / 2.0
        if gamma < _GAMMA_FLOOR:
            gamma = _GAMMA_FLOOR
        achieved = _sparsity_at(layers, t, gamma)
        trace.append(GammaTraceEntry(it, gamma, achieved, lo, hi))
        if abs(achieved - cfg.s_target) < abs(s_closest - cfg.s_target):
            s_closest = achieved
            gamma_best = gamma
        if abs(achieved - cfg.s_target) <= cfg.epsilon_sparsity:
            gamma_best, s_closest = gamma, achieved  # the first hit is returned
            break
        if achieved < cfg.s_target:
            lo = gamma  # too little pruning: push thresholds up
        else:
            hi = gamma  # too much pruning: pull thresholds down
        if (hi - lo) / ((hi + lo) / 2.0 + 1e-9) < cfg.epsilon_gamma_conv:
            break

    hit = abs(s_closest - cfg.s_target) <= cfg.epsilon_sparsity
    if not hit:
        missed = "sparsity target %g missed: the gamma search achieved %.4f after %d iterations"
        log.warning(missed, cfg.s_target, s_closest, iterations)
    return GammaSearchResult(
        gamma_star=gamma_best,
        achieved=s_closest,
        hit_target=hit,
        iterations=iterations,
        thresholds={
            lid: LayerThreshold.at(lid, c, sp, gamma_best)
            for lid, (_, c, sp) in zip(all_scores, layers)
        },
        trace=trace,
    )
