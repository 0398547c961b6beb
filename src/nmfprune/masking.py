"""Score thresholding, bool masks, and the global-sparsity gamma search.

Each layer gets its own threshold from its score statistics: mean + gamma*std
("std" mode, population std) or median + gamma*mad ("mad" mode, lower median,
unscaled MAD). One shared scaling factor ``gamma`` therefore controls how
aggressively every layer prunes; a bisection search on a bracket taken from
the scores tunes it until the global count of pruned weights is exactly
``round(s_target * N)``, or as close as ties at the threshold allow: on tied
scores it stops as soon as no gamma inside its bracket can prune a count that
neither edge prunes. The search sorts each layer's scores once, under either
rule, so a probe is one binary search per layer and the rule decides only
each layer's center and spread; the MAD rule reads its median from that sort.
Statistics are computed once per layer per run: the search hands each layer's
``LayerThreshold`` (center, spread, tau) at gamma* to the masks, as
``layer_thresholds`` does at a fixed gamma. Scores at or above tau are kept
(ties survive). Scores are the scorers' float64 arrays, each checked once per
call that reads it, in a pass the call makes anyway: a sorted run is finite
when its two ends are (NumPy sorts NaN last), and only a call that sorts
nothing (``layer_thresholds`` under std, ``generate_all_masks``) reads a min
and a max for the check. A mask is the bool array of that comparison, True
where kept; it goes unchanged to ``network.convert_to_masked``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .nmf import _check_matrix

T_TYPES = ("std", "mad")

# A search hits its target when the global sparsity it achieves lies within
# this distance of it, the paper's tolerance.
SPARSITY_TOLERANCE = 0.005


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
    """The global-sparsity target of a gamma search."""

    s_target: float

    def __post_init__(self):
        if not 0.0 < self.s_target < 1.0:
            raise ValueError(f"s_target must be in (0, 1), got {self.s_target}")


@dataclass(frozen=True)
class LayerSparsity:
    """One layer's count of zero weights, of all its weights, and their
    ratio."""

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
    """One probe of the search: iteration 0 is the gamma = 0 probe."""

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
    """What a gamma search settled on: gamma*, the sparsity it reaches, each
    layer's threshold there, and every probe made."""

    gamma_star: float
    achieved: float
    hit_target: bool  # False: the closest probe lies outside SPARSITY_TOLERANCE
    iterations: int
    thresholds: dict[str, LayerThreshold]  # each layer's, at gamma_star
    trace: list[GammaTraceEntry] = field(default_factory=list)


def _layer_stats(
    layer_id: str, scores: np.ndarray, t_type: str, in_place: bool = False
) -> tuple[np.ndarray, float, float]:
    """What the search reads of one layer under the ``t_type`` rule: the
    scores as one ascending flat array, and the rule's center and spread.

    Non-finite scores are rejected from the sorted run's two ends, before
    any statistic is read from it, so a caller checks only their shape and
    dtype (``_checked`` without ``finite``). The std rule's mean and
    population std are taken from ``scores`` as given, before the sort, so
    their sums add in the same order as a fixed gamma's. The MAD rule's
    lower median and unscaled MAD are read from the sorted array; the lower
    median takes the lower of the two middle elements for even counts:
    deterministic and oracle-checkable, unlike the interpolating convention.
    With ``in_place`` a contiguous ``scores`` is sorted in its own buffer, so
    its positions are lost; otherwise a copy is.
    """
    mean_std = None
    if t_type == "std":
        with np.errstate(invalid="ignore"):  # an infinity makes NaN here; rejected below
            mean_std = _mean_std(scores)
    flat = scores.ravel("K") if in_place else scores.flatten()
    flat.sort()
    if not (math.isfinite(flat[0]) and math.isfinite(flat[-1])):  # NaN sorts last
        raise ValueError(f"scores of {layer_id!r} contains NaN or Inf")
    return flat, *(mean_std or _median_mad(flat))


def _mean_std(scores: np.ndarray) -> tuple[float, float]:
    """Mean and population std of ``scores``, summed in their own order."""
    return float(scores.mean()), float(scores.std())


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


def _checked(all_scores: dict[str, np.ndarray], finite: bool = True) -> dict[str, np.ndarray]:
    """``all_scores``, after one check of each array, named by its layer id;
    without ``finite`` the O(1) checks only, for a caller that sorts."""
    for layer_id, scores in all_scores.items():
        _check_matrix(scores, f"scores of {layer_id!r}", finite)
    return all_scores


def layer_thresholds(
    all_scores: dict[str, np.ndarray], t_type: str, gamma: float
) -> dict[str, LayerThreshold]:
    """Every layer's threshold at one fixed gamma, by layer id, from one
    statistics pass per layer: under std no sort, under MAD one layer's
    sorted copy at a time."""
    cfg = ThresholdConfig(t_type=t_type, gamma=gamma)
    std = cfg.t_type == "std"
    return {
        lid: LayerThreshold.at(
            lid, *(_mean_std(s) if std else _layer_stats(lid, s, cfg.t_type)[1:]), cfg.gamma
        )
        for lid, s in _checked(all_scores, finite=std).items()
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


def _zeros_at(layers: list[tuple[np.ndarray, float, float]], gamma: float) -> list[int]:
    """Each layer's count of the scores masks at ``gamma`` would prune (masks
    not kept), from its ``_layer_stats``: the scores are sorted, so a layer's
    count of scores below its threshold is one binary search."""
    return [int(np.searchsorted(s, c + gamma * sp, "left")) for s, c, sp in layers]


def _no_new_count(
    layers: list[tuple[np.ndarray, float, float]], lo: float, hi: float,
    lo_counts: list[int], hi_counts: list[int],
) -> bool:
    """Whether every gamma in ``(lo, hi)`` prunes what ``lo`` or ``hi``
    prunes, from each layer's counts at the two edges. It does when every
    layer whose count differs between them has a single score value from
    its threshold at ``lo`` up to its threshold at ``hi`` (its sorted scores
    between its two edge counts start and end on one value), and all those
    thresholds pass their values at one gamma. Each layer's count only grows
    with gamma, so it takes its two edge counts and no other; a gamma where
    some of these layers have passed and others not would make a new count.
    The gamma where ``center + gamma * spread`` passes a value is found to
    the float by bisection, in the arithmetic a probe uses."""
    passes = set()
    for (s, c, sp), a, b in zip(layers, lo_counts, hi_counts):
        if a == b:
            continue
        value = float(s[a])
        if s[b - 1] != value:
            return False
        g_lo, g_hi = lo, hi
        while g_lo < (g := (g_lo + g_hi) / 2.0) < g_hi:
            if c + g * sp > value:
                g_hi = g
            else:
                g_lo = g
        passes.add(g_hi)
    return len(passes) == 1


def tune_gamma(
    all_scores: dict[str, np.ndarray], t_type: str, cfg: GammaSearchConfig, *,
    in_place: bool = False,
) -> GammaSearchResult:
    """Bisect gamma to prune exactly ``K = round(s_target * N)`` of the N scores.

    Probe 0 is gamma = 0, the least pruning gamma >= 0 allows; if it already
    prunes at least K, gamma 0 is returned without a bisection. Otherwise the
    search bisects [0, gamma_hi], where gamma_hi = max over layers of
    (max - center) / spread puts every threshold at or above its layer's
    largest score (a layer with zero spread has a threshold that gamma cannot
    move, and is left out). Too little pruning raises the lower edge, too
    much lowers the upper edge. It stops when a probe prunes exactly K; when
    every gamma between the edges would prune what one of them prunes (a tie
    group at the threshold that straddles K), so that no later probe could
    come closer; or when the edges are adjacent floats (a target beyond
    gamma_hi's reach). The tie check (``_no_new_count``) runs only after a
    probe repeats an edge's per-layer counts; on continuous scores it then
    ends at the first layer with two distinct scores between the edges, for
    about the cost of a probe. The probe whose count is closest to K is
    returned; if it is not the last probe it is recorded once more as
    the closing trace entry, so gamma* is always the trace's last entry.
    ``hit_target`` says whether it lies within ``SPARSITY_TOLERANCE`` of the
    target; if not, it issues a ``UserWarning`` through ``warnings``.

    Each layer's center and spread do not depend on gamma, so they are
    computed once per search. Under either rule the search holds one
    ascending copy of each layer's scores, and a probe counts the scores
    below each threshold by binary search. The result holds each layer's
    ``LayerThreshold`` at gamma*, for ``generate_all_masks``. With
    ``in_place=True`` each contiguous score array is sorted in its own
    buffer instead of a copy, losing its positions: for a caller that drops
    the scores after the search. A layer whose scores hold NaN or an
    infinity is rejected after its sort, before any probe.
    """
    if not all_scores:
        raise ValueError("cannot tune gamma with no score matrices")
    t = _validate_t_type(t_type)
    layers = [
        _layer_stats(lid, s, t, in_place) for lid, s in _checked(all_scores, finite=False).items()
    ]
    n = sum(s.size for s, _, _ in layers)
    k = round(cfg.s_target * n)

    lo, hi = 0.0, max(((float(s[-1]) - c) / sp for s, c, sp in layers if sp > 0), default=0.0)
    counts = _zeros_at(layers, lo)
    zeros = sum(counts)
    trace = [GammaTraceEntry(0, lo, zeros / n, lo, hi)]
    best, best_zeros = trace[0], zeros
    lo_counts, hi_counts = counts, None  # per layer at each edge; gamma_hi is not probed
    if zeros < k:  # gamma = 0 prunes too little: bisect
        while lo < (gamma := (lo + hi) / 2.0) < hi:
            counts = _zeros_at(layers, gamma)
            zeros = sum(counts)
            trace.append(GammaTraceEntry(len(trace), gamma, zeros / n, lo, hi))
            if abs(zeros - k) < abs(best_zeros - k):
                best, best_zeros = trace[-1], zeros
            if zeros == k:
                break
            repeated = counts in (lo_counts, hi_counts)
            if zeros < k:
                lo, lo_counts = gamma, counts  # too little pruning: push thresholds up
            else:
                hi, hi_counts = gamma, counts  # too much pruning: pull thresholds down
            if repeated and hi_counts is not None and _no_new_count(
                layers, lo, hi, lo_counts, hi_counts
            ):
                break
    if best is not trace[-1]:
        trace.append(replace(best, iteration=len(trace)))

    hit = abs(best.achieved - cfg.s_target) <= SPARSITY_TOLERANCE
    if not hit:
        warnings.warn(
            "sparsity target %g missed: the gamma search achieved %.4f after %d iterations"
            % (cfg.s_target, best.achieved, len(trace) - 1)
        )
    return GammaSearchResult(
        gamma_star=best.gamma,
        achieved=best.achieved,
        hit_target=hit,
        iterations=len(trace) - 1,
        thresholds={
            lid: LayerThreshold.at(lid, c, sp, best.gamma)
            for lid, (_, c, sp) in zip(all_scores, layers)
        },
        trace=trace,
    )
