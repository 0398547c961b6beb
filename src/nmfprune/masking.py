"""Score thresholding, binary masks, and the global-sparsity gamma search.

Each layer gets its own threshold from its score statistics: mean + gamma*std
("std" mode, population std) or median + gamma*mad ("mad" mode, lower median,
unscaled MAD). One shared scaling factor ``gamma`` therefore controls how
aggressively every layer prunes; a bisection search tunes it until the global
fraction of pruned weights hits a target. Scores at or above the threshold are
kept (ties survive).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .nmf import ScoreMatrix

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
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class Mask:
    """Binary keep/prune mask for one layer; entries are exactly 0.0 or 1.0."""

    layer_id: str
    bits: np.ndarray


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

    per_layer: dict[str, LayerSparsity]
    global_zeros: int
    global_total: int
    global_sparsity: float


@dataclass(frozen=True)
class GammaTraceEntry:
    """One probe of the search: iteration 0 is the initial-guess evaluation."""

    iteration: int
    gamma: float
    achieved: float
    gamma_low: float
    gamma_high: float


@dataclass
class GammaSearchResult:
    gamma_star: float
    achieved: float
    hit_target: bool  # False means best-so-far was returned outside tolerance
    iterations: int
    trace: list[GammaTraceEntry] = field(default_factory=list)


def _center_spread(scores: np.ndarray, t_type: str) -> tuple[float, float]:
    """The two statistics the ``t_type`` rule reads, and only those:
    (mean, population std) or (lower median, unscaled MAD). The lower median
    takes the lower of the two middle elements for even counts: deterministic
    and oracle-checkable, unlike the interpolating convention. The MAD reuses
    the median's partitioned copy, in place, so it costs one copy of the
    scores, not two."""
    if t_type == "std":
        return float(scores.mean()), float(scores.std())
    k = (scores.size - 1) // 2
    part = np.partition(scores, k, axis=None)
    median = float(part[k])
    np.subtract(part, median, out=part)
    np.abs(part, out=part)
    part.partition(k)
    return median, float(part[k])


def layer_threshold(scores: ScoreMatrix, cfg: ThresholdConfig) -> float:
    """Pruning threshold for one layer from its own score statistics."""
    center, spread = _center_spread(scores.scores, cfg.t_type)
    return center + cfg.gamma * spread


def generate_mask(scores: ScoreMatrix, threshold: float) -> Mask:
    """Keep (1.0) every score >= threshold, prune (0.0) the rest."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    bits = (scores.scores >= threshold).astype(np.float64)
    return Mask(layer_id=scores.layer_id, bits=bits)


def generate_all_masks(
    all_scores: dict[str, ScoreMatrix], t_type: str, gamma: float
) -> dict[str, Mask]:
    """Final masks for every layer at one shared gamma."""
    cfg = ThresholdConfig(t_type=t_type, gamma=gamma)
    return {
        layer_id: generate_mask(sm, layer_threshold(sm, cfg))
        for layer_id, sm in all_scores.items()
    }


def sparsity_report(arrays: dict[str, np.ndarray]) -> SparsityReport:
    """Exact zero counts per named array and pooled across all of them."""
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


def global_sparsity(masks: dict[str, Mask]) -> SparsityReport:
    """Exact zero counts of the masks per layer and pooled across all layers."""
    return sparsity_report({layer_id: mask.bits for layer_id, mask in masks.items()})


def _sparsity_at(layers: list[tuple[np.ndarray, float, float]], gamma: float) -> float:
    """Global sparsity if masks were generated at ``gamma`` (masks not kept),
    from each layer's scores and their precomputed center and spread."""
    zeros = sum(int(np.count_nonzero(s < center + gamma * spread)) for s, center, spread in layers)
    return zeros / sum(s.size for s, _, _ in layers)


def tune_gamma(
    all_scores: dict[str, ScoreMatrix], t_type: str, cfg: GammaSearchConfig
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
    computed once per search; a probe only counts the scores below each
    threshold.
    """
    if not all_scores:
        raise ValueError("cannot tune gamma with no score matrices")
    t = _validate_t_type(t_type)
    layers = [(sm.scores, *_center_spread(sm.scores, t)) for sm in all_scores.values()]

    lo = cfg.gamma_min
    hi = cfg.gamma_max
    gamma_best = cfg.gamma_guess
    s_closest = _sparsity_at(layers, cfg.gamma_guess)
    trace = [GammaTraceEntry(0, cfg.gamma_guess, s_closest, lo, hi)]

    iterations = 0
    for it in range(1, cfg.n_search + 1):
        iterations = it
        gamma = (lo + hi) / 2.0
        if gamma < _GAMMA_FLOOR:
            gamma = _GAMMA_FLOOR
        achieved = _sparsity_at(layers, gamma)
        trace.append(GammaTraceEntry(it, gamma, achieved, lo, hi))
        if abs(achieved - cfg.s_target) < abs(s_closest - cfg.s_target):
            s_closest = achieved
            gamma_best = gamma
        if abs(achieved - cfg.s_target) <= cfg.epsilon_sparsity:
            return GammaSearchResult(
                gamma_star=gamma,
                achieved=achieved,
                hit_target=True,
                iterations=it,
                trace=trace,
            )
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
        trace=trace,
    )
