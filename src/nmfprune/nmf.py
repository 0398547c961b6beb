"""Non-negative matrix factorization and reconstruction-error weight scores.

A layer's absolute weight matrix is factorized as W_abs ~= F @ G with F, G
non-negative, minimizing the squared Frobenius reconstruction error via
Lee-Seung multiplicative updates. Each weight is then scored by how badly the
low-rank reconstruction approximates it: score = |W_abs - F @ G|. Weights the
factorization cannot explain carry information the dominant components miss,
so high score means keep.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


def _check_matrix(a: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``a`` is a finite,
    non-empty 2D float64 array. Only ``factorize`` and ``ScoreMatrix`` call
    it: nothing downstream of them checks a matrix again."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError(f"{name} must be a 2D array, got {getattr(a, 'shape', type(a))}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got shape {a.shape}")
    if a.dtype != np.float64:
        raise ValueError(f"{name} must be float64, got {a.dtype}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf")


@dataclass(frozen=True)
class NmfConfig:
    """Factorization hyperparameters.

    ``epsilon`` stabilizes the multiplicative-update denominators so a factor
    row that collapses to zero cannot divide by zero.
    """

    k: int
    n_iter: int = 200
    seed: int = 0
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass
class NmfResult:
    """Factor pair plus the objective recorded before and after each update."""

    f: np.ndarray  # m x k_eff, non-negative
    g: np.ndarray  # k_eff x p, non-negative
    objective_trace: np.ndarray  # length n_iter + 1
    k_eff: int


@dataclass
class ScoreMatrix:
    """Per-element importance scores for one layer's flattened weights."""

    layer_id: str
    scores: np.ndarray

    def __post_init__(self):
        _check_matrix(self.scores, f"scores of {self.layer_id!r}")


def factorize(w_abs: np.ndarray, cfg: NmfConfig, layer_id: str | None = None) -> NmfResult:
    """Factorize a non-negative matrix with multiplicative updates.

    Factors are initialized from a seeded uniform draw on (0, 1] scaled by
    sqrt(mean(w_abs) / k_eff), so the initial reconstruction magnitude matches
    the data. One iteration updates F then G in the Gram form of Lee & Seung,
    two m x p x k products per iteration (G @ G.T carries over to the next
    F update):

        F <- F * (W @ G.T) / (F @ (G @ G.T) + eps)
        G <- G * (F.T @ W) / ((F.T @ F) @ G + eps)

    which keeps both factors non-negative and the objective non-increasing.
    ``objective_trace[0]`` is ||W - F @ G||^2 computed directly; later entries
    are ||W||^2 - 2 <F.T @ W, G> + <F.T @ F, G @ G.T> from the G update's
    products, clamped at 0.0 since rounding can push a near-exact fit below it.
    The requested rank is clamped to min(k, rows, cols) when the matrix is
    smaller than k in either dimension. At the full rank min(rows, cols), the
    clamp included, the fit is exact up to rounding, so the reconstruction
    error is rounding residue: that logs a warning on this module's logger,
    which starts with ``layer_id`` when one is given.
    """
    _check_matrix(w_abs, "w_abs")
    if np.any(w_abs < 0):
        raise ValueError(f"w_abs must be non-negative, min is {w_abs.min()}")

    m, p = w_abs.shape
    k_eff = min(cfg.k, m, p)
    if k_eff == min(m, p):
        log.warning(
            "%srank %d (k = %d) is the full rank of a %dx%d matrix: the fit is exact up to "
            "rounding and its scores are noise",
            f"{layer_id}: " if layer_id else "", k_eff, cfg.k, m, p,
        )

    rng = np.random.default_rng(cfg.seed)
    scale = np.sqrt(w_abs.mean() / k_eff)
    # 1 - random() lands in (0, 1], so no factor entry starts at exactly zero.
    f = (1.0 - rng.random((m, k_eff))) * scale
    g = (1.0 - rng.random((k_eff, p))) * scale

    eps = cfg.epsilon
    trace = np.empty(cfg.n_iter + 1)
    trace[0] = np.sum(np.square(w_abs - f @ g))  # no residual lives on through the loop
    w_sq = np.sum(np.square(w_abs))
    ggt = g @ g.T
    for it in range(cfg.n_iter):
        f *= (w_abs @ g.T) / (f @ ggt + eps)
        ftw = f.T @ w_abs
        ftf = f.T @ f
        g *= ftw / (ftf @ g + eps)
        ggt = g @ g.T
        trace[it + 1] = max(w_sq - 2.0 * np.vdot(ftw, g) + np.vdot(ftf, ggt), 0.0)
    return NmfResult(f=f, g=g, objective_trace=trace, k_eff=k_eff)


def score_layer(w: np.ndarray, cfg: NmfConfig, layer_id: str = "layer") -> ScoreMatrix:
    """Score a layer's weights by absolute reconstruction error.

    Operates on |w| only (the result is invariant under sign flips of the
    weights) and never mutates ``w``. A weight matrix ``factorize`` rejects is
    a ValueError, and a full-rank fit a warning, that starts with ``layer_id``.
    """
    w_abs = np.abs(w)
    try:
        result = factorize(w_abs, cfg, layer_id)
    except ValueError as exc:
        raise ValueError(f"{layer_id}: {exc}") from None
    scores = np.abs(w_abs - result.f @ result.g)
    return ScoreMatrix(layer_id=layer_id, scores=scores)
