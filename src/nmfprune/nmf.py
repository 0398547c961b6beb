"""The two weight scorers: reconstruction error of a non-negative matrix
factorization, and the magnitude baseline.

A layer's absolute weight matrix is factorized as W_abs ~= F @ G with F, G
non-negative, minimizing the squared Frobenius reconstruction error via
Lee-Seung multiplicative updates. Each weight is then scored by how badly the
low-rank reconstruction approximates it: score = |W_abs - F @ G|. Weights the
factorization cannot explain carry information the dominant components miss,
so high score means keep. The magnitude baseline scores a weight by |w|.
Both scorers write |W| over the weights they are handed and return a float64
array shaped like them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Added to the multiplicative-update denominators, so a factor row that
# collapses to zero cannot divide by zero.
EPSILON = 1e-12


def _check_matrix(a: np.ndarray, name: str, finite: bool = True) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``a`` is a finite,
    non-empty 2D float64 array; NaN reaches both extremes, so two reductions
    check it with no n-byte bool array. ``factorize`` and masking call it;
    with ``finite`` false only the O(1) checks run, for a caller that finds
    non-finite values in a pass it makes anyway (a sort)."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError(f"{name} must be a 2D array, got {getattr(a, 'shape', type(a))}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got shape {a.shape}")
    if a.dtype != np.float64:
        raise ValueError(f"{name} must be float64, got {a.dtype}")
    if finite and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(f"{name} contains NaN or Inf")


@dataclass(frozen=True)
class NmfConfig:
    """Factorization hyperparameters."""

    k: int
    n_iter: int = 200

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")


@dataclass(frozen=True)
class MagnitudeScorer:
    """Baseline scorer: a weight's importance is its absolute value."""


@dataclass
class NmfResult:
    """Factor pair plus the objective recorded before and after each update."""

    f: np.ndarray  # m x k_eff, non-negative
    g: np.ndarray  # k_eff x p, non-negative
    objective_trace: np.ndarray  # length n_iter + 1
    k_eff: int


def factorize(
    w_abs: np.ndarray, cfg: NmfConfig, layer_id: str | None = None, *, seed: int
) -> NmfResult:
    """Factorize a non-negative matrix with multiplicative updates.

    Factors are initialized from a uniform draw on (0, 1], seeded by ``seed``
    and scaled by sqrt(mean(w_abs) / k_eff), so the initial reconstruction
    magnitude matches the data. One iteration updates F then G in the Gram
    form of Lee & Seung, two m x p x k products per iteration (G @ G.T
    carries over to the next F update):

        F <- F * (W @ G.T) / (F @ (G @ G.T) + EPSILON)
        G <- G * (F.T @ W) / ((F.T @ F) @ G + EPSILON)

    which keeps both factors non-negative and the objective non-increasing.
    ``objective_trace[0]`` is ||W - F @ G||^2 computed directly; later entries
    are ||W||^2 - 2 <F.T @ W, G> + <F.T @ F, G @ G.T> from the G update's
    products, clamped at 0.0 since rounding can push a near-exact fit below it.
    The requested rank is clamped to min(k, rows, cols) when the matrix is
    smaller than k in either dimension. At the full rank min(rows, cols), the
    clamp included, the fit is exact up to rounding, so the reconstruction
    error is rounding residue: that issues a ``UserWarning`` through
    ``warnings``, whose message starts with ``layer_id`` when one is given.
    """
    _check_matrix(w_abs, "w_abs")
    if w_abs.min() < 0:
        raise ValueError(f"w_abs must be non-negative, min is {w_abs.min()}")

    m, p = w_abs.shape
    k_eff = min(cfg.k, m, p)
    if k_eff == min(m, p):
        warnings.warn(
            "%srank %d (k = %d) is the full rank of a %dx%d matrix: the fit is exact up to "
            "rounding and its scores are noise"
            % (f"{layer_id}: " if layer_id else "", k_eff, cfg.k, m, p)
        )

    rng = np.random.default_rng(seed)
    scale = np.sqrt(w_abs.mean() / k_eff)
    # 1 - random() lands in (0, 1], so no factor entry starts at exactly zero.
    f = (1.0 - rng.random((m, k_eff))) * scale
    g = (1.0 - rng.random((k_eff, p))) * scale

    trace = np.empty(cfg.n_iter + 1)
    # One m x p buffer holds F @ G, the residual and its square, then the
    # square of W; none lives on through the loop.
    buf = f @ g
    np.subtract(w_abs, buf, out=buf)
    trace[0] = np.sum(np.square(buf, out=buf))
    w_sq = np.sum(np.square(w_abs, out=buf))
    del buf
    ggt = g @ g.T
    for it in range(cfg.n_iter):
        f *= (w_abs @ g.T) / (f @ ggt + EPSILON)
        ftw = f.T @ w_abs
        ftf = f.T @ f
        g *= ftw / (ftf @ g + EPSILON)
        ggt = g @ g.T
        trace[it + 1] = max(w_sq - 2.0 * np.vdot(ftw, g) + np.vdot(ftf, ggt), 0.0)
    return NmfResult(f=f, g=g, objective_trace=trace, k_eff=k_eff)


def score_layer(
    w: np.ndarray, cfg: NmfConfig, layer_id: str = "layer", *, seed: int
) -> np.ndarray:
    """Score a layer's weights by absolute reconstruction error.

    Operates on |w| only (the result is invariant under sign flips of the
    weights), and factorizes it in ``w``'s own buffer: ``w`` holds |w| on
    return, so a caller that needs the weights scores a copy. The scores are
    a new array; ``seed`` seeds the factorization. A weight matrix
    ``factorize`` rejects is a ValueError, and a full-rank fit a warning, that
    starts with ``layer_id``.
    """
    w_abs = np.abs(w, out=w)
    try:
        result = factorize(w_abs, cfg, layer_id, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{layer_id}: {exc}") from None
    scores = result.f @ result.g  # |W_abs - F @ G|, built in the product's buffer
    np.subtract(w_abs, scores, out=scores)
    np.abs(scores, out=scores)
    return scores


def score_magnitude(w: np.ndarray) -> np.ndarray:
    """Baseline scores: importance is the absolute weight value, written over
    ``w`` itself, which is returned."""
    return np.abs(w, out=w)
