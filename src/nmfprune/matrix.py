"""Dense 2D float64 matrix operations.

Matrices are plain ``numpy.ndarray`` values: two-dimensional, C-ordered,
float64, with at least one row and one column and every entry finite. The
helpers here validate those invariants and provide the handful of reductions
the rest of the package builds on. All functions are pure; callers may share
arrays freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MatrixStats:
    """Summary statistics of a matrix, as used by the threshold rules."""

    mean: float
    std: float
    median: float
    mad: float


def check_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate the matrix invariants; returns ``a`` unchanged."""
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError(f"{name} must be a 2D array, got {getattr(a, 'shape', type(a))}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got shape {a.shape}")
    if a.dtype != np.float64:
        raise ValueError(f"{name} must be float64, got {a.dtype}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf")
    return a


def abs_map(a: np.ndarray) -> np.ndarray:
    """Elementwise absolute value; output is non-negative everywhere."""
    check_matrix(a)
    return np.abs(a)


def lower_median(a: np.ndarray) -> float:
    """Median with the lower of the two middle elements for even counts.

    Deterministic and oracle-checkable, unlike the interpolating convention.
    """
    flat = np.ravel(a)
    if flat.size == 0:
        raise ValueError("median of an empty matrix is undefined")
    k = (flat.size - 1) // 2
    return float(np.partition(flat, k)[k])


def stats(a: np.ndarray) -> MatrixStats:
    """Mean, population std (divisor N), lower-median and unscaled MAD.

    MAD is median(|x - median(x)|) with no consistency factor.
    """
    check_matrix(a)
    med = lower_median(a)
    mad = lower_median(np.abs(a - med))
    return MatrixStats(
        mean=float(a.mean()),
        std=float(a.std()),
        median=med,
        mad=mad,
    )


def frobenius_sq(a: np.ndarray) -> float:
    """Sum of squared elements (squared Frobenius norm)."""
    check_matrix(a)
    return float(np.sum(a * a))
