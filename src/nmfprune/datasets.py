"""Dataset sources: synthetic Gaussian blobs, CSV tables, and IDX images.

Every source is reduced to float64 feature rows plus integer class labels,
split 80/20 deterministically, and standardized per feature using statistics
computed on the training split only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .seeds import derive_seed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticBlobs:
    n_samples: int
    n_features: int
    n_classes: int
    seed: int = 0


@dataclass(frozen=True)
class CsvSource:
    path: str
    label_column: int


@dataclass(frozen=True)
class IdxSource:
    images_path: str
    labels_path: str


DatasetSpec = Union[SyntheticBlobs, CsvSource, IdxSource]


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int
    image_shape: tuple[int, int, int] | None = None

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]


def _blobs(spec: SyntheticBlobs) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian clusters: centers uniform in [-10, 10]^d,
    unit-variance noise."""
    if spec.n_samples < 2 or spec.n_features < 1 or spec.n_classes < 2:
        raise DatasetError(f"degenerate blob spec: {spec}")
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-10.0, 10.0, (spec.n_classes, spec.n_features))
    y = rng.integers(0, spec.n_classes, spec.n_samples)
    # Noise first, centers added in place a class at a time: no second
    # sample-sized array, and the sums are the same as centers[y] + noise.
    x = rng.normal(0.0, 1.0, (spec.n_samples, spec.n_features))
    for c in range(spec.n_classes):
        x[y == c] += centers[c]
    return x, y.astype(np.int64)


def _read_csv(spec: CsvSource) -> tuple[np.ndarray, np.ndarray]:
    path = Path(spec.path)
    if not path.exists():
        raise DatasetError(f"csv file not found: {path}")
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if lineno == 1 and _looks_like_header(cells):
                continue
            if not 0 <= spec.label_column < len(cells):
                raise DatasetError(
                    f"label column {spec.label_column} out of range on row {lineno} "
                    f"({len(cells)} columns)"
                )
            features: list[float] = []
            label_val = 0
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"non-numeric cell {cell!r} at row {lineno}, column {col}"
                    ) from None
                if not math.isfinite(value):
                    raise DatasetError(f"non-finite cell {cell!r} at row {lineno}, column {col}")
                if col == spec.label_column:
                    if value != int(value) or value < 0:
                        raise DatasetError(
                            f"label {cell!r} at row {lineno} is not a non-negative integer"
                        )
                    if value >= 2**63:
                        raise DatasetError(f"label {cell!r} at row {lineno} does not fit in int64")
                    label_val = int(value)
                else:
                    features.append(value)
            rows.append(features)
            labels.append(label_val)
    if not rows:
        raise DatasetError(f"csv file {path} has no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DatasetError(f"csv rows have inconsistent column counts: {sorted(widths)}")
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def _looks_like_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    if not path.exists():
        raise DatasetError(f"idx file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 4:
        raise DatasetError(f"idx file {path} truncated before magic")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expected_magic:
        raise DatasetError(
            f"idx magic mismatch in {path}: expected 0x{expected_magic:08x}, "
            f"got 0x{magic:08x}"
        )
    n_dims = magic & 0xFF  # low byte of the magic encodes the rank
    header_len = 4 + 4 * n_dims
    if len(raw) < header_len:
        raise DatasetError(f"idx file {path} truncated in dimension header")
    dims = struct.unpack(f">{n_dims}i", raw[4:header_len])
    if min(dims) < 0:
        raise DatasetError(f"idx file {path} has a negative dimension in its header {dims}")
    count = math.prod(dims)  # Python ints: a product past 2**63 cannot wrap to a match
    if len(raw) != header_len + count:
        raise DatasetError(
            f"idx file {path} has {len(raw) - header_len} data bytes, expected {count}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header_len).reshape(dims)


def _idx(spec: IdxSource) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    images = _read_idx(Path(spec.images_path), IDX_IMAGES_MAGIC)
    labels = _read_idx(Path(spec.labels_path), IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DatasetError(
            f"idx image/label counts differ: {images.shape[0]} vs {labels.shape[0]}"
        )
    n, h, w = images.shape
    x = images.reshape(n, h * w).astype(np.float64)
    return x, labels.astype(np.int64), (1, h, w)


def load_dataset(spec: DatasetSpec, split_seed: int = 0) -> Dataset:
    """Materialize a dataset spec: load, split 80/20, standardize.

    The split permutation is seeded, so the same (spec, split_seed) pair
    always produces the same dataset. Feature mean and std come from the
    training split only; constant features are left unscaled.
    """
    image_shape: tuple[int, int, int] | None = None
    if isinstance(spec, SyntheticBlobs):
        x, y = _blobs(spec)
    elif isinstance(spec, CsvSource):
        x, y = _read_csv(spec)
    elif isinstance(spec, IdxSource):
        x, y, image_shape = _idx(spec)
    else:
        raise DatasetError(f"unknown dataset spec {spec!r}")
    if x.shape[1] == 0:
        raise DatasetError(f"{spec} has no feature columns")

    n = len(x)
    n_train = int(n * 0.8)
    if n_train < 1 or n - n_train < 1:
        raise DatasetError(f"dataset of {n} samples is too small for an 80/20 split")
    perm = np.random.default_rng(derive_seed(split_seed, "split")).permutation(n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    train_x, train_y = x[train_idx], y[train_idx]
    test_x, test_y = x[test_idx], y[test_idx]
    del x  # the split holds copies; standardize them in place

    n_classes = int(max(train_y.max(), test_y.max())) + 1
    if train_y.min() < 0 or test_y.min() < 0:
        raise DatasetError("labels must be non-negative integers")
    present = np.unique(train_y)  # all within [0, n_classes)
    if present.size < n_classes:
        # Five absent labels lie among the first present.size + 5 candidates.
        first = np.setdiff1d(np.arange(min(n_classes, present.size + 5)), present)[:5]
        raise DatasetError(
            f"{n_classes - present.size} of {n_classes} classes absent from the training "
            f"split, first {first.tolist()}"
        )

    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    for split in (train_x, test_x):
        split -= mean
        split /= std
    return Dataset(
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
        n_classes=n_classes,
        image_shape=image_shape,
    )
