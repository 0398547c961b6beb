"""Dataset sources: synthetic Gaussian blobs, CSV tables, and IDX images.

Every source is reduced to feature rows plus integer class labels, split
80/20 deterministically, and standardized per feature using statistics
computed on the training split only.

Each source declares the shape of one sample before any sample is read
(``declared_shape``): (d,) from the blobs spec or the first CSV data row,
(1, h, w) from the IDX headers; the shape a model reads it in is
``network.input_shape``'s rule. ``load_dataset`` then draws the split
permutation and writes every sample straight into its row of one (n, d)
array laid out [train | test], whose two splits are disjoint views. The rows
keep their source's dtype: blobs and CSV rows are float64 and are
standardized in place, and IDX rows stay uint8, the bytes of the file, with
the training split's mean and std kept beside them. Readers get float64 rows
through ``Dataset.standardized``, which standardizes integer rows as they are
read and returns float64 rows as they are; either way a row's values are the
same bits. The statistics need one temporary, a block of centered training
rows squared (``_STAT_BYTES``), so a load holds one sample-sized array and no
train-sized temporary. IDX rows are gathered from a read-only map of the
file, so the pixels are held once.
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

# Blob noise is drawn this many rows at a time; the chunk and its centers are
# the only temporaries beside the result.
_DRAW_ROWS = 128
# The train variance squares the centered rows a block of rows at a time,
# about this many bytes of float64, so its temporary does not grow with the
# split. Each block's column sums carry over as the next block's first row:
# NumPy sums two or more columns along axis 0 row by row, as np.std sums the
# whole matrix, so the bits are the same. A single column is summed pairwise
# instead, so it is squared in one piece.
_STAT_BYTES = 1 << 17


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticBlobs:
    """``n_samples`` Gaussian blob samples of ``n_features`` values in
    ``n_classes`` classes, drawn from ``seed``."""

    n_samples: int
    n_features: int
    n_classes: int
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CsvSource:
    """A CSV file of numeric rows, the label in column ``label_column``
    (0-based) and the features in the others."""

    path: str
    label_column: int


@dataclass(frozen=True)
class IdxSource:
    """An IDX file of n (h, w) uint8 images and an IDX file of their n
    labels."""

    images_path: str
    labels_path: str


DatasetSpec = Union[SyntheticBlobs, CsvSource, IdxSource]


@dataclass
class Dataset:
    """80/20 splits. ``train_x`` and ``test_x`` are disjoint views of one
    (n, d) array, training rows first, and ``train_y`` and ``test_y`` of one
    int64 label array. ``sample_shape`` is one sample's shape as its source
    declares it; a row holds its d values.

    Float64 rows are standardized already, and ``mean`` and ``std`` are
    None. Integer rows (IDX pixels) are stored as read, and ``mean`` and
    ``std`` are the training split's per-feature statistics, which
    ``standardized`` applies to the rows it is given."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int
    sample_shape: tuple[int, ...]
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def standardized(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` of this dataset's splits (``train_x[idx]``, a slice of
        ``test_x``) as standardized float64 rows: float64 rows as they are,
        integer rows centered and scaled into a new array."""
        if rows.dtype == np.float64:
            return rows
        out = rows - self.mean
        out /= self.std
        return out


def _n_train(n: int) -> int:
    """The size of the training split of ``n`` samples, int(0.8 n); a
    DatasetError when either split would be empty."""
    n_train = int(n * 0.8)
    if n_train < 1 or n - n_train < 1:
        raise DatasetError(f"dataset of {n} samples is too small for an 80/20 split")
    return n_train


def _split_order(n: int, split_seed: int) -> np.ndarray:
    """The seeded split permutation: sample ``order[j]`` goes to row j, and
    the first ``_n_train(n)`` rows are the training split."""
    _n_train(n)
    return np.random.default_rng(derive_seed(split_seed, "split")).permutation(n)


def _blobs(spec: SyntheticBlobs, split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated Gaussian clusters: centers uniform in [-10, 10]^d,
    unit-variance noise. Sample i is its class center plus row i of one noise
    draw, written to its split row as it is drawn."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-10.0, 10.0, (spec.n_classes, spec.n_features))
    y = rng.integers(0, spec.n_classes, spec.n_samples)
    order = _split_order(spec.n_samples, split_seed)
    row = np.empty_like(order)
    row[order] = np.arange(spec.n_samples)
    x = np.empty((spec.n_samples, spec.n_features))
    # Row chunks draw the stream one full draw would, and standard_normal is
    # normal(0.0, 1.0) bit for bit.
    for lo in range(0, spec.n_samples, _DRAW_ROWS):
        hi = min(lo + _DRAW_ROWS, spec.n_samples)
        chunk = rng.standard_normal((hi - lo, spec.n_features))
        chunk += centers[y[lo:hi]]
        x[row[lo:hi]] = chunk
    return x, y[order]


def _csv_rows(spec: CsvSource):
    """Yield (line number, cells) for each data row of the file. Blank lines,
    ``#`` comments and a first line with a non-numeric cell (a header) are
    skipped; a row without the label column is a DatasetError."""
    path = Path(spec.path)
    if not path.is_file():
        raise DatasetError(f"csv file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
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
                yield lineno, cells
        except UnicodeDecodeError as exc:
            raise DatasetError(f"csv file {path} is not UTF-8 text: {exc}") from None


def _csv(spec: CsvSource, split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    rows: list[list[float]] = []
    labels: list[int] = []
    for lineno, cells in _csv_rows(spec):
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
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DatasetError(f"csv rows have inconsistent column counts: {sorted(widths)}")
    order = _split_order(len(rows), split_seed)
    # The rows are put in split order as Python lists, so one array is built.
    x = np.array([rows[i] for i in order.tolist()], dtype=np.float64)
    return x, np.array(labels, dtype=np.int64)[order]


def _looks_like_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _idx_header(path: Path, expected_magic: int) -> tuple[int, tuple[int, ...]]:
    """The header length and dimensions of an IDX file, checked against the
    expected magic and the file's size; the data bytes are not read."""
    if not path.is_file():
        raise DatasetError(f"idx file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(4)
        if len(head) < 4:
            raise DatasetError(f"idx file {path} truncated before magic")
        (magic,) = struct.unpack(">i", head)
        if magic != expected_magic:
            raise DatasetError(
                f"idx magic mismatch in {path}: expected 0x{expected_magic:08x}, "
                f"got 0x{magic:08x}"
            )
        n_dims = magic & 0xFF  # low byte of the magic encodes the rank
        raw_dims = fh.read(4 * n_dims)
    if len(raw_dims) < 4 * n_dims:
        raise DatasetError(f"idx file {path} truncated in dimension header")
    dims = struct.unpack(f">{n_dims}i", raw_dims)
    if min(dims) < 0:
        raise DatasetError(f"idx file {path} has a negative dimension in its header {dims}")
    header_len = 4 + 4 * n_dims
    count = math.prod(dims)  # Python ints: a product past 2**63 cannot wrap to a match
    data_bytes = path.stat().st_size - header_len
    if data_bytes != count:
        raise DatasetError(f"idx file {path} has {data_bytes} data bytes, expected {count}")
    return header_len, dims


def _idx_headers(spec: IdxSource) -> tuple[int, int, tuple[int, ...]]:
    """The images' and labels' header lengths and the images' (n, h, w)."""
    images_at, dims = _idx_header(Path(spec.images_path), IDX_IMAGES_MAGIC)
    labels_at, (n_labels,) = _idx_header(Path(spec.labels_path), IDX_LABELS_MAGIC)
    if dims[0] != n_labels:
        raise DatasetError(f"idx image/label counts differ: {dims[0]} vs {n_labels}")
    return images_at, labels_at, dims


def _idx(spec: IdxSource, split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    images_at, labels_at, (n, h, w) = _idx_headers(spec)
    order = _split_order(n, split_seed)
    # The rows are gathered from a read-only map of the file, so the pixels
    # are held once, in split order; the map closes when ``images`` goes.
    try:
        images = np.memmap(
            spec.images_path, dtype=np.uint8, mode="r", offset=images_at, shape=(n, h * w)
        )
    except (OSError, ValueError) as exc:
        raise DatasetError(f"idx file {Path(spec.images_path)} cannot be mapped: {exc}") from None
    labels = np.fromfile(spec.labels_path, dtype=np.uint8, offset=labels_at)
    return images[order], labels[order].astype(np.int64)


def declared_shape(spec: DatasetSpec) -> tuple[int, ...]:
    """The shape of one sample of ``spec``: (d,) from the blobs spec or the
    first CSV data row, (1, h, w) from the IDX headers, reading no other
    sample. Raises the DatasetError ``load_dataset`` would for a bad spec,
    header or first row."""
    if isinstance(spec, SyntheticBlobs):
        if spec.n_samples < 2 or spec.n_features < 1 or spec.n_classes < 2:
            raise DatasetError(f"degenerate blob spec: {spec}")
        shape = (spec.n_features,)
    elif isinstance(spec, CsvSource):
        first = next(_csv_rows(spec), None)
        if first is None:
            raise DatasetError(f"csv file {Path(spec.path)} has no data rows")
        shape = (len(first[1]) - 1,)
    elif isinstance(spec, IdxSource):
        _, _, (_, h, w) = _idx_headers(spec)
        shape = (1, h, w)
    else:
        raise DatasetError(f"unknown dataset spec {spec!r}")
    if math.prod(shape) == 0:
        raise DatasetError(f"{spec} has no feature columns")
    return shape


def _train_stats(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-feature mean and population std of ``train``, with np.std's
    arithmetic on its float64 values; a constant feature gets std 1.0. The
    centered rows are squared in blocks of ``_STAT_BYTES`` (see there).
    Integer rows have exact column sums, so their mean is the mean of their
    float64 values, bit for bit. Finite values can still overflow a column
    sum or a square; the first feature whose mean or std is then not finite
    is a DatasetError. A finite std bounds every training row's distance
    from the mean, so standardizing those rows cannot overflow."""
    n, d = train.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        if d == 1:
            var = np.square(train - mean).sum(axis=0)
        else:
            rows = max(1, _STAT_BYTES // (8 * d))
            block = np.zeros((min(rows, n) + 1, d))  # row 0: the sums so far
            for lo in range(0, n, rows):
                part = block[: min(rows, n - lo) + 1]
                part[1:] = train[lo : lo + rows]
                part[1:] -= mean
                np.square(part[1:], out=part[1:])
                block[0] = part.sum(axis=0)
            var = block[0]
    var /= n
    std = np.sqrt(var)
    overflowed = ~(np.isfinite(mean) & np.isfinite(std))
    if overflowed.any():
        j = int(overflowed.argmax())
        raise DatasetError(
            f"feature {j} overflows float64 in the training statistics "
            f"(mean {mean[j]:g}, std {std[j]:g})"
        )
    std[std == 0.0] = 1.0
    return mean, std


def load_dataset(spec: DatasetSpec, split_seed: int = 0) -> Dataset:
    """Materialize a dataset spec: load, split 80/20, standardize.

    The split permutation is seeded, so the same (spec, split_seed) pair
    always produces the same dataset. Feature mean and std come from the
    training split only; constant features are left unscaled. Float64 rows
    are standardized in place; integer rows are kept as read, with the
    statistics stored for ``Dataset.standardized``.
    """
    shape = declared_shape(spec)
    if isinstance(spec, SyntheticBlobs):
        x, y = _blobs(spec, split_seed)
    elif isinstance(spec, CsvSource):
        x, y = _csv(spec, split_seed)
    else:
        x, y = _idx(spec, split_seed)
    n_train = _n_train(len(x))
    train_y, test_y = y[:n_train], y[n_train:]

    n_classes = int(y.max()) + 1
    if y.min() < 0:
        raise DatasetError("labels must be non-negative integers")
    # A set, not np.unique (whose first call imports numpy.ma) or a count per
    # label (which grows with the largest label).
    present = set(train_y.tolist())  # all within [0, n_classes)
    if len(present) < n_classes:
        # Five absent labels lie among the first len(present) + 5 candidates.
        candidates = range(min(n_classes, len(present) + 5))
        first = [c for c in candidates if c not in present][:5]
        raise DatasetError(
            f"{n_classes - len(present)} of {n_classes} classes absent from the training "
            f"split, first {first}"
        )

    mean, std = _train_stats(x[:n_train])
    if x.dtype == np.float64:
        x -= mean
        x /= std
        mean = std = None
    return Dataset(
        train_x=x[:n_train],
        train_y=train_y,
        test_x=x[n_train:],
        test_y=test_y,
        n_classes=n_classes,
        sample_shape=shape,
        mean=mean,
        std=std,
    )
