"""Dataset loading: determinism, normalization, and format error contracts."""

import struct
import tracemalloc

import numpy as np
import pytest

from nmfprune.datasets import (
    CsvSource,
    DatasetError,
    IdxSource,
    SyntheticBlobs,
    load_dataset,
)
from nmfprune.seeds import derive_seed


def write_idx_images(path, images):
    n, h, w = images.shape
    path.write_bytes(struct.pack(">iiii", 0x00000803, n, h, w) + images.tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">ii", 0x00000801, len(labels)) + labels.tobytes())


class TestBlobs:
    def test_deterministic(self):
        spec = SyntheticBlobs(1000, 16, 2, seed=5)
        a = load_dataset(spec, split_seed=1)
        b = load_dataset(spec, split_seed=1)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.train_y, b.train_y)
        assert np.array_equal(a.test_x, b.test_x)

    def test_split_sizes(self):
        ds = load_dataset(SyntheticBlobs(100, 4, 3, seed=0))
        assert len(ds.train_x) == 80
        assert len(ds.test_x) == 20
        assert ds.n_classes == 3
        assert ds.n_features == 4

    def test_normalized_on_train_split(self):
        ds = load_dataset(SyntheticBlobs(500, 8, 2, seed=1), split_seed=2)
        assert np.max(np.abs(ds.train_x.mean(axis=0))) < 1e-9
        assert np.max(np.abs(ds.train_x.std(axis=0) - 1.0)) < 1e-9

    def test_different_split_seed_differs(self):
        spec = SyntheticBlobs(200, 4, 2, seed=3)
        a = load_dataset(spec, split_seed=0)
        b = load_dataset(spec, split_seed=99)
        assert not np.array_equal(a.train_y, b.train_y)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset(SyntheticBlobs(1, 4, 2))


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n" * 10)
        ds = load_dataset(CsvSource(str(p), label_column=2))
        assert ds.n_features == 2
        assert ds.n_classes == 2
        assert len(ds.train_x) + len(ds.test_x) == 20

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y,label\n" + "1.0,2.0,0\n3.0,4.0,1\n" * 5)
        ds = load_dataset(CsvSource(str(p), label_column=2))
        assert len(ds.train_x) + len(ds.test_x) == 10

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(DatasetError, match=r"row 2, column 1"):
            load_dataset(CsvSource(str(p), label_column=2))

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,-1\n2.0,0\n")
        with pytest.raises(DatasetError, match="non-negative integer"):
            load_dataset(CsvSource(str(p), label_column=1))

    @pytest.mark.parametrize(
        "row, column",
        [("1.0,inf", 1), ("1.0,nan", 1), ("nan,0", 0), ("-inf,1", 0), ("INF,1", 0)],
    )
    def test_non_finite_cell_rejected(self, tmp_path, row, column):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,0\n2.0,1\n" * 5 + row + "\n")
        with pytest.raises(DatasetError, match=rf"non-finite cell .* row 11, column {column}"):
            load_dataset(CsvSource(str(p), label_column=1))

    def test_label_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,0\n2.0,1\n" * 5 + "3.0,1e300\n")
        with pytest.raises(DatasetError, match=r"label '1e300' at row 11 does not fit in int64"):
            load_dataset(CsvSource(str(p), label_column=1))

    def test_huge_label_reports_absent_classes_without_enumerating_them(self, tmp_path):
        # A label of 4e9 implies 4e9 + 1 classes; finding the absent ones must
        # not build a set of every class index.
        p = tmp_path / "sparse.csv"
        p.write_text("1.0,0\n2.0,1\n" * 5 + "3.0,4000000000\n")
        with pytest.raises(
            DatasetError,
            match=r"\d+ of 4000000001 classes absent from the training split, "
            r"first \[2, 3, 4, 5, 6\]",
        ):
            load_dataset(CsvSource(str(p), label_column=1))

    def test_absent_class_listed(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("1.0,0\n2.0,2\n" * 5)
        with pytest.raises(
            DatasetError, match=r"1 of 3 classes absent from the training split, first \[1\]"
        ):
            load_dataset(CsvSource(str(p), label_column=1))

    def test_missing_file_rejected(self):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(CsvSource("/nonexistent.csv", label_column=0))

    def test_label_column_only_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0\n1\n" * 10)
        with pytest.raises(DatasetError, match="has no feature columns") as err:
            load_dataset(CsvSource(str(p), label_column=0))
        assert str(p) in str(err.value)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0,0\n1.0,2.0,3.0,0\n")
        with pytest.raises(DatasetError, match="inconsistent"):
            load_dataset(CsvSource(str(p), label_column=0))


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (50, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 3, 50, dtype=np.uint8)
        # Tiny counts can drop a class from the 80% split; pin one of each.
        labels[:3] = [0, 1, 2]
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        ds = load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")))
        assert ds.image_shape == (1, 4, 4)
        assert ds.n_features == 16
        assert len(ds.train_x) == 40

    def test_magic_mismatch_names_expected(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">iiii", 0x00000802, 1, 2, 2) + bytes(4))
        with pytest.raises(DatasetError, match="0x00000803"):
            load_dataset(IdxSource(str(bad), str(bad)))

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "trunc"
        p.write_bytes(struct.pack(">iiii", 0x00000803, 10, 4, 4) + bytes(8))
        with pytest.raises(DatasetError, match="data bytes"):
            load_dataset(IdxSource(str(p), str(p)))

    @pytest.mark.parametrize(
        "dims, n_bytes, match",
        [
            ((-1, -28, 28), 784, "negative dimension"),  # the product is 784
            ((2**30, 2**30, 16), 0, "data bytes"),  # an int64 product wraps to 0
        ],
    )
    def test_bad_header_dimensions_rejected(self, tmp_path, dims, n_bytes, match):
        p = tmp_path / "imgs"
        p.write_bytes(struct.pack(">iiii", 0x00000803, *dims) + bytes(n_bytes))
        with pytest.raises(DatasetError, match=match) as err:
            load_dataset(IdxSource(str(p), str(p)))
        assert str(p) in str(err.value)

    def test_zero_pixel_images_rejected(self, tmp_path):
        labels = np.arange(50, dtype=np.uint8) % 2
        write_idx_images(tmp_path / "imgs", np.zeros((50, 0, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", labels)
        with pytest.raises(DatasetError, match="has no feature columns") as err:
            load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")))
        assert str(tmp_path / "imgs") in str(err.value)

    def test_count_mismatch_rejected(self, tmp_path):
        images = np.zeros((5, 2, 2), dtype=np.uint8)
        labels = np.zeros(6, dtype=np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        with pytest.raises(DatasetError, match="counts differ"):
            load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")))


def reference_split(x, y, split_seed):
    """The seeded 80/20 split and train-split standardization, out of place."""
    perm = np.random.default_rng(derive_seed(split_seed, "split")).permutation(len(x))
    train, test = perm[: int(len(x) * 0.8)], perm[int(len(x) * 0.8) :]
    mean = x[train].mean(axis=0)
    std = x[train].std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (x[train] - mean) / std, y[train], (x[test] - mean) / std, y[test]


class TestInPlaceBuild:
    def assert_bit_identical(self, ds, x, y, split_seed):
        got = (ds.train_x, ds.train_y, ds.test_x, ds.test_y)
        for a, b in zip(got, reference_split(x, y, split_seed)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_blobs_match_reference(self):
        rng = np.random.default_rng(7)
        centers = rng.uniform(-10.0, 10.0, (4, 12))
        y = rng.integers(0, 4, 300)
        x = centers[y] + rng.normal(0.0, 1.0, (300, 12))
        ds = load_dataset(SyntheticBlobs(300, 12, 4, seed=7), split_seed=8)
        self.assert_bit_identical(ds, x, y, 8)

    def test_csv_matches_reference(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 3.0, (60, 5))
        x[:, 2] = 1.5  # a constant feature stays unscaled
        y = np.arange(60) % 3
        p = tmp_path / "data.csv"
        rows = [",".join(map(repr, [*row, label])) for row, label in zip(x.tolist(), y.tolist())]
        p.write_text("\n".join(rows) + "\n")
        ds = load_dataset(CsvSource(str(p), label_column=5), split_seed=10)
        self.assert_bit_identical(ds, x, y, 10)

    def test_idx_matches_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, (50, 3, 4), dtype=np.uint8)
        labels = (np.arange(50) % 3).astype(np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        ds = load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")), split_seed=12)
        x = images.reshape(50, 12).astype(np.float64)
        self.assert_bit_identical(ds, x, labels.astype(np.int64), 12)

    def test_peak_memory_near_the_returned_arrays(self):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = load_dataset(SyntheticBlobs(5000, 784, 10))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y))
        assert peak <= 2.2 * returned
