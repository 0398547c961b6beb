"""Dataset loading: determinism, normalization, and format error contracts."""

import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nmfprune import trainer
from nmfprune.datasets import (
    _DRAW_ROWS,
    _STAT_BYTES,
    CsvSource,
    DatasetError,
    IdxSource,
    SyntheticBlobs,
    declared_shape,
    _train_stats,
    load_dataset,
)
from nmfprune.network import Conv2d, Flatten, Linear, ReLU, init_network
from nmfprune.seeds import derive_seed


def write_idx_images(path, images):
    n, h, w = images.shape
    path.write_bytes(struct.pack(">iiii", 0x00000803, n, h, w) + images.tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">ii", 0x00000801, len(labels)) + labels.tobytes())


def overflowing_table(cells: dict[int, str]) -> str:
    """40 CSV rows of two finite features and a label, with ``cells`` put in
    feature 0 of the rows they name. Rows 1, 5, 6, 7 and 11 land in the
    training split at split seed 0, and in a run seeded 3."""
    rows = [[f"{i % 7}.0", f"{i % 16}.5", f"{i % 2}"] for i in range(40)]
    for i, cell in cells.items():
        rows[i][0] = cell
    return "".join(",".join(row) + "\n" for row in rows)


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
        assert ds.train_x.shape[1] == 4

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
        assert ds.train_x.shape[1] == 2
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

    @pytest.mark.parametrize(
        "cells, stats",
        [
            # One square overflows: std is inf (the mean is 1e200 / 32).
            ({1: "1e200"}, r"mean 3\.125e\+198, std inf"),
            # The column sum overflows: mean is inf.
            ({5: "1e308", 6: "1e308", 7: "1e308", 11: "1e308"}, "mean inf, std inf"),
        ],
        ids=["1e200", "1e308"],
    )
    def test_training_statistics_that_overflow_rejected(self, tmp_path, cells, stats):
        p = tmp_path / "big.csv"
        p.write_text(overflowing_table(cells))
        with pytest.raises(
            DatasetError,
            match=rf"^feature 0 overflows float64 in the training statistics \({stats}\)$",
        ):
            load_dataset(CsvSource(str(p), label_column=2))

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
        assert ds.sample_shape == (1, 4, 4)
        assert ds.train_x.shape[1] == 16
        assert len(ds.train_x) == 40
        assert ds.train_x.dtype == ds.test_x.dtype == np.uint8

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
        # Float64 rows are read as stored, integer rows standardized as read.
        got = (ds.standardized(ds.train_x), ds.train_y, ds.standardized(ds.test_x), ds.test_y)
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

    # Column counts from the lone column, squared in one piece, to widths
    # whose row blocks split the 160 training rows into one to eight blocks.
    BLOCK_EDGES = [1, 63, 64, 65, 127, 128, 129, 785]

    @pytest.mark.parametrize("d", BLOCK_EDGES)
    def test_blobs_match_reference_at_block_edges(self, d):
        spec = SyntheticBlobs(200, d, 3, seed=d)
        x, y = blobs_reference(spec)
        self.assert_bit_identical(load_dataset(spec, split_seed=5), x, y, 5)

    @pytest.mark.parametrize("n", [_DRAW_ROWS - 1, _DRAW_ROWS, _DRAW_ROWS + 1, 2 * _DRAW_ROWS + 3])
    def test_blobs_match_reference_around_the_draw_chunk(self, n):
        spec = SyntheticBlobs(n, 9, 3, seed=n)
        x, y = blobs_reference(spec)
        self.assert_bit_identical(load_dataset(spec, split_seed=6), x, y, 6)

    @pytest.mark.parametrize("d", BLOCK_EDGES)
    def test_idx_matches_reference_at_block_edges(self, tmp_path, d):
        rng = np.random.default_rng(d)
        images = rng.integers(0, 256, (60, 1, d), dtype=np.uint8)
        images[:, 0, 0] = 7  # a constant pixel stays unscaled
        labels = (np.arange(60) % 3).astype(np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        ds = load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")), split_seed=7)
        x = images.reshape(60, d).astype(np.float64)
        self.assert_bit_identical(ds, x, labels.astype(np.int64), 7)

    def test_splits_are_views_of_one_array(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((20, 3, 5), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", (np.arange(20) % 2).astype(np.uint8))
        for spec in (
            SyntheticBlobs(100, 4, 2, seed=1),
            IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")),
        ):
            ds = load_dataset(spec)
            assert ds.train_x.base is not None and ds.train_x.base is ds.test_x.base
            assert ds.train_y.base is not None and ds.train_y.base is ds.test_y.base
            assert not np.shares_memory(ds.train_x, ds.test_x)

    def test_peak_memory_near_the_returned_arrays(self):
        ds, peak = traced_peak(lambda: load_dataset(SyntheticBlobs(5000, 784, 10)))
        assert peak <= 1.15 * returned_bytes(ds)

    def test_idx_peak_memory_near_the_file_and_the_returned_arrays(self, tmp_path):
        # The pixels stay uint8 and are held once: gathered into split order
        # from a map of the file, with the statistics squaring one block of
        # rows at a time.
        rng = np.random.default_rng(13)
        write_idx_images(tmp_path / "imgs", rng.integers(0, 256, (2000, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", (np.arange(2000) % 10).astype(np.uint8))
        spec = IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls"))
        file_bytes = sum((tmp_path / name).stat().st_size for name in ("imgs", "lbls"))
        load_dataset(spec)  # imports are not counted
        ds, peak = traced_peak(lambda: load_dataset(spec))
        assert ds.train_x.dtype == ds.test_x.dtype == np.uint8
        assert peak <= 1.2 * file_bytes

    def test_idx_rows_keep_no_file_open(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((20, 3, 5), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", (np.arange(20) % 2).astype(np.uint8))
        ds = load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")))
        base = ds.train_x.base
        assert type(ds.train_x) is type(base) is np.ndarray
        assert base.flags.owndata or type(base.base) is np.ndarray
        maps = Path("/proc/self/maps")
        if maps.exists():  # the mapping is closed, not left to a later collection
            assert str(tmp_path / "imgs") not in maps.read_text()

    def test_unmappable_images_rejected(self, tmp_path, monkeypatch):
        write_idx_images(tmp_path / "imgs", np.zeros((20, 3, 5), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", (np.arange(20) % 2).astype(np.uint8))

        def refuse(*args, **kwargs):
            raise OSError(19, "No such device")

        monkeypatch.setattr(np, "memmap", refuse)
        with pytest.raises(DatasetError, match="cannot be mapped: .*No such device") as err:
            load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")))
        assert str(tmp_path / "imgs") in str(err.value)


class TestBatchReads:
    def test_training_and_evaluation_batches_equal_the_reference_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(17)
        images = rng.integers(0, 256, (50, 6, 6), dtype=np.uint8)
        images[:, 2, 3] = 9  # a constant pixel
        labels = (np.arange(50) % 3).astype(np.uint8)
        write_idx_images(tmp_path / "imgs", images)
        write_idx_labels(tmp_path / "lbls", labels)
        ds = load_dataset(IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")), split_seed=4)
        ref_train, _, ref_test, _ = reference_split(
            images.reshape(50, 36).astype(np.float64), labels.astype(np.int64), 4
        )

        stepped, evaluated = [], []
        step = trainer.masked_train_step

        def record_step(net, x, *args):
            stepped.append(x.copy())
            return step(net, x, *args)

        net = init_network([Conv2d(1, 2, 3, 3), ReLU(), Flatten(), Linear(32, 3)], seed=1)
        forward = net.forward

        def record_forward(x, cache=True):
            if not cache:
                evaluated.append(x.copy())
            return forward(x, cache=cache)

        monkeypatch.setattr(trainer, "masked_train_step", record_step)
        net.forward = record_forward
        cfg = trainer.TrainConfig(epochs=2, lr=0.05, batch_size=16)
        trainer.run_training(net, ds, cfg, seed=5)

        expected_steps, expected_evaluations = [], []
        for epoch in range(cfg.epochs):
            perm = np.random.default_rng(derive_seed(5, "shuffle", epoch)).permutation(40)
            expected_steps += [ref_train[perm[s : s + 16]] for s in range(0, 40, 16)]
            expected_evaluations.append(ref_test)  # 10 test rows: one batch
        for got, rows in zip(
            (stepped, evaluated), (expected_steps, expected_evaluations), strict=True
        ):
            assert len(got) == len(rows)
            for batch, expected in zip(got, rows):
                assert batch.dtype == np.float64 and batch.shape == (len(expected), 1, 6, 6)
                assert batch.tobytes() == expected.tobytes()


def blobs_reference(spec):
    """A blob spec's samples and labels in draw order, with one full noise
    draw from normal(0.0, 1.0)."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-10.0, 10.0, (spec.n_classes, spec.n_features))
    y = rng.integers(0, spec.n_classes, spec.n_samples)
    return centers[y] + rng.normal(0.0, 1.0, (spec.n_samples, spec.n_features)), y


def traced_peak(build):
    """``build()``'s result and the peak bytes it allocated on top of what
    was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def returned_bytes(ds):
    return sum(a.nbytes for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y))


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
@pytest.mark.parametrize("d", [1, 2, 127])
def test_train_stats_equal_np_std_around_the_row_block(d, dtype):
    # Each block's column sums carry over as the next block's first row, so
    # the sums run row by row across block edges, as np.std's do.
    rows = _STAT_BYTES // (8 * d)
    rng = np.random.default_rng(d)
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
        train = rng.integers(0, 256, (n, d)).astype(dtype)
        mean, std = _train_stats(train)
        assert mean.tobytes() == train.astype(np.float64).mean(axis=0).tobytes()
        assert std.tobytes() == train.astype(np.float64).std(axis=0).tobytes()


@pytest.mark.parametrize("draw", ["standard_normal", "normal"])
def test_chunked_normal_draws_equal_one_draw(draw):
    # Blob noise is drawn a chunk of rows at a time with standard_normal; the
    # stream must be that of one normal(0.0, 1.0) draw of every row.
    full = np.random.default_rng(3).normal(0.0, 1.0, (700, 7))
    rng = np.random.default_rng(3)
    rows = [1, _DRAW_ROWS - 1, _DRAW_ROWS, _DRAW_ROWS + 1, 700 - 3 * _DRAW_ROWS - 1]
    if draw == "standard_normal":
        chunks = [rng.standard_normal((r, 7)) for r in rows]
    else:
        chunks = [rng.normal(0.0, 1.0, (r, 7)) for r in rows]
    assert np.concatenate(chunks).tobytes() == full.tobytes()


class TestDeclaredShape:
    def test_matches_the_loaded_dataset(self, tmp_path):
        write_idx_images(tmp_path / "imgs", np.zeros((20, 3, 5), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", (np.arange(20) % 2).astype(np.uint8))
        csv = tmp_path / "data.csv"
        csv.write_text("a,b,label\n" + "1.0,2.0,0\n3.0,4.0,1\n" * 5)
        for spec, shape in [
            (SyntheticBlobs(50, 6, 2), (6,)),
            (IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")), (1, 3, 5)),
            (CsvSource(str(csv), label_column=2), (2,)),
        ]:
            assert declared_shape(spec) == shape
            ds = load_dataset(spec)
            assert ds.sample_shape == shape
            assert ds.train_x.shape[1] == math.prod(shape)

    def test_reads_only_the_first_csv_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("# comment\n\n1.0,2.0,0\n3.0,oops,1\n")
        assert declared_shape(CsvSource(str(p), label_column=2)) == (2,)
        with pytest.raises(DatasetError, match=r"row 4, column 1"):
            load_dataset(CsvSource(str(p), label_column=2))

    def test_reads_no_idx_data(self, tmp_path, monkeypatch):
        write_idx_images(tmp_path / "imgs", np.zeros((20, 3, 5), dtype=np.uint8))
        write_idx_labels(tmp_path / "lbls", (np.arange(20) % 2).astype(np.uint8))

        def no_data_reads(*args, **kwargs):
            raise AssertionError("the IDX data was read")

        monkeypatch.setattr(np, "fromfile", no_data_reads)
        monkeypatch.setattr(np, "memmap", no_data_reads)
        spec = IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls"))
        assert declared_shape(spec) == (1, 3, 5)

    @pytest.mark.parametrize(
        "spec, match",
        [
            (SyntheticBlobs(1, 4, 2), "degenerate blob spec"),
            (CsvSource("/nonexistent.csv", label_column=0), "not found"),
            (IdxSource("/nonexistent-images", "/nonexistent-labels"), "not found"),
        ],
    )
    def test_rejects_what_load_dataset_rejects(self, spec, match):
        for call in (declared_shape, load_dataset):
            with pytest.raises(DatasetError, match=match):
                call(spec)

    def test_empty_csv_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(DatasetError, match="has no data rows"):
            declared_shape(CsvSource(str(p), label_column=0))
