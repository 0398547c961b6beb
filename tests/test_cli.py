"""Command-line interface tests: subcommands, overrides, exit codes."""

import contextlib
import errno
import io
import json
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import nmfprune.cli as cli
from nmfprune.checkpoint import read_container
from nmfprune.cli import main
from nmfprune.runconfig import load_config

CONFIG = """
[run]
seed = 3
output = {out}

[model]
layer = linear 16 32
layer = relu
layer = linear 32 2

[dataset]
kind = synthetic-blobs
n_samples = 400
n_features = 16
n_classes = 2
seed = 9

[scorer]
kind = nmf
k = 4

[gamma_search]
s_target = 0.7

[threshold]
type = std

[train]
epochs = 2
lr = 0.1
batch_size = 64
"""


@pytest.fixture
def config_path(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG.format(out=out))
    return path, out


def missed_target_config(path, tmp_path):
    """The run config with a 5% target, which the std rule cannot reach: its
    gamma = 0 probe already prunes about half of the weights."""
    missed = tmp_path / "missed.cfg"
    missed.write_text(path.read_text().replace("s_target = 0.7", "s_target = 0.05"))
    return missed


def miss_warning(search: dict) -> str:
    return (
        f"warning: sparsity target {search['target']:g} missed: the gamma search achieved "
        f"{search['achieved']:.4f} after {search['iterations']} iterations"
    )


class TestRun:
    def test_run_succeeds(self, config_path, capsys):
        path, out = config_path
        assert main(["run", "--config", str(path)]) == 0
        assert (out / "checkpoint.bin").exists()
        captured = capsys.readouterr()
        assert "achieved sparsity" in captured.out

    def test_quiet_suppresses_output(self, config_path, capsys):
        path, _ = config_path
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_output_override(self, config_path, tmp_path):
        path, _ = config_path
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", str(path), "--output", str(other), "--quiet"]) == 0
        assert (other / "report.json").exists()

    def test_target_sparsity_override(self, config_path):
        path, out = config_path
        assert main(
            ["run", "--config", str(path), "--target-sparsity", "0.9", "--quiet"]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["sparsity"]["global_sparsity"] - 0.9) <= 0.005

    def test_seed_override_changes_result(self, config_path, tmp_path):
        path, out = config_path
        main(["run", "--config", str(path), "--quiet"])
        first = json.loads((out / "report.json").read_text())
        main(["run", "--config", str(path), "--seed", "99", "--quiet"])
        second = json.loads((out / "report.json").read_text())
        assert first["gamma_star"] != second["gamma_star"]

    def test_hit_target_prints_no_warning(self, config_path, capsys):
        path, out = config_path
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        search = json.loads((out / "report.json").read_text())["gamma_search"]
        assert search["target"] == 0.7
        assert search["hit_target"] is True
        assert abs(search["achieved"] - 0.7) <= 0.005
        assert search["iterations"] >= 1

    def test_missed_target_warns_even_when_quiet(self, config_path, tmp_path, capsys):
        path, out = config_path
        missed = missed_target_config(path, tmp_path)
        assert main(["run", "--config", str(missed), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: sparsity target 0.05 missed")
        search = json.loads((out / "report.json").read_text())["gamma_search"]
        assert search["hit_target"] is False
        assert search["iterations"] == 0
        assert lines[0].endswith(f"achieved {search['achieved']:.4f} after 0 iterations")

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nlayer = linear 4\n")
        assert main(["run", "--config", str(bad)]) == 1

    def test_dataset_error_in_data_stage_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = [f"{i % 7}.0,{i % 16}.5,{i % 2}" for i in range(40)] + ["1.0,2.0,1e300"]
        data.write_text("\n".join(rows) + "\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            CONFIG.format(out=tmp_path / "out")
            .replace("linear 16 32", "linear 2 32")
            .replace(
                "kind = synthetic-blobs\nn_samples = 400\nn_features = 16\n"
                "n_classes = 2\nseed = 9",
                f"kind = csv\npath = {data}\nlabel_column = 2",
            )
        )
        assert main(["run", "--config", str(bad)]) == 1
        *warnings, error = capsys.readouterr().err.splitlines()
        # The score stage runs beside the data stage; k = 4 is the full rank of 32x2.
        assert warnings == [
            "warning: layer0_linear: rank 2 (k = 4) is the full rank of a 32x2 matrix: the "
            "fit is exact up to rounding and its scores are noise"
        ]
        assert error.startswith("error: stage 'data' failed: label '1e300' at row 41")

    def test_data_failure_is_reported_over_score_failure(
        self, config_path, capsys, monkeypatch
    ):
        from nmfprune import pipeline
        from nmfprune.datasets import DatasetError

        def fail(error):
            def raise_error(*args, **kwargs):
                raise error

            return raise_error

        monkeypatch.setattr(pipeline, "load_dataset", fail(DatasetError("bad data")))
        monkeypatch.setattr(pipeline, "compute_scores", fail(RuntimeError("bad scores")))
        path, out = config_path
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: stage 'data' failed: bad data\n"
        status = json.loads((out / "status.json").read_text())
        assert status == {"status": "incomplete", "stage": "data", "error": "bad data"}

    def test_deleted_search_key_exits_1(self, config_path, tmp_path, capsys):
        path, out = config_path
        old = tmp_path / "old.cfg"
        old.write_text(path.read_text().replace("s_target = 0.7", "s_target = 0.7\nn_search = 30"))
        assert main(["run", "--config", str(old)]) == 1
        lineno = old.read_text().splitlines().index("n_search = 30") + 1
        assert capsys.readouterr().err == (
            f"error: {old}:{lineno}: unknown key 'n_search' in [gamma_search]\n"
        )
        assert not out.exists()

    def test_classifier_narrower_than_the_classes_exits_1(self, config_path, tmp_path, capsys):
        path, out = config_path
        narrow = tmp_path / "narrow.cfg"
        narrow.write_text(path.read_text().replace("n_classes = 2", "n_classes = 5"))
        assert main(["run", "--config", str(narrow), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: stage 'train' failed: the model has 2 outputs but the dataset has 5 classes\n"
        )
        status = json.loads((out / "status.json").read_text())
        assert (status["status"], status["stage"]) == ("incomplete", "train")
        # More outputs than classes is legal.
        wide = tmp_path / "wide.cfg"
        wide.write_text(path.read_text().replace("linear 32 2", "linear 32 5"))
        assert main(["run", "--config", str(wide), "--quiet"]) == 0

    def test_stage_failure_exits_2(self, config_path, capsys, monkeypatch):
        from nmfprune import pipeline

        def overflowing_training(*args, **kwargs):
            raise FloatingPointError("overflow encountered in matmul")

        monkeypatch.setattr(pipeline, "run_training", overflowing_training)
        path, out = config_path
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: stage 'train' failed: overflow encountered in matmul\n"
        )
        status = json.loads((out / "status.json").read_text())
        assert (status["status"], status["stage"]) == ("incomplete", "train")

    def test_feature_count_mismatch_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        bad = tmp_path / "bad.cfg"
        # Dataset features do not match the model input: a config error.
        bad.write_text(CONFIG.format(out=out).replace("n_features = 16", "n_features = 12"))
        assert main(["run", "--config", str(bad), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: stage 'train' failed: layer0_linear: input shape (12,) does not fit "
            "16 features; the dataset's samples have shape (12,)\n"
        )
        status = json.loads((out / "status.json").read_text())
        assert (status["status"], status["stage"]) == ("incomplete", "train")

    def test_conv_model_on_a_dataset_without_images_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.format(out=out).replace(
            "layer = linear 16 32\nlayer = relu\n",
            "layer = conv2d 1 2 3 3\nlayer = relu\nlayer = flatten\nlayer = linear 8 32\n",
        ))
        assert main(["run", "--config", str(bad), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: stage 'train' failed: layer0_conv: input shape (16,) does not fit "
            "1-channel images; the dataset's samples have shape (16,)"
        )
        status = json.loads((out / "status.json").read_text())
        assert (status["status"], status["stage"]) == ("incomplete", "train")

    def test_model_ending_in_a_conv_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        n = 100
        (tmp_path / "imgs").write_bytes(
            struct.pack(">iiii", 0x00000803, n, 8, 8)
            + rng.integers(0, 256, (n, 8, 8), dtype=np.uint8).tobytes()
        )
        (tmp_path / "lbls").write_bytes(
            struct.pack(">ii", 0x00000801, n) + rng.integers(0, 2, n, dtype=np.uint8).tobytes()
        )
        out = tmp_path / "out"
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            CONFIG.format(out=out)
            .replace(
                "layer = linear 16 32\nlayer = relu\nlayer = linear 32 2",
                "layer = conv2d 1 2 3 3\nlayer = relu\nlayer = conv2d 2 2 3 3",
            )
            .replace(
                "kind = synthetic-blobs\nn_samples = 400\nn_features = 16\n"
                "n_classes = 2\nseed = 9",
                f"kind = idx\nimages = {tmp_path / 'imgs'}\nlabels = {tmp_path / 'lbls'}",
            )
        )
        assert main(["run", "--config", str(bad), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: stage 'train' failed: the model ends in shape (2, 4, 4), "
            "not one score per class"
        )
        status = json.loads((out / "status.json").read_text())
        assert (status["status"], status["stage"]) == ("incomplete", "train")

    def test_sparsity_violation_exits_3(self, config_path, capsys, monkeypatch):
        import numpy as np

        import nmfprune.cli as cli_module
        from nmfprune.pipeline import StageError
        from nmfprune.trainer import SparsityViolationError

        def exploding_pipeline(cfg):
            cause = SparsityViolationError("layer0_linear", np.array([3]))
            raise StageError("train", cause) from cause

        path, _ = config_path
        monkeypatch.setattr(cli_module, "run_pipeline", exploding_pipeline)
        assert main(["run", "--config", str(path)]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_bad_usage_exits_1(self, capsys):
        # argparse usage failures are remapped from its default code 2.
        with pytest.raises(SystemExit) as err:
            main(["run", "--no-such-flag"])
        assert err.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize("argv, line", [
        (["run"], "nmfprune run: error: the following arguments are required: --config"),
        (["run", "--config", "x", "--seed", "1.5"],
         "nmfprune run: error: argument --seed: invalid int value: '1.5'"),
        (["run", "--config", "x", "--no-such-flag"],
         "nmfprune: error: unrecognized arguments: --no-such-flag"),
        ([], "nmfprune: error: the following arguments are required: command"),
    ], ids=["missing-config", "bad-seed", "unknown-flag", "no-command"])
    def test_usage_error_is_one_line_without_usage_block(self, capsys, argv, line):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["run", "--target-sparsity", "1.5"],
        ["tune", "--target-sparsity", "-1"],
        ["sweep", "--targets", "abc"],
        ["sweep", "--ks", "0"],
        ["sweep", "--ks", "x"],
        ["sweep", "--targets", ""],
        ["sweep", "--ks", ""],
    ],
    ids=[
        "run-target", "tune-target", "sweep-targets", "sweep-ks-zero", "sweep-ks-text",
        "sweep-targets-empty", "sweep-ks-empty",
    ],
)
def test_bad_flag_value_exits_1_before_any_run(config_path, capsys, flags):
    path, out = config_path
    assert main([*flags, "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "score", "tune"])
@pytest.mark.parametrize("named_by", ["flag", "config", "flag-under-a-file"])
def test_output_that_is_a_file_exits_1_before_scoring(
    config_path, tmp_path, capsys, monkeypatch, command, named_by
):
    from nmfprune import pipeline

    path, _ = config_path
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if named_by == "flag-under-a-file" else taken
    flags = ["--output", str(out)]
    if named_by == "config":
        path.write_text(CONFIG.format(out=taken))
        flags = []
    started = []
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "init_network", lambda *a: started.append("init_network"))
    assert main([command, "--config", str(path), *flags, "--quiet"]) == 1
    assert started == []
    assert capsys.readouterr().err == (
        f"error: output directory {out} cannot be made: a file is in its way\n"
    )
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["run", "score", "tune"])
def test_output_that_cannot_be_made_exits_1_naming_it(
    config_path, tmp_path, capsys, monkeypatch, command
):
    # Any OSError from mkdir is a config error, not only a file in the way:
    # here a name longer than the file system allows.
    path, _ = config_path
    monkeypatch.chdir(tmp_path)
    out = "9" * 300
    assert main([command, "--config", str(path), "--output", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {out}")
    assert err.endswith(f" cannot be made: {os.strerror(errno.ENAMETOOLONG)}\n")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("n_classes = 2\nseed = 9", "n_classes = 2\nseed = -1", "seed must be >= 0, got -1"),
        ("batch_size = 64", "batch_size = 64\nlr_gamma = -1", "lr_gamma must be > 0, got -1.0"),
        (
            "batch_size = 64", "batch_size = 64\nmilestones = -5",
            "lr_milestones must be >= 0, got (-5,)",
        ),
    ],
    ids=["blobs-seed", "lr-gamma", "negative-milestone"],
)
def test_out_of_range_config_value_exits_1_at_its_key(tmp_path, capsys, old, new, message):
    out = tmp_path / "out"
    text = CONFIG.format(out=out).replace(old, new)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    lineno = text.splitlines().index(new.splitlines()[-1]) + 1
    assert main(["run", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("exc", [KeyError("layer"), ZeroDivisionError("division by zero")])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unexpected_exception_exits_2_without_traceback(
    config_path, capsys, monkeypatch, exc, command
):
    import nmfprune.cli as cli_module

    def failing_pipeline(cfg):
        raise exc

    path, _ = config_path
    monkeypatch.setattr(cli_module, "run_pipeline", failing_pipeline)
    assert main([command, "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in err


def test_defect_inside_a_stage_exits_2_naming_its_type(config_path, capsys, monkeypatch):
    # A stage failure reaches main as a StageError (a RuntimeError); the
    # defect is its cause, and the cause's type is what the line names.
    import nmfprune.pipeline as pipeline

    def broken_load(spec, split_seed):
        return np.arange(5)[7]

    path, _ = config_path
    monkeypatch.setattr(pipeline, "load_dataset", broken_load)
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: IndexError: stage 'data' failed: index 7 is out of bounds for axis 0 with size 5\n"
    )


@pytest.mark.parametrize("command", ["run", "score", "tune", "sweep"])
def test_full_rank_factorization_warns_even_when_quiet(config_path, tmp_path, capsys, command):
    # k = 16 is the full rank of the 32x16 first layer.
    path, _ = config_path
    full_rank = tmp_path / "full_rank.cfg"
    full_rank.write_text(path.read_text().replace("k = 4", "k = 16"))
    assert main([command, "--config", str(full_rank), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "warning: layer0_linear: rank 16 (k = 16) is the full rank of a 32x16 matrix: the "
        "fit is exact up to rounding and its scores are noise"
    ]


@pytest.mark.parametrize("command", ["run", "score", "tune"])
@pytest.mark.parametrize(
    "layers, message",
    [
        (
            "linear 16 8\nlayer = linear 9 2",
            "layer1_linear: input shape (8,) does not fit 9 features",
        ),
        ("relu", "network needs at least one weighted layer"),
    ],
    ids=["incompatible-pair", "no-weighted-layer"],
)
def test_broken_layer_chain_exits_1_at_config_load(tmp_path, capsys, command, layers, message):
    out = tmp_path / "out"
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.format(out=out).replace(
        "linear 16 32\nlayer = relu\nlayer = linear 32 2", layers
    ))
    assert main([command, "--config", str(bad), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {bad}: [model] {message}\n"
    assert not out.exists()


FIXED_GAMMA = [("[gamma_search]\ns_target = 0.7\n", ""), ("type = std", "type = std\ngamma = 1.0")]


@pytest.mark.parametrize(
    "command, edits",
    [("run", []), ("run", FIXED_GAMMA), ("score", []), ("tune", [])],
    ids=["run-search", "run-fixed-gamma", "score", "tune"],
)
def test_model_without_a_prunable_layer_exits_1(tmp_path, capsys, command, edits):
    out = tmp_path / "out"
    text = CONFIG.format(out=out).replace(
        "linear 16 32\nlayer = relu\nlayer = linear 32 2", "linear 16 2"
    )
    for old, new in edits:
        text = text.replace(old, new)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main([command, "--config", str(bad), "--quiet"]) == 1
    assert capsys.readouterr().err.endswith(
        "the model has no prunable layer; set prunable=true on one\n"
    )
    assert not (out / "scores.bin").exists()



def write_image_pair(tmp_path, n=100, h=8, w=8):
    """An IDX image/label pair of n random h x w images in two classes; the
    [dataset] lines that name it."""
    rng = np.random.default_rng(0)
    (tmp_path / "imgs").write_bytes(
        struct.pack(">iiii", 0x00000803, n, h, w)
        + rng.integers(0, 256, (n, h, w), dtype=np.uint8).tobytes()
    )
    (tmp_path / "lbls").write_bytes(
        struct.pack(">ii", 0x00000801, n) + rng.integers(0, 2, n, dtype=np.uint8).tobytes()
    )
    return f"kind = idx\nimages = {tmp_path / 'imgs'}\nlabels = {tmp_path / 'lbls'}"


def write_csv(tmp_path):
    """A 40-row CSV of three features and a label; the [dataset] lines."""
    (tmp_path / "data.csv").write_text("1.0,2.0,3.0,0\n4.0,5.0,6.0,1\n" * 20)
    return f"kind = csv\npath = {tmp_path / 'data.csv'}\nlabel_column = 3"


BLOBS = "kind = synthetic-blobs\nn_samples = 400\nn_features = 16\nn_classes = 2\nseed = 9"
MLP = "layer = linear 16 32\nlayer = relu\nlayer = linear 32 2"


@pytest.mark.parametrize(
    "model, dataset, message",
    [
        (
            "layer = conv2d 1 2 3 3\nlayer = relu\nlayer = flatten\nlayer = linear 8 2",
            lambda tmp_path: BLOBS,
            "layer0_conv: input shape (16,) does not fit 1-channel images; "
            "the dataset's samples have shape (16,)",
        ),
        (
            MLP,
            lambda tmp_path: BLOBS.replace("n_features = 16", "n_features = 12"),
            "layer0_linear: input shape (12,) does not fit 16 features; "
            "the dataset's samples have shape (12,)",
        ),
        (
            "layer = conv2d 1 2 3 3\nlayer = relu\nlayer = conv2d 2 2 3 3",
            write_image_pair,
            "the model ends in shape (2, 4, 4), not one score per class",
        ),
        (
            MLP,
            write_csv,
            "layer0_linear: input shape (3,) does not fit 16 features; "
            "the dataset's samples have shape (3,)",
        ),
    ],
    ids=["conv-on-blobs", "features-on-blobs", "ends-in-conv-on-idx", "features-on-csv"],
)
def test_model_that_cannot_read_its_data_exits_1_before_scoring(
    tmp_path, capsys, monkeypatch, model, dataset, message
):
    from nmfprune import pipeline

    factorized = []
    score_layer = pipeline.score_layer

    def record_and_score(w, cfg, layer_id, *, seed):
        factorized.append(layer_id)
        return score_layer(w, cfg, layer_id, seed=seed)

    monkeypatch.setattr(pipeline, "score_layer", record_and_score)
    out = tmp_path / "out"
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG.format(out=out).replace(MLP, model).replace(BLOBS, dataset(tmp_path)))
    assert main(["run", "--config", str(bad), "--quiet"]) == 1
    assert factorized == []
    assert capsys.readouterr().err == f"error: stage 'train' failed: {message}\n"
    status = json.loads((out / "status.json").read_text())
    assert (status["status"], status["stage"]) == ("incomplete", "train")
    assert sorted(p.name for p in out.iterdir()) == ["status.json"]


DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"


@pytest.mark.parametrize(
    "target, content, message",
    [
        (
            "config", b"[run]\nse\xffd = 3\n",
            "config file {bad} is not UTF-8 text: " + DECODE_ERROR.format(8),
        ),
        ("config", None, "config file not found: {bad}"),
        (
            "csv", b"1.0,2.0,0\n\xff,1.0,1\n",
            "stage 'data' failed: csv file {bad} is not UTF-8 text: " + DECODE_ERROR.format(10),
        ),
        ("csv", None, "stage 'data' failed: csv file not found: {bad}"),
        ("idx", None, "stage 'data' failed: idx file not found: {bad}"),
    ],
    ids=[
        "config-not-utf8", "config-is-a-directory", "csv-not-utf8", "csv-is-a-directory",
        "idx-images-is-a-directory",
    ],
)
def test_unreadable_input_file_exits_1_naming_it(tmp_path, capsys, target, content, message):
    # A directory, or bytes that are not UTF-8, where a file is read.
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    dataset = {
        "config": BLOBS,
        "csv": f"kind = csv\npath = {bad}\nlabel_column = 2",
        "idx": write_image_pair(tmp_path).replace(str(tmp_path / "imgs"), str(bad)),
    }[target]
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG.format(out=tmp_path / "out").replace(BLOBS, dataset))
    argv = ["run", "--config", str(bad if target == "config" else config), "--quiet"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(bad=bad)}\n"

# tune_wide's model: magnitude scores and the MAD rule, so the scores are |W|.
WIDE_TUNE_CONFIG = """
[run]
seed = 5
output = {out}

[model]
layer = linear 784 1000
layer = relu
layer = linear 1000 1000
layer = relu
layer = linear 1000 10

[dataset]
kind = synthetic-blobs
n_samples = 100
n_features = 784
n_classes = 10

[scorer]
kind = magnitude

[gamma_search]
s_target = 0.9

[threshold]
type = mad

[train]
epochs = 1
lr = 0.1
"""


MAGNITUDE = "kind = magnitude"
NMF = "kind = nmf\nk = 4"


@pytest.mark.parametrize("command, next_step", [("tune", "tune_gamma"), ("score", "write_container")])
def test_no_weights_alive_once_scores_exist(
    config_path, tmp_path, monkeypatch, capsys, command, next_step
):
    # Scoring writes |W| into the prunable layers' own buffers and the
    # network is dropped, so a weight buffer still alive is a score array:
    # the magnitude scores themselves, and nothing for NMF.
    path, _ = config_path
    magnitude = tmp_path / "magnitude.cfg"
    magnitude.write_text(path.read_text().replace(NMF, MAGNITUDE))
    init, step = cli.init_network, getattr(cli, next_step)
    weights = []
    alive = []

    def init_and_track(*args, **kwargs):
        net = init(*args, **kwargs)
        weights.extend(weakref.ref(layer.weights) for layer in net.weighted_layers)
        return net

    def check_then_step(*args, **kwargs):
        scores = args[0] if next_step == "tune_gamma" else args[2]
        arrays = [getattr(s, "scores", s) for s in scores.values()]
        live = [ref() for ref in weights if ref() is not None]
        alive.append([any(w is a for a in arrays) for w in live])
        return step(*args, **kwargs)

    monkeypatch.setattr(cli, "init_network", init_and_track)
    monkeypatch.setattr(cli, next_step, check_then_step)
    for config in (path, magnitude):
        weights.clear()
        assert main([command, "--config", str(config)]) == 0
    # NMF: no weight buffer is alive; magnitude: the prunable layer's only.
    assert alive == [[], [True]]


def test_tune_peak_memory_is_the_weights_and_scores(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    path.write_text(WIDE_TUNE_CONFIG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    net = cli.init_network(cfg.model, cfg.seed)
    weight_bytes = sum(l.weights.nbytes + l.bias.nbytes for l in net.weighted_layers)
    largest_bytes = max(l.weights.nbytes for l in net.prunable_layers)
    del net
    # The scores are the weights' own buffers, and the rest of the weights
    # are gone before the search.
    assert second_tune_peak(path) <= 1.05 * (weight_bytes + largest_bytes)


def second_tune_peak(path) -> int:
    """Traced peak bytes of a second ``tune`` on ``path``; the first call's
    imports and cached parser are not counted."""
    assert main(["tune", "--config", str(path), "--quiet"]) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["tune", "--config", str(path), "--quiet"]) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_tune_sorts_the_scores_in_their_own_buffers(tmp_path, capsys):
    # Under both rules the search sorts each layer's scores in place, and the
    # MAD is selected from the sorted run, so no layer-sized copy joins the
    # scores. Under std, np.std's temporary of the largest layer comes on top.
    config = WIDE_TUNE_CONFIG.replace("784", "256").replace("1000", "512")
    for t_type in ("std", "mad"):
        path = tmp_path / f"{t_type}.cfg"
        path.write_text(
            config.replace("type = mad", f"type = {t_type}").format(out=tmp_path / "out")
        )
        cfg = load_config(path)
        assert cfg.threshold.t_type == t_type
        net = cli.init_network(cfg.model, cfg.seed)
        assert [l.weights.shape for l in net.prunable_layers] == [(512, 256), (512, 512)]
        score_bytes = sum(l.weights.nbytes for l in net.prunable_layers)
        largest_bytes = max(l.weights.nbytes for l in net.prunable_layers)
        del net
        bound = {"mad": 1.2 * score_bytes, "std": 1.2 * score_bytes + largest_bytes}
        assert second_tune_peak(path) <= bound[t_type], t_type


@pytest.mark.parametrize("scorer", [MAGNITUDE, NMF], ids=["magnitude", "nmf"])
def test_scoring_in_place_gives_the_library_outputs(config_path, tmp_path, monkeypatch, scorer):
    # tune and score write |W| over the weights of the network they score.
    # Scoring copies of those weights must write the same bytes.
    path, _ = config_path
    config = tmp_path / "scorer.cfg"
    config.write_text(path.read_text().replace(NMF, scorer))

    def outputs(out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["tune", "--config", str(config), "--output", str(out / "tune")]) == 0
            assert main(["score", "--config", str(config), "--output", str(out / "score")]) == 0
        return (
            stdout.getvalue().replace(str(out), "<out>"),
            (out / "tune" / "gamma_search.jsonl").read_bytes(),
            (out / "score" / "scores.bin").read_bytes(),
        )

    consumed = outputs(tmp_path / "in_place")
    compute_scores = cli.compute_scores

    def scores_of_copies(net, scorer, root_seed):
        originals = [(l.weights, l.weights.copy()) for l in net.prunable_layers]
        for layer, (_, copy) in zip(net.prunable_layers, originals):
            layer.weights = copy.copy()
        scores = compute_scores(net, scorer, root_seed)
        assert all(np.array_equal(w, copy) for w, copy in originals)
        return scores

    monkeypatch.setattr(cli, "compute_scores", scores_of_copies)
    assert outputs(tmp_path / "library") == consumed


def test_two_calls_build_one_parser(config_path, monkeypatch, capsys):
    path, _ = config_path
    built = []
    init = cli._Parser.__init__

    def record_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", record_init)
    cli._build_parser.cache_clear()
    counts = []
    for command in ("score", "tune"):
        assert main([command, "--config", str(path), "--quiet"]) == 0
        counts.append(len(built))
    assert counts[0] > 0 and counts[1] == counts[0]


class TestScore:
    def test_dumps_score_tensors(self, config_path, capsys):
        path, out = config_path
        assert main(["score", "--config", str(path)]) == 0
        meta, tensors = read_container(out / "scores.bin")
        assert meta["kind"] == "scores"
        assert set(tensors) == {"layer0_linear"}
        assert tensors["layer0_linear"].shape == (32, 16)
        assert np.all(tensors["layer0_linear"] >= 0)


class TestTune:
    def test_prints_gamma_and_sparsity(self, config_path, capsys):
        path, out = config_path
        assert main(["tune", "--config", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "gamma*" in captured
        assert "achieved sparsity" in captured
        assert (out / "gamma_search.jsonl").exists()

    def test_requires_target(self, config_path, tmp_path, capsys):
        path, out = config_path
        text = path.read_text().replace("[gamma_search]\ns_target = 0.7\n", "")
        text = text.replace("type = std", "type = std\ngamma = 1.0")
        fixed = tmp_path / "fixed.cfg"
        fixed.write_text(text)
        assert main(["tune", "--config", str(fixed)]) == 1
        assert main(["tune", "--config", str(fixed), "--target-sparsity", "0.6"]) == 0

    def test_missed_target_warns_even_when_quiet(self, config_path, tmp_path, capsys):
        path, out = config_path
        missed = missed_target_config(path, tmp_path)
        assert main(["tune", "--config", str(missed), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        trace = (out / "gamma_search.jsonl").read_text()
        probes = [json.loads(line) for line in trace.splitlines()]
        closest = min((p["achieved"] for p in probes), key=lambda s: abs(s - 0.05))
        assert abs(closest - 0.05) > 0.005
        search = {"target": 0.05, "achieved": closest, "iterations": 0}
        assert captured.err == miss_warning(search) + "\n"

    def test_writes_the_same_trace_as_run(self, config_path, tmp_path):
        path, _ = config_path
        runs = {}
        for command in ("run", "tune"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--output", str(out), "--quiet"]) == 0
            runs[command] = (out / "gamma_search.jsonl").read_bytes()
            assert not list(out.glob(".*.tmp"))
        assert runs["run"] == runs["tune"]


class TestSweep:
    def test_grid_runs(self, config_path, capsys):
        path, out = config_path
        assert main(
            ["sweep", "--config", str(path), "--targets", "0.5,0.7", "--ks", "2", "--quiet"]
        ) == 0
        assert (out / "t0.5_k2" / "report.json").exists()
        assert (out / "t0.7_k2" / "report.json").exists()

    @pytest.mark.parametrize(
        "flags", [["--targets", "0.5,0.7,0.50"], ["--ks", "2,3,02"]], ids=["targets", "ks"]
    )
    def test_repeated_grid_value_exits_1_before_any_run(self, config_path, capsys, flags):
        path, out = config_path
        assert main(["sweep", "--config", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]}: ") and "given more than once" in err
        assert not out.exists()

    def test_targets_with_target_sparsity_exits_1_before_any_run(self, config_path, capsys):
        # Each flag names the targets; sweep does not pick one of the two.
        path, out = config_path
        flags = ["--targets", "0.5", "--target-sparsity", "0.6"]
        assert main(["sweep", "--config", str(path), *flags, "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: --targets and --target-sparsity cannot be given together\n"
        )
        assert not out.exists()

    def test_close_targets_get_their_own_directories(self, config_path, capsys):
        path, out = config_path
        targets = "0.7000001,0.7000004"
        assert main(["sweep", "--config", str(path), "--targets", targets, "--quiet"]) == 0
        for target in targets.split(","):
            report = json.loads((out / f"t{target}" / "report.json").read_text())
            assert report["gamma_search"]["target"] == float(target)

    def test_each_missed_grid_point_warns(self, config_path, tmp_path, capsys):
        path, out = config_path
        missed = missed_target_config(path, tmp_path)
        assert main(
            ["sweep", "--config", str(missed), "--targets", "0.05,0.1", "--quiet"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        searches = [
            json.loads((out / f"t{target}" / "report.json").read_text())["gamma_search"]
            for target in ("0.05", "0.1")
        ]
        assert [search["hit_target"] for search in searches] == [False, False]
        assert captured.err.splitlines() == [miss_warning(search) for search in searches]

    def test_ks_needs_nmf_scorer(self, config_path, tmp_path, capsys):
        path, out = config_path
        magnitude = tmp_path / "magnitude.cfg"
        magnitude.write_text(path.read_text().replace("kind = nmf\nk = 4", "kind = magnitude"))
        assert main(
            ["sweep", "--config", str(magnitude), "--targets", "0.8", "--ks", "2,9"]
        ) == 1
        assert "--ks" in capsys.readouterr().err
        assert main(["sweep", "--config", str(magnitude), "--targets", "0.8", "--ks", ""]) == 1
        assert "needs [scorer] kind = nmf" in capsys.readouterr().err
        assert not out.exists()
        assert main(["sweep", "--config", str(magnitude), "--targets", "0.8", "--quiet"]) == 0
        assert (out / "t0.8" / "report.json").exists()


    def test_fixed_gamma_config_needs_a_target_before_any_run(
        self, config_path, tmp_path, capsys
    ):
        # A fixed-gamma config names no target, and sweep runs a search at
        # each target: it asks for one instead of choosing it.
        path, out = config_path
        text = path.read_text()
        for old, new in FIXED_GAMMA:
            text = text.replace(old, new)
        fixed = tmp_path / "fixed.cfg"
        fixed.write_text(text)
        assert main(["sweep", "--config", str(fixed), "--ks", "2,3"]) == 1
        assert capsys.readouterr().err == (
            "error: sweep needs --targets, --target-sparsity or a [gamma_search] section\n"
        )
        assert not out.exists()
        assert main(["sweep", "--config", str(fixed), "--target-sparsity", "0.6", "--quiet"]) == 0
        report = json.loads((out / "t0.6" / "report.json").read_text())
        assert report["gamma_search"]["target"] == 0.6


class TestInspect:
    def test_prints_sparsity_report(self, config_path, capsys):
        path, out = config_path
        main(["run", "--config", str(path), "--quiet"])
        assert main(["inspect", str(out / "checkpoint.bin")]) == 0
        captured = capsys.readouterr().out
        assert "global:" in captured
        assert "layer0_linear" in captured

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"nonsense")
        assert main(["inspect", str(bad)]) == 2

    def test_quiet_is_a_silent_validity_check(self, config_path, tmp_path, capsys):
        path, out = config_path
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out / "checkpoint.bin"), "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"nonsense")
        assert main(["inspect", str(bad), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
