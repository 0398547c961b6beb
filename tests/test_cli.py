"""Command-line interface tests: subcommands, overrides, exit codes."""

import json

import numpy as np
import pytest

from nmfprune.checkpoint import read_container
from nmfprune.cli import main

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
    """The run config with one probe in a bracket that cannot prune anywhere
    near 95%."""
    missed = tmp_path / "missed.cfg"
    missed.write_text(path.read_text().replace(
        "s_target = 0.7", "s_target = 0.95\nn_search = 1\ngamma_min = 0.01\ngamma_max = 0.02"
    ))
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
        # One probe in a bracket that cannot prune anywhere near 95%.
        missed = tmp_path / "missed.cfg"
        missed.write_text(path.read_text().replace(
            "s_target = 0.7", "s_target = 0.95\nn_search = 1\ngamma_min = 0.01\ngamma_max = 0.02"
        ))
        assert main(["run", "--config", str(missed), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: sparsity target 0.95 missed")
        search = json.loads((out / "report.json").read_text())["gamma_search"]
        assert search["hit_target"] is False
        assert search["iterations"] == 1
        assert lines[0].endswith(f"achieved {search['achieved']:.4f} after 1 iterations")

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


@pytest.mark.parametrize(
    "flags",
    [
        ["run", "--target-sparsity", "1.5"],
        ["tune", "--target-sparsity", "-1"],
        ["sweep", "--targets", "abc"],
        ["sweep", "--ks", "0"],
        ["sweep", "--ks", "x"],
    ],
    ids=["run-target", "tune-target", "sweep-targets", "sweep-ks-zero", "sweep-ks-text"],
)
def test_bad_flag_value_exits_1_before_any_run(config_path, capsys, flags):
    path, out = config_path
    assert main([*flags, "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
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
        closest = min((p["achieved"] for p in probes), key=lambda s: abs(s - 0.95))
        assert abs(closest - 0.95) > 0.005
        search = {"target": 0.95, "achieved": closest, "iterations": 1}
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
            ["sweep", "--config", str(missed), "--targets", "0.95,0.97", "--quiet"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        searches = [
            json.loads((out / f"t{target}" / "report.json").read_text())["gamma_search"]
            for target in ("0.95", "0.97")
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
        assert not out.exists()
        assert main(["sweep", "--config", str(magnitude), "--targets", "0.8", "--quiet"]) == 0
        assert (out / "t0.8" / "report.json").exists()


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
