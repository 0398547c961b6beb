"""Config file parsing: grammar, defaults, and mode exclusivity."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from nmfprune import runconfig
from nmfprune.datasets import CsvSource, IdxSource, SyntheticBlobs
from nmfprune.masking import GammaSearchConfig, ThresholdConfig
from nmfprune.network import Conv2d, Flatten, Linear, ReLU
from nmfprune.nmf import NmfConfig
from nmfprune.runconfig import ConfigError, MagnitudeScorer, RunConfig, load_config, parse_config
from nmfprune.trainer import TrainConfig

BASE = """
[run]
seed = 42
output = runs/test

[model]
layer = linear 16 64
layer = relu
layer = linear 64 2

[dataset]
kind = synthetic-blobs
n_samples = 500
n_features = 16
n_classes = 2
seed = 7

[scorer]
kind = nmf
k = 6

[gamma_search]
s_target = 0.8

[threshold]
type = std

[train]
epochs = 10
lr = 0.1
milestones = 5 8
"""

# Edits of BASE that end in a non-finite number: (old text, new text).
NON_FINITE = {
    "gamma": (
        "[gamma_search]\ns_target = 0.8\n\n[threshold]\ntype = std",
        "[threshold]\ntype = std\ngamma = inf",
    ),
    "lr": ("lr = 0.1", "lr = inf"),
    "weight_decay": ("lr = 0.1", "lr = 0.1\nweight_decay = inf"),
    "lr_gamma": ("lr = 0.1", "lr = 0.1\nlr_gamma = nan"),
}


class TestParsing:
    def test_full_config(self):
        cfg = parse_config(BASE)
        assert cfg.seed == 42
        assert str(cfg.output_dir) == "runs/test"
        assert cfg.model == [Linear(16, 64), ReLU(), Linear(64, 2)]
        assert cfg.dataset == SyntheticBlobs(500, 16, 2, seed=7)
        assert cfg.scorer == NmfConfig(k=6)
        assert cfg.threshold.t_type == "std"
        assert cfg.gamma_search is not None
        assert cfg.gamma_search == GammaSearchConfig(s_target=0.8)
        assert cfg.train.epochs == 10
        assert cfg.train.lr_milestones == (5, 8)

    def test_fixed_gamma_mode(self):
        text = BASE.replace("[gamma_search]\ns_target = 0.8\n", "").replace(
            "type = std", "type = mad\ngamma = 1.5"
        )
        cfg = parse_config(text)
        assert cfg.gamma_search is None
        assert cfg.threshold.gamma == 1.5
        assert cfg.threshold.t_type == "mad"

    def test_conv_layer_with_options(self):
        text = BASE.replace(
            "layer = linear 16 64\nlayer = relu\nlayer = linear 64 2",
            "layer = conv2d 1 8 3 3 stride=2 padding=1 prunable=false\n"
            "layer = flatten\nlayer = linear 128 2",
        )
        cfg = parse_config(text)
        assert cfg.model[0] == Conv2d(1, 8, 3, 3, 2, 1, prunable=False)
        assert cfg.model[1] == Flatten()

    def test_magnitude_scorer(self):
        text = BASE.replace("kind = nmf\nk = 6", "kind = magnitude")
        assert parse_config(text).scorer == MagnitudeScorer()

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n" + BASE.replace("[run]", "# note\n\n[run]  # trailing")
        text = text.replace("output = runs/test", "output = runs/x   # my run")
        text = text.replace("layer = linear 64 2", "layer = linear 64 2  # classifier")
        cfg = parse_config(text)
        assert cfg.seed == 42
        assert cfg.output_dir == Path("runs/x")
        assert cfg.model[-1] == Linear(64, 2)

    def test_readme_example(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg = parse_config(block, "README")
        assert cfg.model == [Linear(16, 64), ReLU(), Linear(64, 32), ReLU(), Linear(32, 2)]
        assert cfg.dataset == SyntheticBlobs(1000, 16, 2, seed=7)
        assert cfg.scorer == NmfConfig(k=6, n_iter=200)
        assert cfg.threshold.t_type == "std"
        assert cfg.gamma_search == GammaSearchConfig(s_target=0.8)
        assert cfg.train == TrainConfig(epochs=40, lr=0.1, lr_milestones=(20, 30))
        assert cfg.output_dir == Path("runs/blobs")

    def test_defaults_without_run_section(self):
        text = BASE.replace("[run]\nseed = 42\noutput = runs/test\n", "")
        cfg = parse_config(text)
        assert cfg.seed == 0
        assert str(cfg.output_dir) == "runs/run"
        assert cfg.checkpoint_every is None

    def test_checkpoint_every_parsed(self):
        text = BASE.replace("seed = 42", "seed = 42\ncheckpoint_every = 5")
        assert parse_config(text).checkpoint_every == 5


class TestErrors:
    def test_both_modes_rejected(self):
        text = BASE.replace("type = std", "type = std\ngamma = 1.5")
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_neither_mode_rejected(self):
        text = BASE.replace("[gamma_search]\ns_target = 0.8\n", "")
        with pytest.raises(ConfigError, match="either"):
            parse_config(text)

    def test_missing_section_named(self):
        start = BASE.index("[dataset]")
        end = BASE.index("[scorer]")
        with pytest.raises(ConfigError, match=r"missing required section \[dataset\]"):
            parse_config(BASE[:start] + BASE[end:])

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown sections"):
            parse_config(BASE + "\n[extra]\nfoo = 1\n")

    @pytest.mark.parametrize(
        "section, line",
        [
            ("[train]", "momentun = 0.0"),
            ("[train]", "seed = 3"),
            ("[train]", "layer = flatten"),
            ("[scorer]", "n_iters = 5"),
            ("[scorer]", "seed = 3"),
            ("[scorer]", "epsilon = 1e-12"),
            ("[run]", "checkpoint_evry = 2"),
            ("[model]", "layers = relu"),
            ("[threshold]", "t_type = mad"),
            # The gamma search works these out from the scores; a config that
            # still sets one fails by name.
            ("[gamma_search]", "n_search = 30"),
            ("[gamma_search]", "gamma_min = 0.01"),
            ("[gamma_search]", "gamma_max = 10.0"),
            ("[gamma_search]", "gamma_guess = 1.0"),
            ("[gamma_search]", "epsilon_gamma_conv = 0.0001"),
            # The hit tolerance is the paper's fixed 0.005.
            ("[gamma_search]", "epsilon_sparsity = 0.005"),
        ],
    )
    def test_unknown_key_rejected_at_its_line(self, section, line):
        text = BASE.replace(section, f"{section}\n{line}")
        lineno = text.splitlines().index(line) + 1
        key = line.split(" = ")[0]
        message = rf"^<config>:{lineno}: unknown key '{key}' in \{section[:-1]}\]$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize(
        "layer, message",
        [
            ("relu 5", "relu takes no positional arguments"),
            ("flatten stride=2", r"unknown flatten options \['stride'\]"),
            ("linear 16", "linear takes <in_features> <out_features>"),
            ("conv2d 1 8 3 3 dilation=2", r"unknown conv2d options \['dilation'\]"),
            ("conv2d 1 8 3 3 stride=1 stride=2", "duplicate conv2d option 'stride'"),
            ("linear 16 64 prunable=maybe", "prunable must be a boolean"),
            ("linear 16 x", "out_features must be an integer"),
            ("linear 0 64", "Linear dimensions must be positive"),
        ],
    )
    def test_bad_layer_arguments_located_once(self, layer, message):
        text = BASE.replace("layer = linear 16 64", f"layer = {layer}")
        lineno = text.splitlines().index(f"layer = {layer}") + 1
        with pytest.raises(ConfigError, match=rf"^<config>:{lineno}: {message}") as err:
            parse_config(text)
        assert str(err.value).count("<config>") == 1

    def test_bad_layer_line_has_location(self):
        text = BASE.replace("layer = relu", "layer = rezu")
        with pytest.raises(ConfigError, match=r":\d+: unknown layer kind"):
            parse_config(text)

    def test_non_numeric_value_has_location(self):
        text = BASE.replace("epochs = 10", "epochs = ten")
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(text)

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_checkpoint_every_below_one_rejected_at_its_line(self, every):
        text = BASE.replace("seed = 42", f"seed = 42\ncheckpoint_every = {every}")
        lineno = text.splitlines().index(f"checkpoint_every = {every}") + 1
        with pytest.raises(
            ConfigError, match=rf"^<config>:{lineno}: checkpoint_every must be >= 1, got {every}$"
        ):
            parse_config(text)

    def test_errors_unchanged_by_the_type_hint_memo(self):
        # Each field type's reader and each section's own validation, read
        # with the memo empty and again with it filled: the same text.
        cases = [
            ("epochs = 10", "epochs = ten", "{line}: epochs must be an integer"),
            ("lr = 0.1", "lr = inf", "{line}: lr must be a finite number"),
            ("milestones = 5 8", "milestones = 5 x", "{line}: milestones must be integers"),
            ("layer = linear 16 64", "layer = linear 16 64 prunable=maybe",
             "{line}: prunable must be a boolean"),
            ("k = 6", "k = 0", "{line}: k must be >= 1, got 0"),
            ("s_target = 0.8", "s_target = 1.5", "{line}: s_target must be in (0, 1), got 1.5"),
            ("type = std", "type = iqr",
             "<config>: unknown threshold type 'iqr', expected one of ('std', 'mad')"),
        ]
        for old, new, message in cases:
            text = BASE.replace(old, new)
            expected = message.format(line=f"<config>:{text.splitlines().index(new) + 1}")
            runconfig._type_hints.cache_clear()
            for _ in range(2):
                with pytest.raises(ConfigError) as err:
                    parse_config(text)
                assert str(err.value) == expected
        assert runconfig._type_hints.cache_info().hits > 0

    @pytest.mark.parametrize("old, new", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_number_rejected_at_its_line(self, old, new):
        text = BASE.replace(old, new)
        line = new.splitlines()[-1]
        lineno = text.splitlines().index(line) + 1
        key = line.split(" = ")[0]
        message = rf"^<config>:{lineno}: {key} must be a finite number$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = BASE.replace("seed = 42", "seed = 42\nseed = 43")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("seed = 1\n" + BASE)

    def test_invalid_train_values_surface_as_config_errors(self):
        text = BASE.replace("lr = 0.1", "lr = -0.5")
        with pytest.raises(ConfigError, match="lr must be"):
            parse_config(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(BASE)
        assert load_config(p).seed == 42


# Each dataclass a section is read into: (section, its kind line, the class,
# the config's spelling of a field where it differs from the field's name).
SECTION_CLASSES = [
    ("scorer", "kind = nmf", NmfConfig, {}),
    ("scorer", "kind = magnitude", MagnitudeScorer, {}),
    ("train", "", TrainConfig, {"lr_milestones": "milestones"}),
    ("threshold", "", ThresholdConfig, {"t_type": "type"}),
    ("gamma_search", "", GammaSearchConfig, {}),
    ("dataset", "kind = synthetic-blobs", SyntheticBlobs, {}),
    ("dataset", "kind = csv", CsvSource, {}),
    ("dataset", "kind = idx", IdxSource, {"images_path": "images", "labels_path": "labels"}),
    ("run", "", RunConfig, {"output_dir": "output"}),
]
SECTION_NAMES = {"run", "model", "dataset", "scorer", "threshold", "gamma_search", "train"}
FIELD_KEYS = [
    pytest.param(section, kind, aliases.get(f.name, f.name), id=f"{cls.__name__}.{f.name}")
    for section, kind, cls, aliases in SECTION_CLASSES
    for f in fields(cls)
    if f.name not in SECTION_NAMES  # RunConfig's sections, not keys
]


@pytest.mark.parametrize("section, kind, key", FIELD_KEYS)
def test_every_field_of_a_section_has_a_key(section, kind, key):
    # A config field that no config may set is a value the caller overwrites:
    # pass it as an argument instead (as the seeds are).
    parts = re.split(r"(?m)^(?=\[)", BASE)
    text = "".join(p for p in parts if not p.startswith(f"[{section}]"))
    text += f"\n[{section}]\n{kind}\n{key} = 1\n"
    try:
        parse_config(text)
    except ConfigError as exc:
        assert "unknown key" not in str(exc)
