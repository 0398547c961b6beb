"""Seeded fuzzing of outside inputs: checkpoints, config text, CSV cells and
IDX headers.

Each metadata mutation edits one node of a valid checkpoint's JSON metadata
(a type swap, a deleted or added key, a value nested one level deeper); each
tensor mutation writes one value into a stored weight, bias or mask (NaN,
+-inf, 0.5 or -0.0 in a mask, a non-zero weight where its mask prunes) or
gives one tensor another shape. Both rewrite the container with a valid CRC.
Loading it must either return a network whose masks are bool, whose pruned
weights are exactly 0.0, whose weights and biases are finite and whose spec
fields have their declared types, or raise a CheckpointError that begins
with the path; ``inspect`` must exit 0 on the first and 2 on the second.

Config text, CSV cells and IDX headers are mutated in files that ``run``
(and, for config text, ``tune``) then reads in process. Every mutation puts
in small values only, so a run that is accepted stays a few milliseconds.

Every command must exit 0, 1, 2 or 3, with at most one stderr line that
names no exception type.

CLI flags are mutated in the argv of every command: a token dropped or
repeated, an unknown flag put in, or a flag given a value no run expects.
The command, or argparse's ``SystemExit``, must exit 0, 1, 2 or 3, and
stderr must name no exception type: a failure is one line after any
``warning:`` lines, a success prints only ``warning:`` lines.
"""

import copy
import dataclasses
import random
import re
import struct
from typing import get_args, get_type_hints

import numpy as np
import pytest

from nmfprune.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from nmfprune.cli import main
from nmfprune.network import Conv2d, Flatten, Linear, ReLU, convert_to_masked, init_network

# Values a mutation puts in place of a node or under a new key. The integers
# stay small, or far beyond what an array can hold, so no network the fuzz
# builds allocates more than a few weights.
VALUES = [
    None, True, False, 0, 1, 2, 3, -1, 2**63, 1.0, 0.5, "", "linear", "conv2d", "relu",
    "checkpoint", [], {}, [1], {"kind": "relu"},
]
KEYS = ["extra", "kind", "seed", "stride", "dilation", "prunable", "layer9_linear"]
EXCEPTION_NAME = re.compile(r"\b[A-Z]\w*(Error|Exception)\b")


def _masked(specs, seed):
    net = init_network(specs, seed=seed)
    rng = np.random.default_rng(seed)
    convert_to_masked(net, {l.layer_id: rng.random(l.weights.shape) < 0.5
                            for l in net.prunable_layers})
    return net


def _nodes(value, parent=None, key=None):
    """Every (container, key) pair under ``value``, the root as (None, None)."""
    yield parent, key
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for k, child in children:
        yield from _nodes(child, value, k)


def _mutate(meta: dict, rng: random.Random):
    """A copy of ``meta`` with one node swapped, deleted, given a key or nested."""
    holder = {"meta": copy.deepcopy(meta)}
    parent, key = rng.choice(list(_nodes(holder))[1:])  # any node, the metadata's root too
    op = rng.choice(["swap", "delete", "add", "nest"])
    if op == "swap" or (op == "delete" and parent is holder):
        parent[key] = rng.choice(VALUES)
    elif op == "delete":
        del parent[key]
    elif op == "add" and isinstance(parent[key], dict):
        parent[key][rng.choice(KEYS)] = rng.choice(VALUES)
    else:  # nest, or add to a value that is no dict
        parent[key] = rng.choice([[parent[key]], {"value": parent[key]}])
    return holder["meta"]


def _check_loaded(net) -> None:
    for layer in net.weighted_layers:
        assert np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()
    for layer in net.masked_layers:
        assert layer.mask.dtype == bool
        assert np.all(layer.weights[~layer.mask] == 0.0)
    for spec in net.specs:
        hints = get_type_hints(type(spec))
        for field in dataclasses.fields(spec):
            value = getattr(spec, field.name)
            assert type(value) in (get_args(hints[field.name]) or (hints[field.name],))


def _loads(path, capsys) -> bool:
    """Whether the checkpoint at ``path`` loads, after checking the oracle."""
    try:
        net = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        loaded = False
    else:
        _check_loaded(net)
        loaded = True
    code, err = _cli(["inspect", "--quiet", str(path)], capsys)
    assert code == (0 if loaded else 2)
    assert loaded or err.startswith(f"error: {path}: "), err
    return loaded


def _cli(argv, capsys) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, after checking the oracle every
    command keeps."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1 and not EXCEPTION_NAME.search(err), (argv, err)
    return code, err


@pytest.fixture
def bases(tmp_path):
    """The metadata and tensors of a masked MLP's and a masked conv net's checkpoints."""
    found = []
    for i, specs in enumerate([
        [Linear(6, 10), ReLU(), Linear(10, 3)],
        [Conv2d(1, 2, 3, 3, padding=1), ReLU(), Flatten(), Linear(18, 3)],
    ]):
        path = tmp_path / f"base{i}.bin"
        save_checkpoint(_masked(specs, seed=i), path)
        found.append(read_container(path))
    return found


def test_mutated_checkpoint_metadata_loads_or_names_the_file(tmp_path, capsys, bases):
    rng = random.Random(0)
    path = tmp_path / "ck.bin"
    outcomes = []
    for _ in range(500):
        meta, tensors = rng.choice(bases)
        write_container(path, _mutate(meta, rng), tensors)
        outcomes.append(_loads(path, capsys))
    # Both outcomes are exercised.
    assert 0 < sum(outcomes) < len(outcomes)


# Values a tensor mutation writes: the first three are never finite, and a
# mask holds only +0.0 and 1.0.
TENSOR_VALUES = [np.nan, np.inf, -np.inf, 0.5, -0.0, 0.0, 1.0, -2.5]
RESHAPES = [
    lambda t: t[:, :-1], lambda t: t[:-1], lambda t: np.hstack([t, t[:, :1]]), lambda t: t.T,
]


def _mutate_tensor(tensors: dict, rng: random.Random) -> tuple[dict, bool]:
    """A copy of ``tensors`` with one value written into one tensor, or that
    tensor given another shape, and whether a load must reject it."""
    tensors = {name: t.copy() for name, t in tensors.items()}
    name = rng.choice(sorted(tensors))
    t = tensors[name]
    if rng.random() < 0.2:
        tensors[name] = rng.choice(RESHAPES)(t)
        return tensors, tensors[name].shape != t.shape
    index = (rng.randrange(t.shape[0]), rng.randrange(t.shape[1]))
    value = rng.choice(TENSOR_VALUES)
    t[index] = value
    lid, kind = name.rsplit(".", 1)
    if not np.isfinite(value):
        return tensors, True
    if kind == "mask":  # 0.0 prunes: only a weight that is 0.0 may be pruned
        pruned_live = value == 0.0 and tensors[f"{lid}.weight"][index] != 0.0
        return tensors, bool(np.signbit(value) or value not in (0.0, 1.0) or pruned_live)
    mask = tensors.get(f"{lid}.mask")
    return tensors, kind == "weight" and mask is not None and mask[index] == 0.0 and value != 0.0


def test_mutated_checkpoint_tensors_load_or_name_the_file(tmp_path, capsys, bases):
    rng = random.Random(1)
    path = tmp_path / "ck.bin"
    outcomes = []
    for _ in range(400):
        meta, tensors = rng.choice(bases)
        mutated, rejected = _mutate_tensor(tensors, rng)
        write_container(path, meta, mutated)
        outcomes.append(_loads(path, capsys))
        assert outcomes[-1] != rejected, {n: t.shape for n, t in mutated.items()}
    assert 0 < sum(outcomes) < len(outcomes)


# README's example config at small sizes, writing into ``out``.
BLOBS_CONFIG = """\
[run]
seed = 42
output = out
# checkpoint_every = 10        # optional periodic checkpoints

[model]
layer = linear 4 8
layer = relu
layer = linear 8 4
layer = relu
layer = linear 4 2            # last weighted layer stays dense by default

[dataset]
kind = synthetic-blobs
n_samples = 40
n_features = 4
n_classes = 2
seed = 7

[scorer]
kind = nmf
k = 2
n_iter = 5

[gamma_search]
s_target = 0.8

[threshold]
type = std

[train]
epochs = 2
lr = 0.1
momentum = 0.9
weight_decay = 5e-4
batch_size = 16
milestones = 1
lr_gamma = 0.1
"""

# A conv net on the IDX pair that ``_write_idx`` makes.
IDX_CONFIG = """\
[run]
seed = 3
output = out

[model]
layer = conv2d 1 2 3 3 stride=2 padding=1 prunable=true
layer = relu
layer = flatten
layer = linear 8 2

[dataset]
kind = idx
images = images.idx
labels = labels.idx

[scorer]
kind = magnitude

[gamma_search]
s_target = 0.5

[threshold]
type = mad

[train]
epochs = 1
lr = 0.05
batch_size = 8
"""

# An MLP on the table ``data_dir`` writes, with a fixed gamma and no [run]
# section, so it writes into the default ``runs/run``.
CSV_CONFIG = """\
[model]
layer = linear 4 6
layer = relu
layer = linear 6 2

[dataset]
kind = csv
path = data.csv
label_column = 4

[scorer]
kind = magnitude

[threshold]
type = mad
gamma = 0

[train]
epochs = 1
lr = 0.05
batch_size = 8
"""

# What a config mutation puts in place of one token of a value, of a whole
# value, or of a key. Sizes stay small: an epoch count or a sample count
# beyond these would make an accepted run slow, not wrong.
CONFIG_TOKENS = ["", "0", "1", "2", "3", "-1", "0.5", "0.99", "1e-3"]
CONFIG_VALUES = CONFIG_TOKENS + [
    "nan", "inf", "x", "true", "no", "1 2", "2,1", "std", "mad", "nmf", "magnitude", "csv",
    "idx", "synthetic-blobs", "linear 2 2", "relu", "flatten", "conv2d 1 2 3 3", "stride=0",
    "padding=2", "out", "data.csv", "images.idx",
]
CONFIG_KEYS = [
    "kind", "seed", "output", "checkpoint_every", "layer", "n_samples", "n_features",
    "n_classes", "path", "label_column", "images", "labels", "k", "n_iter", "s_target",
    "type", "gamma", "epochs", "lr", "batch_size", "milestones", "extra",
]
SECTIONS = ["[run]", "[model]", "[dataset]", "[scorer]", "[gamma_search]", "[threshold]",
            "[train]", "[extra]", "[]", "[model", "model]"]


def _mutate_config(text: str, rng: random.Random) -> str:
    """``text`` with one line's value, layer token, key or section swapped,
    one line deleted or repeated, or the text cut short."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    key, eq, value = lines[i].partition("=")
    tokens = value.split("#")[0].split()
    op = rng.choice(["value", "token", "key", "section", "delete", "repeat", "cut"])
    if op == "value" and eq:
        lines[i] = f"{key}= {rng.choice(CONFIG_VALUES)}"
    elif op == "token" and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(CONFIG_TOKENS)
        lines[i] = f"{key}= {' '.join(tokens)}"
    elif op == "key" and eq:
        lines[i] = f"{rng.choice(CONFIG_KEYS)} ={value}"
    elif op == "section":
        lines[i] = rng.choice(SECTIONS)
    elif op == "delete":
        del lines[i]
    elif op == "repeat":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    else:  # cut, or a value op on a line with no value
        return text[: rng.randrange(len(text))]
    return "\n".join(lines) + "\n"


def _write_idx(tmp_path, h=4, w=4, n=24, n_labels=None, images_header=None,
               labels_header=None) -> None:
    """An IDX pair of ``n`` h x w images and ``n_labels`` (by default ``n``)
    labels in two classes; a given header (a tuple of ints) replaces the
    file's own."""
    n_labels = n if n_labels is None else n_labels
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (n, h, w), dtype=np.uint8)
    labels = (np.arange(n_labels) % 2).astype(np.uint8)
    images_header = images_header or (0x803, n, h, w)
    labels_header = labels_header or (0x801, n_labels)
    (tmp_path / "images.idx").write_bytes(
        struct.pack(f">{len(images_header)}i", *images_header) + pixels.tobytes()
    )
    (tmp_path / "labels.idx").write_bytes(
        struct.pack(f">{len(labels_header)}i", *labels_header) + labels.tobytes()
    )


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    """``tmp_path`` as the working directory, holding the IDX pair and the
    CSV table the configs name, so every relative output lands in it."""
    monkeypatch.chdir(tmp_path)
    _write_idx(tmp_path)
    rng = np.random.default_rng(1)
    rows = [[*np.round(rng.normal(size=4), 3), i % 2] for i in range(30)]
    (tmp_path / "data.csv").write_text(
        "a,b,c,d,label\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
    )
    return tmp_path


def test_mutated_config_text_runs_or_exits_with_one_line(data_dir, capsys):
    rng = random.Random(2)
    codes = []
    for _ in range(250):
        base = rng.choice([BLOBS_CONFIG, IDX_CONFIG])
        path = data_dir / "run.ini"
        path.write_text(_mutate_config(base, rng))
        for command in ("run", "tune"):
            codes.append(_cli([command, "--config", str(path), "--quiet"], capsys)[0])
    # Accepted and rejected configs are both exercised.
    assert 0 in codes and 1 in codes


# What a CSV mutation writes into a cell.
CELLS = ["", "nan", "inf", "-inf", "1e309", "-1", "2", "7", "0.5", "1e19", "x", " 3 ", "0x1",
         "-0", "1,2", "#", "1e-320"]


def _mutate_csv(text: str, rng: random.Random) -> str:
    """``text`` with one cell swapped, deleted or added, or one row deleted,
    repeated, cut or blanked."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    cells = lines[i].split(",")
    j = rng.randrange(len(cells))
    op = rng.choice(["cell", "cell", "cell", "drop_cell", "add_cell", "delete", "repeat", "cut"])
    if op == "cell":
        cells[j] = rng.choice(CELLS)
    elif op == "drop_cell":
        del cells[j]
    elif op == "add_cell":
        cells.insert(j, rng.choice(CELLS))
    elif op == "delete":
        del lines[i]
        return "".join(line + "\n" for line in lines)
    elif op == "repeat":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
        return "".join(line + "\n" for line in lines)
    else:
        return text[: rng.randrange(len(text))]
    lines[i] = ",".join(cells)
    return "".join(line + "\n" for line in lines)


def test_mutated_csv_cells_run_or_exit_with_one_line(data_dir, capsys):
    rng = random.Random(3)
    base = (data_dir / "data.csv").read_text()
    config = data_dir / "csv.ini"
    config.write_text(CSV_CONFIG)
    codes = []
    for _ in range(200):
        (data_dir / "data.csv").write_text(_mutate_csv(base, rng))
        codes.append(_cli(["run", "--config", str(config), "--quiet"], capsys)[0])
    # A table the run cannot use is a dataset error (exit 1), never a defect
    # caught as a failed stage (exit 2).
    assert set(codes) == {0, 1}


# What an IDX header mutation writes into one header field: magic numbers of
# other ranks and types, sizes off by one, and sizes no file can hold.
HEADER_VALUES = [0, 1, 2, 3, 5, 23, 25, -1, 0x801, 0x803, 0x804, 0x802, 0x0D03, 2**31 - 1, -2**31]


def test_mutated_idx_headers_run_or_exit_with_one_line(data_dir, capsys):
    rng = random.Random(4)
    config = data_dir / "idx.ini"
    config.write_text(IDX_CONFIG)
    codes = []
    for _ in range(150):
        op = rng.choice(["images", "labels", "shape", "cut"])
        images, labels = [0x803, 24, 4, 4], [0x801, 24]
        if op == "images":
            images[rng.randrange(4)] = rng.choice(HEADER_VALUES)
        elif op == "labels":
            labels[rng.randrange(2)] = rng.choice(HEADER_VALUES)
        if op == "shape":  # consistent files of another image size or count
            counts = [1, 2, 5, 23, 24]
            _write_idx(data_dir, h=rng.choice([1, 2, 3, 4, 5]), w=rng.choice([1, 3, 4, 6]),
                       n=rng.choice(counts), n_labels=rng.choice(counts))
        else:
            _write_idx(data_dir, images_header=tuple(images), labels_header=tuple(labels))
        if op == "cut":
            path = data_dir / rng.choice(["images.idx", "labels.idx"])
            data = path.read_bytes()
            path.write_bytes(data[: rng.randrange(len(data))])
        codes.append(_cli(["run", "--config", str(config), "--quiet"], capsys)[0])
    assert set(codes) == {0, 1}  # as for CSV tables


# What a flag mutation gives --target-sparsity, --seed, --targets, --ks or
# --output ("9" * 300 is an output name too long to make). A list holds at
# most three entries, so an accepted sweep runs at most nine small
# pipelines, and most mutations exit before any work.
FLAG_VALUES = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "0.8", "1e309", "", "0.5,0.5", "0.5,0.8",
    "2,3", "1,2,3", ",", "x", str(2**64), "9" * 40, "9" * 300, "out", "data.csv",
]
FLAGS = ["--target-sparsity", "--seed", "--targets", "--ks", "--output"]
UNKNOWN_FLAGS = ["--frobnicate", "-x", "--seed=", "--target", "--", "-", "--quiet=1"]
ARGVS = [
    ["run", "--config", "blobs.ini", "--quiet"],
    ["score", "--config", "blobs.ini", "--quiet"],
    ["tune", "--config", "blobs.ini", "--quiet", "--target-sparsity", "0.8"],
    ["sweep", "--config", "blobs.ini", "--quiet", "--targets", "0.5,0.8", "--ks", "2"],
    ["inspect", "--quiet", "out/checkpoint.bin"],
    ["inspect", "--quiet", "blobs.ini"],  # not a checkpoint
]


def _mutate_argv(argv: list, rng: random.Random) -> list:
    """``argv`` with one token dropped or repeated, an unknown flag put in,
    or one of ``FLAGS`` set (or added) to one of ``FLAG_VALUES``."""
    argv = list(argv)
    i = rng.randrange(len(argv))
    op = rng.choice(["drop", "repeat", "unknown", "value", "value"])
    if op == "drop":
        del argv[i]
    elif op == "repeat":
        argv.insert(rng.randrange(len(argv) + 1), argv[i])
    elif op == "unknown":
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(UNKNOWN_FLAGS))
    else:
        flag, value = rng.choice(FLAGS), rng.choice(FLAG_VALUES)
        if flag in argv[:-1]:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


def test_mutated_cli_flags_exit_with_one_line(data_dir, capsys):
    (data_dir / "blobs.ini").write_text(BLOBS_CONFIG)
    assert main(ARGVS[0]) == 0  # the checkpoint that inspect reads
    rng = random.Random(5)
    codes = []
    for _ in range(300):
        argv = _mutate_argv(rng.choice(ARGVS), rng)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err and not EXCEPTION_NAME.search(err), (argv, err)
        lines = err.splitlines()
        failures = [i for i, line in enumerate(lines) if not line.startswith("warning: ")]
        assert failures == ([len(lines) - 1] if code else []), (argv, err)
        codes.append(code)
    # Accepted runs, usage and value errors, and failed runs are all exercised.
    assert {0, 1, 2} <= set(codes)
