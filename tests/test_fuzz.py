"""Seeded fuzzing of outside inputs: checkpoint metadata and tensors.

Each metadata mutation edits one node of a valid checkpoint's JSON metadata
(a type swap, a deleted or added key, a value nested one level deeper); each
tensor mutation writes one value into a stored weight, bias or mask (NaN,
+-inf, 0.5 or -0.0 in a mask, a non-zero weight where its mask prunes) or
gives one tensor another shape. Both rewrite the container with a valid CRC.
Loading it must either return a network whose masks are bool, whose pruned
weights are exactly 0.0, whose weights and biases are finite and whose spec
fields have their declared types, or raise a CheckpointError that begins
with the path; ``inspect`` must exit 0 on the first and 2 on the second,
with at most one stderr line that names no exception type.
"""

import copy
import dataclasses
import random
import re
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
    capsys.readouterr()
    assert main(["inspect", "--quiet", str(path)]) == (0 if loaded else 2)
    err = capsys.readouterr().err
    assert err.count("\n") <= 1 and not EXCEPTION_NAME.search(err), err
    assert loaded or err.startswith(f"error: {path}: "), err
    return loaded


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
