"""Run configuration: the key=value config file format and its parser.

The format is line oriented with ``[section]`` headers. ``#`` starts a comment
that runs to the end of the line, and blank lines are ignored. ``layer`` may
repeat inside ``[model]``; all other keys appear at most once per section,
and each ``name=value`` option at most once per layer. The layers must fit
one another, from the input shape the first weighted layer implies.
A section's keys are the fields of the dataclass it builds, so the defaults
are the dataclass defaults and a key that names no field is an error. Exactly
one of a fixed ``gamma`` under ``[threshold]`` or a ``[gamma_search]``
section must be present: the first pins the threshold scale, the second
searches for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Union, get_args, get_type_hints

from .datasets import CsvSource, DatasetSpec, IdxSource, SyntheticBlobs
from .masking import GammaSearchConfig, ThresholdConfig
from .network import LAYER_KINDS, LayerSpec, output_shapes
from .nmf import MagnitudeScorer, NmfConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


ScorerSpec = Union[NmfConfig, MagnitudeScorer]

_DATASET_KINDS = {"synthetic-blobs": SyntheticBlobs, "csv": CsvSource, "idx": IdxSource}
_SCORER_KINDS = {"nmf": NmfConfig, "magnitude": MagnitudeScorer}
_SECTIONS = {"run", "model", "dataset", "scorer", "threshold", "gamma_search", "train"}


@dataclass
class RunConfig:
    """One run's settings, as a config file's sections give them."""

    model: list[LayerSpec]
    dataset: DatasetSpec
    scorer: ScorerSpec
    threshold: ThresholdConfig
    gamma_search: GammaSearchConfig | None
    train: TrainConfig
    output_dir: Path = Path("runs/run")
    seed: int = 0
    checkpoint_every: int | None = None  # periodic checkpoints, in epochs

    def __post_init__(self):
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")


def _parse_bool(token: str) -> bool:
    if token.lower() in ("true", "1", "yes"):
        return True
    if token.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


def _parse_finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {token!r}")
    return value


def _parse_ints(token: str) -> tuple[int, ...]:
    return tuple(int(t) for t in token.replace(",", " ").split())


# Each class's field types, resolved on first use and kept for the process.
_type_hints = functools.cache(get_type_hints)

# How a value is read for each field type, and what the error says it must be.
_READERS = {
    int: (int, "an integer"),
    float: (_parse_finite, "a finite number"),
    str: (str, "text"),
    Path: (Path, "a path"),
    bool: (_parse_bool, "a boolean"),
    tuple[int, ...]: (_parse_ints, "integers"),
}


def _make(cls, values: dict[str, tuple[str, str, str]], context: str, **given):
    """``cls(**given, ...)`` with each field in ``values``, given as
    ``(key, text, location)``, read as the type the field is annotated with.
    ``X | None`` reads as ``X``; ``context`` prefixes the errors of ``cls``'s
    own validation that name no given field."""
    hints = _type_hints(cls)
    kwargs = dict(given)
    for name, (key, text, location) in values.items():
        hint = hints[name]
        if type(None) in get_args(hint):
            hint = next(a for a in get_args(hint) if a is not type(None))
        read, what = _READERS[hint]
        try:
            kwargs[name] = read(text)
        except ValueError:
            raise ConfigError(f"{location}: {key} must be {what}") from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # A message that opens with a field's name is located at that field's key.
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{values[name][2] if name in values else context}: {exc}") from None


def _parse_sections(text: str, source: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        sections[current].append((lineno, key.strip().lower(), value.strip()))
    return sections


class _Section:
    def __init__(self, name: str, entries: list[tuple[int, str, str]], source: str):
        self.name = name
        self.source = source
        self.kv: dict[str, tuple[int, str]] = {}
        for lineno, key, value in entries:
            if key in self.kv:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{name}]")
            self.kv[key] = (lineno, value)

    def pick(self, kinds: dict[str, type]) -> type:
        """The class the section's ``kind`` key names; the key is used up."""
        if "kind" not in self.kv:
            raise ConfigError(f"{self.source}: [{self.name}] is missing required key 'kind'")
        lineno, kind = self.kv.pop("kind")
        if kind.lower() not in kinds:
            raise ConfigError(f"{self.source}:{lineno}: [{self.name}] has unknown kind {kind!r}")
        return kinds[kind.lower()]

    def build(self, cls, aliases: dict[str, str] | None = None, **given):
        """``cls`` from the section's keys, one key per dataclass field.

        A field's key is its name, or ``aliases[name]`` where the config
        spells it differently. Fields in ``given`` take no key; fields
        without a key keep their dataclass default.
        """
        aliases = aliases or {}
        accepted = {aliases.get(f.name, f.name): f for f in fields(cls) if f.name not in given}
        values = {}
        for key, (lineno, text) in self.kv.items():
            if key not in accepted:
                raise ConfigError(f"{self.source}:{lineno}: unknown key {key!r} in [{self.name}]")
            values[accepted[key].name] = (key, text, f"{self.source}:{lineno}")
        for key, f in accepted.items():
            if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{self.source}: [{self.name}] is missing required key {key!r}")
        return _make(cls, values, self.source, **given)


def _parse_layer(value: str, location: str) -> LayerSpec:
    """A layer spec from ``<kind> <required fields...> [field=value ...]``."""
    tokens = value.split()
    if not tokens:
        raise ConfigError(f"{location}: empty layer definition")
    kind, args = tokens[0].lower(), tokens[1:]
    cls = LAYER_KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"{location}: unknown layer kind {kind!r}")
    required = [f.name for f in fields(cls) if f.default is MISSING]
    optional = {f.name for f in fields(cls)} - set(required)
    positional = [t for t in args if "=" not in t]
    options: dict[str, str] = {}
    for name, text in (t.split("=", 1) for t in args if "=" in t):
        if name in options:
            raise ConfigError(f"{location}: duplicate {kind} option {name!r}")
        options[name] = text
    if len(positional) != len(required):
        usage = " ".join(f"<{name}>" for name in required) or "no positional arguments"
        raise ConfigError(f"{location}: {kind} takes {usage}")
    unknown = sorted(set(options) - optional)
    if unknown:
        raise ConfigError(f"{location}: unknown {kind} options {unknown}")
    values = {
        name: (name, text, location)
        for name, text in [*zip(required, positional), *options.items()]
    }
    return _make(cls, values, location)


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    sections = _parse_sections(text, source)
    unknown = set(sections) - _SECTIONS
    if unknown:
        raise ConfigError(f"{source}: unknown sections {sorted(unknown)}")

    def want(name: str) -> list[tuple[int, str, str]]:
        if name not in sections:
            raise ConfigError(f"{source}: missing required section [{name}]")
        return sections[name]

    model = []
    for lineno, key, value in want("model"):
        if key != "layer":
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [model]")
        model.append(_parse_layer(value, f"{source}:{lineno}"))
    try:
        output_shapes(model)
    except ValueError as exc:
        raise ConfigError(f"{source}: [model] {exc}") from None

    dataset_section = _Section("dataset", want("dataset"), source)
    dataset = dataset_section.build(
        dataset_section.pick(_DATASET_KINDS),
        aliases={"images_path": "images", "labels_path": "labels"},
    )
    scorer_section = _Section("scorer", want("scorer"), source)
    scorer = scorer_section.build(scorer_section.pick(_SCORER_KINDS))

    threshold_section = _Section("threshold", want("threshold"), source)
    threshold = threshold_section.build(ThresholdConfig, aliases={"t_type": "type"})
    fixed_gamma = "gamma" in threshold_section.kv

    gamma_search: GammaSearchConfig | None = None
    if "gamma_search" in sections:
        gamma_search = _Section("gamma_search", sections["gamma_search"], source).build(
            GammaSearchConfig
        )
    if gamma_search is not None and fixed_gamma:
        raise ConfigError(
            f"{source}: give either [threshold] gamma or a [gamma_search] section, not both"
        )
    if gamma_search is None and not fixed_gamma:
        raise ConfigError(
            f"{source}: masking needs either [threshold] gamma or a [gamma_search] section"
        )

    train = _Section("train", want("train"), source).build(
        TrainConfig, aliases={"lr_milestones": "milestones"}
    )
    return _Section("run", sections.get("run", []), source).build(
        RunConfig,
        aliases={"output_dir": "output"},
        model=model,
        dataset=dataset,
        scorer=scorer,
        threshold=threshold,
        gamma_search=gamma_search,
        train=train,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config(text, source=str(path))
