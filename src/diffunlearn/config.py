"""Run configuration: one JSON document describing the whole pipeline.

A single master seed drives everything; each stage (data generation,
pretraining, unlearning, evaluation, sweep cells) derives its own independent
stream from it, so rerunning any command with the same config reproduces its
outputs byte-for-byte.

Unknown keys and type mismatches are rejected with the offending dotted path
named, so a typo fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .data import MixtureSpec, circle_mixture
from .diffusion import NoiseSchedule
from .errors import ConfigError, DomainError
from .evaluate import EvalConfig
from .train import TrainConfig
from .unlearn import UnlearnConfig, parse_strategy

# Stage ids for deriving per-stage rng streams from the master seed.
STAGE_DATA = 0
STAGE_INIT = 1
STAGE_PRETRAIN = 2
STAGE_UNLEARN = 3
STAGE_EVAL = 4
STAGE_CAP = 5
STAGE_PROMPTS = 6

DIVERSITY_MODES = ("balanced", "similar")


def stage_seed(master_seed: int, *stage_path: int) -> int:
    """Integer seed for one stage (and optional sub-cell) of a run.

    The path length is folded in because SeedSequence pads entropy with
    zeros, which would otherwise alias (s, k) with (s, k, 0).
    """
    path = tuple(int(s) for s in stage_path)
    ss = np.random.SeedSequence((int(master_seed), len(path)) + path)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class MixtureSection:
    num_classes: int = 5
    radius: float = 5.0
    sigma: float = 0.3
    samples_per_class: int = 1000

    def __post_init__(self):
        # Eager build so a bad field fails at config load, not mid-pipeline.
        self.build()

    def build(self) -> MixtureSpec:
        return circle_mixture(
            num_classes=self.num_classes,
            radius=self.radius,
            sigma=self.sigma,
            samples_per_class=self.samples_per_class,
        )


@dataclass(frozen=True)
class ModelSection:
    hidden_dims: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if not self.hidden_dims:
            raise DomainError("hidden_dims must be nonempty")
        if min(self.hidden_dims) < 1:
            raise DomainError("hidden_dims must hold positive integers")


@dataclass(frozen=True)
class UnlearnSection:
    """The unlearning run plus how its loss cap and remain set are chosen.

    The run's own fields take UnlearnConfig's defaults and are validated by
    building an UnlearnConfig; the checks here cover only what exists solely
    in the document.
    """

    forget_weight: float = UnlearnConfig.forget_weight
    loss_cap: float | None = None
    loss_cap_percentile: float = 90.0
    step_size: float = UnlearnConfig.step_size
    iterations: int = UnlearnConfig.iterations
    batch_forget: int = UnlearnConfig.batch_forget
    batch_remain: int = UnlearnConfig.batch_remain
    strategy: str = UnlearnConfig.strategy
    remain_per_class: int = 50
    diversity: str = "balanced"
    k_nearest: int = 2

    def __post_init__(self):
        # A derived cap is positive by construction; 1.0 stands in for it.
        self.build(1.0 if self.loss_cap is None else self.loss_cap, 0)
        if not (0.0 < self.loss_cap_percentile < 100.0):
            raise DomainError("loss_cap_percentile must lie in (0, 100)")
        if self.remain_per_class < 1:
            raise DomainError("remain_per_class must be >= 1")
        if self.diversity not in DIVERSITY_MODES:
            raise DomainError(
                f"diversity must be one of {DIVERSITY_MODES}, got {self.diversity!r}"
            )
        if self.k_nearest < 1:
            raise DomainError("k_nearest must be >= 1")

    def build(self, loss_cap: float, seed: int) -> UnlearnConfig:
        """The run's settings, given its resolved loss cap and stage seed."""
        return UnlearnConfig(
            forget_weight=self.forget_weight,
            loss_cap=loss_cap,
            step_size=self.step_size,
            iterations=self.iterations,
            batch_forget=self.batch_forget,
            batch_remain=self.batch_remain,
            strategy=self.strategy,
            seed=seed,
        )


@dataclass(frozen=True)
class SweepSection:
    forget_weights: tuple[float, ...] = (0.5, 1.0, 5.0)
    loss_cap_scales: tuple[float, ...] = (0.5, 1.0, 2.0)
    strategies: tuple[str, ...] = ("restricted", "graddiff")

    def __post_init__(self):
        if len(self.forget_weights) == 0 or len(self.loss_cap_scales) == 0:
            raise DomainError("sweep grids must be nonempty")
        if len(self.strategies) == 0:
            raise DomainError("sweep needs at least one strategy")
        # Each value becomes a cell's unlearn field, so it obeys that field's
        # bounds here instead of failing the command after the checkpoint loads.
        if any(not 0.0 <= w < math.inf for w in self.forget_weights):
            raise DomainError("forget_weights must be finite and >= 0")
        if any(not 0.0 < v < math.inf for v in self.loss_cap_scales):
            raise DomainError("loss_cap_scales must be finite and > 0")
        for name in self.strategies:
            parse_strategy(name)


@dataclass(frozen=True)
class PathsSection:
    data_dir: str = "."
    checkpoint_dir: str = "."
    report_dir: str = "."


@dataclass(frozen=True)
class RunConfig:
    """Validated view of one configuration document."""

    seed: int = 0
    forget_class: int = 0
    mixture: MixtureSection = field(default_factory=MixtureSection)
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    model: ModelSection = field(default_factory=ModelSection)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    unlearn: UnlearnSection = field(default_factory=UnlearnSection)
    eval: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepSection = field(default_factory=SweepSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def __post_init__(self):
        # SeedSequence, which derives every stage's stream, takes no negative.
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not (0 <= self.forget_class < self.mixture.num_classes):
            raise DomainError(
                "forget_class must name one of the mixture classes"
            )


def _field_value(path: str, hint, value):
    """``value`` checked against the field annotation ``hint``.

    An int field rejects bools and floats, a float field also takes an int
    but rejects NaN and +-Infinity, ``| None`` admits null, and a
    ``tuple[T, ...]`` field takes a list whose items are checked against T,
    returned as a tuple.
    """
    options = typing.get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = [t for t in options if t is not type(None)]
    if hint is tuple or typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"field '{path}' must be a list")
        item = typing.get_args(hint)[0]
        return tuple(_field_value(f"{path}[{i}]", item, v) for i, v in enumerate(value))
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"field '{path}' must be {hint.__name__}, got {type(value).__name__}"
        )
    # Every comparison with NaN is false, so it slips past checks such as
    # `lr <= 0`; Infinity slips past the one-sided ones.
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"field '{path}' must be finite, got {value}")
    return value


# Resolving string annotations costs ten times a whole document's checks.
_type_hints = functools.cache(typing.get_type_hints)


def _build(path: str, cls, raw: dict, complete: bool = False):
    """A dataclass from a JSON object, each value typed by its annotation;
    with ``complete`` every field must be present, so no default fills a gap."""
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{path}' must be an object")
    hints = _type_hints(cls)
    missing = [key for key in hints if key not in raw] if complete else []
    if missing:
        raise ConfigError(f"section '{path}' is missing '{missing[0]}'")
    kwargs = {}
    for key, value in raw.items():
        dotted = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown field '{dotted}'")
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _build(dotted, hints[key], value)
        else:
            kwargs[key] = _field_value(dotted, hints[key], value)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"section '{path}': {exc}" if path else str(exc)) from exc


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    return _build("", RunConfig, raw)


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply dotted-path overrides like "unlearn.strategy=graddiff".

    Values parse as JSON when possible, else as bare strings. A section the
    document leaves out is created; a path through a value that is not an
    object is refused. Names are checked by ``config_from_dict``.
    """
    out = json.loads(json.dumps(raw))
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(
                f"override {assignment!r} must look like key.path=value"
            )
        dotted, text = assignment.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        *sections, leaf = dotted.split(".")
        node = out
        for part in sections:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(
                f"override path '{dotted}' runs through a value that is not an object"
            )
        node[leaf] = value
    return out


def default_config_dict() -> dict:
    """The full default document, suitable as a starting config file.

    Derived from RunConfig's field defaults; the JSON round trip turns
    tuples into lists.
    """
    return json.loads(json.dumps(dataclasses.asdict(RunConfig())))


def config_hash(raw: dict) -> str:
    """Stable digest of a config document for checkpoint provenance."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
