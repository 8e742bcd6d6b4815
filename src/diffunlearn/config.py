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
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import MixtureSpec, circle_mixture
from .diffusion import make_schedule
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
    means: tuple | None = None

    def __post_init__(self):
        # Eager build so a bad field fails at config load, not mid-pipeline.
        self.build()

    def build(self) -> MixtureSpec:
        if self.means is not None:
            return MixtureSpec(
                num_classes=self.num_classes,
                means=np.asarray(self.means, dtype=np.float64),
                sigma=self.sigma,
                samples_per_class=self.samples_per_class,
            )
        return circle_mixture(
            num_classes=self.num_classes,
            radius=self.radius,
            sigma=self.sigma,
            samples_per_class=self.samples_per_class,
        )


@dataclass(frozen=True)
class ScheduleSection:
    num_timesteps: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.1

    def __post_init__(self):
        make_schedule(self.num_timesteps, self.beta_min, self.beta_max)


@dataclass(frozen=True)
class ModelSection:
    hidden_dims: tuple = (64, 64)

    def __post_init__(self):
        if not self.hidden_dims:
            raise DomainError("hidden_dims must be nonempty")
        for width in self.hidden_dims:
            if not isinstance(width, int) or isinstance(width, bool) or width < 1:
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
    forget_weights: tuple = (0.5, 1.0, 5.0)
    loss_caps: tuple | None = None
    loss_cap_scales: tuple = (0.5, 1.0, 2.0)
    strategies: tuple = ("restricted", "graddiff")

    def __post_init__(self):
        if len(self.forget_weights) == 0 or len(self.loss_cap_scales) == 0:
            raise DomainError("sweep grids must be nonempty")
        if self.loss_caps is not None and len(self.loss_caps) == 0:
            raise DomainError("sweep grids must be nonempty")
        if len(self.strategies) == 0:
            raise DomainError("sweep needs at least one strategy")
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
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    model: ModelSection = field(default_factory=ModelSection)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    unlearn: UnlearnSection = field(default_factory=UnlearnSection)
    eval: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepSection = field(default_factory=SweepSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def __post_init__(self):
        if not (0 <= self.forget_class < self.mixture.num_classes):
            raise DomainError(
                "forget_class must name one of the mixture classes"
            )


_SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(RunConfig)
    if f.default_factory is not dataclasses.MISSING
}

_LIST_FIELDS = {
    ("mixture", "means"),
    ("model", "hidden_dims"),
    ("sweep", "forget_weights"),
    ("sweep", "loss_caps"),
    ("sweep", "loss_cap_scales"),
    ("sweep", "strategies"),
}


def _build_section(name: str, cls, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{name}' must be an object")
    allowed = set(cls.__dataclass_fields__)
    kwargs = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ConfigError(f"unknown field '{name}.{key}'")
        if isinstance(value, list):
            if (name, key) not in _LIST_FIELDS:
                raise ConfigError(f"field '{name}.{key}' does not take a list")
            value = tuple(
                tuple(v) if isinstance(v, list) else v for v in value
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    known_top = {"seed", "forget_class"} | set(_SECTIONS)
    for key in raw:
        if key not in known_top:
            raise ConfigError(f"unknown field '{key}'")
    kwargs = {}
    for scalar in ("seed", "forget_class"):
        if scalar in raw:
            if not isinstance(raw[scalar], int) or isinstance(raw[scalar], bool):
                raise ConfigError(f"field '{scalar}' must be an integer")
            kwargs[scalar] = raw[scalar]
    for name, cls in _SECTIONS.items():
        if name in raw:
            kwargs[name] = _build_section(name, cls, raw[name])
    try:
        return RunConfig(**kwargs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    """Parse and validate a config file."""
    return config_from_dict(load_config_dict(path))


def load_config_dict(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def apply_overrides(raw: dict, assignments) -> dict:
    """Apply dotted-path overrides like "unlearn.strategy=graddiff".

    Values parse as JSON when possible, else as bare strings. Paths must
    address existing structure; a typo raises instead of creating new keys.
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
        parts = dotted.split(".")
        node = out
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"override path '{dotted}' does not exist")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict):
            raise ConfigError(f"override path '{dotted}' does not exist")
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
