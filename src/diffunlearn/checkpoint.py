"""Versioned JSON checkpoints for noise-prediction models.

A checkpoint is a single JSON document holding the architecture, the noise
schedule parameters, the flat parameter vector, and provenance (config hash,
seed, training iterations). Version 2 stores the parameters as one base64
string (RFC 4648, padded) of their little-endian float64 bytes, so
save -> load -> save reproduces the file byte-for-byte and every bit
pattern exactly. Version 1, a list of shortest round-trip decimals, is read.
"""

from __future__ import annotations

import base64
import dataclasses

import numpy as np

from . import artifacts
from .config import _build
from .diffusion import NoiseSchedule
from .errors import CheckpointError, DomainError
from .nn import NoisePredictor

CHECKPOINT_VERSION = 2


@dataclasses.dataclass(frozen=True)
class _Architecture:
    """The architecture section. Embedding rows are added to the first
    pre-activation, so both embedding widths are the first hidden width."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    num_timesteps: int
    time_embed_dim: int
    class_embed_dim: int

    def __post_init__(self):
        for name in ("time_embed_dim", "class_embed_dim"):
            width = getattr(self, name)
            # An empty hidden_dims is NoisePredictor's to reject.
            if self.hidden_dims and width != self.hidden_dims[0]:
                raise DomainError(
                    f"{name} {width} differs from the first hidden width "
                    f"{self.hidden_dims[0]}"
                )


def checkpoint_dict(
    model: NoisePredictor,
    schedule: NoiseSchedule,
    config_hash: str = "",
    seed: int = 0,
    iterations: int = 0,
) -> dict:
    if not np.isfinite(model.params).all():
        raise ValueError("cannot save non-finite parameters")
    h0 = model.hidden_dims[0]
    arch = _Architecture(
        model.input_dim, model.hidden_dims, model.num_classes, model.num_timesteps, h0, h0
    )
    return {
        "version": CHECKPOINT_VERSION,
        "architecture": dataclasses.asdict(arch),
        "schedule": dataclasses.asdict(schedule),
        "params": base64.b64encode(model.params.astype("<f8").tobytes()).decode(),
        "provenance": {
            "config_hash": config_hash,
            "seed": int(seed),
            "iterations": int(iterations),
        },
    }


def save_checkpoint(path, model, schedule, beta_min, beta_max, **provenance) -> None:
    """Write model and schedule; beta_min and beta_max must be the schedule's."""
    if (beta_min, beta_max) != (schedule.beta_min, schedule.beta_max):
        raise ValueError(
            f"beta_min {beta_min} and beta_max {beta_max} differ from the "
            f"schedule's {schedule.beta_min} and {schedule.beta_max}"
        )
    doc = checkpoint_dict(model, schedule, **provenance)
    artifacts.write_json(path, doc, indent=1)


def load_checkpoint(path):
    """Load a checkpoint file, version 1 or 2.

    Returns (model, schedule, provenance dict). The architecture and schedule
    sections are typed by the config's rules, with every key required.
    Unknown versions, params that do not decode (version 1's must be a flat
    list of JSON numbers), non-finite parameters, provenance that is not an
    object, parameter vectors that do not match the declared architecture and
    schedules longer than the timestep table are rejected with an error
    naming the file, not guessed at.
    """
    doc = artifacts.read_json(path, CheckpointError, "checkpoint")
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError(f"checkpoint {path} has no version field")
    version = doc["version"]
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r}; "
            f"this build reads versions 1 and {CHECKPOINT_VERSION}"
        )
    for section in ("architecture", "schedule", "params"):
        if section not in doc:
            raise CheckpointError(f"checkpoint {path} is missing '{section}'")
    try:
        if version == 1:
            values = doc["params"]
            # asarray would turn strings and booleans into numbers.
            if type(values) is not list or {type(v) for v in values} - {int, float}:
                raise TypeError("version 1 params must be a flat list of JSON numbers")
            params = np.asarray(values, dtype=np.float64)
        else:
            blob = base64.b64decode(doc["params"], validate=True)
            params = np.frombuffer(blob, dtype="<f8")
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint {path}: unreadable params: {exc}") from exc
    if not np.isfinite(params).all():
        raise CheckpointError(f"checkpoint {path} holds non-finite parameters")
    try:
        arch = _build("architecture", _Architecture, doc["architecture"], complete=True)
        schedule = _build("schedule", NoiseSchedule, doc["schedule"], complete=True)
        model = NoisePredictor(
            arch.input_dim, arch.hidden_dims, arch.num_classes, arch.num_timesteps, params
        )
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    if schedule.num_timesteps > model.num_timesteps:
        raise CheckpointError(
            f"checkpoint {path}: schedule has {schedule.num_timesteps} timesteps "
            f"but the timestep table has {model.num_timesteps} rows"
        )
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise CheckpointError(f"checkpoint {path}: provenance must be an object")
    return model, schedule, provenance
