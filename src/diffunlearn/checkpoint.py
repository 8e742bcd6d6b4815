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
import json
from pathlib import Path

import numpy as np

from . import artifacts
from .diffusion import NoiseSchedule
from .errors import CheckpointError
from .nn import NoisePredictor

CHECKPOINT_VERSION = 2


def checkpoint_dict(
    model: NoisePredictor,
    schedule: NoiseSchedule,
    beta_min: float,
    beta_max: float,
    config_hash: str = "",
    seed: int = 0,
    iterations: int = 0,
) -> dict:
    if not np.isfinite(model.params).all():
        raise ValueError("cannot save non-finite parameters")
    return {
        "version": CHECKPOINT_VERSION,
        "architecture": {
            "input_dim": model.input_dim,
            "hidden_dims": list(model.hidden_dims),
            "num_classes": model.num_classes,
            "num_timesteps": model.num_timesteps,
            "time_embed_dim": model.time_embed_dim,
            "class_embed_dim": model.class_embed_dim,
        },
        "schedule": {
            "num_timesteps": schedule.num_timesteps,
            "beta_min": float(beta_min),
            "beta_max": float(beta_max),
        },
        "params": base64.b64encode(model.params.astype("<f8").tobytes()).decode(),
        "provenance": {
            "config_hash": config_hash,
            "seed": int(seed),
            "iterations": int(iterations),
        },
    }


def save_checkpoint(path, model, schedule, beta_min, beta_max, **provenance) -> None:
    doc = checkpoint_dict(model, schedule, beta_min, beta_max, **provenance)
    artifacts.write_json(path, doc, indent=1)


def load_checkpoint(path):
    """Load a checkpoint file, version 1 or 2.

    Returns (model, schedule, provenance dict). Unknown versions, params
    that do not decode, non-finite parameters, parameter vectors that do not
    match the declared architecture and schedules longer than the timestep
    table are rejected with an error naming the file, not guessed at.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
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
    arch = doc["architecture"]
    try:
        if version == 1:
            params = np.asarray(doc["params"], dtype=np.float64)
        else:
            blob = base64.b64decode(doc["params"], validate=True)
            params = np.frombuffer(blob, dtype="<f8")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: unreadable params: {exc}") from exc
    if not np.isfinite(params).all():
        raise CheckpointError(f"checkpoint {path} holds non-finite parameters")
    try:
        model = NoisePredictor(
            input_dim=arch["input_dim"],
            hidden_dims=tuple(arch["hidden_dims"]),
            num_classes=arch["num_classes"],
            num_timesteps=arch["num_timesteps"],
            time_embed_dim=arch["time_embed_dim"],
            class_embed_dim=arch["class_embed_dim"],
            params=params,
        )
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint {path} architecture is missing {exc}"
        ) from exc
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    sched = doc["schedule"]
    try:
        schedule = NoiseSchedule(
            sched["num_timesteps"], sched["beta_min"], sched["beta_max"]
        )
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} schedule is missing {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    if schedule.num_timesteps > model.num_timesteps:
        raise CheckpointError(
            f"checkpoint {path}: schedule has {schedule.num_timesteps} timesteps "
            f"but the timestep table has {model.num_timesteps} rows"
        )
    provenance = doc.get("provenance", {})
    return model, schedule, provenance
