"""Versioned JSON checkpoints for noise-prediction models.

A checkpoint is a single JSON document holding the architecture, the noise
schedule parameters, the flat parameter vector, and provenance (config hash,
seed, training iterations). Floats are serialized in Python's shortest
round-trip decimal form, so save -> load -> save reproduces the file
byte-for-byte and the parameter vector bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .diffusion import NoiseSchedule, make_schedule
from .errors import CheckpointError
from .nn import NoisePredictor

CHECKPOINT_VERSION = 1


def checkpoint_dict(
    model: NoisePredictor,
    schedule: NoiseSchedule,
    beta_min: float,
    beta_max: float,
    config_hash: str = "",
    seed: int = 0,
    iterations: int = 0,
) -> dict:
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
        "params": [float(p) for p in model.params],
        "provenance": {
            "config_hash": config_hash,
            "seed": int(seed),
            "iterations": int(iterations),
        },
    }


def save_checkpoint(path, model, schedule, beta_min, beta_max, **provenance) -> None:
    doc = checkpoint_dict(model, schedule, beta_min, beta_max, **provenance)
    # allow_nan=False: a non-finite parameter raises instead of writing a
    # NaN token, which is not JSON.
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def load_checkpoint(path):
    """Load a checkpoint file.

    Returns (model, schedule, provenance dict). Unknown versions, non-finite
    parameters and parameter vectors that do not match the declared
    architecture are rejected rather than guessed at.
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
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc['version']!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    for section in ("architecture", "schedule", "params"):
        if section not in doc:
            raise CheckpointError(f"checkpoint {path} is missing '{section}'")
    arch = doc["architecture"]
    params = np.asarray(doc["params"], dtype=np.float64)
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
        schedule = make_schedule(
            sched["num_timesteps"], sched["beta_min"], sched["beta_max"]
        )
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} schedule is missing {exc}") from exc
    provenance = doc.get("provenance", {})
    return model, schedule, provenance
