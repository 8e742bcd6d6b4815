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
            "time_embed_dim": model.hidden_dims[0],
            "class_embed_dim": model.hidden_dims[0],
        },
        "schedule": {
            "num_timesteps": schedule.num_timesteps,
            "beta_min": float(schedule.beta_min),
            "beta_max": float(schedule.beta_max),
        },
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

    Returns (model, schedule, provenance dict). Unknown versions, params
    that do not decode (version 1's must be a flat list of JSON numbers),
    non-finite parameters, fields of the wrong type (the sizes must be JSON
    integers, not floats or booleans, and provenance an object), embedding
    widths other than the first hidden width, parameter vectors that do not
    match the declared architecture and schedules longer than the timestep
    table are rejected with an error naming the file, not guessed at.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    try:
        doc = json.loads(text)
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

    def integer(name, value):
        # A TypeError, which the handlers below prefix with the file once.
        if type(value) is not int:
            raise TypeError(f"{name} must be an integer, got {value!r}")
        return value

    try:
        model = NoisePredictor(
            input_dim=integer("input_dim", arch["input_dim"]),
            hidden_dims=tuple(integer("hidden_dims", d) for d in arch["hidden_dims"]),
            num_classes=integer("num_classes", arch["num_classes"]),
            num_timesteps=integer("num_timesteps", arch["num_timesteps"]),
            params=params,
        )
        # Embedding rows are added to the first pre-activation.
        for name in ("time_embed_dim", "class_embed_dim"):
            if integer(name, arch[name]) != model.hidden_dims[0]:
                raise ValueError(
                    f"{name} {arch[name]} differs from the first hidden width "
                    f"{model.hidden_dims[0]}"
                )
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint {path} architecture is missing {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    sched = doc["schedule"]
    try:
        schedule = NoiseSchedule(
            integer("schedule num_timesteps", sched["num_timesteps"]),
            sched["beta_min"],
            sched["beta_max"],
        )
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} schedule is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
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
