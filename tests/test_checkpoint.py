"""Checkpoint files: bit-exact round-trips and strict version handling."""

import base64
import json

import numpy as np
import pytest

from diffunlearn.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_dict,
    load_checkpoint,
    save_checkpoint,
)
from diffunlearn.diffusion import NoiseSchedule
from diffunlearn.errors import CheckpointError
from diffunlearn.nn import init_model


@pytest.fixture
def small_model():
    rng = np.random.default_rng(5)
    return init_model(2, (6, 4), num_classes=3, num_timesteps=8, rng=rng)


@pytest.fixture
def schedule():
    return NoiseSchedule(8, 1e-4, 0.1)


def test_round_trip_bit_exact(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    save_checkpoint(
        path, small_model, schedule, 1e-4, 0.1,
        config_hash="abc123", seed=9, iterations=1234,
    )
    model, sched, provenance = load_checkpoint(path)
    assert np.array_equal(model.params, small_model.params)
    assert model.hidden_dims == (6, 4)
    assert model.num_classes == 3
    assert np.array_equal(sched.betas, schedule.betas)
    assert provenance == {"config_hash": "abc123", "seed": 9, "iterations": 1234}


def test_save_load_save_byte_identical(tmp_path, small_model, schedule):
    first = tmp_path / "a.json"
    save_checkpoint(first, small_model, schedule, 1e-4, 0.1, seed=1)
    model, sched, prov = load_checkpoint(first)
    second = tmp_path / "b.json"
    save_checkpoint(
        second, model, sched, 1e-4, 0.1,
        config_hash=prov["config_hash"], seed=prov["seed"],
        iterations=prov["iterations"],
    )
    assert first.read_bytes() == second.read_bytes()


def test_awkward_floats_survive(tmp_path, small_model, schedule):
    # The float64 blob must reproduce every bit pattern.
    params = small_model.params.copy()
    params[0] = 0.1 + 0.2
    params[1] = 1e-300
    params[2] = -1.7976931348623157e308
    params[3] = -0.0
    params[4] = 5e-324
    model = small_model.with_params(params)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, schedule, 1e-4, 0.1)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.params.tobytes() == params.tobytes()


AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5,
           -1.7976931348623157e308, 1e300, 0.1 + 0.2, 123456789.0]


def _blob(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _v1_doc(model, schedule, **provenance):
    """A version-1 document as earlier releases wrote it: params as a list
    of shortest round-trip decimals."""
    doc = checkpoint_dict(model, schedule, 1e-4, 0.1, **provenance)
    doc["version"] = 1
    doc["params"] = [float(p) for p in model.params]
    return doc


def _edited(path, **changes):
    """Rewrite the checkpoint at path with top-level fields replaced."""
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def test_bytes_match_json_dumps(tmp_path, small_model, schedule):
    params = small_model.params.copy()
    params[: len(AWKWARD)] = AWKWARD
    model = small_model.with_params(params)
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, schedule, 1e-4, 0.1, config_hash="é", seed=3)
    arch = {
        "input_dim": 2, "hidden_dims": [6, 4], "num_classes": 3,
        "num_timesteps": 8, "time_embed_dim": 6, "class_embed_dim": 6,
    }
    doc = {
        "version": 2,
        "architecture": arch,
        "schedule": {"num_timesteps": 8, "beta_min": 1e-4, "beta_max": 0.1},
        "params": _blob(params),
        "provenance": {"config_hash": "é", "seed": 3, "iterations": 0},
    }
    expected = json.dumps(doc, indent=1, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode()


def test_version_1_loads_bit_exact(tmp_path, small_model, schedule):
    params = small_model.params.copy()
    params[: len(AWKWARD)] = AWKWARD
    model = small_model.with_params(params)
    path = tmp_path / "v1.json"
    doc = _v1_doc(model, schedule, config_hash="abc", seed=4, iterations=7)
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    loaded, sched, provenance = load_checkpoint(path)
    assert loaded.params.tobytes() == params.tobytes()
    assert np.array_equal(sched.betas, schedule.betas)
    assert provenance == {"config_hash": "abc", "seed": 4, "iterations": 7}


def test_version_1_resaves_as_version_2(tmp_path, small_model, schedule):
    first = tmp_path / "v1.json"
    first.write_text(json.dumps(_v1_doc(small_model, schedule), indent=1) + "\n")
    model, sched, _ = load_checkpoint(first)
    second = tmp_path / "v2.json"
    save_checkpoint(second, model, sched, 1e-4, 0.1)
    doc = json.loads(second.read_text())
    assert doc["version"] == CHECKPOINT_VERSION == 2
    assert doc["params"] == _blob(small_model.params)
    assert load_checkpoint(second)[0].params.tobytes() == small_model.params.tobytes()


# Ways a version-2 params field can be wrong, each built from a good vector.
BAD_PARAMS = {
    "invalid-base64": lambda v: "not base64!",
    "truncated-base64": lambda v: _blob(v)[:-1],
    "embedded-space": lambda v: _blob(v)[:8] + " " + _blob(v)[8:],
    "partial-float": lambda v: "AAAA",
    "one-float-short": lambda v: _blob(v[:-1]),
    "one-float-long": lambda v: _blob(np.append(v, 0.5)),
    "nan": lambda v: _blob(np.where(np.arange(v.size) == 3, np.nan, v)),
    "list": lambda v: v.tolist(),
    "number": lambda v: 12,
}


@pytest.mark.parametrize("case", BAD_PARAMS)
def test_bad_params_rejected_naming_file(tmp_path, small_model, schedule, case):
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    _edited(path, params=BAD_PARAMS[case](small_model.params))
    with pytest.raises(CheckpointError, match="ck.json"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    for version in (0, CHECKPOINT_VERSION + 1, "2", 2.0, True):
        save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
        _edited(path, version=version)
        with pytest.raises(CheckpointError, match="ck.json.*version"):
            load_checkpoint(path)


def test_missing_version_rejected(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    doc = json.loads(path.read_text())
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_param_length_mismatch_rejected(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    _edited(path, params=_blob(small_model.params[:-1]))
    with pytest.raises(CheckpointError, match="architecture needs"):
        load_checkpoint(path)
    _edited(path, version=1, params=small_model.params[:-1].tolist())
    with pytest.raises(CheckpointError, match="architecture needs"):
        load_checkpoint(path)


def test_missing_section_rejected(tmp_path, small_model, schedule):
    for section in ("architecture", "schedule", "params"):
        path = tmp_path / f"{section}.json"
        save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
        doc = json.loads(path.read_text())
        del doc[section]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=section):
            load_checkpoint(path)


def test_invalid_schedule_names_file(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    doc = json.loads(path.read_text())
    doc["schedule"]["beta_max"] = 1.5
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="ck.json.*beta_max"):
        load_checkpoint(path)


def test_schedule_longer_than_timestep_table_rejected(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    doc = json.loads(path.read_text())
    doc["schedule"]["num_timesteps"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="ck.json.*9 timesteps.*8 rows"):
        load_checkpoint(path)


def test_non_finite_params_rejected(tmp_path, small_model, schedule):
    path = tmp_path / "ck.json"
    for bad in (np.nan, np.inf, -np.inf):
        params = small_model.params.copy()
        params[3] = bad
        with pytest.raises(ValueError):
            save_checkpoint(path, small_model.with_params(params), schedule, 1e-4, 0.1)
        assert list(tmp_path.iterdir()) == []
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    params = small_model.params.tolist()
    params[3] = float("nan")
    _edited(path, version=1, params=params)
    assert "NaN" in path.read_text()
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("{broken")
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)


def test_schedule_regenerated_not_stored(tmp_path, small_model):
    # Only the three schedule scalars persist; betas rebuild exactly.
    schedule = NoiseSchedule(8, 2e-4, 0.05)
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 2e-4, 0.05)
    doc = json.loads(path.read_text())
    assert doc["schedule"] == {
        "num_timesteps": 8,
        "beta_min": 2e-4,
        "beta_max": 0.05,
    }
    _, loaded_schedule, _ = load_checkpoint(path)
    assert np.array_equal(loaded_schedule.alpha_bars, schedule.alpha_bars)
