"""Checkpoint files: bit-exact round-trips and strict version handling."""

import base64
import json
import re
import tracemalloc

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
from diffunlearn.nn import _layout, init_model


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
    doc = checkpoint_dict(model, schedule, **provenance)
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


# Each used to load: numpy turned "0.5" into 0.5 and true into 1.0, and
# the nested pairs into an (n/2, 2) array of the right size.
V1_PARAMS = {
    "strings": lambda values: [str(v) for v in values],
    "booleans": lambda values: [True, *values[1:]],
    "nested": lambda values: [values[i : i + 2] for i in range(0, len(values), 2)],
    "int-overflow": lambda values: [10**400, *values[1:]],
}


@pytest.mark.parametrize("case", V1_PARAMS)
def test_version_1_params_must_be_a_flat_list_of_numbers(tmp_path, small_model, schedule, case):
    path = tmp_path / "v1.json"
    doc = _v1_doc(small_model, schedule)
    doc["params"] = V1_PARAMS[case](doc["params"])
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="v1.json: unreadable params") as err:
        load_checkpoint(path)
    assert str(err.value).count("v1.json") == 1, str(err.value)


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


# Fields of the wrong type or value, each as (section, field or None, value).
MALFORMED_FIELDS = {
    "architecture-list": ("architecture", None, []),
    "hidden-dims-number": ("architecture", "hidden_dims", 5),
    "hidden-dims-empty": ("architecture", "hidden_dims", []),
    "input-dim-string": ("architecture", "input_dim", "2"),
    "schedule-list": ("schedule", None, []),
    "num-timesteps-string": ("schedule", "num_timesteps", "4"),
    "provenance-number": ("provenance", None, 5),
    "provenance-list": ("provenance", None, []),
    # Embedding rows are added to the first pre-activation, width 6 here.
    "time-embed-dim-not-first-hidden": ("architecture", "time_embed_dim", 4),
    "class-embed-dim-not-first-hidden": ("architecture", "class_embed_dim", 4),
}
# Sizes that are JSON numbers but not integers, rejected as such rather than
# truncated or caught later by a parameter count.
NON_INTEGER_FIELDS = {
    "hidden-dims-floats": ("architecture", "hidden_dims", [6.0, 4.0]),
    "num-classes-fraction": ("architecture", "num_classes", 2.5),
    "input-dim-bool": ("architecture", "input_dim", True),
    "table-rows-float": ("architecture", "num_timesteps", 8.0),
    "time-embed-dim-float": ("architecture", "time_embed_dim", 4.0),
    "class-embed-dim-bool": ("architecture", "class_embed_dim", True),
    "num-timesteps-float": ("schedule", "num_timesteps", 4.0),
}
# Keys the format does not have, rejected as the config rejects them.
UNKNOWN_FIELDS = {
    "unknown-architecture-key": ("architecture", "depth", 2),
    "unknown-schedule-key": ("schedule", "beta_mid", 0.05),
}


@pytest.mark.parametrize("case", [*MALFORMED_FIELDS, *NON_INTEGER_FIELDS, *UNKNOWN_FIELDS])
def test_malformed_field_rejected_naming_file(tmp_path, small_model, schedule, case):
    section, field, value = {**MALFORMED_FIELDS, **NON_INTEGER_FIELDS, **UNKNOWN_FIELDS}[case]
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    doc = json.loads(path.read_text())
    if field is None:
        doc[section] = value
    else:
        doc[section][field] = value
    path.write_text(json.dumps(doc))
    dotted = re.escape(f"'{section}.{field}")
    if case in NON_INTEGER_FIELDS:
        match = rf"ck\.json: field {dotted}(\[0\])?' must be int, got"
    elif case in UNKNOWN_FIELDS:
        match = rf"ck\.json: unknown field {dotted}'"
    else:
        match = rf"ck\.json.*{field or section}"
    with pytest.raises(CheckpointError, match=match) as err:
        load_checkpoint(path)
    assert str(err.value).count("ck.json") == 1, str(err.value)


SECTION_KEYS = [
    *(f"schedule.{key}" for key in ("num_timesteps", "beta_min", "beta_max")),
    *(
        f"architecture.{key}"
        for key in ("input_dim", "hidden_dims", "num_classes", "num_timesteps",
                    "time_embed_dim", "class_embed_dim")
    ),
]


@pytest.mark.parametrize("dotted", SECTION_KEYS)
def test_missing_section_key_rejected(tmp_path, small_model, schedule, dotted):
    # No default fills the gap, though NoiseSchedule has one for each key.
    section, key = dotted.split(".")
    path = tmp_path / "ck.json"
    save_checkpoint(path, small_model, schedule, 1e-4, 0.1)
    doc = json.loads(path.read_text())
    del doc[section][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"ck.json.*missing '{key}'") as err:
        load_checkpoint(path)
    assert str(err.value).count("ck.json") == 1, str(err.value)


def test_declared_sizes_get_no_memory_before_the_check(tmp_path, schedule):
    # A layout for 10**5 timesteps at width 64 holds a 49 MiB table index.
    model = init_model(2, (64,), num_classes=3, num_timesteps=8, rng=np.random.default_rng(0))
    path = tmp_path / "ck.json"
    save_checkpoint(path, model, schedule, 1e-4, 0.1)
    doc = json.loads(path.read_text())
    doc["architecture"]["num_timesteps"] = 10**5
    path.write_text(json.dumps(doc))
    cached = _layout.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="ck.json.*architecture needs"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert _layout.cache_info() == cached


def test_betas_differing_from_schedule_rejected(tmp_path, small_model):
    # The file would otherwise hold betas the model was never run with.
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match="differ from the schedule"):
        save_checkpoint(path, small_model, NoiseSchedule(8, 1e-4, 0.1), 0.2, 0.3)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_file_rejected_naming_it(tmp_path, kind):
    path = tmp_path / "ck.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"version": "\xff"}')
    with pytest.raises(CheckpointError, match="ck.json.*unreadable"):
        load_checkpoint(path)


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
