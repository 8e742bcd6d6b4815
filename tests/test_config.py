"""Config document validation, overrides, hashing, and stage seed streams."""

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from diffunlearn.artifacts import read_json
from diffunlearn.cli import main
from diffunlearn.config import (
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    default_config_dict,
    stage_seed,
)
from diffunlearn.errors import ConfigError, DomainError
from diffunlearn.train import TrainConfig
from diffunlearn.unlearn import UnlearnConfig


def test_defaults_round_trip():
    assert config_from_dict(default_config_dict()) == RunConfig()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("cls, field", [
    (TrainConfig, "lr"),
    (TrainConfig, "lr_final"),
    (UnlearnConfig, "step_size"),
    (UnlearnConfig, "loss_cap"),
    (UnlearnConfig, "forget_weight"),
])
def test_python_configs_reject_non_finite_values(cls, field, value):
    # As config_from_dict does: a NaN learning rate would otherwise train
    # to NaN parameters behind a finite loss history.
    with pytest.raises(DomainError):
        cls(**{field: value})


def test_empty_document_gives_defaults():
    assert config_from_dict({}) == RunConfig()


def test_nested_lists_become_tuples():
    cfg = config_from_dict({"model": {"hidden_dims": [16, 8]}})
    assert cfg.model.hidden_dims == (16, 8)


def test_unknown_top_level_field_named():
    with pytest.raises(ConfigError, match="mixtur"):
        config_from_dict({"mixtur": {}})


def test_unknown_nested_field_named():
    with pytest.raises(ConfigError, match=r"unlearn\.momentum"):
        config_from_dict({"unlearn": {"momentum": 0.9}})


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="mixture"):
        config_from_dict({"mixture": 3})


def test_scalar_type_checked():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "zero"})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": True})


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"mixture": {"sigma": -1.0}}, "mixture"),
        ({"mixture": {"num_classes": 1}}, "mixture"),
        ({"schedule": {"beta_max": 2.0}}, "schedule"),
        ({"model": {"hidden_dims": []}}, "model"),
        ({"model": {"hidden_dims": [0]}}, "model"),
        ({"pretrain": {"lr": -0.5}}, "pretrain"),
        ({"unlearn": {"strategy": "bogus"}}, "unlearn"),
        ({"unlearn": {"loss_cap": 0.0}}, "unlearn"),
        ({"unlearn": {"iterations": 0}}, "unlearn"),
        ({"unlearn": {"loss_cap_percentile": 101.0}}, "unlearn"),
        ({"unlearn": {"diversity": "random"}}, "unlearn"),
        ({"eval": {"n_per_condition": 0}}, "eval"),
        ({"sweep": {"strategies": []}}, "sweep"),
        ({"sweep": {"strategies": ["nope"]}}, "sweep"),
        ({"forget_class": 99}, "forget_class"),
        ({"pretrain": {"steps": 10.5}}, r"pretrain\.steps"),
        ({"unlearn": {"iterations": True}}, r"unlearn\.iterations"),
        ({"unlearn": {"loss_cap": True}}, r"unlearn\.loss_cap"),
        ({"sweep": {"loss_cap_scales": ["x"]}}, r"sweep\.loss_cap_scales\[0\]"),
        ({"pretrain": {"lr": float("nan")}}, r"pretrain\.lr"),
        ({"unlearn": {"step_size": float("nan")}}, r"unlearn\.step_size"),
        ({"mixture": {"sigma": float("nan")}}, r"mixture\.sigma"),
        ({"unlearn": {"loss_cap": float("-inf")}}, r"unlearn\.loss_cap"),
        (
            {"sweep": {"forget_weights": [1.0, float("nan")]}},
            r"sweep\.forget_weights\[1\]",
        ),

        ({"sweep": {"forget_weights": [1.0, -1.0]}}, "sweep.*forget_weights"),
        ({"sweep": {"loss_cap_scales": [-2.0]}}, "sweep.*loss_cap_scales"),
        ({"sweep": {"loss_cap_scales": [0.0]}}, "sweep.*loss_cap_scales"),
    ],
    ids=lambda v: str(v)[:40],
)
def test_bad_values_rejected_at_load(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(raw)


def test_type_mismatch_rejected_at_load():
    # A string sigma cannot pass numeric validation; the section is named.
    with pytest.raises(ConfigError, match="mixture"):
        config_from_dict({"mixture": {"sigma": "wide"}})


def test_diverse_strategy_names_accepted():
    for name in ("restricted+diverse", "graddiff+diverse"):
        cfg = config_from_dict({"unlearn": {"strategy": name}})
        assert cfg.unlearn.strategy == name
        assert cfg.unlearn.build(1.0, 0).strategy == name
    cfg = config_from_dict({"sweep": {"strategies": ["finetune+diverse"]}})
    assert cfg.sweep.strategies == ("finetune+diverse",)
    with pytest.raises(ConfigError, match="unlearn"):
        config_from_dict({"unlearn": {"strategy": "bogus+diverse"}})


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param("mixture.means", [[float(k), 0.0] for k in range(5)], id="mixture.means"),
        pytest.param("eval.bandwidth", 1.5, id="eval.bandwidth"),
        pytest.param("sweep.loss_caps", [0.5, 1.5], id="sweep.loss_caps"),
        pytest.param("pretrain.lr_final", None, id="pretrain.lr_final"),
    ],
)
def test_removed_fields_rejected(path, value):
    # Each asked again for what another field settles: radius, the mixture's
    # median, unlearn.loss_cap 1.0 with loss_cap_scales, and lr_final = lr.
    section, name = path.split(".")
    with pytest.raises(ConfigError, match=rf"field '{section}\.{name}'"):
        config_from_dict({section: {name: value}})


def _nullable_fields(cls) -> set:
    """Names of the fields, at any depth, whose annotation admits null."""
    names = set()
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            names |= _nullable_fields(hint)
        elif type(None) in typing.get_args(hint):
            names.add(name)
    return names


def test_readme_configuration_table_matches_the_config():
    # Each section's row names exactly that section's fields, and the
    # sentence before the table exactly the fields that take null.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    part = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    intro, table = part.split("\n| section |", 1)
    sentence = re.search(r"only ([^.]*) takes? `null`", intro.replace("\n", " "))
    assert set(re.findall(r"`([a-z_]+)`", sentence[1])) == _nullable_fields(RunConfig)
    doc = default_config_dict()
    want = {"top level": {key for key, v in doc.items() if not isinstance(v, dict)}}
    want.update({key: set(v) for key, v in doc.items() if isinstance(v, dict)})
    rows = [line.split(" | ", 1) for line in table.split("\n\n", 1)[0].splitlines()[2:]]
    got = {row[0].strip("| `"): set(re.findall(r"`([a-z_]+)`", row[1])) for row in rows}
    assert got == want


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11}))
    assert config_from_dict(read_json(path, ConfigError, "config file")).seed == 11


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        read_json(tmp_path / "absent.json", ConfigError, "config file")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        read_json(path, ConfigError, "config file")


class TestOverrides:
    def test_json_values_parse(self):
        raw = apply_overrides(
            default_config_dict(),
            [
                "seed=7",
                "unlearn.forget_weight=2.5",
                "unlearn.iterations=3",
                "unlearn.loss_cap=null",
                "sweep.loss_cap_scales=[0.5,1.5]",
            ],
        )
        cfg = config_from_dict(raw)
        assert cfg.seed == 7
        assert cfg.unlearn.forget_weight == 2.5
        assert cfg.unlearn.iterations == 3
        assert cfg.unlearn.loss_cap is None
        assert cfg.sweep.loss_cap_scales == (0.5, 1.5)

    def test_bare_strings_pass_through(self):
        raw = apply_overrides(default_config_dict(), ["unlearn.strategy=graddiff"])
        assert raw["unlearn"]["strategy"] == "graddiff"

    def test_original_dict_untouched(self):
        base = default_config_dict()
        apply_overrides(base, ["seed=99"])
        assert base["seed"] == 0

    def test_missing_path_rejected(self, tmp_path, capsys):
        # The override creates the path; the schema rejects it by name.
        argv = ["gen-data", "--out", str(tmp_path), "--set", "unlearn.nope.deep=1"]
        assert main(argv) == 1
        assert "unknown field 'unlearn.nope'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_section_created(self):
        raw = apply_overrides({"seed": 7}, ["mixture.samples_per_class=10"])
        assert raw == {"seed": 7, "mixture": {"samples_per_class": 10}}

    @pytest.mark.parametrize("raw, assignment", [
        ({"seed": 7}, "seed.deep=1"),
        ({"unlearn": None}, "unlearn.strategy=graddiff"),
        ([], "seed=3"),
    ])
    def test_path_through_non_object_rejected(self, raw, assignment):
        with pytest.raises(ConfigError, match="not an object"):
            apply_overrides(raw, [assignment])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            apply_overrides(default_config_dict(), ["seed"])

    def test_value_may_contain_equals(self):
        raw = apply_overrides({"a": {"b": ""}}, ["a.b=x=y"])
        assert raw["a"]["b"] == "x=y"


class TestHashAndSeeds:
    def test_hash_ignores_key_order(self):
        a = {"seed": 1, "mixture": {"sigma": 0.3, "radius": 5.0}}
        b = {"mixture": {"radius": 5.0, "sigma": 0.3}, "seed": 1}
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_values(self):
        assert config_hash({"seed": 1}) != config_hash({"seed": 2})

    def test_stage_seeds_distinct_and_stable(self):
        seeds = [stage_seed(42, s) for s in range(7)]
        assert len(set(seeds)) == 7
        assert seeds == [stage_seed(42, s) for s in range(7)]

    def test_stage_seed_subcells(self):
        assert stage_seed(42, 3, 0) != stage_seed(42, 3, 1)
        assert stage_seed(42, 3) != stage_seed(42, 3, 0)

    def test_master_seed_changes_all_stages(self):
        assert all(stage_seed(1, s) != stage_seed(2, s) for s in range(7))
