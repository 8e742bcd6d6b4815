"""Config document validation, overrides, hashing, and stage seed streams."""

import json

import pytest

from diffunlearn.config import (
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    default_config_dict,
    load_config,
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
        ({"mixture": {"num_classes": 3, "means": [[0, 0], [1, 1]]}}, "mixture"),
        ({"pretrain": {"steps": 10.5}}, r"pretrain\.steps"),
        ({"unlearn": {"iterations": True}}, r"unlearn\.iterations"),
        ({"unlearn": {"loss_cap": True}}, r"unlearn\.loss_cap"),
        ({"sweep": {"loss_cap_scales": ["x"]}}, r"sweep\.loss_cap_scales\[0\]"),
        ({"pretrain": {"lr": float("nan")}}, r"pretrain\.lr"),
        ({"unlearn": {"step_size": float("nan")}}, r"unlearn\.step_size"),
        ({"mixture": {"sigma": float("nan")}}, r"mixture\.sigma"),
        ({"eval": {"bandwidth": float("inf")}}, r"eval\.bandwidth"),
        ({"unlearn": {"loss_cap": float("-inf")}}, r"unlearn\.loss_cap"),
        (
            {"sweep": {"forget_weights": [1.0, float("nan")]}},
            r"sweep\.forget_weights\[1\]",
        ),
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


def test_explicit_means_build_mixture():
    cfg = config_from_dict(
        {
            "forget_class": 1,
            "mixture": {
                "num_classes": 2,
                "means": [[0.0, 0.0], [3.0, 0.0]],
                "sigma": 0.5,
                "samples_per_class": 10,
            },
        }
    )
    spec = cfg.mixture.build()
    assert spec.means.shape == (2, 2)
    assert spec.means[1, 0] == 3.0


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11}))
    assert load_config(path).seed == 11


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(path)


class TestOverrides:
    def test_json_values_parse(self):
        raw = apply_overrides(
            default_config_dict(),
            [
                "seed=7",
                "unlearn.forget_weight=2.5",
                "unlearn.iterations=3",
                "eval.bandwidth=null",
                "sweep.loss_caps=[0.5,1.5]",
            ],
        )
        cfg = config_from_dict(raw)
        assert cfg.seed == 7
        assert cfg.unlearn.forget_weight == 2.5
        assert cfg.unlearn.iterations == 3
        assert cfg.eval.bandwidth is None
        assert cfg.sweep.loss_caps == (0.5, 1.5)

    def test_bare_strings_pass_through(self):
        raw = apply_overrides(default_config_dict(), ["unlearn.strategy=graddiff"])
        assert raw["unlearn"]["strategy"] == "graddiff"

    def test_original_dict_untouched(self):
        base = default_config_dict()
        apply_overrides(base, ["seed=99"])
        assert base["seed"] == 0

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError, match="does not exist"):
            apply_overrides(default_config_dict(), ["unlearn.nope.deep=1"])

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
