"""Command-line interface: artifacts, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from diffunlearn import harness
from diffunlearn.checkpoint import load_checkpoint
from diffunlearn.cli import main
from diffunlearn.config import config_from_dict
from diffunlearn.unlearn import TRAJECTORY_COLUMNS, read_trajectory_csv


def tiny_raw():
    return {
        "seed": 3,
        "forget_class": 0,
        "mixture": {
            "num_classes": 3,
            "radius": 4.0,
            "sigma": 0.3,
            "samples_per_class": 30,
        },
        "schedule": {"num_timesteps": 8, "beta_min": 1e-4, "beta_max": 0.1},
        "model": {"hidden_dims": [8]},
        "pretrain": {"steps": 30, "batch_size": 16, "lr": 0.05, "lr_final": 0.01},
        "unlearn": {
            "iterations": 4,
            "batch_forget": 8,
            "batch_remain": 8,
            "remain_per_class": 4,
            "k_nearest": 2,
        },
        "eval": {"n_per_condition": 20},
        "sweep": {
            "forget_weights": [1.0],
            "loss_cap_scales": [0.5, 1.0],
            "strategies": ["restricted", "graddiff"],
        },
    }


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_raw()))
    return path


@pytest.fixture
def trained(tmp_path, cfg_path):
    """A run directory holding the tiny pretrained checkpoint."""
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_gen_data_writes_and_reruns_identically(tmp_path, cfg_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()


def test_gen_data_seed_changes_output(tmp_path, cfg_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert (
        main(["gen-data", "--config", str(cfg_path), "--out", str(b), "--seed", "9"])
        == 0
    )
    assert (a / "dataset.jsonl").read_bytes() != (b / "dataset.jsonl").read_bytes()


def test_zero_step_train_equals_initialization(tmp_path, cfg_path):
    out = tmp_path / "runs"
    rc = main(
        [
            "train",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--set",
            "pretrain.steps=0",
        ]
    )
    assert rc == 0
    model, _, provenance = load_checkpoint(out / "pretrained.json")
    config = config_from_dict(
        json.loads(json.dumps(tiny_raw()))
        | {"pretrain": {**tiny_raw()["pretrain"], "steps": 0}}
    )
    init = harness.init_from_config(config)
    assert np.array_equal(model.params, init.params)
    assert provenance["iterations"] == 0


def test_train_then_unlearn_then_eval(trained, cfg_path, capsys):
    out = trained
    rc = main(
        [
            "unlearn",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--strategy",
            "graddiff",
        ]
    )
    assert rc == 0
    assert (out / "unlearned_graddiff.json").exists()
    reports = read_trajectory_csv(out / "trajectory_graddiff.csv")
    assert len(reports) == 4

    rc = main(
        [
            "eval",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--checkpoint",
            str(out / "unlearned_graddiff.json"),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "ua=" in captured and "mmd=" in captured
    report = json.loads((out / "eval_unlearned_graddiff.json").read_text())
    assert 0.0 <= report["ua"] <= 1.0
    rows = harness.read_rows_csv(
        out / "eval_unlearned_graddiff.csv", harness.EVAL_COLUMNS
    )
    assert rows[0]["strategy"] == "unlearned_graddiff"
    assert rows[0]["ua"] == report["ua"]


def test_unlearn_rerun_byte_identical(trained, cfg_path, tmp_path):
    out = trained
    first, second = tmp_path / "u1", tmp_path / "u2"
    ckpt = str(out / "pretrained.json")
    for dest in (first, second):
        rc = main(
            [
                "unlearn",
                "--config",
                str(cfg_path),
                "--out",
                str(dest),
                "--checkpoint",
                ckpt,
            ]
        )
        assert rc == 0
    for name in ("unlearned_restricted.json", "trajectory_restricted.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_trajectory_columns_contract(trained, cfg_path):
    out = trained
    assert main(["unlearn", "--config", str(cfg_path), "--out", str(out)]) == 0
    header = (
        (out / "trajectory_restricted.csv").read_text().splitlines()[0].split(",")
    )
    assert tuple(header) == TRAJECTORY_COLUMNS


def test_sweep_csv_artifacts(trained, cfg_path):
    out = trained
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = harness.read_rows_csv(out / "sweep.csv", harness.SWEEP_COLUMNS)
    assert len(rows) == 1 * 2 * 2
    assert all(r["status"] == "ok" for r in rows)
    summary = harness.read_rows_csv(
        out / "sweep_summary.csv", harness.SWEEP_SUMMARY_COLUMNS
    )
    assert len(summary) == 2
    assert {s["strategy"] for s in summary} == {"restricted", "graddiff"}


def test_diversity_ablation_csv_artifacts(trained, cfg_path):
    out = trained
    rc = main(["diversity-ablation", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    rows = harness.read_rows_csv(out / "ablation.csv", harness.ABLATION_COLUMNS)
    assert len(rows) == 6
    summary = harness.read_rows_csv(
        out / "ablation_summary.csv", harness.ABLATION_SUMMARY_COLUMNS
    )
    for entry in summary:
        assert entry["delta_ua"] == pytest.approx(
            entry["case2_ua"] - entry["case1_ua"], abs=0.0
        )


def test_gen_prompts(tmp_path, cfg_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for dest in (a, b):
        rc = main(
            [
                "gen-prompts",
                "--config",
                str(cfg_path),
                "--out",
                str(dest),
                "--count",
                "4",
            ]
        )
        assert rc == 0
    assert (a / "prompts.jsonl").read_bytes() == (b / "prompts.jsonl").read_bytes()
    lines = (a / "prompts.jsonl").read_text().splitlines()
    assert len(lines) == 8  # 4 train pairs + 4 test pairs
    record = json.loads(lines[0])
    assert set(record) >= {"id", "split", "forget_prompt", "remain_prompt"}


def test_gen_prompts_default_count(tmp_path):
    # The default count must fit the default template's 8 test combinations.
    rc = main(["gen-prompts", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len((tmp_path / "o" / "prompts.jsonl").read_text().splitlines()) == 16


def test_diverse_suffix_accepted_on_every_strategy_flag(trained, cfg_path):
    out = trained
    rc = main(
        [
            "unlearn",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--strategy",
            "graddiff+diverse",
        ]
    )
    assert rc == 0
    assert (out / "unlearned_graddiff+diverse.json").exists()


def test_defaults_without_config_flag(tmp_path):
    # No --config: built-in defaults drive the run (5 classes, 1000 each).
    out = tmp_path / "runs"
    rc = main(
        [
            "gen-data",
            "--out",
            str(out),
            "--set",
            "mixture.samples_per_class=5",
        ]
    )
    assert rc == 0
    assert len((out / "dataset.jsonl").read_text().splitlines()) == 25


class TestExitCodes:
    def test_unknown_config_field_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mixtur": {}}))
        rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "mixtur" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path):
        rc = main(
            [
                "gen-data",
                "--config",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 1

    def test_bad_override_is_usage_error(self, cfg_path, tmp_path, capsys):
        rc = main(
            [
                "gen-data",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "o"),
                "--set",
                "mixture.nope=1",
            ]
        )
        assert rc == 1
        assert "nope" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, cfg_path, tmp_path, capsys):
        rc = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unlearn", "--strategy", "bogus"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compress"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_flag_beats_set_override(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        rc = main(
            [
                "gen-data",
                "--config",
                str(cfg_path),
                "--out",
                str(a),
                "--set",
                "seed=5",
                "--seed",
                "9",
            ]
        )
        assert rc == 0
        rc = main(
            ["gen-data", "--config", str(cfg_path), "--out", str(b), "--seed", "9"]
        )
        assert rc == 0
        assert (a / "dataset.jsonl").read_bytes() == (b / "dataset.jsonl").read_bytes()


def test_module_invocation(tmp_path, cfg_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "diffunlearn",
            "gen-data",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote" in result.stdout
