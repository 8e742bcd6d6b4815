"""Command-line interface: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diffunlearn import artifacts, evaluate, harness
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
    rows = artifacts.read_rows_csv(
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
    rows = artifacts.read_rows_csv(out / "sweep.csv", harness.SWEEP_COLUMNS)
    assert len(rows) == 1 * 2 * 2
    assert all(r["status"] == "ok" for r in rows)
    summary = artifacts.read_rows_csv(
        out / "sweep_summary.csv", harness.SWEEP_SUMMARY_COLUMNS
    )
    assert len(summary) == 2
    assert {s["strategy"] for s in summary} == {"restricted", "graddiff"}


def test_diversity_ablation_csv_artifacts(trained, cfg_path):
    out = trained
    rc = main(["diversity-ablation", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    rows = artifacts.read_rows_csv(out / "ablation.csv", harness.ABLATION_COLUMNS)
    assert len(rows) == 6
    summary = artifacts.read_rows_csv(
        out / "ablation_summary.csv", harness.ABLATION_SUMMARY_COLUMNS
    )
    for entry in summary:
        assert entry["delta_ua"] == pytest.approx(
            entry["case2_ua"] - entry["case1_ua"], abs=0.0
        )
    assert [row["status"] for row in rows] == ["ok"] * 6


def _poison_output_bias(monkeypatch, strategies):
    """Give the unlearned models of ``strategies`` an inf output bias."""
    real = harness.unlearn_from_config

    def poisoned(config, *args, **kwargs):
        final, reports, extra = real(config, *args, **kwargs)
        if config.unlearn.strategy in strategies:
            params = final.params.copy()
            params[final.layout.biases[-1]] = np.inf
            final = final.with_params(params)
        return final, reports, extra

    monkeypatch.setattr(harness, "unlearn_from_config", poisoned)


def test_diversity_ablation_isolates_failed_cells(trained, cfg_path, monkeypatch, capsys):
    _poison_output_bias(monkeypatch, {"graddiff"})
    out = trained
    rc = main(["diversity-ablation", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    rows = artifacts.read_rows_csv(out / "ablation.csv", harness.ABLATION_COLUMNS)
    assert len(rows) == 6
    failed = [row for row in rows if row["status"] == "failed"]
    assert [row["strategy"] for row in failed] == ["graddiff", "graddiff"]
    assert all(row["error"].startswith("SamplingDiverged") for row in failed)
    summary = artifacts.read_rows_csv(
        out / "ablation_summary.csv", harness.ABLATION_SUMMARY_COLUMNS
    )
    assert [entry["delta_ua"] == "" for entry in summary] == [True, False, False]
    stdout = capsys.readouterr().out
    assert "strategy=graddiff delta_ua= delta_ra= delta_mmd=\n" in stdout
    assert "cells=6 failed=2" in stdout
    assert "failed cell case=1 strategy=graddiff: SamplingDiverged" in stdout


def test_diversity_ablation_exits_2_when_every_cell_failed(trained, cfg_path, monkeypatch, capsys):
    _poison_output_bias(monkeypatch, set(harness.ABLATION_STRATEGIES))
    rc = main(["diversity-ablation", "--config", str(cfg_path), "--out", str(trained)])
    assert rc == 2
    assert "every ablation cell failed" in capsys.readouterr().err
    rows = artifacts.read_rows_csv(trained / "ablation.csv", harness.ABLATION_COLUMNS)
    assert [row["status"] for row in rows] == ["failed"] * 6


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


def test_set_fills_a_section_the_file_omits(tmp_path):
    # The file leaves "pretrain" out; --set writes it as the file would.
    partial = {k: v for k, v in tiny_raw().items() if k != "pretrain"}
    full = partial | {"pretrain": {"steps": 20, "batch_size": 16}}
    (tmp_path / "partial.json").write_text(json.dumps(partial))
    (tmp_path / "full.json").write_text(json.dumps(full))
    a, b = tmp_path / "a", tmp_path / "b"
    rc = main(
        [
            "train",
            "--config",
            str(tmp_path / "partial.json"),
            "--out",
            str(a),
            "--set",
            "pretrain.steps=20",
            "--set",
            "pretrain.batch_size=16",
        ]
    )
    assert rc == 0
    rc = main(["train", "--config", str(tmp_path / "full.json"), "--out", str(b)])
    assert rc == 0
    assert (a / "pretrained.json").read_bytes() == (b / "pretrained.json").read_bytes()


def test_paths_section_places_every_artifact(tmp_path):
    paths = {"data_dir": "data", "checkpoint_dir": "ckpt", "report_dir": "reports"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tiny_raw() | {"paths": paths}))
    out = tmp_path / "runs"
    # eval, given no --checkpoint, reads pretrained.json from checkpoint_dir.
    for command in ("gen-data", "train", "unlearn", "eval"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*"))
    assert written == [
        "ckpt/pretrained.json",
        "ckpt/unlearned_restricted.json",
        "data/dataset.jsonl",
        "reports/eval_pretrained.csv",
        "reports/eval_pretrained.json",
        "reports/trajectory_restricted.csv",
    ]


class TestExitCodes:
    def test_unknown_config_field_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mixtur": {}}))
        rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "mixtur" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, name, value",
        [
            pytest.param("mixture", "means", [[float(k), 0.0] for k in range(3)], id="means"),
            pytest.param("eval", "bandwidth", 1.5, id="bandwidth"),
            pytest.param("sweep", "loss_caps", [0.5, 1.5], id="loss_caps"),
            pytest.param("pretrain", "lr_final", None, id="lr_final"),
        ],
    )
    def test_removed_field_in_file_exits_one_naming_it(
        self, tmp_path, capsys, section, name, value
    ):
        # An otherwise valid document that still sets a removed field
        # stops before any artifact is written.
        raw = tiny_raw()
        raw[section][name] = value
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["gen-data", "--config", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: " in err and f"field '{section}.{name}'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"seed": "\xff"}')
        rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_typo_override_section_named(self, cfg_path, tmp_path, capsys):
        # --set creates the section; the schema rejects it by name.
        out = tmp_path / "o"
        argv = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["gen-data", *argv, "--set", "mixtrue.sigma=1"]) == 1
        assert "config error: unknown field 'mixtrue'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", [["--seed", "3"], ["--forget-class", "1"], ["--strategy", "graddiff"]]
    )
    def test_flag_on_non_object_config_is_config_error(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        out = tmp_path / "o"
        rc = main(["unlearn", "--config", str(bad), "--out", str(out), *flag])
        assert rc == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint_is_runtime_error(self, cfg_path, tmp_path, capsys):
        rc = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["schedule"].pop("beta_max"),
            lambda doc: doc["architecture"].update(num_classes=3.0),
            lambda doc: doc["architecture"].update(depth=2),
        ],
        ids=["missing-key", "float-size", "unknown-key"],
    )
    def test_malformed_checkpoint_is_runtime_error_naming_it(
        self, trained, cfg_path, capsys, edit
    ):
        path = trained / "pretrained.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        rc = main(["eval", "--config", str(cfg_path), "--out", str(trained)])
        assert rc == 2
        assert capsys.readouterr().err.count(str(path)) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # Balanced: 4 per class from classes holding 3 each.
            ["unlearn", "--set", "mixture.samples_per_class=3"],
            # Similar (the ablation's case 1): 20 * 2 / 1 = 40 from one class
            # of 30.
            [
                "diversity-ablation",
                "--set",
                "unlearn.remain_per_class=20",
                "--set",
                "unlearn.k_nearest=1",
            ],
            # Similar with more nearest classes than the 2 retained ones.
            [
                "unlearn",
                "--set",
                "unlearn.diversity=similar",
                "--set",
                "unlearn.remain_per_class=3",
                "--set",
                "unlearn.k_nearest=3",
            ],
        ],
    )
    def test_infeasible_remain_set_is_config_error(
        self, trained, cfg_path, capsys, argv
    ):
        rc = main([*argv, "--config", str(cfg_path), "--out", str(trained)])
        assert rc == 1
        assert "config error: unlearn." in capsys.readouterr().err

    def test_non_finite_config_value_exits_one(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--set",
                "pretrain.lr=NaN",
            ]
        )
        assert rc == 1
        assert "config error: field 'pretrain.lr' must be finite" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_schedule_differing_from_checkpoint_is_config_error(
        self, trained, cfg_path, capsys
    ):
        before = sorted(trained.iterdir())
        rc = main(
            [
                "unlearn",
                "--config",
                str(cfg_path),
                "--out",
                str(trained),
                "--set",
                "schedule.num_timesteps=6",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: config schedule" in err
        assert "num_timesteps=6" in err and "num_timesteps=8" in err
        assert sorted(trained.iterdir()) == before

    def test_non_finite_eval_report_exits_two(
        self, trained, cfg_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(evaluate, "_mixture_mmd", lambda *args: float("nan"))
        rc = main(["eval", "--config", str(cfg_path), "--out", str(trained)])
        assert rc == 2
        assert "ValueError" in capsys.readouterr().err
        assert not list(trained.glob("eval_*"))

    def test_bad_flag_value_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unlearn", "--strategy", "bogus"])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_one(self, tmp_path, capsys, count):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["gen-prompts", "--out", str(out), "--count", count])
        assert exc.value.code == 1
        assert f"--count: must be an integer >= 1, got '{count}'" in capsys.readouterr().err
        assert not out.exists()

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


def test_train_bytes_independent_of_blas_threads(tmp_path):
    # 300 steps at the default width and batch, so any thread-dependent
    # rounding in a forward or backward gemm would compound into the
    # checkpoint's bytes.
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-m", "diffunlearn", "train", "--out", str(out),
             "--set", "pretrain.steps=300"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        checkpoints.append((out / "pretrained.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_unlearn_bytes_independent_of_blas_threads(tmp_path):
    # The default width: its ~11k parameters put the update's inner products
    # past OpenBLAS's threading threshold, which the tiny config stays under.
    overrides = ["--set", "pretrain.steps=5", "--set", "unlearn.iterations=5"]
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        for command in ("train", "unlearn"):
            result = subprocess.run(
                [sys.executable, "-m", "diffunlearn", command, "--out", str(out)]
                + overrides,
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    one, two = runs
    assert sorted(one) == sorted(two)
    assert [name for name in sorted(one) if one[name] != two[name]] == []


def test_eval_bytes_independent_of_blas_threads(tmp_path):
    # 300 per condition over the 4 retained classes: the 1200x1200 cross
    # distances take 12 blocks, each 1200-point within-set 11, and the
    # median two passes over those 11.
    overrides = ["--set", "pretrain.steps=5", "--set", "eval.n_per_condition=300"]
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        for command in ("train", "eval"):
            result = subprocess.run(
                [sys.executable, "-m", "diffunlearn", command, "--out", str(out)]
                + overrides,
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    one, two = runs
    assert sorted(one) == sorted(two)
    assert {"eval_pretrained.json", "eval_pretrained.csv"} <= set(one)
    assert [name for name in sorted(one) if one[name] != two[name]] == []


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


_SCIPY_PACKAGES = (
    "scipy.spatial",
    "scipy.linalg",
    "scipy.sparse",
    "scipy.special",
    "scipy.spatial._distance_pybind",
)

_LAZY_SCIPY_SCRIPT = """
import json, sys
from diffunlearn import cli, harness
names = sys.argv[2:]
seen = [("import", None, [name in sys.modules for name in names])]
tiny = ["--out", sys.argv[1], "--set", "pretrain.steps=5",
        "--set", "unlearn.iterations=3", "--set", "eval.n_per_condition=10"]
for command in ("gen-data", "train", "unlearn", "gen-prompts", "eval"):
    rc = cli.main([command, *tiny])
    seen.append((command, rc, [name in sys.modules for name in names]))
print(json.dumps(seen))
"""


def test_only_eval_loads_distance_kernels_and_no_command_loads_scipy_spatial(tmp_path):
    # A fresh process: the test process has scipy loaded already. Per
    # command, which of _SCIPY_PACKAGES are in sys.modules: evaluation loads
    # scipy's compiled distance module by itself, so no command loads the
    # scipy.spatial package or the linalg, sparse and special packages it
    # would bring, and only eval of these five commands computes a distance.
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _LAZY_SCIPY_SCRIPT,
            str(tmp_path / "runs"),
            *_SCIPY_PACKAGES,
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    none = [False] * 5
    assert seen == [
        ["import", None, none],
        ["gen-data", 0, none],
        ["train", 0, none],
        ["unlearn", 0, none],
        ["gen-prompts", 0, none],
        ["eval", 0, [False, False, False, False, True]],
    ]
