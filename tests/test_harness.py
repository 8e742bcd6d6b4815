"""Pipeline harness: stage composition, sweeps, and the diversity ablation.

Uses deliberately tiny models and iteration counts; these tests check
orchestration (grids, grouping, failure isolation, determinism), not
unlearning quality, which the acceptance suite measures at full scale.
"""

import dataclasses

import numpy as np
import pytest

from diffunlearn import harness
from diffunlearn.config import config_from_dict
from diffunlearn.errors import ConfigError


def tiny_raw(**extra):
    raw = {
        "seed": 3,
        "forget_class": 0,
        "mixture": {
            "num_classes": 4,
            "radius": 4.0,
            "sigma": 0.3,
            "samples_per_class": 30,
        },
        "schedule": {"num_timesteps": 8, "beta_min": 1e-4, "beta_max": 0.1},
        "model": {"hidden_dims": [8]},
        "pretrain": {"steps": 40, "batch_size": 16, "lr": 0.05, "lr_final": 0.01},
        "unlearn": {
            "iterations": 4,
            "batch_forget": 8,
            "batch_remain": 8,
            "remain_per_class": 4,
            "k_nearest": 2,
        },
        "eval": {"n_per_condition": 20},
        "sweep": {
            "forget_weights": [1.0, 5.0],
            "loss_cap_scales": [0.5, 1.0],
            "strategies": ["restricted", "graddiff"],
        },
    }
    raw.update(extra)
    return raw


@pytest.fixture(scope="module")
def tiny_run():
    config = config_from_dict(tiny_raw())
    spec, data = harness.build_dataset(config)
    schedule = harness.build_schedule(config)
    model, history = harness.pretrain_from_config(config, data, spec)
    return config, spec, data, schedule, model


def test_build_dataset_deterministic(tiny_run):
    config, spec, data, *_ = tiny_run
    _, again = harness.build_dataset(config)
    assert np.array_equal(data.points, again.points)
    assert np.array_equal(data.labels, again.labels)
    assert len(data) == 4 * 30


def test_remain_set_balanced(tiny_run):
    config, _, data, *_ = tiny_run
    remain = harness.build_remain_set(config, data)
    assert len(remain) == 4 * 3
    counts = remain.class_counts()
    assert counts == {1: 4, 2: 4, 3: 4}


def test_remain_set_similar(tiny_run):
    config, _, data, *_ = tiny_run
    similar_cfg = dataclasses.replace(
        config,
        unlearn=dataclasses.replace(config.unlearn, diversity="similar"),
    )
    remain = harness.build_remain_set(similar_cfg, data)
    assert len(remain) == 4 * 3
    assert len(remain.class_counts()) == 2


def test_remain_set_divisibility_checked(tiny_run):
    config, _, data, *_ = tiny_run
    bad = dataclasses.replace(
        config,
        unlearn=dataclasses.replace(
            config.unlearn, diversity="similar", remain_per_class=3, k_nearest=2
        ),
    )
    # 3 per class over 3 retained classes = 9 total, not divisible by 2.
    with pytest.raises(ConfigError, match="divisible"):
        harness.build_remain_set(bad, data)


def test_unlearn_from_config_runs(tiny_run):
    config, spec, data, schedule, model = tiny_run
    final, reports, run_cfg = harness.unlearn_from_config(config, model, data, schedule)
    assert len(reports) == config.unlearn.iterations
    assert run_cfg.strategy == "restricted"
    assert not np.array_equal(final.params, model.params)


def test_unlearn_from_config_deterministic(tiny_run):
    config, spec, data, schedule, model = tiny_run
    a, _, _ = harness.unlearn_from_config(config, model, data, schedule)
    b, _, _ = harness.unlearn_from_config(config, model, data, schedule)
    assert np.array_equal(a.params, b.params)


def test_tail_mean():
    assert harness._tail_mean(list(range(20))) == (18 + 19) / 2
    assert harness._tail_mean([4.0]) == 4.0


class TestRunCells:
    def test_rows_match_a_run_of_each_cell_config(self, tiny_run):
        config, spec, data, schedule, model = tiny_run
        similar = {"diversity": "similar", "strategy": "graddiff"}
        cells = [(3, {}), (11, {}), (11, similar)]
        rows = harness.run_cells(config, model, data, spec, schedule, cells)
        assert rows[0]["ua"] != rows[1]["ua"] or rows[0]["mmd"] != rows[1]["mmd"]
        for (seed, changes), row in zip(cells, rows):
            unlearn = dataclasses.replace(config.unlearn, **changes)
            cfg = dataclasses.replace(config, seed=seed, unlearn=unlearn)
            final, reports, _ = harness.unlearn_from_config(cfg, model, data, schedule)
            report = harness.eval_from_config(cfg, final, spec, schedule)
            classes = harness.build_remain_set(cfg, data).class_counts()
            assert row == {
                "status": "ok",
                "error": "",
                "remain_classes": "|".join(str(c) for c in sorted(classes)),
                "ua": report.ua,
                "ra": report.ra,
                "mmd": report.mmd,
                "final_loss_r": harness._tail_mean([r.loss_r for r in reports]),
                "final_raw_forget_mse": harness._tail_mean(
                    [r.raw_forget_mse for r in reports]
                ),
                "conflicted_fraction": float(np.mean([r.conflicted for r in reports])),
            }
        assert rows[2]["remain_classes"].count("|") == 1

    def test_rejected_change_is_a_failed_row(self, tiny_run):
        config, spec, data, schedule, model = tiny_run
        good = [(3, {}), (3, {"strategy": "graddiff"})]
        cells = [good[0], (3, {"step_size": -1.0}), (3, {"bogus": 1}), good[1]]
        rows = harness.run_cells(config, model, data, spec, schedule, cells)
        assert [r["status"] for r in rows] == ["ok", "failed", "failed", "ok"]
        assert rows[1]["error"].startswith("DomainError: step_size")
        assert rows[2]["error"].startswith("TypeError")
        for row in rows[1:3]:
            assert set(row) == set(harness.CELL_COLUMNS)
            assert all(v == "" for k, v in row.items() if k not in ("status", "error"))
        alone = harness.run_cells(config, model, data, spec, schedule, good)
        assert [rows[0], rows[3]] == alone

    def test_undrawable_remain_set_stops_the_grid(self, tiny_run):
        config, spec, data, schedule, model = tiny_run
        cells = [(3, {"diversity": "similar", "k_nearest": 5})]
        with pytest.raises(ConfigError, match="k_nearest"):
            harness.run_cells(config, model, data, spec, schedule, cells)


class TestSweep:
    def test_grid_order_and_size(self, tiny_run):
        config, *_ = tiny_run
        grid = harness.sweep_grid(config, base_cap=2.0)
        assert len(grid) == 2 * 2 * 2
        # Row order: weight-major, then cap, then strategy.
        assert grid[0] == (1.0, 1.0, "restricted")
        assert grid[1] == (1.0, 1.0, "graddiff")
        assert grid[2] == (1.0, 2.0, "restricted")
        assert grid[-1] == (5.0, 2.0, "graddiff")

    def test_explicit_caps_override_scales(self, tiny_run):
        config, *_ = tiny_run
        cfg = dataclasses.replace(
            config,
            sweep=dataclasses.replace(config.sweep, loss_caps=(0.7, 1.3)),
        )
        caps = {cap for _, cap, _ in harness.sweep_grid(cfg, base_cap=100.0)}
        assert caps == {0.7, 1.3}

    def test_run_sweep_rows_and_summary(self, tiny_run):
        config, spec, data, schedule, model = tiny_run
        rows, summary = harness.run_sweep(config, model, data, spec, schedule)
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)
        assert set(rows[0]) == set(harness.SWEEP_COLUMNS)
        # Summary groups by (weight, strategy) with variance taken across caps.
        assert len(summary) == 4
        for entry in summary:
            cells = [
                r["ra"]
                for r in rows
                if r["forget_weight"] == entry["forget_weight"]
                and r["strategy"] == entry["strategy"]
            ]
            assert entry["n_cells"] == 2
            assert entry["ra_variance"] == pytest.approx(np.var(cells), abs=0.0)

    def test_cells_share_seed_so_rows_differ_only_by_knobs(self, tiny_run):
        config, spec, data, schedule, model = tiny_run
        rows, _ = harness.run_sweep(config, model, data, spec, schedule)
        again, _ = harness.run_sweep(config, model, data, spec, schedule)
        assert rows == again

    def test_failed_cell_recorded_and_sweep_continues(self, tiny_run, monkeypatch):
        config, spec, data, schedule, model = tiny_run
        real = harness.unlearn_run

        def sabotage(model, forget_set, remain_set, schedule, cfg, rng=None):
            if cfg.strategy == "graddiff":
                raise RuntimeError("sabotaged cell")
            return real(model, forget_set, remain_set, schedule, cfg, rng)

        monkeypatch.setattr(harness, "unlearn_run", sabotage)
        rows, summary = harness.run_sweep(config, model, data, spec, schedule)
        failed = [r for r in rows if r["status"] == "failed"]
        ok = [r for r in rows if r["status"] == "ok"]
        assert len(failed) == 4 and len(ok) == 4
        assert all("sabotaged cell" in r["error"] for r in failed)
        assert all(r["ua"] == "" for r in failed)
        # Failed cells drop out of the variance summary.
        for entry in summary:
            expected = 0 if entry["strategy"] == "graddiff" else 2
            assert entry["n_cells"] == expected
            if expected == 0:
                assert entry["ra_variance"] == ""

    def test_diverging_sampler_cell_recorded_as_failed(self, tiny_run, monkeypatch):
        config, spec, data, schedule, model = tiny_run
        real = harness.unlearn_from_config

        def poisoned(config, *args, **kwargs):
            final, reports, extra = real(config, *args, **kwargs)
            if config.unlearn.strategy == "graddiff":
                params = final.params.copy()
                params[final.layout.biases[-1]] = np.inf
                final = final.with_params(params)
            return final, reports, extra

        monkeypatch.setattr(harness, "unlearn_from_config", poisoned)
        rows, _ = harness.run_sweep(config, model, data, spec, schedule)
        failed = [r for r in rows if r["status"] == "failed"]
        assert [r["strategy"] for r in failed] == ["graddiff"] * 4
        assert all(r["error"].startswith("SamplingDiverged") for r in failed)
        assert all(r["ua"] == "" for r in failed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_cell_recorded_as_failed(self, tiny_run):
        # Overflow on the way to the abort is the point of this test.
        config, spec, data, schedule, model = tiny_run
        cfg = dataclasses.replace(
            config,
            unlearn=dataclasses.replace(config.unlearn, step_size=1e100),
            sweep=dataclasses.replace(
                config.sweep, forget_weights=(5.0,), strategies=("graddiff",)
            ),
        )
        rows, _ = harness.run_sweep(cfg, model, data, spec, schedule)
        assert [r["status"] for r in rows] == ["failed", "failed"]
        assert all(r["error"].startswith("TrainingDiverged") for r in rows)


@pytest.fixture(scope="module")
def ablation(tiny_run):
    config, spec, data, schedule, model = tiny_run
    return harness.run_diversity_ablation(config, model, data, spec, schedule)


class TestDiversityAblation:
    def test_rows_cover_cases_and_strategies(self, ablation):
        rows, _ = ablation
        assert len(rows) == 2 * 3
        assert {(r["case"], r["strategy"]) for r in rows} == {
            (c, s) for c in (1, 2) for s in harness.ABLATION_STRATEGIES
        }

    def test_case_compositions(self, ablation):
        rows, _ = ablation
        by_case = {r["case"]: r for r in rows}
        assert by_case[1]["composition"] == "similar"
        assert by_case[2]["composition"] == "balanced"
        # Case 1 restricts to the 2 nearest classes; case 2 spans all 3.
        assert len(by_case[1]["remain_classes"].split("|")) == 2
        assert by_case[2]["remain_classes"] == "1|2|3"

    def test_cases_actually_differ(self, ablation):
        rows, _ = ablation
        one = {r["strategy"]: r for r in rows if r["case"] == 1}
        two = {r["strategy"]: r for r in rows if r["case"] == 2}
        assert any(
            one[s]["mmd"] != two[s]["mmd"] for s in harness.ABLATION_STRATEGIES
        )

    def test_summary_deltas(self, ablation):
        rows, summary = ablation
        assert [e["strategy"] for e in summary] == list(harness.ABLATION_STRATEGIES)
        lookup = {(r["case"], r["strategy"]): r for r in rows}
        for entry in summary:
            for metric in ("ua", "ra", "mmd"):
                one = lookup[(1, entry["strategy"])][metric]
                two = lookup[(2, entry["strategy"])][metric]
                assert entry[f"case1_{metric}"] == one
                assert entry[f"case2_{metric}"] == two
                assert entry[f"delta_{metric}"] == two - one

    def test_rows_are_ok(self, ablation):
        rows, _ = ablation
        assert [r["status"] for r in rows] == ["ok"] * 6
        assert [r["error"] for r in rows] == [""] * 6

    def test_diverging_sampler_cell_recorded_as_failed(self, tiny_run, monkeypatch):
        # Both graddiff cells' models get an inf output bias, so their
        # sampler diverges; the other four cells keep their rows and deltas.
        config, spec, data, schedule, model = tiny_run
        real = harness.unlearn_from_config

        def poisoned(config, *args, **kwargs):
            final, reports, extra = real(config, *args, **kwargs)
            if config.unlearn.strategy == "graddiff":
                params = final.params.copy()
                params[final.layout.biases[-1]] = np.inf
                final = final.with_params(params)
            return final, reports, extra

        monkeypatch.setattr(harness, "unlearn_from_config", poisoned)
        rows, summary = harness.run_diversity_ablation(config, model, data, spec, schedule)
        assert len(rows) == 6
        failed = [r for r in rows if r["status"] == "failed"]
        assert [(r["case"], r["strategy"]) for r in failed] == [(1, "graddiff"), (2, "graddiff")]
        assert all(r["error"].startswith("SamplingDiverged") for r in failed)
        assert all(r[m] == "" for r in failed for m in ("ua", "ra", "mmd"))
        by_strategy = {e["strategy"]: e for e in summary}
        for metric in ("ua", "ra", "mmd"):
            assert by_strategy["graddiff"][f"delta_{metric}"] == ""
            for strat in harness.ABLATION_STRATEGIES[1:]:
                assert isinstance(by_strategy[strat][f"delta_{metric}"], float)

    def test_one_failed_case_empties_the_deltas(self, tiny_run, monkeypatch):
        config, spec, data, schedule, model = tiny_run
        real = harness.unlearn_run

        def sabotage(model, forget_set, remain_set, schedule, cfg, rng=None):
            if cfg.strategy == "restricted" and len(np.unique(remain_set.labels)) == 2:
                raise RuntimeError("sabotaged cell")
            return real(model, forget_set, remain_set, schedule, cfg, rng)

        monkeypatch.setattr(harness, "unlearn_run", sabotage)
        rows, summary = harness.run_diversity_ablation(config, model, data, spec, schedule)
        failed = [(r["case"], r["strategy"]) for r in rows if r["status"] == "failed"]
        assert failed == [(1, "restricted")]
        entry = {e["strategy"]: e for e in summary}["restricted"]
        assert entry["case1_ra"] == "" and isinstance(entry["case2_ra"], float)
        assert entry["delta_ua"] == entry["delta_ra"] == entry["delta_mmd"] == ""
