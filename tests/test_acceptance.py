"""Full-scale acceptance suite: one summary line per criterion.

Criteria 1-4 pin the mathematical core against independent oracles at tight
tolerances. Criteria 5-7 pretrain one conditional denoiser at full budget on
a deliberately tight five-class mixture (radius 2, sigma 0.5), where noised
samples of neighboring classes overlap at mid timesteps and the classes
compete for shared network capacity; with well-separated blobs every
strategy coasts and the comparisons degenerate into ties. Criteria 8-9
cover the paired-prompt contract and byte-level reproducibility of the
command-line pipeline.

Everything is seeded. A rerun reproduces the same numbers bit for bit.
"""

import dataclasses
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from diffunlearn import harness
from diffunlearn.checkpoint import load_checkpoint, save_checkpoint
from diffunlearn.cli import main
from diffunlearn.config import config_from_dict, default_config_dict
from diffunlearn.data import remain_set
from diffunlearn.nn import squared_error_backward
from diffunlearn.projection import project_away, restricted_gradient
from diffunlearn.prompts import PromptTemplateSpec, gen_prompt_pairs, render_pair
from gradcheck import finite_diff_grad, mean_squared_error, random_model

RUN_SEEDS = (101, 102, 103)


# -- criterion 1: conflict-aware update geometry ------------------------------


def conflicting_pair(rng, dim, max_abs_cos=None):
    """A random pair with strictly negative inner product.

    max_abs_cos, when given, rejects near-anti-parallel draws; the norm-ratio
    check divides by ||g_f + g_r||, which those collapse toward zero.
    """
    while True:
        gf = rng.standard_normal(dim)
        gr = rng.standard_normal(dim)
        dot = float(gf @ gr)
        if dot > 0:
            gr, dot = -gr, -dot
        if dot == 0.0:
            continue
        if max_abs_cos is not None:
            cos = dot / (np.linalg.norm(gf) * np.linalg.norm(gr))
            if abs(cos) > max_abs_cos:
                continue
        return gf, gr


@pytest.mark.acceptance(
    criterion=1,
    label="projected updates: orthogonal residuals, nonnegative improvement, "
    "bit-exact pass-through, equal-norm scaling",
)
def test_update_geometry_across_dimensions(margin):
    t0 = time.perf_counter()
    for dim in (2, 10, 10_000):
        rng = np.random.default_rng(4600 + dim)
        # The largest share of its bound that each checked quantity reached.
        worst = {"residual": 0.0, "improvement": 0.0}
        for _ in range(1000):
            gf, gr = conflicting_pair(rng, dim)
            nf, nr = np.linalg.norm(gf), np.linalg.norm(gr)
            up = restricted_gradient(gf, gr)
            assert up.conflicted

            # Each cleaned component is orthogonal to the other raw gradient
            # at 1e-9 relative to the product of the norms involved.
            bound_f = 1e-9 * max(np.linalg.norm(up.delta_f) * nr, 1e-30)
            bound_r = 1e-9 * max(np.linalg.norm(up.delta_r) * nf, 1e-30)
            worst["residual"] = max(worst["residual"], abs(float(up.delta_f @ gr)) / bound_f,
                                    abs(float(up.delta_r @ gf)) / bound_r)
            assert abs(float(up.delta_f @ gr)) <= bound_f
            assert abs(float(up.delta_r @ gf)) <= bound_r

            # First-order improvement on both objectives, zero up to rounding.
            nc = np.linalg.norm(up.combined)
            worst["improvement"] = max(
                worst["improvement"],
                -float(up.combined @ gf) / (1e-9 * max(nc * nf, 1e-30)),
                -float(up.combined @ gr) / (1e-9 * max(nc * nr, 1e-30)),
            )
            assert float(up.combined @ gf) >= -1e-9 * max(nc * nf, 1e-30)
            assert float(up.combined @ gr) >= -1e-9 * max(nc * nr, 1e-30)

        # Agreeing pairs must pass through untouched, bit for bit.
        for _ in range(1000):
            gf = rng.standard_normal(dim)
            gr = rng.standard_normal(dim)
            if float(gf @ gr) < 0:
                gr = -gr
            up = restricted_gradient(gf, gr)
            assert not up.conflicted
            assert np.array_equal(up.combined, gf + gr)

        # Equal norms n, inner product d < 0: the combined update is exactly
        # (1 - d/n^2) times the raw sum.
        scale = 3.0
        for _ in range(1000):
            gf, gr = conflicting_pair(rng, dim, max_abs_cos=0.99)
            gf = scale * gf / np.linalg.norm(gf)
            gr = scale * gr / np.linalg.norm(gr)
            up = restricted_gradient(gf, gr)
            factor = 1.0 - up.dot / scale**2
            raw_sum = gf + gr
            np.testing.assert_allclose(
                up.combined, factor * raw_sum, rtol=1e-12,
                atol=1e-12 * np.linalg.norm(raw_sum),
            )
        margin(f"d={dim} worst residual / bound", worst["residual"], "<=", "limit", 1.0)
        margin(f"d={dim} worst first-order loss / bound", worst["improvement"], "<=", "limit", 1.0)
    margin("seconds", time.perf_counter() - t0, "<", "budget", 10.0)
    assert time.perf_counter() - t0 < 10.0


# -- criterion 2: projection vs least-squares oracle --------------------------


@pytest.mark.acceptance(
    criterion=2,
    label="project_away matches the one-column least-squares residual",
)
def test_projection_matches_least_squares_at_scale(margin):
    rng = np.random.default_rng(4700)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 200))
        g = rng.standard_normal(d)
        onto = rng.standard_normal(d)
        coef, *_ = np.linalg.lstsq(onto[:, None], g, rcond=None)
        residual = g - onto * coef[0]
        error = np.abs(project_away(g, onto) - residual)
        tolerance = 1e-10 * (np.abs(residual) + np.linalg.norm(g))
        worst = max(worst, float(np.max(error / tolerance)))
        np.testing.assert_allclose(
            project_away(g, onto), residual,
            rtol=1e-10, atol=1e-10 * np.linalg.norm(g),
        )
    margin("worst error / tolerance", worst, "<=", "limit", 1.0)


# -- criterion 3: gradient as steepest ascent ---------------------------------


@pytest.mark.acceptance(
    criterion=3,
    label="gradient direction maximizes the directional derivative on "
    "random quadratics",
)
def test_gradient_is_steepest_ascent_direction(margin):
    # Central differences are exact on quadratics, so the derivative along
    # the normalized gradient must equal the gradient norm and dominate
    # every random unit direction.
    rng = np.random.default_rng(4800)
    h = 1e-4
    worst = {"norm": 0.0, "excess": -np.inf}
    for _ in range(100):
        d = int(rng.integers(2, 12))
        b_mat = rng.standard_normal((d, d))
        a_mat = b_mat + b_mat.T
        b_vec = rng.standard_normal(d)
        x0 = rng.standard_normal(d)

        def f(x):
            return 0.5 * np.sum((x @ a_mat) * x, axis=-1) + x @ b_vec

        grad = a_mat @ x0 + b_vec
        gnorm = float(np.linalg.norm(grad))
        along_grad = float(f(x0 + h * grad / gnorm) - f(x0 - h * grad / gnorm))
        along_grad /= 2.0 * h
        worst["norm"] = max(worst["norm"], abs(along_grad - gnorm) / (1e-6 * gnorm))
        assert along_grad == pytest.approx(gnorm, rel=1e-6)

        dirs = rng.standard_normal((1000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        derivs = (f(x0 + h * dirs) - f(x0 - h * dirs)) / (2.0 * h)
        excess = (float(derivs.max()) - along_grad) / (1e-9 * max(gnorm, 1.0))
        worst["excess"] = max(worst["excess"], excess)
        assert np.all(derivs <= along_grad + 1e-9 * max(gnorm, 1.0))
    margin("worst |slope - norm| / tolerance", worst["norm"], "<=", "limit", 1.0)
    margin("worst (best random slope - slope) / tolerance", worst["excess"], "<=", "limit", 1.0)


# -- criterion 4: network gradients vs finite differences ---------------------


@pytest.mark.acceptance(
    criterion=4,
    label="hand-written network gradients match central differences",
)
def test_network_gradients_match_finite_differences(margin):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4900)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        batch = int(rng.integers(1, 5))
        x = rng.standard_normal((batch, model.input_dim))
        targets = rng.standard_normal((batch, model.input_dim))
        t = rng.integers(1, model.num_timesteps + 1, size=batch)
        c = rng.integers(0, model.num_classes, size=batch)
        _, grad = squared_error_backward(model, x, targets, t, c)

        def loss_fn(p, model=model, x=x, targets=targets, t=t, c=c):
            return mean_squared_error(model.with_params(p), x, targets, t, c)

        fd = finite_diff_grad(loss_fn, model.params, h=1e-5)
        worst = max(worst, float(np.max(np.abs(grad - fd) / (1e-10 + 1e-5 * np.abs(fd)))))
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)
    margin("worst error / tolerance", worst, "<=", "limit", 1.0)
    margin("seconds", time.perf_counter() - t0, "<", "budget", 60.0)
    assert time.perf_counter() - t0 < 60.0


# -- criteria 5-7: full-budget strategy comparison ----------------------------


@pytest.fixture(scope="module")
def experiment():
    """One pretrained checkpoint plus every comparison cell, fully seeded.

    Strategy cells run the forgetting cap at 50x the derived 90th
    percentile: at 1x the truncation saturates within the first few dozen
    iterations and the remaining budget repairs every strategy equally,
    erasing the differences this suite is meant to measure. The ablation and
    the cap sweep keep the derived scale.
    """
    t0 = time.perf_counter()
    raw = default_config_dict()
    raw["seed"] = 100
    raw["mixture"]["radius"] = 2.0
    raw["mixture"]["sigma"] = 0.5
    raw["eval"]["n_per_condition"] = 1500
    raw["sweep"] = {
        "forget_weights": [5.0],
        "loss_cap_scales": [5.0, 20.0, 50.0],
        "strategies": ["restricted", "graddiff"],
    }
    config = config_from_dict(raw)
    spec, data = harness.build_dataset(config)
    schedule = harness.build_schedule(config)
    model, _ = harness.pretrain_from_config(config, data, spec)
    pretrain_seconds = time.perf_counter() - t0
    base_cap = harness.resolve_loss_cap(config, model, data, schedule)

    strategies = ("restricted", "graddiff", "finetune")
    cells = [
        (s, {"strategy": strat, "loss_cap": 50.0 * base_cap})
        for s in RUN_SEEDS
        for strat in strategies
    ]
    rows = harness.run_cells(config, model, data, spec, schedule, cells)
    assert [row["status"] for row in rows] == ["ok"] * len(cells)
    # Cells are seed-major, so strategy i's rows are rows[i::len(strategies)].
    medians = {
        strat: {
            metric: float(np.median([row[metric] for row in rows[i::len(strategies)]]))
            for metric in ("ua", "ra", "mmd")
        }
        for i, strat in enumerate(strategies)
    }

    # The diversity ablation's restricted cells, the only ones criterion 6
    # reads: case 1 draws the remain set from the similar classes, case 2
    # balanced across all retained ones.
    compositions = ("similar", "balanced")
    cells = [
        (s, {"diversity": mode, "strategy": "restricted"})
        for s in RUN_SEEDS
        for mode in compositions
    ]
    rows = harness.run_cells(config, model, data, spec, schedule, cells)
    assert [row["status"] for row in rows] == ["ok"] * len(cells)
    ablation = {
        case: {
            metric: float(np.median([row[metric] for row in rows[i :: len(compositions)]]))
            for metric in ("ra", "mmd")
        }
        for i, case in enumerate((1, 2))
    }

    variances = {"restricted": [], "graddiff": []}
    for s in RUN_SEEDS:
        rows, _ = harness.run_sweep(
            dataclasses.replace(config, seed=s), model, data, spec, schedule
        )
        for strat in variances:
            ras = [
                row["ra"]
                for row in rows
                if row["strategy"] == strat and row["status"] == "ok"
            ]
            assert len(ras) == 3
            variances[strat].append(float(np.var(ras)))
    sweep_var = {k: float(np.median(v)) for k, v in variances.items()}

    return SimpleNamespace(
        config=config,
        data=data,
        medians=medians,
        ablation=ablation,
        sweep_var=sweep_var,
        pretrain_seconds=pretrain_seconds,
        total_seconds=time.perf_counter() - t0,
    )


@pytest.mark.acceptance(
    criterion=5,
    label="restricted unlearning forgets fully while holding retention and "
    "sample quality against ascent-descent and finetuning",
)
def test_restricted_beats_baselines_on_circle_mixture(experiment, margin):
    med = experiment.medians
    margin("restricted UA", med["restricted"]["ua"], ">=", "floor", 0.95)
    margin("restricted RA", med["restricted"]["ra"], ">=", "graddiff RA", med["graddiff"]["ra"])
    margin("restricted MMD", med["restricted"]["mmd"], "<=", "graddiff MMD", med["graddiff"]["mmd"])
    margin("finetune UA", med["finetune"]["ua"], "<", "restricted UA", med["restricted"]["ua"])
    margin("pretrain seconds", experiment.pretrain_seconds, "<=", "budget", 600.0)
    margin("total seconds", experiment.total_seconds, "<=", "budget", 2700.0)
    assert med["restricted"]["ua"] >= 0.95
    assert med["restricted"]["ra"] >= med["graddiff"]["ra"]
    assert med["restricted"]["mmd"] <= med["graddiff"]["mmd"]
    assert med["finetune"]["ua"] < med["restricted"]["ua"]
    assert experiment.pretrain_seconds <= 600.0
    assert experiment.total_seconds <= 2700.0


@pytest.mark.acceptance(
    criterion=6,
    label="a class-balanced remain set beats a similar-classes-only set of "
    "equal size",
)
def test_balanced_remain_set_beats_similar_only(experiment, margin):
    cfg = experiment.config
    retained = cfg.mixture.num_classes - 1
    k_nearest = cfg.unlearn.k_nearest
    total = cfg.unlearn.remain_per_class * retained
    similar = remain_set(
        experiment.data, cfg.forget_class, k_nearest, total // k_nearest, 7
    )
    balanced = remain_set(
        experiment.data, cfg.forget_class, retained, cfg.unlearn.remain_per_class, 7
    )
    assert similar.points.shape[0] == balanced.points.shape[0]

    case1, case2 = experiment.ablation[1], experiment.ablation[2]
    margin("balanced RA", case2["ra"], ">=", "similar RA", case1["ra"])
    margin("balanced MMD", case2["mmd"], "<=", "similar MMD", case1["mmd"])
    assert case2["ra"] >= case1["ra"]
    assert case2["mmd"] <= case1["mmd"]


@pytest.mark.acceptance(
    criterion=7,
    label="retention is more stable across the forgetting-cap grid under "
    "the restricted update",
)
def test_restricted_retention_varies_less_across_cap_grid(experiment, margin):
    var = experiment.sweep_var
    margin("restricted RA variance", var["restricted"], "<=", "graddiff", var["graddiff"])
    assert experiment.sweep_var["restricted"] <= experiment.sweep_var["graddiff"]


# -- criterion 8: paired prompts ----------------------------------------------


@pytest.mark.acceptance(
    criterion=8,
    label="prompt splits share no subconcept and every remain prompt is its "
    "forget prompt minus the concept token",
)
def test_prompt_splits_and_pairing():
    spec = PromptTemplateSpec()
    records = gen_prompt_pairs(spec, 8, 2026)

    used = {
        split: {dim: set() for dim in spec.dimensions}
        for split in ("train", "test")
    }
    for r in records:
        padded = f" {r['forget_prompt']} "
        for dim, values in spec.dimensions.items():
            hits = {v for v in values if f" {v} " in padded}
            assert len(hits) == 1
            used[r["split"]][dim] |= hits

        # Independent reconstruction: drop the concept token, then re-agree
        # a leading article with the word now following it.
        tokens = [t for t in spec.concept_tokens if f" {t} " in padded]
        assert len(tokens) == 1
        words = r["forget_prompt"].replace(f"{tokens[0]} ", "", 1).split()
        if words[0] in ("A", "An"):
            words[0] = "An" if words[1][:1].lower() in "aeiou" else "A"
        assert r["remain_prompt"] == " ".join(words)

    for dim in spec.dimensions:
        assert used["train"][dim] & used["test"][dim] == set()
        assert used["train"][dim] and used["test"][dim]

    forget, remain = render_pair(
        spec,
        "unclad",
        {
            "mood": "melancholic",
            "activity": "painting",
            "environment": "a bright, airy studio",
            "time": "early evening",
        },
    )
    assert forget == (
        "A melancholic unclad person painting in a bright, airy studio "
        "early evening"
    )
    assert remain == (
        "A melancholic person painting in a bright, airy studio early evening"
    )


# -- criterion 9: byte-level reproducibility ----------------------------------


def small_pipeline_config():
    return {
        "seed": 9,
        "forget_class": 0,
        "mixture": {
            "num_classes": 3,
            "radius": 4.0,
            "sigma": 0.3,
            "samples_per_class": 40,
        },
        "schedule": {"num_timesteps": 10, "beta_min": 1e-4, "beta_max": 0.1},
        "model": {"hidden_dims": [12]},
        "pretrain": {"steps": 60, "batch_size": 16, "lr": 0.05, "lr_final": 0.01},
        "unlearn": {
            "iterations": 6,
            "batch_forget": 8,
            "batch_remain": 8,
            "remain_per_class": 5,
        },
        "eval": {"n_per_condition": 25},
    }


def run_small_pipeline(cfg_path, out):
    for argv in (
        ["gen-data", "--config", str(cfg_path), "--out", str(out)],
        ["train", "--config", str(cfg_path), "--out", str(out)],
        ["unlearn", "--config", str(cfg_path), "--out", str(out),
         "--strategy", "restricted"],
        ["eval", "--config", str(cfg_path), "--out", str(out),
         "--checkpoint", str(out / "unlearned_restricted.json")],
    ):
        assert main(argv) == 0


@pytest.mark.acceptance(
    criterion=9,
    label="pipeline reruns are byte-identical and checkpoints survive a "
    "load-save roundtrip bit for bit",
)
def test_pipeline_reruns_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_pipeline_config()))
    run_small_pipeline(cfg_path, tmp_path / "a")
    run_small_pipeline(cfg_path, tmp_path / "b")

    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    assert "dataset.jsonl" in names_a and "pretrained.json" in names_a
    assert "trajectory_restricted.csv" in names_a
    for name in names_a:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"

    source = tmp_path / "a" / "unlearned_restricted.json"
    model, schedule, provenance = load_checkpoint(source)
    doc = json.loads(source.read_text())
    resaved = tmp_path / "roundtrip.json"
    save_checkpoint(
        resaved, model, schedule,
        doc["schedule"]["beta_min"], doc["schedule"]["beta_max"],
        **provenance,
    )
    assert resaved.read_bytes() == source.read_bytes()
