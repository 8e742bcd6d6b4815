"""Pipeline orchestration: config-driven stages, parameter sweeps, ablations.

Every stage draws its randomness from a stream derived off the single master
seed, so any stage rerun with the same config file reproduces its artifacts
byte-for-byte. Sweeps and ablations deliberately reuse one unlearning seed
across all cells: cells then differ only in the knob under study.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import numpy as np

from .config import (
    STAGE_CAP,
    STAGE_DATA,
    STAGE_EVAL,
    STAGE_INIT,
    STAGE_PRETRAIN,
    STAGE_UNLEARN,
    RunConfig,
    stage_seed,
)
from .data import (
    LabeledDataset,
    balanced_remaining_set,
    gen_mixture,
    similarity_restricted_set,
)
from .diffusion import make_schedule
from .errors import ConfigError, DomainError
from .evaluate import EvalReport, full_eval
from .nn import init_model
from .rngs import as_generator
from .train import derive_loss_cap, pretrain
from .unlearn import DIVERSE, unlearn_run

# Strategies compared by the ablation; the last is the restricted update fed
# class-stratified remain minibatches.
ABLATION_STRATEGIES = ("graddiff", "restricted", "restricted" + DIVERSE)

SWEEP_COLUMNS = (
    "forget_weight",
    "loss_cap",
    "strategy",
    "status",
    "ua",
    "ra",
    "mmd",
    "final_loss_r",
    "final_raw_forget_mse",
    "conflicted_fraction",
    "error",
)
SWEEP_SUMMARY_COLUMNS = (
    "forget_weight",
    "strategy",
    "n_cells",
    "ua_variance",
    "ra_variance",
    "mmd_variance",
)
ABLATION_COLUMNS = (
    "case",
    "composition",
    "remain_classes",
    "strategy",
    "ua",
    "ra",
    "mmd",
)
ABLATION_SUMMARY_COLUMNS = (
    "strategy",
    "case1_ua",
    "case1_ra",
    "case1_mmd",
    "case2_ua",
    "case2_ra",
    "case2_mmd",
    "delta_ua",
    "delta_ra",
    "delta_mmd",
)
EVAL_COLUMNS = (
    "forget_class",
    "strategy",
    "ua",
    "ra",
    "mmd",
    "n_per_condition",
    "seed",
)


def build_dataset(config: RunConfig):
    """Mixture spec plus the sampled dataset for this config's seed."""
    spec = config.mixture.build()
    data = gen_mixture(spec, stage_seed(config.seed, STAGE_DATA))
    return spec, data


def build_schedule(config: RunConfig):
    s = config.schedule
    return make_schedule(s.num_timesteps, s.beta_min, s.beta_max)


def init_from_config(config: RunConfig, spec=None):
    if spec is None:
        spec = config.mixture.build()
    gen, _ = as_generator(stage_seed(config.seed, STAGE_INIT))
    return init_model(
        input_dim=spec.input_dim,
        hidden_dims=config.model.hidden_dims,
        num_classes=spec.num_classes,
        num_timesteps=config.schedule.num_timesteps,
        rng=gen,
    )


def pretrain_from_config(config: RunConfig, data: LabeledDataset, spec=None):
    """Initialize and train the conditional denoiser; returns (model, history)."""
    schedule = build_schedule(config)
    model = init_from_config(config, spec)
    return pretrain(
        model, data, schedule, config.pretrain, stage_seed(config.seed, STAGE_PRETRAIN)
    )


def resolve_loss_cap(config: RunConfig, model, data: LabeledDataset, schedule) -> float:
    """Explicit cap if configured, else the quantile of remain-set losses.

    The quantile is taken over every retained sample at the given checkpoint,
    not just the minibatch pool, so cap derivation does not depend on which
    remain subset a later stage happens to select.
    """
    if config.unlearn.loss_cap is not None:
        return float(config.unlearn.loss_cap)
    remain = data.drop_class(config.forget_class)
    return derive_loss_cap(
        model,
        remain,
        schedule,
        stage_seed(config.seed, STAGE_CAP),
        percentile=config.unlearn.loss_cap_percentile,
    )


def _similar_remain_set(config: RunConfig, data: LabeledDataset, rng) -> LabeledDataset:
    """Remain set drawn from the k_nearest classes, sized like a balanced one."""
    section = config.unlearn
    total = section.remain_per_class * (config.mixture.num_classes - 1)
    if total % section.k_nearest != 0:
        raise ConfigError(
            f"remain set size {total} is not divisible by k_nearest "
            f"{section.k_nearest}"
        )
    return similarity_restricted_set(
        data, config.forget_class, section.k_nearest, total, rng
    )


def build_remain_set(config: RunConfig, data: LabeledDataset) -> LabeledDataset:
    """Select the remain subset per the configured diversification mode.

    Both modes produce the same total size (remain_per_class per retained
    class), so balanced and similarity-restricted runs compare like for like.
    """
    rng = stage_seed(config.seed, STAGE_UNLEARN, 0)
    if config.unlearn.diversity == "balanced":
        return balanced_remaining_set(
            data, config.forget_class, config.unlearn.remain_per_class, rng
        )
    return _similar_remain_set(config, data, rng)


def unlearn_from_config(
    config: RunConfig,
    model,
    data: LabeledDataset,
    schedule,
    loss_cap: float | None = None,
    remain_set: LabeledDataset | None = None,
):
    """One unlearning run as the config describes it.

    Returns (model, reports, resolved UnlearnConfig). The forget set is every
    sample of the forgotten class; the remain set defaults to the configured
    diversification.
    """
    if loss_cap is None:
        loss_cap = resolve_loss_cap(config, model, data, schedule)
    run_cfg = config.unlearn.build(loss_cap, stage_seed(config.seed, STAGE_UNLEARN, 1))
    forget_set = data.class_subset(config.forget_class)
    if remain_set is None:
        remain_set = build_remain_set(config, data)
    final, reports = unlearn_run(model, forget_set, remain_set, schedule, run_cfg)
    return final, reports, run_cfg


def eval_from_config(config: RunConfig, model, spec, schedule) -> EvalReport:
    return full_eval(
        model,
        config.forget_class,
        spec,
        schedule,
        config.eval,
        stage_seed(config.seed, STAGE_EVAL),
    )


def _tail_mean(values, fraction=0.1) -> float:
    arr = np.asarray(values, dtype=np.float64)
    k = max(1, int(len(arr) * fraction))
    return float(arr[-k:].mean())


def _run_cell(config, model, data, spec, schedule, loss_cap, remain_set):
    final, reports, _ = unlearn_from_config(
        config, model, data, schedule, loss_cap=loss_cap, remain_set=remain_set
    )
    report = eval_from_config(config, final, spec, schedule)
    return {
        "ua": report.ua,
        "ra": report.ra,
        "mmd": report.mmd,
        "final_loss_r": _tail_mean([r.loss_r for r in reports]),
        "final_raw_forget_mse": _tail_mean([r.raw_forget_mse for r in reports]),
        "conflicted_fraction": float(np.mean([r.conflicted for r in reports])),
    }


def sweep_grid(config: RunConfig, base_cap: float):
    """The (forget_weight, loss_cap, strategy) cells in fixed row order."""
    sw = config.sweep
    if sw.loss_caps is not None:
        caps = [float(c) for c in sw.loss_caps]
    else:
        caps = [float(s) * base_cap for s in sw.loss_cap_scales]
    return [
        (float(w), cap, strat)
        for w in sw.forget_weights
        for cap in caps
        for strat in sw.strategies
    ]


def run_sweep(config: RunConfig, model, data: LabeledDataset, spec, schedule):
    """Unlearn and evaluate every grid cell off one pretrained checkpoint.

    All cells share the same unlearning seed and remain set, so rows differ
    only through (forget_weight, loss_cap, strategy). A failing cell is
    recorded with its error and the sweep continues.

    Returns (rows, summary_rows): per-cell metrics, then the variance of each
    metric across the loss_cap axis for every (forget_weight, strategy) pair.
    """
    base_cap = resolve_loss_cap(config, model, data, schedule)
    remain_set = build_remain_set(config, data)
    rows = []
    for weight, cap, strat in sweep_grid(config, base_cap):
        cell_cfg = dataclasses.replace(
            config,
            unlearn=dataclasses.replace(
                config.unlearn,
                forget_weight=weight,
                loss_cap=cap,
                strategy=strat,
            ),
        )
        row = {
            "forget_weight": weight,
            "loss_cap": cap,
            "strategy": strat,
            "status": "ok",
            "error": "",
        }
        try:
            row.update(
                _run_cell(cell_cfg, model, data, spec, schedule, cap, remain_set)
            )
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            row["status"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
            for col in SWEEP_COLUMNS:
                row.setdefault(col, "")
        rows.append(row)
    return rows, summarize_sweep(config, rows)


def summarize_sweep(config: RunConfig, rows):
    """Variance of UA/RA/MMD across the loss_cap axis per (weight, strategy)."""
    summary = []
    for weight in config.sweep.forget_weights:
        for strat in config.sweep.strategies:
            cells = [
                r
                for r in rows
                if r["strategy"] == strat
                and r["forget_weight"] == float(weight)
                and r["status"] == "ok"
            ]
            entry = {
                "forget_weight": float(weight),
                "strategy": strat,
                "n_cells": len(cells),
            }
            for metric in ("ua", "ra", "mmd"):
                entry[f"{metric}_variance"] = (
                    float(np.var([c[metric] for c in cells])) if cells else ""
                )
            summary.append(entry)
    return summary


def run_diversity_ablation(config: RunConfig, model, data: LabeledDataset, spec, schedule):
    """Compare remain-set compositions across update strategies.

    Case 1 draws the remain set only from the k_nearest classes closest to
    the forgotten one; Case 2 draws it balanced across all retained classes.
    Both cases use identical total size, unlearning seed, and evaluation
    seed, so the summary deltas (case 2 minus case 1) isolate composition.
    """
    select_rng = stage_seed(config.seed, STAGE_UNLEARN, 0)
    similar = _similar_remain_set(config, data, select_rng)
    balanced = balanced_remaining_set(
        data, config.forget_class, config.unlearn.remain_per_class, select_rng
    )
    cases = [
        (1, "similar", similar),
        (2, "balanced", balanced),
    ]
    loss_cap = resolve_loss_cap(config, model, data, schedule)
    rows = []
    by_key = {}
    for case_id, composition, remain in cases:
        present = sorted(set(int(v) for v in remain.labels))
        for strat in ABLATION_STRATEGIES:
            cell_cfg = dataclasses.replace(
                config,
                unlearn=dataclasses.replace(config.unlearn, strategy=strat),
            )
            metrics = _run_cell(cell_cfg, model, data, spec, schedule, loss_cap, remain)
            row = {
                "case": case_id,
                "composition": composition,
                "remain_classes": "|".join(str(c) for c in present),
                "strategy": strat,
                "ua": metrics["ua"],
                "ra": metrics["ra"],
                "mmd": metrics["mmd"],
            }
            rows.append(row)
            by_key[(case_id, strat)] = row
    summary = []
    for strat in ABLATION_STRATEGIES:
        one, two = by_key[(1, strat)], by_key[(2, strat)]
        entry = {"strategy": strat}
        for metric in ("ua", "ra", "mmd"):
            entry[f"case1_{metric}"] = one[metric]
            entry[f"case2_{metric}"] = two[metric]
            entry[f"delta_{metric}"] = two[metric] - one[metric]
        summary.append(entry)
    return rows, summary


def eval_report_row(report: EvalReport, forget_class: int, strategy: str) -> dict:
    return {
        "forget_class": forget_class,
        "strategy": strategy,
        "ua": report.ua,
        "ra": report.ra,
        "mmd": report.mmd,
        "n_per_condition": report.n_samples_per_condition,
        "seed": report.seed,
    }


def write_rows_csv(path, columns, rows) -> None:
    """Fixed-column CSV with shortest round-trip decimal floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    repr(v) if isinstance(v, float) else v
                    for v in (row[c] for c in columns)
                ]
            )


def read_rows_csv(path, columns):
    """Read back a harness CSV; numeric text becomes float, else stays str."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != tuple(columns):
            raise DomainError(f"unexpected CSV header {header}")
        rows = []
        for raw in reader:
            row = {}
            for key, text in zip(columns, raw):
                try:
                    row[key] = int(text)
                except ValueError:
                    try:
                        row[key] = float(text)
                    except ValueError:
                        row[key] = text
            rows.append(row)
        return rows
