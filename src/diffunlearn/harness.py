"""Pipeline orchestration: config-driven stages, parameter sweeps, ablations.

Every stage draws its randomness from a stream derived off the single master
seed, so any stage rerun with the same config file reproduces its artifacts
byte-for-byte. Sweeps and ablations are grids of cells run by run_cells: a
cell is a master seed plus the unlearn-section fields it replaces. Both
grids deliberately reuse the config's seed across all cells: cells then
differ only in the knob under study.
"""

from __future__ import annotations

import dataclasses

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
from .data import LabeledDataset, gen_mixture, remain_set
from .errors import ConfigError
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
    "status",
    "ua",
    "ra",
    "mmd",
    "error",
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
# A run_cells row: the cell's outcome, its remain set's classes, its metrics.
CELL_COLUMNS = (
    "status", "error", "remain_classes", "ua", "ra", "mmd",
    "final_loss_r", "final_raw_forget_mse", "conflicted_fraction",
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
    """The noise schedule every stage of this config runs against."""
    return config.schedule


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
    model = init_from_config(config, spec)
    return pretrain(
        model,
        data,
        config.schedule,
        config.pretrain,
        stage_seed(config.seed, STAGE_PRETRAIN),
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


def build_remain_set(config: RunConfig, data: LabeledDataset) -> LabeledDataset:
    """Select the remain subset per the configured diversification mode.

    Both modes draw remain_per_class * (K - 1) samples, so balanced and
    similarity-restricted runs compare like for like: balanced over every
    retained class, similar over the k_nearest classes nearest the forgotten.

    Raises:
        ConfigError: the set cannot be drawn from the configured mixture.
    """
    section = config.unlearn
    retained = config.mixture.num_classes - 1
    k = retained if section.diversity == "balanced" else section.k_nearest
    total = section.remain_per_class * retained
    if k > retained:
        raise ConfigError(
            f"unlearn.k_nearest {k} exceeds the {retained} retained classes"
        )
    if total % k != 0:
        raise ConfigError(
            f"remain set size {total} is not divisible by unlearn.k_nearest {k}"
        )
    per_class = total // k
    if per_class > config.mixture.samples_per_class:
        raise ConfigError(
            f"unlearn.remain_per_class {section.remain_per_class} draws {per_class} "
            f"per class, more than mixture.samples_per_class "
            f"{config.mixture.samples_per_class}"
        )
    rng = stage_seed(config.seed, STAGE_UNLEARN, 0)
    return remain_set(data, config.forget_class, k, per_class, rng)


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


def run_cells(config: RunConfig, model, data: LabeledDataset, spec, schedule, cells):
    """Unlearn and evaluate each cell off one pretrained checkpoint.

    A cell is ``(seed, unlearn_changes)``: its master seed and the
    unlearn-section fields it replaces in ``config``. Its remain set and loss
    cap follow from that cell config as in :func:`unlearn_from_config`. A
    cell whose changes the section rejects, or whose run raises, gets status
    "failed", its error and empty metrics, and the other cells keep their
    rows; a remain set the config cannot draw is a ConfigError for the grid.

    Returns one row per cell, in order, with the keys of CELL_COLUMNS.
    """
    rows = []
    for seed, changes in cells:
        row = dict.fromkeys(CELL_COLUMNS, "")
        try:
            unlearn = dataclasses.replace(config.unlearn, **changes)
            cell = dataclasses.replace(config, seed=seed, unlearn=unlearn)
            remain = build_remain_set(cell, data)
            row["remain_classes"] = "|".join(str(c) for c in np.unique(remain.labels))
            final, reports, _ = unlearn_from_config(
                cell, model, data, schedule, remain_set=remain
            )
            report = eval_from_config(cell, final, spec, schedule)
        except ConfigError:
            raise
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        else:
            row.update(status="ok", ua=report.ua, ra=report.ra, mmd=report.mmd)
            row["final_loss_r"] = _tail_mean([r.loss_r for r in reports])
            row["final_raw_forget_mse"] = _tail_mean([r.raw_forget_mse for r in reports])
            row["conflicted_fraction"] = float(np.mean([r.conflicted for r in reports]))
        rows.append(row)
    return rows


def _table(columns, labels, rows):
    """Each cell's labels joined to its run_cells row, keyed by ``columns``."""
    joined = ({**label, **row} for label, row in zip(labels, rows))
    return [{col: cell[col] for col in columns} for cell in joined]


def sweep_grid(config: RunConfig, base_cap: float):
    """The (forget_weight, loss_cap, strategy) cells in fixed row order.

    Each loss cap is a ``sweep.loss_cap_scales`` entry times ``base_cap``;
    a fixed cap ``c`` is ``unlearn.loss_cap = 1.0`` with scale ``c``.
    """
    sw = config.sweep
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
    labels = [
        {"forget_weight": weight, "loss_cap": cap, "strategy": strat}
        for weight, cap, strat in sweep_grid(config, base_cap)
    ]
    cells = [(config.seed, label) for label in labels]
    rows = run_cells(config, model, data, spec, schedule, cells)
    rows = _table(SWEEP_COLUMNS, labels, rows)
    return rows, summarize_sweep(config, rows)


def summarize_sweep(config: RunConfig, rows):
    """Variance of UA/RA/MMD across the loss_cap axis per (weight, strategy)."""
    ok = [r for r in rows if r["status"] == "ok"]
    summary = []
    for weight in config.sweep.forget_weights:
        for strat in config.sweep.strategies:
            key = (float(weight), strat)
            cells = [r for r in ok if (r["forget_weight"], r["strategy"]) == key]
            entry = {"forget_weight": key[0], "strategy": strat, "n_cells": len(cells)}
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
    A failing cell is recorded with its error, as in :func:`run_sweep`, and
    a strategy's deltas are left empty when either of its cells failed.
    """
    labels = [
        {"case": case_id, "composition": mode, "strategy": strat}
        for case_id, mode in ((1, "similar"), (2, "balanced"))
        for strat in ABLATION_STRATEGIES
    ]
    cells = [
        (config.seed, {"diversity": label["composition"], "strategy": label["strategy"]})
        for label in labels
    ]
    rows = run_cells(config, model, data, spec, schedule, cells)
    rows = _table(ABLATION_COLUMNS, labels, rows)
    half = len(ABLATION_STRATEGIES)
    summary = []
    for one, two in zip(rows[:half], rows[half:]):
        both = one["status"] == two["status"] == "ok"
        entry = {"strategy": one["strategy"]}
        for metric in ("ua", "ra", "mmd"):
            entry[f"case1_{metric}"] = one[metric]
            entry[f"case2_{metric}"] = two[metric]
            entry[f"delta_{metric}"] = two[metric] - one[metric] if both else ""
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
