"""Command-line entry point.

One JSON config document drives every subcommand; flags are thin overrides
on top of it. Exit codes: 0 success, 1 usage or configuration error, 2
runtime failure. Reruns with identical config and seed rewrite identical
artifacts, byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import artifacts, harness
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    STAGE_PROMPTS,
    apply_overrides,
    config_from_dict,
    config_hash,
    default_config_dict,
    stage_seed,
)
from .data import save_dataset
from .errors import CheckpointError, ConfigError
from .evaluate import save_eval_report
from .prompts import PromptTemplateSpec, gen_prompt_pairs, save_prompt_pairs
from .unlearn import DIVERSE, STRATEGIES, write_trajectory_csv


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this toolkit reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override master seed")
    common.add_argument(
        "--out", type=Path, default=Path("runs"), help="output directory"
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="dotted-path config override, value parsed as JSON when possible",
    )
    from_checkpoint = argparse.ArgumentParser(add_help=False)
    from_checkpoint.add_argument("--forget-class", type=int, default=None)
    from_checkpoint.add_argument("--checkpoint", type=Path, default=None)

    parser = _Parser(prog="diffunlearn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *parents):
        sub = subs.add_parser(name, help=summary, parents=[common, *parents])
        sub.set_defaults(func=func)
        return sub

    add("gen-data", cmd_gen_data, "sample the mixture dataset")
    add("train", cmd_train, "pretrain the conditional denoiser")
    add(
        "unlearn", cmd_unlearn, "unlearn one class from a checkpoint", from_checkpoint
    ).add_argument(
        "--strategy", choices=[s + d for s in STRATEGIES for d in ("", DIVERSE)]
    )
    add("eval", cmd_eval, "score a checkpoint (UA, RA, MMD)", from_checkpoint)
    add(
        "sweep", cmd_sweep, "grid over forget weight, loss cap, strategy", from_checkpoint
    )
    add(
        "diversity-ablation",
        cmd_diversity_ablation,
        "similar-only vs balanced remain sets across strategies",
        from_checkpoint,
    )
    add("gen-prompts", cmd_gen_prompts, "emit forget/remain prompt pairs").add_argument(
        "--count", type=int, default=8, help="pairs per split"
    )
    return parser


def resolve_config(args):
    """Config file (or defaults) + --set overrides + dedicated flags.

    The flags are applied as the last overrides, so they win over --set;
    both win over the file. Returns the raw resolved dict alongside the
    validated view so callers can hash exactly what ran.
    """
    if args.config is not None:
        raw = artifacts.read_json(args.config, ConfigError, "config file")
    else:
        raw = default_config_dict()
    flags = {
        "seed": args.seed,
        "forget_class": getattr(args, "forget_class", None),
        "unlearn.strategy": getattr(args, "strategy", None),
    }
    assignments = [f"{path}={v}" for path, v in flags.items() if v is not None]
    raw = apply_overrides(raw, args.overrides + assignments)
    return raw, config_from_dict(raw)


def _write(args, directory: str, name: str, save, *payload) -> None:
    """save(*payload, path) at --out/directory/name, then report the path."""
    path = Path(args.out) / directory / name
    save(*payload, path)
    print(f"wrote {path}")


def _checkpoint_path(args, config) -> Path:
    if args.checkpoint is not None:
        return args.checkpoint
    return Path(args.out) / config.paths.checkpoint_dir / "pretrained.json"


def _checkpoint_model(path, config):
    """The model in checkpoint ``path``, whose schedule must be the config's.

    Every command that reads a checkpoint runs on ``config.schedule`` and
    stamps the config's hash, so a checkpoint trained on another schedule is
    a config error.
    """
    model, schedule, _ = load_checkpoint(path)
    if schedule != config.schedule:
        raise ConfigError(
            f"config schedule {config.schedule} differs from the schedule "
            f"{schedule} of checkpoint {path}"
        )
    return model


def _save_checkpoint(args, raw, config, name, model, iterations) -> None:
    """A checkpoint with this run's provenance, on the config's schedule."""
    schedule = config.schedule

    def save(path):
        save_checkpoint(
            path,
            model,
            schedule,
            schedule.beta_min,
            schedule.beta_max,
            config_hash=config_hash(raw),
            seed=config.seed,
            iterations=iterations,
        )

    _write(args, config.paths.checkpoint_dir, name, save)


def _write_table(args, config, name, columns, rows) -> None:
    _write(
        args,
        config.paths.report_dir,
        name,
        lambda p: artifacts.write_rows_csv(p, columns, rows),
    )


def cmd_gen_data(args, raw, config) -> int:
    spec, data = harness.build_dataset(config)
    _write(args, config.paths.data_dir, "dataset.jsonl", save_dataset, data)
    print(f"classes={spec.num_classes} samples={len(data)}")
    return 0


def cmd_train(args, raw, config) -> int:
    spec, data = harness.build_dataset(config)
    model, history = harness.pretrain_from_config(config, data, spec)
    steps = config.pretrain.steps
    _save_checkpoint(args, raw, config, "pretrained.json", model, steps)
    final = history[-1] if history else float("nan")
    print(f"steps={steps} final_loss={final:.6g}")
    return 0


def cmd_unlearn(args, raw, config) -> int:
    model = _checkpoint_model(_checkpoint_path(args, config), config)
    spec, data = harness.build_dataset(config)
    final, reports, run_cfg = harness.unlearn_from_config(
        config, model, data, config.schedule
    )
    tag = config.unlearn.strategy
    _save_checkpoint(
        args, raw, config, f"unlearned_{tag}.json", final, config.unlearn.iterations
    )
    trajectory = f"trajectory_{tag}.csv"
    _write(args, config.paths.report_dir, trajectory, write_trajectory_csv, reports)
    conflicted = float(np.mean([r.conflicted for r in reports]))
    print(
        f"strategy={tag} iterations={len(reports)} "
        f"loss_cap={run_cfg.loss_cap:.6g} conflicted_fraction={conflicted:.3f}"
    )
    return 0


def cmd_eval(args, raw, config) -> int:
    checkpoint = _checkpoint_path(args, config)
    model = _checkpoint_model(checkpoint, config)
    report = harness.eval_from_config(
        config, model, config.mixture.build(), config.schedule
    )
    name = f"eval_{checkpoint.stem}"
    _write(args, config.paths.report_dir, f"{name}.json", save_eval_report, report)
    row = harness.eval_report_row(report, config.forget_class, checkpoint.stem)
    _write_table(args, config, f"{name}.csv", harness.EVAL_COLUMNS, [row])
    print(f"ua={report.ua:.4f} ra={report.ra:.4f} mmd={report.mmd:.6g}")
    return 0


def _run_grid(args, config, run, name, columns, summary_columns):
    """Run a grid of cells off the checkpoint and write its two tables."""
    model = _checkpoint_model(_checkpoint_path(args, config), config)
    spec, data = harness.build_dataset(config)
    rows, summary = run(config, model, data, spec, config.schedule)
    _write_table(args, config, f"{name}.csv", columns, rows)
    _write_table(args, config, f"{name}_summary.csv", summary_columns, summary)
    return rows, summary


def cmd_sweep(args, raw, config) -> int:
    rows, _ = _run_grid(
        args,
        config,
        harness.run_sweep,
        "sweep",
        harness.SWEEP_COLUMNS,
        harness.SWEEP_SUMMARY_COLUMNS,
    )
    return _report_cells(rows, "sweep", ("forget_weight", "loss_cap", "strategy"))


def cmd_diversity_ablation(args, raw, config) -> int:
    rows, summary = _run_grid(
        args,
        config,
        harness.run_diversity_ablation,
        "ablation",
        harness.ABLATION_COLUMNS,
        harness.ABLATION_SUMMARY_COLUMNS,
    )
    for entry in summary:
        line = [f"strategy={entry['strategy']}"]
        for metric, spec in (("ua", "+.4f"), ("ra", "+.4f"), ("mmd", "+.6g")):
            value = entry[f"delta_{metric}"]
            line.append(f"delta_{metric}={'' if value == '' else format(value, spec)}")
        print(" ".join(line))
    return _report_cells(rows, "ablation", ("case", "strategy"))


def _report_cells(rows, name, keys) -> int:
    """Print the failed cells of a grid; exit 2 only when every cell failed."""
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"cells={len(rows)} failed={len(failed)}")
    for row in failed:
        cell = " ".join(f"{key}={row[key]}" for key in keys)
        print(f"failed cell {cell}: {row['error']}")
    if rows and len(failed) == len(rows):
        print(f"error: every {name} cell failed", file=sys.stderr)
        return 2
    return 0


def cmd_gen_prompts(args, raw, config) -> int:
    seed = stage_seed(config.seed, STAGE_PROMPTS)
    pairs = gen_prompt_pairs(PromptTemplateSpec(), args.count, seed)
    _write(args, config.paths.report_dir, "prompts.jsonl", save_prompt_pairs, pairs)
    print(f"pairs={len(pairs)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, *resolve_config(args))
    except ConfigError as exc:
        print(f"{parser.prog}: config error: {exc}", file=sys.stderr)
        return 1
    except CheckpointError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
