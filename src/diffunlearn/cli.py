"""Command-line entry point.

One JSON config document drives every subcommand; flags are thin overrides
on top of it. Exit codes: 0 success, 1 usage or configuration error, 2
runtime failure. Reruns with identical config and seed rewrite identical
artifacts, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    STAGE_PROMPTS,
    apply_overrides,
    config_from_dict,
    config_hash,
    default_config_dict,
    load_config_dict,
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


def _add_common(sub):
    sub.add_argument("--config", type=Path, default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument("--out", type=Path, default=Path("runs"), help="output directory")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="dotted-path config override, value parsed as JSON when possible",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="diffunlearn", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="sample the mixture dataset")
    _add_common(p)

    p = subs.add_parser("train", help="pretrain the conditional denoiser")
    _add_common(p)

    p = subs.add_parser("unlearn", help="unlearn one class from a checkpoint")
    _add_common(p)
    p.add_argument(
        "--strategy",
        choices=[s + d for s in STRATEGIES for d in ("", DIVERSE)],
        default=None,
    )
    p.add_argument("--forget-class", type=int, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = subs.add_parser("eval", help="score a checkpoint (UA, RA, MMD)")
    _add_common(p)
    p.add_argument("--forget-class", type=int, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = subs.add_parser("sweep", help="grid over forget weight, loss cap, strategy")
    _add_common(p)
    p.add_argument("--forget-class", type=int, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = subs.add_parser(
        "diversity-ablation",
        help="similar-only vs balanced remain sets across strategies",
    )
    _add_common(p)
    p.add_argument("--forget-class", type=int, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = subs.add_parser("gen-prompts", help="emit forget/remain prompt pairs")
    _add_common(p)
    p.add_argument("--count", type=int, default=8, help="pairs per split")
    return parser


def resolve_config(args):
    """Config file (or defaults) + --set overrides + dedicated flags.

    Dedicated flags win over --set; both win over the file. Returns the raw
    resolved dict alongside the validated view so callers can hash exactly
    what ran.
    """
    if args.config is not None:
        raw = load_config_dict(args.config)
    else:
        raw = default_config_dict()
    raw = apply_overrides(raw, args.overrides)
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "forget_class", None) is not None:
        raw["forget_class"] = args.forget_class
    if getattr(args, "strategy", None) is not None:
        raw.setdefault("unlearn", {})
        if not isinstance(raw["unlearn"], dict):
            raise ConfigError("section 'unlearn' must be an object")
        raw["unlearn"]["strategy"] = args.strategy
    return raw, config_from_dict(raw)


def _out_path(args, config, kind: str, name: str) -> Path:
    sub = {
        "data": config.paths.data_dir,
        "checkpoint": config.paths.checkpoint_dir,
        "report": config.paths.report_dir,
    }[kind]
    path = Path(args.out) / sub / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _checkpoint_path(args, config) -> Path:
    if args.checkpoint is not None:
        return args.checkpoint
    return Path(args.out) / config.paths.checkpoint_dir / "pretrained.json"


def _load_model(args, config):
    model, schedule, provenance = load_checkpoint(_checkpoint_path(args, config))
    return model, schedule, provenance


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


def cmd_gen_data(args) -> int:
    raw, config = resolve_config(args)
    spec, data = harness.build_dataset(config)
    path = _out_path(args, config, "data", "dataset.jsonl")
    save_dataset(data, path)
    _wrote(path)
    print(f"classes={spec.num_classes} samples={len(data)}")
    return 0


def cmd_train(args) -> int:
    raw, config = resolve_config(args)
    spec, data = harness.build_dataset(config)
    model, history = harness.pretrain_from_config(config, data, spec)
    schedule = harness.build_schedule(config)
    path = _out_path(args, config, "checkpoint", "pretrained.json")
    save_checkpoint(
        path,
        model,
        schedule,
        config.schedule.beta_min,
        config.schedule.beta_max,
        config_hash=config_hash(raw),
        seed=config.seed,
        iterations=config.pretrain.steps,
    )
    _wrote(path)
    final = history[-1] if history else float("nan")
    print(f"steps={config.pretrain.steps} final_loss={final:.6g}")
    return 0


def cmd_unlearn(args) -> int:
    raw, config = resolve_config(args)
    model, schedule, _ = _load_model(args, config)
    spec, data = harness.build_dataset(config)
    final, reports, run_cfg = harness.unlearn_from_config(config, model, data, schedule)
    tag = config.unlearn.strategy
    ckpt = _out_path(args, config, "checkpoint", f"unlearned_{tag}.json")
    save_checkpoint(
        ckpt,
        final,
        schedule,
        config.schedule.beta_min,
        config.schedule.beta_max,
        config_hash=config_hash(raw),
        seed=config.seed,
        iterations=config.unlearn.iterations,
    )
    _wrote(ckpt)
    traj = _out_path(args, config, "report", f"trajectory_{tag}.csv")
    write_trajectory_csv(reports, traj)
    _wrote(traj)
    conflicted = float(np.mean([r.conflicted for r in reports])) if reports else 0.0
    print(
        f"strategy={tag} iterations={len(reports)} "
        f"loss_cap={run_cfg.loss_cap:.6g} conflicted_fraction={conflicted:.3f}"
    )
    return 0


def cmd_eval(args) -> int:
    raw, config = resolve_config(args)
    model, schedule, _ = _load_model(args, config)
    spec = config.mixture.build()
    report = harness.eval_from_config(config, model, spec, schedule)
    label = _checkpoint_path(args, config).stem
    jpath = _out_path(args, config, "report", f"eval_{label}.json")
    save_eval_report(report, jpath)
    _wrote(jpath)
    cpath = _out_path(args, config, "report", f"eval_{label}.csv")
    harness.write_rows_csv(
        cpath,
        harness.EVAL_COLUMNS,
        [harness.eval_report_row(report, config.forget_class, label)],
    )
    _wrote(cpath)
    print(f"ua={report.ua:.4f} ra={report.ra:.4f} mmd={report.mmd:.6g}")
    return 0


def cmd_sweep(args) -> int:
    raw, config = resolve_config(args)
    model, schedule, _ = _load_model(args, config)
    spec, data = harness.build_dataset(config)
    rows, summary = harness.run_sweep(config, model, data, spec, schedule)
    rpath = _out_path(args, config, "report", "sweep.csv")
    harness.write_rows_csv(rpath, harness.SWEEP_COLUMNS, rows)
    _wrote(rpath)
    spath = _out_path(args, config, "report", "sweep_summary.csv")
    harness.write_rows_csv(spath, harness.SWEEP_SUMMARY_COLUMNS, summary)
    _wrote(spath)
    failed = [r for r in rows if r["status"] != "ok"]
    print(f"cells={len(rows)} failed={len(failed)}")
    for row in failed:
        print(
            f"failed cell forget_weight={row['forget_weight']} "
            f"loss_cap={row['loss_cap']} strategy={row['strategy']}: {row['error']}"
        )
    if rows and len(failed) == len(rows):
        print("error: every sweep cell failed", file=sys.stderr)
        return 2
    return 0


def cmd_diversity_ablation(args) -> int:
    raw, config = resolve_config(args)
    model, schedule, _ = _load_model(args, config)
    spec, data = harness.build_dataset(config)
    rows, summary = harness.run_diversity_ablation(config, model, data, spec, schedule)
    rpath = _out_path(args, config, "report", "ablation.csv")
    harness.write_rows_csv(rpath, harness.ABLATION_COLUMNS, rows)
    _wrote(rpath)
    spath = _out_path(args, config, "report", "ablation_summary.csv")
    harness.write_rows_csv(spath, harness.ABLATION_SUMMARY_COLUMNS, summary)
    _wrote(spath)
    for entry in summary:
        print(
            f"strategy={entry['strategy']} delta_ua={entry['delta_ua']:+.4f} "
            f"delta_ra={entry['delta_ra']:+.4f} delta_mmd={entry['delta_mmd']:+.6g}"
        )
    return 0


def cmd_gen_prompts(args) -> int:
    raw, config = resolve_config(args)
    spec = PromptTemplateSpec()
    pairs = gen_prompt_pairs(
        spec, args.count, stage_seed(config.seed, STAGE_PROMPTS)
    )
    path = _out_path(args, config, "report", "prompts.jsonl")
    save_prompt_pairs(pairs, path)
    _wrote(path)
    print(f"pairs={len(pairs)}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "unlearn": cmd_unlearn,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "diversity-ablation": cmd_diversity_ablation,
    "gen-prompts": cmd_gen_prompts,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
