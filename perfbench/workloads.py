"""The four benchmark workloads.

Every workload builds its inputs from the workload seed alone: the seed
becomes the config's master seed, and the program sees only that config and
the checkpoints trained from it. A run is whole rounds of the same
operations, so a failure is always the same share of the attempts. Each
workload checks the program's outputs with the oracles in ``oracles.py`` or
with properties the method must have, never against stored output.

Import this module only after ``run.py`` has pinned the BLAS thread count
and put the checkout's ``src`` directory on the import path.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from diffunlearn import checkpoint, cli, diffusion, evaluate, harness, nn, unlearn
from diffunlearn.config import config_from_dict, config_hash, default_config_dict


@dataclass
class Round:
    """What one round did.

    samples holds one (operation key, work units, seconds) per timed call;
    the same key names the same call, with the same work, in every round.
    """

    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _acceptance_geometry(raw: dict) -> dict:
    # The tight five-class mixture of the acceptance suite: neighbouring
    # classes overlap at mid timesteps, so forget and remain gradients
    # really conflict.
    raw["mixture"]["radius"] = 2.0
    raw["mixture"]["sigma"] = 0.5
    return raw


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


class Workload:
    """One workload: set-up, warm-up, timed rounds, then checks."""

    name = ""
    rate_name = ""
    rate_unit = ""
    setup_reps = 1

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        if quick:
            self.setup_reps = 1

    def config_dict(self) -> dict:
        raw = default_config_dict()
        raw["seed"] = self.seed
        return raw

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, mark) -> Round:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- pretrain -----------------------------------------------------------------


class Pretrain(Workload):
    """harness.pretrain_from_config at the default config, then one save.

    The default run is 30k steps; each operation is one segment from the
    seeded initial model, so every operation repeats the same work. Only
    the training call is in the rate.
    """

    name = "pretrain"
    rate_name = "pretrain_steps_per_s"
    rate_unit = "steps/s"
    setup_reps = 20

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        # Short segments give many repetitions per run (see README). The
        # class-rate check trains one longer model after the timed rounds.
        self.steps = 50 if quick else 100
        self.check_steps = 300 if quick else 1000
        # In-class share each class's samples must reach after check_steps.
        # An untrained model scores about 0 (see README).
        self.min_class_rate = 0.2 if quick else 0.05
        self.samples_per_class = 200 if quick else 500
        self.raw = self.config_dict()
        self.raw["pretrain"]["steps"] = self.steps
        if quick:
            # Quick mode trains on the tight mixture, which a short run
            # already separates; the default circle needs thousands of steps.
            _acceptance_geometry(self.raw)
            self.raw["mixture"]["samples_per_class"] = 200
        self.config = config_from_dict(self.raw)
        self.path = workdir / "pretrained.json"
        self.histories = []
        self.digests = set()

    def setup(self):
        self.spec, self.data = harness.build_dataset(self.config)
        self.schedule = harness.build_schedule(self.config)

    def _with_steps(self, steps):
        return dataclasses.replace(
            self.config,
            pretrain=dataclasses.replace(self.config.pretrain, steps=steps),
        )

    def _save(self, model, config):
        checkpoint.save_checkpoint(
            self.path,
            model,
            self.schedule,
            config.schedule.beta_min,
            config.schedule.beta_max,
            config_hash=config_hash(self.raw),
            seed=config.seed,
            iterations=config.pretrain.steps,
        )

    def warmup(self):
        short = self._with_steps(20)
        model, _ = harness.pretrain_from_config(short, self.data, self.spec)
        self._save(model, short)

    def run_round(self, index, mark):
        mark(f"segment-{index}")
        (model, history), train_s = _timed(
            harness.pretrain_from_config, self.config, self.data, self.spec
        )
        # The save is part of the stage but not of its step rate; its cost
        # shows on cli-roundtrip, where the write path dominates.
        self._save(model, self.config)
        self.model = model
        self.histories.append(history)
        self.digests.add(hashlib.sha256(model.params.tobytes()).hexdigest())
        return Round(
            samples=[("pretrain", self.steps, train_s)],
            attempted=1,
        )

    def check(self):
        failures = []
        tenth = max(1, self.steps // 10)
        for i, history in enumerate(self.histories):
            first, last = np.mean(history[:tenth]), np.mean(history[-tenth:])
            if not last < first:
                failures.append(f"segment {i}: loss {first:.4g} -> {last:.4g}")
        if len(self.digests) != 1:
            failures.append("segments from one seed trained different models")

        loaded, _, _ = checkpoint.load_checkpoint(self.path)
        if loaded.params.tobytes() != self.model.params.tobytes():
            failures.append("checkpoint did not reload bit-identical params")

        longer, history = harness.pretrain_from_config(
            self._with_steps(self.check_steps), self.data, self.spec
        )
        tenth = self.check_steps // 10
        if not np.mean(history[-tenth:]) < np.mean(history[:tenth]):
            failures.append(f"{self.check_steps}-step run did not lower the loss")
        spec = self.spec
        for k in range(spec.num_classes):
            out = diffusion.ddpm_sample(
                longer, k, self.samples_per_class, self.schedule, self.seed + k
            )
            labels = oracles.nearest_mean_labels(
                out.samples, spec.means, spec.sigma,
                self.config.eval.none_threshold,
            )
            rate = float(np.mean(labels == k))
            if rate < self.min_class_rate:
                failures.append(f"class {k} samples land in class at {rate:.3f}")

        failures.extend(self._gradient_spot_check())
        return failures

    def _gradient_spot_check(self):
        model = self.model
        rng = np.random.default_rng([self.seed, 4])
        batch = 32
        idx = rng.integers(0, len(self.data), size=batch)
        x = self.data.points[idx]
        c = self.data.labels[idx]
        t = rng.integers(1, model.num_timesteps + 1, size=batch)
        targets = rng.standard_normal(x.shape)
        per_sample, grad = nn.squared_error_backward(model, x, targets, t, c)

        def out(params):
            return oracles.mlp_output(
                params, model.input_dim, model.hidden_dims,
                model.num_timesteps, model.num_classes, x, t, c,
            )

        failures = []
        mine = ((out(model.params) - targets) ** 2).sum(axis=1)
        if not np.allclose(per_sample, mine, rtol=1e-12, atol=1e-14):
            failures.append("per-sample errors differ from the oracle forward")
        coords = rng.choice(model.num_params, size=64, replace=False)
        fd = oracles.central_differences(
            lambda p: float(((out(p) - targets) ** 2).sum(axis=1).mean()),
            np.array(model.params),
            coords,
        )
        scale = float(np.abs(grad).max())
        bad = np.abs(grad[coords] - fd) > 1e-5 * np.abs(fd) + 1e-7 * scale
        if bad.any():
            failures.append(f"{int(bad.sum())} gradient coordinates miss finite differences")
        return failures


def replay_restricted(config, model, data, schedule, loss_cap):
    """Re-run a restricted unlearning run one step at a time.

    The draw order (forget indices, remain indices, then the step's
    corruption draws) is the loop's documented contract, so a copy of the
    generator taken before each step yields the same two gradients the step
    used. Each applied update must match the least-squares rule, and the
    replayed end state must equal harness.unlearn_from_config's bit for bit.

    Returns (failures, replayed final model).
    """
    remain_set = harness.build_remain_set(config, data)
    final, _, run_cfg = harness.unlearn_from_config(
        config, model, data, schedule, loss_cap=loss_cap, remain_set=remain_set
    )
    forget_set = data.class_subset(config.forget_class)
    gen = np.random.default_rng(run_cfg.seed)
    step = run_cfg.step_size
    failures = []
    for it in range(run_cfg.iterations):
        fb = forget_set.subset(gen.integers(0, len(forget_set), size=run_cfg.batch_forget))
        rb = remain_set.subset(gen.integers(0, len(remain_set), size=run_cfg.batch_remain))
        twin = copy.deepcopy(gen)
        updated, report = unlearn.unlearn_step(model, fb, rb, schedule, run_cfg, gen, iteration=it)
        _, g_f, _, _ = unlearn.forgetting_loss(
            model, fb.points, fb.labels, schedule,
            run_cfg.forget_weight, run_cfg.loss_cap, twin,
        )
        _, g_r = diffusion.diffusion_loss(model, rb.points, rb.labels, schedule, twin)
        direction, conflicted = oracles.restricted_direction(g_f, g_r)
        if conflicted != report.conflicted:
            failures.append(f"step {it}: conflict flag disagrees with the oracle")
        if not conflicted:
            if not np.array_equal(updated.params, model.params - step * (g_f + g_r)):
                failures.append(f"step {it}: pass-through step is not the raw sum")
        else:
            applied = (model.params - updated.params) / step
            # Recovering the direction from the parameters costs about one
            # ulp of the largest parameter, divided by the step.
            tol = 1e-9 * float(np.linalg.norm(direction)) + 4.0 * float(
                np.finfo(np.float64).eps * np.abs(model.params).max()) / step
            if float(np.abs(applied - direction).max()) > tol:
                failures.append(f"step {it}: update misses the least-squares rule")
            for name, g in (("g_f", g_f), ("g_r", g_r)):
                lead = float(applied @ g)
                if lead < -1e-6 * float(np.linalg.norm(applied) * np.linalg.norm(g)):
                    failures.append(f"step {it}: update ascends {name} ({lead:.3g})")
        model = updated
    if not np.array_equal(model.params, final.params):
        failures.append("replayed steps do not reproduce the unlearning run")
    return failures, model


# -- unlearn-sweep ------------------------------------------------------------


class UnlearnSweep(Workload):
    """harness.run_sweep off a pretrained checkpoint, small eval budget."""

    name = "unlearn-sweep"
    rate_name = "unlearn_iters_per_s"
    rate_unit = "iterations/s"
    setup_reps = 3

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        raw = _acceptance_geometry(self.config_dict())
        raw["pretrain"]["steps"] = 300 if quick else 2000
        # One cell per strategy keeps a sweep near 0.2 s, so a run repeats
        # it about a hundred times (see README); five times the default step
        # reaches full forgetting in 30 iterations.
        raw["unlearn"]["iterations"] = 30
        raw["unlearn"]["step_size"] = 5e-3
        raw["eval"]["n_per_condition"] = 20
        raw["sweep"] = {
            "forget_weights": [5.0],
            "loss_cap_scales": [50.0],
            "strategies": ["restricted", "graddiff", "restricted+diverse"],
        }
        if quick:
            raw["mixture"]["samples_per_class"] = 200
        self.raw = raw
        self.config = config_from_dict(raw)
        self.replay_steps = 5 if quick else 20
        self.sweeps = []

    def setup(self):
        self.spec, self.data = harness.build_dataset(self.config)
        self.schedule = harness.build_schedule(self.config)
        self.model, _ = harness.pretrain_from_config(self.config, self.data, self.spec)

    def _sweep(self, config):
        return harness.run_sweep(config, self.model, self.data, self.spec, self.schedule)

    def warmup(self):
        short = dataclasses.replace(
            self.config,
            unlearn=dataclasses.replace(self.config.unlearn, iterations=3),
        )
        self._sweep(short)

    def run_round(self, index, mark):
        mark(f"sweep-{index}")
        (rows, _), seconds = _timed(self._sweep, self.config)
        self.sweeps.append(rows)
        iterations = len(rows) * self.config.unlearn.iterations
        failed = sum(row["status"] != "ok" for row in rows)
        return Round(samples=[("sweep", iterations, seconds)],
                     attempted=len(rows), failed=failed)

    def check(self):
        failures = []
        rows = self.sweeps[0]
        if any(other != rows for other in self.sweeps[1:]):
            failures.append("repeated sweeps gave different rows")
        for row in rows:
            cell = f"{row['strategy']} w={row['forget_weight']} cap={row['loss_cap']:.4g}"
            if row["status"] != "ok":
                failures.append(f"{cell} failed: {row['error']}")
                continue
            values = [row[k] for k in ("ua", "ra", "mmd", "final_loss_r",
                                       "final_raw_forget_mse", "conflicted_fraction")]
            if not _finite(*values):
                failures.append(f"{cell} has a non-finite metric")
            if row["strategy"] == "restricted" and not row["ua"] >= 0.95:
                failures.append(f"{cell} reached UA {row['ua']}")
        base_cap = harness.resolve_loss_cap(self.config, self.model, self.data, self.schedule)
        cfg = dataclasses.replace(
            self.config,
            unlearn=dataclasses.replace(
                self.config.unlearn,
                forget_weight=float(self.config.sweep.forget_weights[0]),
                strategy="restricted",
                iterations=self.replay_steps,
            ),
        )
        cap = float(self.config.sweep.loss_cap_scales[0]) * base_cap
        failures.extend(replay_restricted(cfg, self.model, self.data, self.schedule, cap)[0])
        return failures



# -- eval-large ---------------------------------------------------------------

# Fixed, seed-independent probe for the oracle's "none" rule on non-finite
# samples: the five acceptance-mixture means, a far point and a NaN row.
def _probe_points(spec):
    return np.vstack([spec.means, [[50.0, 50.0], [np.nan, 0.0]]])


class EvalLarge(Workload):
    """harness.eval_from_config at 500 samples per condition on two checkpoints."""

    name = "eval-large"
    rate_name = "eval_samples_per_s"
    rate_unit = "samples/s"
    setup_reps = 3

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        raw = _acceptance_geometry(self.config_dict())
        raw["pretrain"]["steps"] = 300 if quick else 2000
        raw["unlearn"]["iterations"] = 30 if quick else 150
        raw["eval"]["n_per_condition"] = 100 if quick else 500
        if quick:
            raw["mixture"]["samples_per_class"] = 200
        self.raw = raw
        self.config = config_from_dict(raw)
        self.reports = {}

    def setup(self):
        self.spec, self.data = harness.build_dataset(self.config)
        self.schedule = harness.build_schedule(self.config)
        pretrained, _ = harness.pretrain_from_config(self.config, self.data, self.spec)
        cap = 50.0 * harness.resolve_loss_cap(self.config, pretrained, self.data, self.schedule)
        unlearned, _, _ = harness.unlearn_from_config(
            self.config, pretrained, self.data, self.schedule, loss_cap=cap
        )
        self.checkpoints = {"pretrained": pretrained, "unlearned": unlearned}

    def warmup(self):
        small = dataclasses.replace(
            self.config, eval=dataclasses.replace(self.config.eval, n_per_condition=50)
        )
        for model in self.checkpoints.values():
            harness.eval_from_config(small, model, self.spec, self.schedule)

    def run_round(self, index, mark):
        rnd = Round()
        n = self.config.eval.n_per_condition * self.spec.num_classes
        for label, model in self.checkpoints.items():
            mark(f"round-{index}.{label}")
            report, seconds = _timed(
                harness.eval_from_config, self.config, model, self.spec, self.schedule
            )
            self.reports.setdefault(label, []).append(report.to_dict())
            # Both checkpoints cost the same; their times pool as one kind.
            rnd.samples.append(("eval", n, seconds))
            rnd.attempted += 1
        mark(f"round-{index}.probe")
        probe = _probe_points(self.spec)
        labels = evaluate.classify_points(probe, self.spec, self.config.eval.none_threshold)
        expected = oracles.nearest_mean_labels(
            probe, self.spec.means, self.spec.sigma, self.config.eval.none_threshold
        )
        rnd.attempted += 1
        rnd.failed += int(not np.array_equal(labels, expected))
        return rnd

    def check(self):
        failures = []
        n_total = self.config.eval.n_per_condition * self.spec.num_classes
        for label, reports in self.reports.items():
            first = reports[0]
            if any(r != first for r in reports[1:]):
                failures.append(f"{label}: repeated evaluations differ")
            if sum(first["per_class_counts"].values()) != n_total:
                failures.append(f"{label}: per-class counts do not sum to {n_total}")
            if not _finite(first["ua"], first["ra"], first["mmd"]):
                failures.append(f"{label}: non-finite metric")
        ua_pre = self.reports["pretrained"][0]["ua"]
        ua_unl = self.reports["unlearned"][0]["ua"]
        if not ua_pre <= ua_unl - 0.5:
            failures.append(f"UA before unlearning {ua_pre} is not well below {ua_unl}")
        failures.extend(self._oracle_checks())
        return failures

    def _oracle_checks(self):
        """mmd, bandwidth and labels against the oracles on fresh point sets."""
        spec = self.spec
        thr = self.config.eval.none_threshold
        rng = np.random.default_rng([self.seed, 5])
        size = 300 if self.quick else 1200
        a = spec.means[rng.integers(0, spec.num_classes, size)] + spec.sigma * rng.standard_normal((size, 2))
        b = spec.means[rng.integers(0, spec.num_classes, size - 200)] + 0.8 * rng.standard_normal((size - 200, 2))
        failures = []
        bw = evaluate.median_bandwidth(b)
        if not math.isclose(bw, oracles.median_pairwise_distance(b), rel_tol=1e-12):
            failures.append("median_bandwidth differs from the oracle median")
        got = evaluate.mmd(a, b, bw)
        want, scale = oracles.mmd_terms(a, b, bw)
        if abs(got - want) > 1e-10 * scale:
            failures.append(f"mmd {got!r} differs from the oracle {want!r}")
        points = np.vstack([a, b, rng.uniform(-6.0, 6.0, size=(2 * size, 2))])
        labels = evaluate.classify_points(points, spec, thr)
        expected = oracles.nearest_mean_labels(points, spec.means, spec.sigma, thr)
        if not np.array_equal(labels, expected):
            failures.append(f"{int((labels != expected).sum())} oracle labels differ")
        return failures


# -- cli-roundtrip ------------------------------------------------------------


class CliRoundtrip(Workload):
    """diffunlearn.cli.main in-process for five commands into fresh directories."""

    name = "cli-roundtrip"
    rate_name = "cli_commands_per_s"
    rate_unit = "commands/s"
    setup_reps = 20

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        raw = self.config_dict()
        raw["pretrain"]["steps"] = 5 if quick else 40
        raw["unlearn"]["iterations"] = 5 if quick else 40
        raw["eval"]["n_per_condition"] = 10 if quick else 50
        if quick:
            raw["mixture"]["samples_per_class"] = 200
        self.raw = raw
        self.config_path = workdir / "config.json"
        self.exit_codes = []
        self.first_digests = None
        self.mismatched_rounds = []

    def setup(self):
        self.config_path.write_text(json.dumps(self.raw, indent=1) + "\n")
        self.mixture = config_from_dict(self.raw).mixture

    def _commands(self, out: Path):
        common = ["--config", str(self.config_path), "--out", str(out)]
        return [
            ["gen-data", *common],
            ["train", *common],
            ["unlearn", *common, "--strategy", "restricted"],
            ["eval", *common, "--checkpoint", str(out / "unlearned_restricted.json")],
            ["gen-prompts", *common, "--count", "8"],
        ]

    def _run(self, out: Path, mark=lambda op: None):
        """Run the five commands; returns [(command, exit code, seconds)]."""
        done = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self._commands(out):
                mark(f"{out.name}.{argv[0]}")
                code, seconds = _timed(cli.main, argv)
                done.append((argv[0], code, seconds))
        return done

    def warmup(self):
        out = self.workdir / "warmup"
        self._run(out)
        shutil.rmtree(out)

    def run_round(self, index, mark):
        out = self.workdir / f"round-{index}"
        done = self._run(out, mark)
        codes = [code for _, code, _ in done]
        self.exit_codes.append(codes)
        digests = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        if self.first_digests is None:
            self.first_digests = digests
        else:
            if digests != self.first_digests:
                self.mismatched_rounds.append(index)
            shutil.rmtree(out)
        return Round(samples=[(name, 1, seconds) for name, _, seconds in done],
                     attempted=len(codes), failed=sum(code != 0 for code in codes))

    def check(self):
        failures = []
        if any(code != 0 for codes in self.exit_codes for code in codes):
            failures.append(f"non-zero exit codes: {self.exit_codes}")
        if len(self.exit_codes) < 2:
            failures.append("fewer than two passes; nothing to compare")
        if self.mismatched_rounds:
            failures.append(f"rounds {self.mismatched_rounds} differ from round 0")
        out = self.workdir / "round-0"
        for path in sorted(out.rglob("*")):
            if path.suffix not in (".json", ".jsonl"):
                continue
            text = path.read_text()
            docs = text.splitlines() if path.suffix == ".jsonl" else [text]
            try:
                parsed = [oracles.strict_json(doc) for doc in docs if doc.strip()]
            except ValueError as exc:
                failures.append(f"{path.name} is not strict JSON: {exc}")
                continue
            if path.name == "dataset.jsonl":
                m = self.mixture
                failures.extend(oracles.mixture_moment_failures(
                    [rec["x"] for rec in parsed], [rec["label"] for rec in parsed],
                    m.num_classes, m.radius, m.sigma, m.samples_per_class,
                ))
        failures.extend(self._replay_cli_unlearn(out))
        expected = {"dataset.jsonl", "pretrained.json", "unlearned_restricted.json",
                    "trajectory_restricted.csv", "eval_unlearned_restricted.json",
                    "eval_unlearned_restricted.csv", "prompts.jsonl"}
        missing = expected - set(self.first_digests or {})
        if missing:
            failures.append(f"missing artifacts: {sorted(missing)}")
        return failures


    def _replay_cli_unlearn(self, out: Path):
        """Replay `unlearn` from round 0's pretrained checkpoint, step by step.

        The replayed end state must equal the unlearned checkpoint the
        command wrote, bit for bit.
        """
        config = config_from_dict(self.raw)
        model, schedule, _ = checkpoint.load_checkpoint(out / "pretrained.json")
        _, data = harness.build_dataset(config)
        cap = harness.resolve_loss_cap(config, model, data, schedule)
        failures, replayed = replay_restricted(config, model, data, schedule, cap)
        written, _, _ = checkpoint.load_checkpoint(out / "unlearned_restricted.json")
        if not np.array_equal(replayed.params, written.params):
            failures.append("replayed unlearning differs from the CLI's checkpoint")
        return failures


WORKLOADS = {w.name: w for w in (Pretrain, UnlearnSweep, EvalLarge, CliRoundtrip)}
