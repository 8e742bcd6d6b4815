"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the package from the outside: it
replaces every binding of a traced function, in the module that defines it
and in each package module that imported it by name (``diffusion`` and
``unlearn`` import ``nn`` functions that way, ``harness`` imports ``unlearn``,
``train`` and ``evaluate``). Nothing under ``src/`` changes and the untraced
run never installs it.

Each span is (name, start, end, parent index, operation id). Spans stay in
memory until the run ends; :meth:`SpanRecorder.write` dumps them as JSON
lines. Self time is a span's duration minus the time its child spans cover;
calls are single-threaded, so children nest and never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_forward(counts, args, kwargs, out):
    counts["nn.rows_forward"] += len(_arg(args, kwargs, 1, "x"))


def _count_backward(counts, args, kwargs, out):
    counts["nn.rows_backward"] += len(_arg(args, kwargs, 1, "acts")[-1])


def _count_sampler(counts, args, kwargs, out):
    counts["diffusion.sampler_steps"] += _arg(args, kwargs, 3, "schedule").num_timesteps


def _count_conflict(counts, args, kwargs, out):
    counts["projection.conflicted"] += int(out.conflicted)


def _count_forget_rows(counts, args, kwargs, out):
    rows = len(_arg(args, kwargs, 1, "forget_batch"))
    truncated = out[3]
    counts["unlearn.forget_rows"] += rows
    counts["unlearn.forget_rows_contributing"] += rows - round(truncated * rows)


def _count_mmd(counts, args, kwargs, out):
    m = len(_arg(args, kwargs, 0, "a"))
    n = len(_arg(args, kwargs, 1, "b"))
    pairs = m * (m - 1) // 2 + n * (n - 1) // 2 + m * n
    counts["evaluate.kernel_pairs"] += pairs
    counts["evaluate.distance_bytes_computed"] += 8 * pairs


def _count_bandwidth(counts, args, kwargs, out):
    n = len(_arg(args, kwargs, 0, "reference"))
    counts["evaluate.distance_bytes_computed"] += 8 * (n * (n - 1) // 2)


def _count_classify(counts, args, kwargs, out):
    spec = _arg(args, kwargs, 1, "spec")
    counts["evaluate.distance_bytes_computed"] += 8 * len(out) * spec.num_classes


def _count_written(counts, args, kwargs, out):
    counts["checkpoint.bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_read(counts, args, kwargs, out):
    counts["checkpoint.bytes_read"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


PACKAGE = "diffunlearn"

# (module, attribute path, counter). An attribute path with a dot names a
# method on a class defined in that module.
TRACED = (
    ("nn", "forward_activations", _count_forward),
    ("nn", "backward_from_activations", _count_backward),
    ("nn", "NoisePredictor.with_params", None),
    ("nn", "mlp_forward", None),
    ("diffusion", "ddpm_sample", _count_sampler),
    ("diffusion", "draw_corruption", None),
    ("diffusion", "diffusion_loss", None),
    ("data", "LabeledDataset.subset", None),
    ("data", "gen_mixture", None),
    ("data", "save_dataset", None),
    ("projection", "restricted_gradient", _count_conflict),
    ("unlearn", "unlearn_run", None),
    ("unlearn", "unlearn_step", None),
    ("unlearn", "forgetting_loss", _count_forget_rows),
    ("unlearn", "write_trajectory_csv", None),
    ("train", "pretrain", None),
    ("train", "derive_loss_cap", None),
    ("evaluate", "full_eval", None),
    ("evaluate", "classify_points", _count_classify),
    ("evaluate", "median_bandwidth", _count_bandwidth),
    ("evaluate", "mmd", _count_mmd),
    ("harness", "run_sweep", None),
    ("harness", "unlearn_from_config", None),
    ("harness", "eval_from_config", None),
    ("checkpoint", "save_checkpoint", _count_written),
    ("checkpoint", "load_checkpoint", _count_read),
    ("config", "config_from_dict", None),
    ("cli", "main", None),
    ("prompts", "gen_prompt_pairs", None),
)

COUNTS = (
    "nn.rows_forward",
    "nn.rows_backward",
    "diffusion.sampler_steps",
    "projection.conflicted",
    "unlearn.forget_rows",
    "unlearn.forget_rows_contributing",
    "evaluate.kernel_pairs",
    "evaluate.distance_bytes_computed",
    "checkpoint.bytes_written",
    "checkpoint.bytes_read",
)

COUNT_UNITS = {
    "evaluate.distance_bytes_computed": "bytes",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.bytes_read": "bytes",
}


def span_names():
    return [f"{module}.{attr.split('.')[-1]}" for module, attr, _ in TRACED]


def per_layer_catalogue():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out.extend((name, COUNT_UNITS.get(name, "count")) for name in COUNTS)
    return out


class SpanRecorder:
    """Patch the traced bindings, record spans and counts, restore on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.op_id = ""
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, attr, count in TRACED:
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Restore the original bindings for the duration of the block."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict:
        """Calls and self seconds per span name, then the counts."""
        calls = Counter()
        self_s = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += (end - start) - covered
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
