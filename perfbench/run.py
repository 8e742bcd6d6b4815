"""Stage benchmark for diffunlearn: pretrain, unlearn-sweep, eval-large, cli-roundtrip.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --quick      # every workload, toy size

One workload runs in one process against the package under ``src/``. Set-up
is repeated and timed on its own, a warm-up follows, and then whole rounds of
the workload's operations run until ``--seconds`` have passed. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the span recorder is installed around the timed rounds and the
metrics are the per-layer ones. See README.md for what each number means.
"""

import os

# The BLAS thread count is pinned before numpy can load OpenBLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("pretrain", "unlearn-sweep", "eval-large", "cli-roundtrip")
END_TO_END_UNITS = {"work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, every check still on")
    return parser.parse_args(argv)


# Symbol prefixes of the OpenBLAS builds numpy and scipy ship or link; the
# 64-bit-integer builds add a "64_" suffix to each symbol.
_BLAS_PREFIXES = ("scipy_openblas_", "openblas_")


def _blas_libraries():
    """(library, config string, live thread count) of each loaded OpenBLAS."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in ((p, s) for p in _BLAS_PREFIXES for s in ("", "64_")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            found.append({"library": Path(path).name,
                          "config": config().decode().strip(),
                          "threads": threads()})
            break
    return found


def environment(args):
    import numpy
    import scipy

    import diffunlearn

    cpu_model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "package": diffunlearn.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas": _blas_libraries(),
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _import_package():
    """Import diffunlearn from this checkout's src/, never from elsewhere."""
    package_dir = SRC / "diffunlearn"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import diffunlearn

    if Path(diffunlearn.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: diffunlearn imported from {diffunlearn.__file__}")


def work_rates(rounds):
    """(rate from fastest repetitions, median rate of rounds, fastest times).

    The first figure is one round's work over the round's time assembled
    from each operation's fastest repetition in the run. On a shared machine
    whose speed swings by up to 2x for tens of seconds, that figure repeats
    from run to run where a median of rounds does not (see README).
    """
    fastest = {}
    for rnd in rounds:
        for key, work, seconds in rnd.samples:
            fastest[key] = (work, min(seconds, fastest.get(key, (0, seconds))[1]))
    rate = sum(w for w, _ in fastest.values()) / sum(s for _, s in fastest.values())
    per_round = [
        sum(w for _, w, _ in rnd.samples) / sum(s for _, _, s in rnd.samples)
        for rnd in rounds
    ]
    return rate, statistics.median(per_round), {k: s for k, (_, s) in fastest.items()}


def measure(workload, seconds, recorder=None):
    """Set up, warm up, then run whole rounds for ``seconds`` of round time.

    The first set-up precedes the warm-up; the other repetitions are spread
    evenly over the rounds, outside the timed calls and outside tracing.
    Their median then speaks for the run's whole stretch of machine time,
    not for the one moment a burst of repetitions would sample.
    """
    setup_times = []

    def set_up():
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    set_up()
    workload.warmup()
    if recorder is None:
        tracing, mark = contextlib.nullcontext(), (lambda op: None)
    else:
        tracing, mark = recorder, (lambda op: setattr(recorder, "op_id", op))
    rounds = []
    elapsed = 0.0
    with tracing:
        while not rounds or elapsed < seconds:
            if len(setup_times) < workload.setup_reps and (
                elapsed >= seconds * len(setup_times) / workload.setup_reps
            ):
                with recorder.paused() if recorder else contextlib.nullcontext():
                    set_up()
                continue
            start = time.perf_counter()
            rounds.append(workload.run_round(len(rounds), mark))
            elapsed += time.perf_counter() - start
    while len(setup_times) < workload.setup_reps:
        set_up()
    return rounds, setup_times


def run_one(args):
    _import_package()
    import spans
    import workloads

    env = environment(args)
    print("# env " + json.dumps(env))
    if any(lib["threads"] != BLAS_THREADS for lib in env["blas"]):
        raise SystemExit(f"error: BLAS thread count is not {BLAS_THREADS}")

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)
    recorder = spans.SpanRecorder() if args.trace else None
    try:
        rounds, setup_times = measure(workload, args.seconds, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check()
    finally:
        workload.cleanup()

    rate, typical, fastest = work_rates(rounds)
    end_to_end = {
        "work_per_s": rate,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    print(f"# {workload.rate_name} = {rate:.6g} {workload.rate_unit} from each "
          f"operation's fastest of {len(rounds)} rounds; the median round ran at "
          f"{typical:.6g}")
    print("# fastest seconds " + json.dumps({k: round(v, 6) for k, v in fastest.items()}))
    print(f"# setup_s samples {[round(t, 6) for t in setup_times]}")
    for name, value in end_to_end.items():
        print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")

    if recorder:
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        recorder.write(trace_path)
        print(f"# wrote {len(recorder.spans)} spans to {trace_path.relative_to(ROOT)}")
        layer = recorder.metrics()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.per_layer_catalogue()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    result = {
        "correct": not failures,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited {proc.returncode}\n{proc.stderr}")
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        if result is None:
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
