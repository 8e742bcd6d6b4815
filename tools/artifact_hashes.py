"""sha256 of every CLI artifact, for claims that a change keeps the bytes.

Runs the CLI commands of COMMANDS, one process each, into a temporary
directory, with BLAS pinned to one thread (OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS set to 1), and prints one
``sha256  path`` line per file written, under a header naming the numpy,
scipy and OpenBLAS versions and the OpenBLAS core. Bits depend on the BLAS
kernels, so compare only files made on one machine:

    python3 tools/artifact_hashes.py --checkout ../parent > parent.txt
    python3 tools/artifact_hashes.py --against parent.txt

``--checkout`` runs another checkout's ``src`` (by default the one holding
this script). ``--against FILE`` prints what differs from FILE and exits 1
if anything does. ``--unpinned`` leaves the BLAS thread variables as the
environment has them.

The ``run/`` commands use small sizes, as CI's console-script step does.
The ``defaults/`` commands run the default config, whose 500 samples per
condition form three sampler groups, so an evaluation with one BLAS thread
on more than one core takes the threaded sampler path.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SMALL = [
    "--set", "pretrain.steps=40",
    "--set", "unlearn.iterations=40",
    "--set", "eval.n_per_condition=50",
]
LABELS = [s + d for s in ("restricted", "graddiff", "finetune") for d in ("", "+diverse")]
GRID = [
    "--set", "sweep.forget_weights=[5.0]",
    "--set", "sweep.strategies=[" + ",".join(f'"{label}"' for label in LABELS) + "]",
]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# (output directory, CLI arguments after it), run in order; "{out}" is the
# temporary directory.
COMMANDS = [
    ("run", ["gen-data", *SMALL]),
    ("run", ["train", *SMALL]),
    ("run", ["gen-prompts", *SMALL]),
    ("run/prompts", ["gen-prompts", *SMALL, "--count", "8", "--seed", "9"]),
    *(("run", ["unlearn", *SMALL, "--strategy", label]) for label in LABELS),
    ("run/similar", ["unlearn", *SMALL, "--checkpoint", "{out}/run/pretrained.json",
                     "--set", "unlearn.diversity=similar"]),
    ("run", ["eval", *SMALL]),
    ("run", ["eval", *SMALL, "--checkpoint", "{out}/run/unlearned_restricted.json"]),
    ("run", ["sweep", *SMALL, *GRID]),
    ("run", ["diversity-ablation", *SMALL]),
    ("defaults", ["train"]),
    ("defaults", ["unlearn"]),
    ("defaults", ["eval"]),
    ("defaults", ["eval", "--checkpoint", "{out}/defaults/unlearned_restricted.json"]),
]


def openblas() -> tuple[str, str]:
    """(version, core) of the OpenBLAS numpy loads, or "unknown"."""
    import numpy as np

    version = core = "unknown"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if get_config and get_core:
                    get_config.restype = get_core.restype = ctypes.c_char_p
                    version = get_config().decode().split()[1]
                    core = get_core().decode()
                    return version, core
    return version, core


def header(environ) -> list[str]:
    import numpy as np
    import scipy

    version, core = openblas()
    threads = ", ".join(f"{name}={environ.get(name, 'unset')}" for name in BLAS_VARIABLES)
    return [
        f"# numpy {np.__version__}, scipy {scipy.__version__}, "
        f"OpenBLAS {version}, core {core}",
        f"# {threads}",
    ]


def run_commands(checkout: Path, out: Path, environ) -> None:
    env = dict(environ, PYTHONPATH=str(checkout / "src"))
    for directory, argv in COMMANDS:
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        cmd = [sys.executable, "-m", "diffunlearn", *argv, "--out", str(out / directory)]
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(
                f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}"
            )


def digests(out: Path) -> dict:
    """sha256 of every file under ``out``, keyed by its relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def read_listing(path: Path) -> tuple[list[str], dict]:
    head, table = [], {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            head.append(line)
        elif line:
            digest, name = line.split("  ", 1)
            table[name] = digest
    return head, table


def differences(old_head, old, new_head, new) -> list[str]:
    lines = [f"header was {h}" for h in old_head if h not in new_head]
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"gone     {name}")
        elif name not in old:
            lines.append(f"new      {name}")
        elif old[name] != new[name]:
            lines.append(f"changed  {name}  {old[name][:12]} -> {new[name][:12]}")
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ runs (default: this script's)")
    parser.add_argument("--against", type=Path, default=None,
                        help="listing to compare with; exit 1 on any difference")
    parser.add_argument("--unpinned", action="store_true",
                        help="leave the BLAS thread variables as the environment has them")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    environ = dict(os.environ)
    if not args.unpinned:
        environ.update(dict.fromkeys(BLAS_VARIABLES, "1"))
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as tmp:
        out = Path(tmp)
        run_commands(args.checkout.resolve(), out, environ)
        table = digests(out)
    head = header(environ)
    if args.against is None:
        print("\n".join(head))
        for name, digest in table.items():
            print(f"{digest}  {name}")
        return 0
    old_head, old = read_listing(args.against)
    lines = differences(old_head, old, head, table)
    unchanged = sum(old.get(name) == digest for name, digest in table.items())
    print(f"{unchanged} of {len(table)} artifacts keep their sha256 against {args.against}")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
