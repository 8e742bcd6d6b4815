"""Line counts of a package's modules, for size claims made from committed code.

    python3 tools/code_lines.py [SRC_DIR]

For each ``*.py`` module under SRC_DIR (by default the ``src/diffunlearn``
of the checkout holding this script), and in total, prints two counts: the
lines ``wc -l`` counts, and the code lines. A code line holds a token other
than a comment and is not part of a module, class or function docstring, so
blank lines, comment lines and docstrings do not count.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "diffunlearn"
# Tokens that hold no code of their own.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, its classes' and its
    functions' docstrings."""
    lines = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: bytes) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's bytes."""
    docstrings = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count(b"\n"), len(code - docstrings)


def table(src: Path) -> list[tuple[str, int, int]]:
    """(module, lines, code lines) per module in path order, then the total."""
    rows = [
        (path.relative_to(src).as_posix(), *counts(path.read_bytes()))
        for path in sorted(src.rglob("*.py"))
    ]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=DEFAULT_SRC)
    args = parser.parse_args(argv)
    print(f"{'lines':>6} {'code':>6}  module")
    for name, lines, code in table(args.src):
        print(f"{lines:>6} {code:>6}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
