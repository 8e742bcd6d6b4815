"""tools/code_lines.py on a small made-up package with known counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 19 lines, 10 of them code: 6, 8, 10-14, 16, 18 and 19. Not code: the
# module docstring (1-3), the blank lines (4, 9, 15), the comment line (5)
# and the class and function docstrings (7, 17). Lines 13-14 are a string
# statement that is not its function's first, so they are code.
MODULE = '''"""Module docstring
over three lines.
"""

# A comment line.
class A:
    """Class docstring."""
    x = 1  # a trailing comment keeps the line

    def f(self):
        return """a string that is not a docstring
spans two lines"""
        """An expression after the first statement is code.
        """

    def g(self):
        """One-line docstring."""
        return (1,
                2)
'''


def test_counts_known_module(tmp_path, capsys):
    assert code_lines.counts(MODULE.encode()) == (19, 10)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.table(tmp_path) == [
        ("a.py", 19, 10),
        ("pkg/b.py", 3, 1),
        ("total", 22, 11),
    ]
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        " lines   code  module",
        "    19     10  a.py",
        "     3      1  pkg/b.py",
        "    22     11  total",
    ]
