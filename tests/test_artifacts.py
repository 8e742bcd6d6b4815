"""Artifact writers: whole-or-nothing replacement, file mode, strict JSON."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffunlearn import artifacts
from diffunlearn.errors import DomainError
from diffunlearn.evaluate import EvalReport, save_eval_report


class TestCsvRows:
    def test_round_trip(self, tmp_path):
        columns = ("name", "value", "flag")
        rows = [
            {"name": "a", "value": 0.1 + 0.2, "flag": 1},
            {"name": "b", "value": 1e-300, "flag": 0},
            {"name": "with,comma", "value": -3.5, "flag": 2},
        ]
        path = tmp_path / "rows.csv"
        artifacts.write_rows_csv(path, columns, rows)
        back = artifacts.read_rows_csv(path, columns)
        assert back == rows

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        artifacts.write_rows_csv(path, ("a", "b"), [{"a": 1, "b": 2}])
        with pytest.raises(DomainError, match="header"):
            artifacts.read_rows_csv(path, ("a", "c"))

    def test_empty_cells_stay_strings(self, tmp_path):
        path = tmp_path / "rows.csv"
        artifacts.write_rows_csv(path, ("a", "b"), [{"a": "", "b": 1.5}])
        back = artifacts.read_rows_csv(path, ("a", "b"))
        assert back == [{"a": "", "b": 1.5}]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "rows.csv"
        with pytest.raises(ValueError):
            artifacts.write_rows_csv(path, ("a", "b"), [{"a": 1.0, "b": bad}])
        assert list(tmp_path.iterdir()) == []


def test_failed_encode_keeps_old_file(tmp_path):
    path = tmp_path / "rows.csv"
    artifacts.write_rows_csv(path, ("a", "b"), [{"a": 1, "b": 2}])
    before = path.read_bytes()
    # The second row lacks column "b", so encoding fails part way through.
    with pytest.raises(KeyError):
        artifacts.write_rows_csv(path, ("a", "b"), [{"a": 3, "b": 4}, {"a": 5}])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


def test_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        artifacts.write_jsonl(tmp_path / "out.jsonl", [{"a": 1}])
    assert list(tmp_path.iterdir()) == []


def test_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        artifacts.write_json(tmp_path / "sub" / "doc.json", {"a": 1}, indent=1)
    finally:
        os.umask(old)
    assert (tmp_path / "sub" / "doc.json").stat().st_mode & 0o777 == 0o640


def test_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "doc.jsonl"
    artifacts.write_jsonl(path, [{"x": 1}, {"x": 2}])
    assert artifacts.read_jsonl(path) == [{"x": 1}, {"x": 2}]


def test_non_finite_json_rejected(tmp_path):
    with pytest.raises(ValueError):
        artifacts.write_jsonl(tmp_path / "out.jsonl", [{"x": math.inf}])
    assert list(tmp_path.iterdir()) == []


def test_eval_report_with_nan_mmd_writes_nothing(tmp_path):
    report = EvalReport(
        ua=1.0,
        ra=1.0,
        mmd=float("nan"),
        bandwidth=1.0,
        per_class_counts={"0": 1, "none": 0},
        n_samples_per_condition=1,
        seed=0,
    )
    with pytest.raises(ValueError):
        save_eval_report(report, tmp_path / "eval.json")
    assert list(tmp_path.iterdir()) == []


# Floats whose shortest repr takes each of its forms: negative zero, the
# smallest subnormal, the switches to exponent notation at 1e16 and 1e-5,
# the largest finite magnitude, and a 17-digit value.
AWKWARD = [-0.0, 5e-324, 1e16, 1e-5, 1e300, -1.7976931348623157e308, 0.1 + 0.2]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD)
scalars = (
    st.none() | st.booleans() | st.integers() | finite | finite.map(np.float64)
    | st.text()
)
keys = st.text() | st.integers() | finite | st.booleans() | st.none()
docs = st.recursive(
    scalars | st.lists(finite, min_size=1),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def _insert(items, value, at):
    at %= len(items) + 1
    return [*items[:at], value, *items[at:]]


# A document holding one non-finite float at some depth: in a list of plain
# floats, in a mixed list, as a dict value, as a numpy scalar or as a key.
poisoned = st.recursive(
    non_finite
    | non_finite.map(np.float64)
    | st.builds(_insert, st.lists(finite), non_finite, st.integers(0, 99))
    | st.builds(lambda bad, v: {bad: v}, non_finite, scalars),
    lambda inner: st.builds(_insert, st.lists(scalars, max_size=3), inner, st.integers(0, 3))
    | st.builds(
        lambda d, k, bad: {**d, k: bad},
        st.dictionaries(st.text(), scalars, max_size=3),
        st.text(),
        inner,
    ),
    max_leaves=6,
)


def _expected(doc, indent):
    return (json.dumps(doc, indent=indent, allow_nan=False) + "\n").encode()


class TestWriteJsonMatchesJson:
    """write_json's bytes are json.dumps(doc, indent=indent,
    allow_nan=False) plus a newline, for any document."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=docs, indent=st.sampled_from([1, 2]))
    def test_any_document(self, tmp_path, doc, indent):
        path = tmp_path / "doc.json"
        artifacts.write_json(path, doc, indent)
        assert path.read_bytes() == _expected(doc, indent)

    @pytest.mark.parametrize("indent", [1, 2])
    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}]},
            {"ключ": "значение", "键": [1.0, -0.0], "e\u0301": "\n\"\\"},
            AWKWARD,
            {"params": AWKWARD, "scalar": 1e16, "nested": [[5e-324], [1e-5, -0.0]]},
            [1, 2.0, True],
            [2.0, True],
            [2.0, False, None],
            [0.5, 1],
            [np.float64(0.1), np.float64(-0.0)],
            [0.5, np.float64(0.25)],
            (0.5, 1.5),
            {"t": (1, "x", None), "u": ()},
            {1: "int", 2.5: "float", False: "bool", None: "null", -0.0: "zero"},
            # Finite items whose sum overflows.
            [1.7976931348623157e308, 1.7976931348623157e308],
            "top-level string",
            0.1,
            None,
        ],
    )
    def test_edge_documents(self, tmp_path, doc, indent):
        path = tmp_path / "doc.json"
        artifacts.write_json(path, doc, indent)
        assert path.read_bytes() == _expected(doc, indent)

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=poisoned, indent=st.sampled_from([1, 2]))
    def test_non_finite_float_raises_and_writes_nothing(self, tmp_path, doc, indent):
        with pytest.raises(ValueError):
            json.dumps(doc, indent=indent, allow_nan=False)
        with pytest.raises(ValueError):
            artifacts.write_json(tmp_path / "doc.json", doc, indent)
        assert list(tmp_path.iterdir()) == []

    def test_key_of_another_type_rejected_as_json_does(self, tmp_path):
        with pytest.raises(TypeError, match="keys must be"):
            json.dumps({(1, 2): 0}, indent=1)
        with pytest.raises(TypeError, match="keys must be"):
            artifacts.write_json(tmp_path / "doc.json", {(1, 2): 0}, 1)
        assert list(tmp_path.iterdir()) == []


def test_write_jsonl_matches_json_dumps(tmp_path):
    records = [{"x": [0.1, -0.0, 5e-324], "label": 3}, {"s": "é", "n": None}, []]
    path = tmp_path / "out.jsonl"
    artifacts.write_jsonl(path, records)
    expected = "".join(json.dumps(r, allow_nan=False) + "\n" for r in records)
    assert path.read_bytes() == expected.encode()


# Anything in the package that could put bytes on disk. Every artifact goes
# through artifacts._publish, which writes a temporary file and renames it
# over the target, so only artifacts.py may match.
_FILE_WRITES = re.compile(r'import csv|open\(.*"w"|write_text|write_bytes|mkdir')


def test_only_the_artifacts_module_writes_files():
    package = Path(artifacts.__file__).parent
    writers = sorted(
        p.name for p in package.glob("*.py") if _FILE_WRITES.search(p.read_text())
    )
    assert writers == ["artifacts.py"]
