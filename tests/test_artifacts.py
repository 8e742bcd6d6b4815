"""Artifact writers: whole-or-nothing replacement, file mode, strict JSON."""

import math
import os

import pytest

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
        per_class_counts={"0": 1, "none": 0},
        n_samples_per_condition=1,
        seed=0,
    )
    with pytest.raises(ValueError):
        save_eval_report(report, tmp_path / "eval.json")
    assert list(tmp_path.iterdir()) == []
