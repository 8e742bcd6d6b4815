"""Summary arithmetic of tools/bench_pairs.py on canned perfbench output;
no benchmark process is started."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run_output(work, rss, setup, attempted=100, failed=0, correct=True):
    """The tail of one untraced perfbench run: comment lines, then the JSON."""
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "work_per_s": {"value": work, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        },
    }
    return "# env {}\n# work_per_s = 1 1/s\n" + json.dumps(result) + "\n"


def canned_pairs():
    parent = [(100.0, 70.0, 0.010), (110.0, 71.0, 0.012), (90.0, 70.5, 0.011),
              (105.0, 70.2, 0.009)]
    change = [(120.0, 70.0, 0.011), (118.0, 70.5, 0.012), (112.0, 71.0, 0.010),
              (99.0, 69.0, 0.008)]
    pairs = []
    for number, (p, c) in enumerate(zip(parent, change), start=1):
        pairs.append({
            "pair": number,
            "first": "parent" if number % 2 else "change",
            "parent": bench_pairs.parse_run(run_output(*p)),
            "change": bench_pairs.parse_run(run_output(*c)),
        })
    return pairs


def test_parse_run_reads_the_last_line():
    record = bench_pairs.parse_run(run_output(123.456789012, 70.25, 0.00123456789, 40, 1))
    assert record == {
        "work_per_s": 123.456789,
        "peak_rss_mb": 70.25,
        "setup_s": 0.0012346,
        "attempted": 40,
        "failed": 1,
        "correct": True,
    }


def test_summary_quartiles_change_and_wins():
    summary = bench_pairs.summarize(canned_pairs())
    work = summary["work_per_s"]
    # Parent 90, 100, 105, 110 and change 99, 112, 118, 120, linearly
    # interpolated quartiles.
    assert work["parent"] == {"q1": 97.5, "median": 102.5, "q3": 106.25,
                              "iqr_over_median": round(8.75 / 102.5, 4)}
    assert work["change"] == {"q1": 108.75, "median": 115.0, "q3": 118.5,
                              "iqr_over_median": round(9.75 / 115.0, 4)}
    assert work["median_change"] == round(115.0 / 102.5 - 1.0, 4)
    # Higher is better: pairs 1-3 win, pair 4 (105 -> 99) loses.
    assert work["change_better_in"] == "3 of 4"


def test_lower_is_better_and_ties_count_for_neither():
    summary = bench_pairs.summarize(canned_pairs())
    # 70 -> 70 ties, 71 -> 70.5 and 70.2 -> 69 win, 70.5 -> 71 loses.
    assert summary["peak_rss_mb"]["change_better_in"] == "2 of 4"
    # 0.010 -> 0.011 loses, 0.012 ties, 0.011 -> 0.010 and 0.009 -> 0.008 win.
    assert summary["setup_s"]["change_better_in"] == "2 of 4"
    setup = summary["setup_s"]
    assert setup["parent"]["median"] == pytest.approx(0.0105)
    assert setup["median_change"] == round(
        setup["change"]["median"] / setup["parent"]["median"] - 1.0, 4
    )


def test_matches_a_committed_record():
    # BENCH_9.json's pretrain summary was computed by hand from its runs.
    record = json.loads((_PATH.parent.parent / "BENCH_9.json").read_text())
    workload = record["workloads"]["pretrain"]
    assert bench_pairs.summarize(workload["pairs"]) == workload["summary"]


def test_quartiles_are_linear_interpolation():
    values = [3.0, 1.0, 4.0, 1.5, 9.0]
    side = bench_pairs.side_summary(values)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    assert (side["q1"], side["median"], side["q3"]) == (q1, median, q3)
