"""bench/pairs.py's statistics, with the perfbench runs replaced by a stub."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_quartiles_interpolate_between_the_values():
    assert pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_counts_the_pairs_that_moved_with_the_median():
    row = pairs.compare([10.0, 10.0, 10.0, 10.0], [8.0, 9.0, 11.0, 7.0])
    assert row == {"median": 8.5, "iqr": 9.5 - 7.75, "change_pct": -15.0, "same_way": 3}
    # a pair whose two values are equal moved neither way
    assert pairs.compare([1.0, 1.0], [1.0, 2.0])["same_way"] == 1
    # equal medians: only the equal pairs moved "the same way"
    assert pairs.compare([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])["same_way"] == 1
    assert pairs.compare([0.0, 0.0], [1.0, 1.0])["change_pct"] is None


def test_measure_alternates_the_checkouts_and_summarises_each_metric(monkeypatch):
    calls = []
    # the change reads 20% lower than the parent on every seed but the last
    values = {("parent", 41): 1.0, ("parent", 42): 1.2, ("parent", 43): 1.1,
              ("change", 41): 0.8, ("change", 42): 0.9, ("change", 43): 1.3}

    def fake_run(root, workload, seed, seconds):
        calls.append((root, seed))
        value = values[root, seed]
        return {"correct": True, "failed": 0,
                "metrics": {"pass_s": {"value": value, "unit": "s"},
                            "peak_rss_mb": {"value": 27.0, "unit": "MB"}}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    block = pairs.measure([("parent", "parent"), ("change", "change")], "tables",
                          range(41, 44), 8.0)
    assert calls == [("parent", 41), ("change", 41), ("change", 42), ("parent", 42),
                     ("parent", 43), ("change", 43)]
    assert block["failed"] == {"parent": 0, "change": 0}
    assert block["values"]["change"]["pass_s"] == [0.8, 0.9, 1.3]
    row = block["metrics"]["pass_s"]
    assert row["unit"] == "s" and row["parent"] == {"median": 1.1, "iqr": pytest.approx(0.1)}
    assert row["change"]["median"] == 0.9
    assert row["change"]["change_pct"] == pytest.approx(-100 * 0.2 / 1.1)
    assert row["change"]["same_way"] == 2
    flat = block["metrics"]["peak_rss_mb"]["change"]
    assert (flat["change_pct"], flat["same_way"]) == (0.0, 3)


def test_rounded_keeps_four_significant_digits():
    assert pairs.rounded({"a": [0.0123456, 3], "b": 12345.6}) == {"a": [0.01235, 3], "b": 12350.0}
    # bench/ladder.py's figures: two timings of a ~0.02 ms item stay apart, where
    # three decimals of a millisecond read both as 0.02
    assert pairs.rounded([0.02025, 0.02049]) == [0.02025, 0.02049]
