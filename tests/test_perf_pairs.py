"""Verdicts of the alternating A/B script, on hand-made runs."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

# Ten parent latencies: median 2.1, quartiles 2.0625 and 2.1375.
PARENT = [2.0, 2.05, 2.05, 2.1, 2.1, 2.1, 2.1, 2.15, 2.15, 2.2]


def test_nine_wins_in_ten_meet_the_claim():
    change = [1.9] * 9 + [2.5]
    result = perf_pairs.verdict(PARENT, change, "lower", 0.25)
    assert (result["pairs"], result["wins"]) == (10, 9)
    assert result["claim_met"] and result["within_bound"]


def test_eight_wins_in_ten_do_not():
    change = [1.9] * 8 + [2.5, 2.5]
    result = perf_pairs.verdict(PARENT, change, "lower", 0.25)
    assert result["wins"] == 8
    assert not result["claim_met"]


def test_a_gap_inside_the_parents_spread_does_not():
    # Every pair won, but the medians differ by 0.05 < the IQR of 0.075.
    change = [p - 0.05 for p in PARENT]
    result = perf_pairs.verdict(PARENT, change, "lower", 0.25)
    assert result["wins"] == 10
    assert result["parent"]["q3"] - result["parent"]["q1"] == pytest.approx(0.075)
    assert not result["claim_met"]


def test_higher_is_better_counts_the_other_way():
    parent = [400.0 + p for p in PARENT]
    result = perf_pairs.verdict(parent, [p + 30.0 for p in parent], "higher", 0.25)
    assert result["wins"] == 10 and result["claim_met"]


def test_a_regression_beyond_the_bound_is_flagged():
    # Throughput down 30 % against a 25 % bound; down 20 % stays inside it.
    parent = [100.0 + p for p in PARENT]
    assert not perf_pairs.verdict(parent, [0.7 * p for p in parent], "higher", 0.25)[
        "within_bound"
    ]
    assert perf_pairs.verdict(parent, [0.8 * p for p in parent], "higher", 0.25)[
        "within_bound"
    ]


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [100.0, 100.0, 150.0, 150.0, 100.0, 150.0, 100.0, 150.0, 100.0, 150.0]
    result = perf_pairs.verdict(parent, parent, "lower", 0.1)
    assert result["unresolved"]
    result = perf_pairs.verdict(parent, [90.0] * 10, "lower", 0.1)
    assert not result["unresolved"]


def test_too_few_pairs_never_meet_the_claim():
    result = perf_pairs.verdict(PARENT[:9], [1.0] * 9, "lower", 0.25)
    assert result["wins"] == 9 and not result["claim_met"]


def test_a_failed_run_drops_its_pair():
    def run(value, exit=0, correct=True):
        return {"exit": exit, "correct": correct, "metrics": {"latency_ms": value}}

    pairs = [{"parent": run(p), "change": run(1.9)} for p in PARENT]
    pairs.insert(3, {"parent": run(2.1), "change": {"exit": 1, "correct": False, "metrics": {}}})
    pairs.insert(5, {"parent": run(2.1, correct=False), "change": run(9.0)})
    metric = {"name": "latency_ms", "better": "lower", "bound": 0.25}
    (result,) = perf_pairs.summarise(pairs, [metric])
    assert result["metric"] == "latency_ms"
    assert (result["pairs"], result["wins"]) == (10, 10) and result["claim_met"]


def test_failed_runs_are_listed_by_side():
    def run(exit=0, correct=True):
        return {"exit": exit, "correct": correct, "metrics": {"latency_ms": 2.0}}

    pairs = [
        {"parent": run(), "change": run()},
        {"parent": run(), "change": run(exit=1, correct=False)},
        {"parent": run(correct=False), "change": run()},
        {"parent": run(exit=1), "change": run(correct=False)},
        {"parent": run(), "change": run(correct=False)},
    ]
    assert perf_pairs.failures([801, 802, 803, 804, 805], pairs) == {
        "change_only": [802, 805],
        "parent_only": [803],
        "both": [804],
    }
    assert perf_pairs.failures([1], pairs[:1]) == {
        "change_only": [], "parent_only": [], "both": []
    }


def test_seed_ranges_and_lists():
    assert perf_pairs.parse_seeds("801-810") == list(range(801, 811))
    assert perf_pairs.parse_seeds("5,7-8") == [5, 7, 8]
