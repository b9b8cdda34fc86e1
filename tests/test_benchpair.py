"""The aggregation of tools/benchpair.py on canned perfbench results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

PARENT = {
    "throughput": [90, 85, 80, 91, 88, 86, 84, 89, 87, 83],
    "setup_s": [4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0],
    "peak_rss_mb": [392, 394, 391, 396, 393, 392, 395, 394, 393, 392],
}
CHANGE = {
    "throughput": [60, 62, 61, 59, 63, 60, 61, 62, 60, 61],
    "setup_s": [6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0],
    "peak_rss_mb": [312, 310, 315, 311, 313, 312, 314, 310, 311, 312],
}


def _run(pair, side, values, attempted=64, failed=0):
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v[pair]), "unit": "-"} for k, v in values.items()},
    }
    return {"workload": "joint", "pair": pair, "side": side, "result": result}


def _canned():
    return [_run(i, side, values) for i in range(10) for side, values in (("parent", PARENT), ("change", CHANGE))]


def test_quartiles_interpolate_between_samples():
    assert benchpair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert benchpair.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_medians_wins_and_bound_verdicts():
    summary = benchpair.aggregate(_canned(), END_TO_END)["joint"]
    assert summary["complete_pairs"] == 10
    assert summary["failed"]["change"] == {"failed": 0, "attempted": 640, "share": 0.0}
    m = summary["metrics"]

    rss = m["peak_rss_mb"]
    assert (rss["parent"]["median"], rss["change"]["median"]) == (393.0, 312.0)
    assert (rss["parent"]["q1"], rss["parent"]["q3"]) == (392.0, 394.0)
    assert (rss["change_wins"], rss["parent_wins"], rss["pairs"]) == (10, 0, 10)
    assert rss["bound"] == 0.15 and rss["bound_verdict"] == "held" and rss["gain"]

    tp = m["throughput"]
    assert (tp["parent"]["median"], tp["change"]["median"]) == (86.5, 61.0)
    assert (tp["change_wins"], tp["parent_wins"]) == (0, 10)
    assert tp["bound_verdict"] == "exceeded" and not tp["gain"]

    # the parent's own spread (IQR 2 s on a 5 s median) is wider than the 25 % bound
    setup = m["setup_s"]
    assert setup["parent"]["median"] == setup["change"]["median"] == 5.0
    assert (setup["change_wins"], setup["parent_wins"]) == (5, 5)
    assert setup["bound_verdict"] == "unresolved" and not setup["gain"]


def test_gain_needs_nine_of_ten_wins_and_a_gap_wider_than_the_parents_iqr():
    runs = _canned()
    for pair in (0, 1):  # the change loses two pairs on memory: 8 of 10 wins
        change = next(r for r in runs if r["pair"] == pair and r["side"] == "change")
        change["result"]["metrics"]["peak_rss_mb"]["value"] = 400.0
    rss = benchpair.aggregate(runs, END_TO_END)["joint"]["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 8 and not rss["gain"]

    near = {**CHANGE, "peak_rss_mb": [v - 1 for v in PARENT["peak_rss_mb"]]}  # wins all, gap 1 < IQR 2
    runs = [_run(i, side, values) for i in range(10) for side, values in (("parent", PARENT), ("change", near))]
    rss = benchpair.aggregate(runs, END_TO_END)["joint"]["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 10 and not rss["gain"]


def test_failed_and_missing_runs_count_as_failures_and_drop_their_pair():
    runs = _canned()
    broken = next(r for r in runs if r["pair"] == 3 and r["side"] == "change")
    broken["result"] = None
    failing = next(r for r in runs if r["pair"] == 5 and r["side"] == "parent")
    failing["result"]["failed"], failing["result"]["correct"] = 8, False
    summary = benchpair.aggregate(runs, END_TO_END)["joint"]
    assert summary["complete_pairs"] == 8
    assert summary["failed"]["change"] == {"failed": 1, "attempted": 577, "share": pytest.approx(1 / 577)}
    assert summary["failed"]["parent"]["failed"] == 8
    rss = summary["metrics"]["peak_rss_mb"]
    # 8 wins out of 8 complete pairs is 8 of the 10 pairs run: no gain
    assert rss["pairs"] == 8 and rss["change_wins"] == 8 and not rss["gain"]


def test_no_gain_when_the_change_fails_a_larger_share():
    runs = _canned()
    failing = next(r for r in runs if r["pair"] == 9 and r["side"] == "change")
    failing["result"]["failed"], failing["result"]["correct"] = 1, False
    rss = benchpair.aggregate(runs, END_TO_END)["joint"]["metrics"]["peak_rss_mb"]
    # 9 wins of 10 pairs run would be enough, but the change failed an operation the parent did not
    assert rss["change_wins"] == 9 and not rss["gain"]

    parent = next(r for r in runs if r["pair"] == 9 and r["side"] == "parent")
    parent["result"]["failed"], parent["result"]["correct"] = 1, False
    assert benchpair.aggregate(runs, END_TO_END)["joint"]["metrics"]["peak_rss_mb"]["gain"]
