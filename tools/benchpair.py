"""Paired benchmark runs of a parent and a change, written to BENCH_<tag>.json.

    python3 tools/benchpair.py --parent REV --change REV --tag TAG \
        --scratch DIR [--workloads joint,pretrain] [--seeds 0,1,2] [--out DIR]

Both revisions are checked out as sibling `git worktree`s under `--scratch`,
so both sides run from the same kind of checkout. For each of the PAIRS
pairs and each workload the script runs `perfbench/run.py --trace 0` once on
each side with the same seed (pair i takes the i-th seed, cycling), the parent
first on even pairs and the change first on odd ones. Run length is
perfbench's own. After every pair it rewrites `<out>/BENCH_<tag>.json`, and it
removes the worktrees when it ends.

Per workload and end-to-end metric of `BENCHMARK.json` (read from the
parent's checkout) the file gives each side's median and quartiles, the pairs
each side won, the metric's bound and whether it held, and whether the change
shows a gain. Every run is listed with the provenance record that perfbench
wrote for it.

A gain needs the change to win at least nine tenths of the pairs run (ties,
and pairs where either run failed, count for neither), to fail no larger share
of operations than the parent, and to have the medians further apart than the
parent's interquartile range. A bound is `exceeded` when the change's median is worse than the
parent's by more than the bound, `unresolved` when the parent's own
interquartile range is wider than the bound and not every change run beats
every parent run, and `held` otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
GAIN_WIN_SHARE = 0.9
RUN_TIMEOUT_S = 600.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolating between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _better(a: float, b: float, lower_is_better: bool) -> bool:
    return a < b if lower_is_better else a > b


def compare(parent: list[float], change: list[float], better: str, bound: float,
            pairs_run: int, change_fails_more: bool) -> dict:
    """Verdict for one metric from the complete pairs: parent[i] and change[i]
    ran as pair i, out of `pairs_run` pairs in all."""
    lower = better == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    change_wins = sum(_better(c, p, lower) for p, c in zip(parent, change))
    parent_wins = sum(_better(p, c, lower) for p, c in zip(parent, change))
    rel = cm / pm - 1.0 if pm else 0.0
    worse = rel if lower else -rel  # > 0 when the change's median is worse
    all_better = all(_better(c, p, lower) for p in parent for c in change)
    if worse > bound:
        verdict = "exceeded"
    elif pm and (p3 - p1) / abs(pm) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "held"
    gain = (
        change_wins >= math.ceil(GAIN_WIN_SHARE * pairs_run)
        and not change_fails_more
        and _better(cm, pm, lower)
        and abs(cm - pm) > p3 - p1
    )
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "values": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "values": change},
        "pairs": len(parent),
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "change_vs_parent": rel,
        "bound": bound,
        "bound_verdict": verdict,
        "gain": gain,
    }


def _correct(run: dict | None) -> bool:
    return bool(run and run["result"] and run["result"]["correct"])


def aggregate(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each end-to-end metric compared over the complete pairs,
    and each side's failed share.

    A run is {"workload", "pair", "side" ("parent" | "change"), "result"}, where
    "result" is perfbench's final JSON line, or None when the run gave none.
    """
    by_key = {(r["workload"], r["pair"], r["side"]): r for r in runs}
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = sorted({r["pair"] for r in runs if r["workload"] == workload})
        sides = {side: [by_key.get((workload, i, side)) for i in pairs] for side in ("parent", "change")}
        failed = {}
        for side, side_runs in sides.items():
            # a run that gave no result counts as one failed operation
            results = [r["result"] or {"attempted": 1, "failed": 1} for r in side_runs if r]
            attempted = sum(res["attempted"] for res in results)
            bad = sum(res["failed"] for res in results)
            failed[side] = {"failed": bad, "attempted": attempted, "share": bad / attempted if attempted else 0.0}
        complete = [(p, c) for p, c in zip(sides["parent"], sides["change"]) if _correct(p) and _correct(c)]
        change_fails_more = failed["change"]["share"] > failed["parent"]["share"]
        metrics = {}
        for m in end_to_end:
            name = m["name"]
            parent = [p["result"]["metrics"][name]["value"] for p, _ in complete]
            change = [c["result"]["metrics"][name]["value"] for _, c in complete]
            if parent:
                verdict = compare(parent, change, m["better"], m["bound"], len(pairs), change_fails_more)
                metrics[name] = {"unit": m["unit"], "better": m["better"], **verdict}
        out[workload] = {"complete_pairs": len(complete), "failed": failed, "metrics": metrics}
    return out


# ---------------------------------------------------------------------------
# running


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout.strip()


def commits(repo: Path, parent: str, change: str) -> dict[str, str]:
    """{"parent": sha, "change": sha} of the two revisions."""
    return {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in
            (("parent", parent), ("change", change))}


@contextlib.contextmanager
def worktrees(repo: Path, scratch: Path, revs: dict[str, str]):
    """Each side's commit as a detached `git worktree` at scratch/<side>;
    yields {side: checkout} and removes the worktrees on exit."""
    checkouts = {side: scratch / side for side in revs}
    try:
        for side, rev in revs.items():
            git(repo, "worktree", "add", "--detach", "--force", str(checkouts[side]), rev)
        yield checkouts
    finally:
        for path in checkouts.values():
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(path)], capture_output=True)


def run_perfbench(checkout: Path, workload: str, seed: int) -> tuple[dict | None, dict | None, str]:
    """One `perfbench/run.py --trace 0` run: (final JSON, provenance record, error)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    # an earlier run with this seed left its record here; a run that dies must not inherit it
    record_path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    record_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {RUN_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, None, f"exit {proc.returncode}: {(proc.stdout + proc.stderr)[-400:]}"
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    return result, record, "" if proc.returncode == 0 else f"exit {proc.returncode}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    p.add_argument("--scratch", required=True, type=Path, help="directory for the two worktrees")
    p.add_argument("--workloads", default="joint", help="comma-separated perfbench workloads")
    p.add_argument("--seeds", default="0", help="comma-separated seeds; pair i takes seed i mod their count")
    p.add_argument("--out", type=Path, default=Path.cwd(), help="directory of BENCH_<tag>.json")
    args = p.parse_args(argv)

    repo = Path(__file__).resolve().parents[1]
    revs = commits(repo, args.parent, args.change)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    scratch = args.scratch.resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    out_path = args.out / f"BENCH_{args.tag}.json"
    runs: list[dict] = []
    with worktrees(repo, scratch, revs) as checkouts:
        end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        for pair in range(PAIRS):
            seed = seeds[pair % len(seeds)]
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for position, side in enumerate(order):
                    t0 = time.monotonic()
                    result, record, error = run_perfbench(checkouts[side], workload, seed)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "position": position, "wall_s": time.monotonic() - t0, "error": error,
                                 "result": result, "provenance": record})
                    values = {k: round(m["value"], 3) for k, m in result["metrics"].items()} if result else {}
                    print(f"pair {pair} seed {seed} {workload} {side}: {values or error}", flush=True)
            doc = {
                "tag": args.tag,
                "revisions": revs,
                "workloads": workloads,
                "seeds": seeds,
                "pairs_run": pair + 1,
                "summary": aggregate(runs, end_to_end),
                "runs": runs,
            }
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
