#!/usr/bin/env python3
"""Alternating A/B runs of perfbench on two checkouts, with verdicts.

For each seed, runs ``perfbench/run.py --workload W --seed S --trace 0``
once in each checkout, for the ``run_seconds`` that ``BENCHMARK.json``
sets, alternating which side runs first. Prints one JSON line per run,
then one JSON line per end-to-end metric: each side's median and
quartiles, the pairs the change won (ties count for neither side), and
two verdicts:

- ``claim_met``: at least 10 pairs, the change wins at least 9 in 10 of
  them, and its median beats the parent's by more than the parent's
  interquartile range;
- ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``bound``, a fraction of the parent's median.
  ``unresolved`` marks a metric whose parent runs spread wider than that
  bound, unless every change run beats every parent run.

A run fails when it exits non-zero or reports ``correct: false``. It is
printed, and its pair is left out of every verdict. A last JSON line per
workload lists the seeds where only the change failed, only the parent
failed, or both failed: a change that fails where the parent passes is
a regression whatever the metric verdicts say. Both checkouts must hold
the same ``BENCHMARK.json`` and ``perfbench/`` files. Run, for example:

    python3 scripts/perf_pairs.py --parent ../base --change . \\
        --workload screen --seeds 801-810
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``801-810`` or ``5,7,9`` (or a mix) as a list of seeds, in order."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def benchmark_files(root: Path) -> dict[str, bytes]:
    paths = [root / "BENCHMARK.json", *sorted((root / "perfbench").glob("*.py"))]
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its exit status, correctness and metric values."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    run = {
        "exit": done.returncode,
        "correct": result.get("correct") is True,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }
    if done.returncode != 0:
        run["error"] = (done.stderr.strip().splitlines() or [""])[-1]
    return run


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else float("nan")
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else float("nan"), "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``change[i]``
    share a seed. ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base, new = _summary(parent), _summary(change)
    iqr = base["q3"] - base["q1"]
    gain = sign * (new["median"] - base["median"])
    worse = -gain / abs(base["median"]) if base["median"] else 0.0
    every_run_better = bool(change) and all(
        sign * (c - p) > 0 for c in change for p in parent
    )
    spread = iqr / abs(base["median"]) if base["median"] else 0.0
    return {
        "parent": base,
        "change": new,
        "pairs": len(parent),
        "wins": wins,
        "claim_met": len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and gain > iqr,
        "within_bound": worse <= bound,
        "unresolved": spread > bound and not every_run_better,
    }


def failed(run: dict) -> bool:
    return run["exit"] != 0 or not run["correct"]


def failures(seeds: list[int], pairs: list[dict]) -> dict:
    """The seeds of the pairs with a failed run, by which side failed;
    ``pairs[i]`` ran ``seeds[i]``."""
    sides = {"change_only": [], "parent_only": [], "both": []}
    for seed, pair in zip(seeds, pairs):
        change, parent = failed(pair["change"]), failed(pair["parent"])
        if change and parent:
            sides["both"].append(seed)
        elif change or parent:
            sides["change_only" if change else "parent_only"].append(seed)
    return sides


def summarise(pairs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One verdict per declared metric, over the pairs whose two runs both
    exited 0 and passed their checks."""
    counted = [p for p in pairs if not any(failed(r) for r in p.values())]
    return [
        {"metric": m["name"], **verdict(
            [p["parent"]["metrics"][m["name"]] for p in counted],
            [p["change"]["metrics"][m["name"]] for p in counted],
            m["better"],
            m["bound"],
        )}
        for m in end_to_end
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=["train", "frontend", "screen"])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 801-810")
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if benchmark_files(roots["parent"]) != benchmark_files(roots["change"]):
        parser.error("the checkouts differ in BENCHMARK.json or perfbench/")
    declared = json.loads((roots["parent"] / "BENCHMARK.json").read_text())

    pairs: list[dict] = []
    for n, seed in enumerate(args.seeds):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            run = run_once(roots[side], args.workload, seed, declared["run_seconds"])
            print(json.dumps({"workload": args.workload, "seed": seed, "side": side, **run}),
                  flush=True)
            pair[side] = run
        pairs.append(pair)

    for result in summarise(pairs, declared["end_to_end"]):
        print(json.dumps({"workload": args.workload, "runs": 2 * len(pairs), **result}))
    print(json.dumps({"workload": args.workload, "failed": failures(args.seeds, pairs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
