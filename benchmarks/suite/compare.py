#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/suite/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the documents ``run.py --out FILE`` wrote, one per
run.  Runs pair up by workload, trace mode and seed (run at least ten
pairs per workload, alternating which side goes first).  For every
workload and metric the tool prints both sides' medians and quartiles,
the share of pairs the change won (ties count for neither) and, for the
end-to-end metrics, a verdict:

* ``failed``: the change failed more operations (raised, or answered
  differently from the oracle) than the parent on that workload;
* ``improved``: the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's own quartile spread, or every change
  run reads better than every parent run;
* ``unresolved``: fewer than 10 pairs, or the parent's quartile spread
  exceeds the metric's bound in ``BENCHMARK.json``;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: otherwise.

Exits 1 when any metric failed or regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9
FAILING = ("failed", "regressed")


def load_runs(directory: Path) -> dict:
    """(workload, trace) -> {seed: document}."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        runs[(doc["workload"], doc["trace"])][doc["seed"]] = doc
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent: list, change: list, *, better: str, bound: float,
            failed_more: bool) -> str:
    """Verdict for one metric over paired runs (``parent[i]`` vs ``change[i]``)."""
    if failed_more:
        return "failed"
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (p_med - c_med)
    if len(parent) < MIN_PAIRS:
        return "unresolved"
    dominates = (max(change) < min(parent)) if better == "lower" else (
        min(change) > max(parent))
    if dominates or (wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1):
        return "improved"
    if (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    if -gain / abs(p_med) > bound:
        return "regressed"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> tuple[list, bool]:
    """Report lines, and whether any metric failed or regressed."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parents, changes = load_runs(parent_dir), load_runs(change_dir)
    lines, failing = [], False
    for key in sorted(set(parents) & set(changes)):
        seeds = sorted(set(parents[key]) & set(changes[key]))
        workload, trace = key
        p_docs = [parents[key][s] for s in seeds]
        c_docs = [changes[key][s] for s in seeds]
        p_failed = sum(d["result"]["failed"] for d in p_docs)
        c_failed = sum(d["result"]["failed"] for d in c_docs)
        lines.append(f"{workload} trace={trace}: {len(seeds)} pairs, failed "
                     f"ops parent={p_failed} change={c_failed}")
        for name in p_docs[0]["result"]["metrics"]:
            p = [d["result"]["metrics"][name]["value"] for d in p_docs]
            c = [d["result"]["metrics"][name]["value"] for d in c_docs]
            better = directions.get(name, "lower")
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (a - b) > 0 for a, b in zip(p, c)) / len(seeds)
            (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
            text = (f"  {name}: parent {statistics.median(p):.6g} [{p1:.6g}, "
                    f"{p3:.6g}]  change {statistics.median(c):.6g} [{c1:.6g}, "
                    f"{c3:.6g}]  wins {wins:.2f}")
            if name in bounds:
                v = verdict(p, c, better=better, bound=bounds[name]["bound"],
                            failed_more=c_failed > p_failed)
                failing |= v in FAILING
                text += f"  {v}"
            lines.append(text)
    return lines, failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    lines, failing = compare(args.parent, args.change, spec)
    print("\n".join(lines))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
