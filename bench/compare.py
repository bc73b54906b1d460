#!/usr/bin/env python3
"""Compare two sets of benchmark results: parent against change.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds run records as ``run.py`` appends them (``--out``); traced
records are ignored.  For each workload and each end-to-end metric it prints
each side's median and quartiles, the pairs the change won, and a verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ, in the better direction, by
  more than the parent's interquartile range;
* ``unresolved``: the parent's interquartile range, as a share of its
  median, is wider than the metric's bound, and not every change run reads
  better than every parent run; also when a side has fewer than two runs;
* ``no worse than bound``: the change's median is worse than the parent's
  by at most the bound;
* ``worse``: by more than the bound.

``failed_frac`` is judged apart: any failed check in a change whose parent
had none, or a higher median, is ``worse``.

Runs are paired by workload seed, in file order for repeated seeds; alternate
which side runs first when producing them.  Bounds and directions come from
``BENCHMARK.json``.  Exits 1 when any verdict is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                by_workload[rec["workload"]].append(rec)
    return by_workload


def value(rec: dict, metric: str) -> float:
    if metric == "failed_frac":
        return rec["failed"] / rec["attempted"]
    return rec["metrics"][metric]["value"]


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for rec in change:
        by_seed[rec["seed"]].append(rec)
    pairs = [(p, by_seed[p["seed"]].pop(0)) for p in parent if by_seed[p["seed"]]]
    return pairs or list(zip(parent, change))


def failed_verdict(p: list[float], c: list[float]) -> str:
    """Any failure where the parent had none, or a higher median, is worse."""
    pm, cm = statistics.median(p), statistics.median(c)
    if cm > pm or (max(c) > 0 and max(p) == 0):
        return "worse"
    return "improved" if cm < pm else "no worse than bound"


def verdict(p: list[float], c: list[float], pairs, better: str, bound: float) -> str:
    if len(p) < 2 or len(c) < 2:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4)
    iqr = q3 - q1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > iqr:
        return "improved"
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    spread = iqr / abs(pm) if pm else (0.0 if iqr == 0 else float("inf"))
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = sign * (pm - cm)
    limit = bound * abs(pm)
    return "no worse than bound" if worse_by <= limit else "worse"


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.6g}" if xs else "-"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"{statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "lower", 0.0))
    parent, change = load(args.parent), load(args.change)
    print("workload metric parent_median[q1,q3] change_median[q1,q3] pairs_won verdict")
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        prs = pair(parent[workload], change[workload])
        for name, better, bound in metrics:
            p = [value(r, name) for r in parent[workload]]
            c = [value(r, name) for r in change[workload]]
            sign = 1 if better == "higher" else -1
            vp = [(value(a, name), value(b, name)) for a, b in prs]
            wins = sum(1 for a, b in vp if sign * (b - a) > 0)
            if name == "failed_frac":
                v = failed_verdict(p, c) if p and c else "unresolved"
            else:
                v = verdict(p, c, vp, better, bound)
            any_worse |= v == "worse"
            print(
                f"{workload} {name} {quartiles(p)} {quartiles(c)} "
                f"{wins}/{len(vp)} {v}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
