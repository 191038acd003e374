#!/usr/bin/env python3
"""Compare two benchmark result sets.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of run records written by ``run.py``
(``--out``), for example by ``sweep.py``.  For every (end-to-end
metric, workload) pair this prints each side's median and quartiles
and a verdict:

* ``improved``   - the change wins at least 9/10 of the runs paired by
  seed (ties count for neither) and the medians differ by more than
  the parent's interquartile range;
* ``unresolved`` - either side's interquartile range, as a share of its
  median, exceeds the metric's bound in BENCHMARK.json, unless every
  run of the change is better than every run of the parent;
* ``worse``      - the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``  - otherwise.

Traced runs (``--trace 1``) are listed per layer, medians only: layer
metrics have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load_set(path: Path) -> Dict[Tuple[str, int], Dict[int, dict]]:
    """{(workload, trace): {seed: record}} (the latest record per seed)."""
    out: Dict[Tuple[str, int], Dict[int, dict]] = {}
    for f in sorted(path.glob("*.json")):
        if f.name.endswith(".spans.json"):
            continue
        rec = json.loads(f.read_text())
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def verdict(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gap = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gap > p3 - p1:
        return "improved"
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        if all(sign * (b - a) > 0 for a in parent for b in change):
            return "improved"
        return "unresolved"
    if -gap > bound * abs(pm):
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(args.parent), load_set(args.change)
    worse = 0
    for (workload, trace) in sorted(set(a) & set(b)):
        ra, rb = a[(workload, trace)], b[(workload, trace)]
        seeds = sorted(set(ra) & set(rb))
        print(f"== {workload} ({'traced' if trace else 'end to end'}; "
              f"{len(ra)} vs {len(rb)} runs, {len(seeds)} paired by seed)")
        metrics = spec["end_to_end"] if not trace else spec["per_layer"]
        for m in metrics:
            name = m["name"]
            pa = [r["metrics"][name]["median"] for r in ra.values() if name in r["metrics"]]
            pb = [r["metrics"][name]["median"] for r in rb.values() if name in r["metrics"]]
            if not pa or not pb:
                continue
            qa, qb = quartiles(pa), quartiles(pb)
            line = (f"  {name:30s} parent {qa[1]:<11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                    f"change {qb[1]:<11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  {m['unit']}")
            if not trace:
                pairs = [(ra[s]["metrics"][name]["median"], rb[s]["metrics"][name]["median"])
                         for s in seeds]
                v = verdict(pa, pb, pairs, m["better"], m["bound"])
                worse += v == "worse"
                line += f"  {v}"
            print(line)
        for side, runs in (("parent", ra), ("change", rb)):
            bad = [s for s, r in sorted(runs.items()) if not r["correct"]]
            if bad:
                print(f"  {side}: incorrect runs at seeds {bad}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
