#!/usr/bin/env python3
"""Run the benchmark over several seeds and report its run-to-run spread.

    python3 perfbench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10]
                               [--seconds S] [--trace 0|1]

Each run is a separate ``run.py`` process (so peak memory is per run);
seeds are the outer loop, so box load drifts across all workloads
alike.  DIR collects the run records: one result set, the input of
``compare.py``.  For every end-to-end metric the sweep prints the
median, the interquartile range as a share of the median (the spread)
and the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                             if args.trace == 0),
                  flush=True)

    if args.trace == 0:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print("\nworkload         metric               median      spread   bound")
        for w in workloads:
            for name, vals in values[w].items():
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = "" if spread < bounds[name] / 3 else "  (over a third of the bound)"
                print(f"{w:16s} {name:20s} {med:<11.5g} {spread:7.4f}  {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
