#!/usr/bin/env python3
"""Host time-to-solution benchmark of the BG/Q simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR] [--write-reference]

Run from the repository root.  One run measures one workload for
``--seconds`` seconds, checks every operation's simulated-time
checksum, writes a result record under ``--out`` and prints, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(tracing off); with ``--trace 1`` the run alternates untraced and
traced operations and reports the per-layer ledger instead.

Host times are reported in reference seconds.  A speed probe (a fixed
integer spin, timed on a SIGALRM every ``PROBE_INTERVAL_S``) samples
how fast this host runs Python while each operation runs; each
operation's time, less the probes inside it, is scaled by the probe's
mean speed over that operation relative to ``REF_PROBE_S``.  The probe
never touches the simulator, so a code change moves reference seconds
as it moves raw seconds, while the shared host's slow and fast periods
(1.6x apart, switching every few seconds) largely cancel.  The record
keeps raw seconds too.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: End-to-end metrics: name -> unit (BENCHMARK.json lists the bounds).
E2E_METRICS: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
}

#: The speed probe: benchgate's ``machine_calibration`` loop body at
#: ``PROBE_ITERS`` iterations, about 2% of the run's time.  A probe that
#: takes ``REF_PROBE_S`` makes one reference second one raw second.
PROBE_ITERS = 50_000
PROBE_INTERVAL_S = 0.25
REF_PROBE_S = 0.005

#: Jobs per served loop in a traced run (two blocks of the catalog),
#: fixed so the ledger's counts repeat exactly.
SERVE_TRACE_JOBS = 18
#: Fewest jobs in an untraced served loop: ten samples beyond p90.
SERVE_MIN_JOBS = 110

#: Counters that must be non-zero in a traced run of each workload; a
#: zero means a wrapper no longer reaches the layer.
EXPECTED_COUNTS: Dict[str, Tuple[str, ...]] = {
    "pingpong_sweep": (
        "sim.events", "bgq.core.compute_calls", "bgq.network.inject_calls",
        "bgq.mu.packets", "pami.send_calls", "pami.advance_calls",
        "converse.send_calls",
    ),
    "namd_pme": (
        "sim.events", "bgq.core.compute_calls", "bgq.mu.packets",
        "pami.advance_calls", "converse.send_calls", "charm.entry_calls",
        "namd.pair_forces_calls", "fft.transposes",
    ),
    "shard_m2m_128n": (
        "sim.events", "bgq.core.compute_calls", "bgq.torus.route_calls",
        "bgq.mu.packets", "converse.send_calls", "charm.entry_calls",
        "namd.pair_forces_calls", "shard.windows", "shard.fabric_sends",
    ),
    "serve_mix": (
        "sim.events", "bgq.core.compute_calls", "converse.send_calls",
        "charm.entry_calls", "shard.windows", "serve.slices", "perfmodel.calls",
    ),
}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


class SpeedProbe:
    """Periodic spin samples of the host's speed, taken while ops run.

    The samples come from a SIGALRM handler, so they land inside the
    operations at evenly spaced times; the handler runs in the main
    thread between bytecodes and reads or writes no simulator state.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        x = 0
        for i in range(PROBE_ITERS):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        """(scale, net share) for host interval [t0, t1).

        ``scale`` turns raw seconds into reference seconds: the mean
        probe speed inside the interval relative to the reference (the
        whole run's probes when none fell inside).  ``net`` is the share
        of the interval not spent in probes.
        """
        inside = [d for t, d in self.samples if t0 <= t < t1]
        use = inside or [d for _, d in self.samples]
        scale = REF_PROBE_S * statistics.fmean(1.0 / d for d in use)
        return scale, 1.0 - sum(inside) / (t1 - t0)

    def scale_at(self, t0: float, t1: float) -> float:
        """Reference scale for a short interval: the probes within
        ``PROBE_INTERVAL_S`` of it (the host's fast and slow periods last
        seconds, so neighbours speak for it)."""
        near = [d for s, d in self.samples
                if t0 - PROBE_INTERVAL_S <= s <= t1 + PROBE_INTERVAL_S]
        if not near:
            return self.window(t0, t1)[0]
        return REF_PROBE_S * statistics.fmean(1.0 / d for d in near)

    def record(self) -> Dict[str, Any]:
        times = [d for _, d in self.samples]
        return {"probe_iters": PROBE_ITERS, "interval_s": PROBE_INTERVAL_S,
                "ref_probe_s": REF_PROBE_S, "probes": len(times),
                "probe_s_quartiles": list(quartiles(times)) if times else None}


def commit_id() -> Optional[str]:
    """HEAD commit of a git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_id() -> str:
    """sha256 over the simulator's sources: names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_references() -> Dict[str, Any]:
    with open(REFERENCES) as f:
        return json.load(f)


def scale_layers(layers: Dict[str, float], factor: float) -> Dict[str, float]:
    """Per-layer metrics with host seconds (``_s`` units) scaled."""
    from ledger import LAYER_METRICS

    return {k: v * factor if LAYER_METRICS[k] == "s" else v for k, v in layers.items()}


# ---------------------------------------------------------------------------
# solo workloads
# ---------------------------------------------------------------------------

def traced_op(wl, inputs):
    """One operation under the ledger and the exact engine profiler."""
    from repro.obs import ProfileSession

    from ledger import Installer, Ledger, layer_metrics

    led = Ledger()
    with ProfileSession("perfbench", stride=1) as session, Installer(led):
        t0 = perf_counter()
        result = wl.op(inputs)
        total = perf_counter() - t0
    return result, layer_metrics(led, session.profile(), total), led


def run_solo(wl, seed: int, seconds: float, trace: bool, expected: Optional[str],
             probe: SpeedProbe) -> Dict[str, Any]:
    from workloads import checksum

    inputs = wl.inputs(seed)
    plain: List[Tuple[Any, float, float]] = []  # (OpResult, start, end)
    traced: List[Tuple[Any, float, float, Dict[str, float]]] = []
    attempted = failed = 0
    led = None
    t_start = perf_counter()
    while True:
        t_pair = perf_counter()
        for tracing in ((False, True) if trace else (False,)):
            attempted += 1
            gc.collect()  # every op starts from the same heap state
            t0 = perf_counter()
            try:
                if tracing:
                    result, layers, led = traced_op(wl, inputs)
                else:
                    result = wl.op(inputs)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if tracing:
                traced.append((result, t0, perf_counter(), layers))
            else:
                plain.append((result, t0, perf_counter()))
        pair_s = perf_counter() - t_pair
        if perf_counter() - t_start + pair_s > seconds or (failed and not plain):
            break
    t_end = perf_counter()

    # Oracle: the committed reference for this seed, else the first op.
    sums = [checksum(op[0].sim_times) for op in plain + traced]
    run_sum = expected or (sums[0] if sums else None)
    failed += sum(1 for s in sums if s != run_sum)
    out: Dict[str, Any] = {
        "checksum": run_sum,
        "checksums_seen": sorted(set(sums)),
        "attempted": attempted,
        "failed": failed,
        "sim_times": plain[0][0].sim_times if plain else None,
    }
    raw: Dict[str, List[float]] = {k: [] for k in E2E_METRICS}
    ref: Dict[str, List[float]] = {k: [] for k in E2E_METRICS}
    for r, t0, t1 in plain:
        scale, net = probe.window(t0, t1)
        for name, value in (("wall_s", [r.wall_s]), ("job_latency_p50_s", [t1 - t0])):
            raw[name] += value
            ref[name] += [v * net * scale for v in value]
        # Set-up runs first and briefly: the probes around it speak for it.
        raw["setup_s"] += r.setup_s
        at_setup = probe.scale_at(t0, t0 + sum(r.setup_s))
        ref["setup_s"] += [v * at_setup for v in r.setup_s]
    raw["job_latency_p90_s"], ref["job_latency_p90_s"] = raw["job_latency_p50_s"], ref["job_latency_p50_s"]
    if plain:
        scale, net = probe.window(t_start, t_end)
        raw["jobs_per_s"] = [len(plain) / (t_end - t_start)]
        ref["jobs_per_s"] = [len(plain) / ((t_end - t_start) * net * scale)]
    out["raw"], out["ref"] = raw, ref
    if trace:
        walls = ref["wall_s"]
        twalls, layers = [], []
        for r, t0, t1, m in traced:
            scale, net = probe.window(t0, t1)
            twalls.append(r.wall_s * net * scale)
            layers.append(scale_layers(m, net * scale))
        out["layers"] = {k: [m[k] for m in layers] for k in (layers[0] if layers else {})}
        if walls and twalls:
            out["layers"]["trace.overhead"] = [statistics.median(twalls) / statistics.median(walls)]
        out["ledger"] = led
    return out


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------

def traced_loop(wl, seed: int):
    from repro.obs import ProfileSession
    from repro.obs.metrics import percentile

    from ledger import Installer, Ledger, layer_metrics

    led = Ledger()
    inst = Installer(led)
    with ProfileSession("perfbench", stride=1) as session, inst:
        t0 = perf_counter()
        led.enter("serve")
        try:
            loop = wl.loop(
                seed, njobs=SERVE_TRACE_JOBS,
                wrap_build=lambda build: inst.wrap(build, "serve.build"),
            )
        finally:
            led.leave()
        total = perf_counter() - t0
    layers = layer_metrics(led, session.profile(), total)
    layers["serve.queue_wait_p50_s"] = percentile([j.wait_s() for j in loop.jobs], 0.5)
    layers["serve.slice_overhead_frac"] = 1.0 - led.incl_s["serve.advance"] / led.incl_s["serve"]
    layers["serve.cache_hit_frac"] = loop.service.cache.stats()["hit_rate"]
    return loop, layers, led


def service_times(jobs) -> List[float]:
    return [j.finished_s - j.started_s for j in jobs if j.started_s is not None]


def simulating(jobs) -> List[Any]:
    """Jobs that finished and ran simulated events (model jobs run none)."""
    from repro.serve import DONE

    return [j for j in jobs if j.state == DONE and j.result.get("events")]


def run_serve(wl, seed: int, seconds: float, trace: bool, refs: Dict[str, str],
              probe: SpeedProbe) -> Dict[str, Any]:
    from repro.serve import DONE

    from workloads import checksum

    loops: List[Tuple[Any, float, float]] = []
    traced: List[Tuple[Any, float, float, Dict[str, float]]] = []
    setup: List[Tuple[float, float, float]] = []
    led = None
    if trace:
        t_start = perf_counter()
        while True:
            t0 = perf_counter()
            loops.append((wl.loop(seed, njobs=SERVE_TRACE_JOBS), t0, perf_counter()))
            t1 = perf_counter()
            loop, layers, led = traced_loop(wl, seed)
            traced.append((loop, t1, perf_counter(), layers))
            if perf_counter() - t_start + (perf_counter() - t0) > seconds:
                break
    else:
        for _ in range(wl.SETUP_REPS):
            t0 = perf_counter()
            setup.append((wl.setup_sample(), t0, perf_counter()))
        t0 = perf_counter()
        loops.append((wl.loop(seed, seconds=seconds, min_jobs=SERVE_MIN_JOBS), t0, perf_counter()))

    # Oracle: every served job equals its solo run, and every solo run
    # equals the committed reference of its catalog entry.
    solo = wl.solo()
    jobs = [j for lp in loops + traced for j in lp[0].jobs]
    failed = sum(1 for j in jobs if j.state != DONE or j.checksum != solo[j.spec.name])
    solo_bad = sorted(n for n, s in solo.items() if refs and refs.get(n) != s)
    failed += sum(1 for j in jobs if j.spec.name in solo_bad)
    out: Dict[str, Any] = {
        "checksum": checksum(solo),
        "entries": solo,
        "entries_mismatching_reference": solo_bad,
        "attempted": len(jobs),
        "failed": failed,
    }
    if trace:
        def med_service(loop, t0, t1):
            scale, net = probe.window(t0, t1)
            return statistics.median(service_times(simulating(loop.jobs))) * net * scale

        walls = [med_service(*lp) for lp in loops]
        twalls = [med_service(*lp[:3]) for lp in traced]
        layers = [scale_layers(m, math.prod(probe.window(t0, t1))) for _, t0, t1, m in traced]
        out["layers"] = {k: [m[k] for m in layers] for k in layers[0]}
        out["layers"]["trace.overhead"] = [statistics.median(twalls) / statistics.median(walls)]
        out["ledger"] = led
        return out
    loop, t0, t1 = loops[0]
    scale, net = probe.window(t0, t1)
    done = [j for j in loop.jobs if j.state == DONE]
    sims = simulating(done)
    # Job timestamps come from the service clock (time.monotonic).
    offset = perf_counter() - time.monotonic()
    raw = {
        "wall_s": service_times(sims),
        "setup_s": [s for s, _, _ in setup],
        "jobs_per_s": [len(loop.jobs) / loop.elapsed_s],
        "job_latency_p50_s": [j.latency_s() for j in done],
    }
    ref = {
        "wall_s": [(j.finished_s - j.started_s) * net
                   * probe.scale_at(j.started_s + offset, j.finished_s + offset) for j in sims],
        "setup_s": [s * probe.scale_at(a, b) for s, a, b in setup],
        "jobs_per_s": [raw["jobs_per_s"][0] / (net * scale)],
        "job_latency_p50_s": [j.latency_s() * net
                              * probe.scale_at(j.submitted_s + offset, j.finished_s + offset)
                              for j in done],
    }
    raw["job_latency_p90_s"], ref["job_latency_p90_s"] = raw["job_latency_p50_s"], ref["job_latency_p50_s"]
    out["raw"], out["ref"] = raw, ref
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "runs",
                        help="directory for the result record")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's checksum as the reference for its seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.obs.metrics import percentile

    from ledger import LAYER_METRICS
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)
    refs = load_references().get(wl.name, {})

    load_before = os.getloadavg()
    with SpeedProbe() as probe:
        if wl.name == "serve_mix":
            res = run_serve(wl, seed, args.seconds, trace, refs.get("entries", {}), probe)
        else:
            res = run_solo(wl, seed, args.seconds, trace, refs.get(str(seed)), probe)
    load_after = os.getloadavg()

    problems: List[str] = []
    if res["failed"]:
        problems.append(f"{res['failed']} of {res['attempted']} operations failed")
    raw_summary: Dict[str, Any] = {}
    if trace:
        layers = res.pop("layers")
        ledger = res.pop("ledger")
        missing = [k for k in EXPECTED_COUNTS[wl.name] if not layers.get(k) or not min(layers[k])]
        if missing:
            problems.append("layers not reached by the traced run: " + ", ".join(missing))
        summary = {k: summarize(v, LAYER_METRICS[k]) for k, v in sorted(layers.items())}
    else:
        ledger = None
        raw, ref = res.pop("raw"), res.pop("ref")
        raw["peak_rss_mb"] = ref["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ]
        summary = {}
        for name, unit in E2E_METRICS.items():
            if not ref.get(name):
                problems.append(f"no samples of {name}")
                continue
            raw_summary[name] = summarize(raw[name], unit)
            summary[name] = summarize(ref[name], unit)
            # Latency percentiles are nearest-rank over all samples.
            q = {"job_latency_p50_s": 0.5, "job_latency_p90_s": 0.9}.get(name)
            if q is not None:
                raw_summary[name]["median"] = percentile(raw[name], q)
                summary[name]["median"] = percentile(ref[name], q)
    correct = not problems

    if args.write_reference and correct:
        all_refs = load_references()
        if wl.name == "serve_mix":
            all_refs[wl.name] = {"entries": res["entries"]}
        else:
            all_refs.setdefault(wl.name, {})[str(seed)] = res["checksum"]
        with open(REFERENCES, "w") as f:
            json.dump(all_refs, f, indent=2, sort_keys=True)
            f.write("\n")

    record = {
        "schema": 1,
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": args.seconds,
        "commit": commit_id(),
        "tree": tree_id(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "speed_probe": probe.record(),
        "reference_checked": bool(refs.get("entries") if wl.name == "serve_mix" else refs.get(str(seed))),
        "correct": correct,
        "problems": problems,
        "metrics": summary,
        "metrics_raw_seconds": raw_summary,
        **res,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(args.out / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if ledger is not None:
        ledger.dump(str(args.out / f"{stem}.spans.json"))

    probe_q = record["speed_probe"]["probe_s_quartiles"] or [0, 0, 0]
    print(f"perfbench {wl.name} seed={seed} trace={int(trace)} checksum={res['checksum']} "
          f"load {load_before[0]:.2f}->{load_after[0]:.2f} "
          f"probe {probe_q[1] * 1e3:.2f} ms [{probe_q[0] * 1e3:.2f}, {probe_q[2] * 1e3:.2f}]")
    for problem in problems:
        print(f"  FAIL: {problem}")
    for name, s in summary.items():
        print(f"  {name:32s} {s['median']:<14.6g} {s['unit']:6s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": s["median"], "unit": s["unit"]} for k, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
