"""Benchmark-regression gate: the repo's persistent hot-path trajectory.

The paper's contribution is shaving fixed per-message overhead off the
runtime's hot path; this module measures *our* hot path — the
discrete-event engine that every figure reproduction runs on — the way
Task Bench-style studies quantify AMT runtime overheads: wall-clock and
engine events/second on a fixed set of workloads, every PR.

Three gated benchmarks (chosen to cover the paths the paper cares
about):

* ``pingpong``     — Converse-level SMP ping-pong (Fig. 4 machinery:
  lockless queues, PAMI eager path, torus links);
* ``fig3_m2m``     — the Fig. 3 many-to-many PME mini-NAMD run (the
  densest message-rate workload in the suite; the events/sec on this
  benchmark is the gate's headline metric);
* ``fig10_window`` — the Fig. 10 std-vs-m2m PME window experiment
  (windowed steps-completed comparison, both PME paths).

Each run records:

* ``wall_s`` / ``events`` / ``events_per_sec`` — host-side engine
  throughput (the regression metric, threshold ±10%);
* ``sim_times`` — exact ``repr`` of every simulated-time observable
  (final clock, per-step boundaries, window step counts), folded into a
  ``checksum`` (sha256).  Engine work must be **cycle-for-cycle
  neutral**: any checksum drift is a hard failure regardless of speed.

Results are written to ``BENCH_NNNN.json`` at the repo root and
compared against the highest-numbered prior ``BENCH_*.json``.  See
EXPERIMENTS.md ("Benchmark gate") for the schema and workflow, and
``make bench-gate`` for the entry point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import re
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..converse import RunConfig
from ..ioutil import atomic_write_json
from ..sim import Environment
from .builders import build_namd, fig10_sim_times, namd_sim_times, pingpong_sim_times

__all__ = [
    "GATE_BENCHMARKS",
    "SHARDED_BENCHMARKS",
    "bench_pingpong",
    "bench_fig3_m2m",
    "bench_fig10_window",
    "bench_pingpong_512n_sharded",
    "bench_fig3_m2m_128n_sharded",
    "bench_serve_load",
    "gate_runners",
    "run_gate",
    "machine_calibration",
    "compare_records",
    "find_bench_files",
    "next_bench_path",
    "load_record",
    "main",
]

#: Benchmarks the gate runs, in order.
GATE_BENCHMARKS: Tuple[str, ...] = ("pingpong", "fig3_m2m", "fig10_window")

#: Large sharded-engine runs recorded at full scale only (the paper's
#: 128-512 node regime, simulated for real on the sharded PDES engine
#: rather than the analytic model — see docs/SCALING.md).
SHARDED_BENCHMARKS: Tuple[str, ...] = (
    "pingpong_512n_sharded",
    "fig3_m2m_128n_sharded",
)

#: Allowed events/sec drop before the gate fails (10% per ISSUE/EXPERIMENTS).
REGRESSION_TOLERANCE = 0.10

_BENCH_RE = re.compile(r"^BENCH_(\d{4})\.json$")


def machine_calibration(reps: int = 3) -> float:
    """Wall seconds for a fixed pure-Python spin workload (best of reps).

    Recorded alongside every gate run so events/sec is comparable
    across machines and across load states of one machine: the same
    commit has measured 23% apart on this repo's dev box depending on
    co-tenant load, which swamps the 10% regression tolerance.  The
    spin loop exercises the same interpreter dispatch the simulator
    spends its time in, so its wall time tracks simulator throughput.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(2_000_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def _checksum(sim_times: Dict[str, str]) -> str:
    """sha256 over the sorted (name, repr) simulated-time observables."""
    blob = "\n".join(f"{k}={v}" for k, v in sorted(sim_times.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def _record(wall_s: float, events: int, sim_times: Dict[str, str], **metrics) -> dict:
    return {
        "wall_s": round(wall_s, 4),
        "events": events,
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
        "sim_times": sim_times,
        "checksum": _checksum(sim_times),
        "metrics": metrics,
    }


# -- benchmark runners -----------------------------------------------------

def bench_pingpong(nbytes: int = 512, trips: int = 1500) -> dict:
    """Converse SMP ping-pong between two nodes (Fig. 4 machinery)."""
    from .pingpong import pingpong_run

    config = RunConfig(nnodes=2, workers_per_process=4)
    run = pingpong_run(config, nbytes, trips=trips)
    return _record(
        run["wall_s"], run["events"], pingpong_sim_times(run),
        oneway_us=round(run["oneway_us"], 4),
    )


def _namd_run(
    use_m2m_pme: bool,
    n_steps: int,
    n_atoms: int,
    nnodes: int,
    workers: int,
    comm_threads: int,
    seed: int = 17,
) -> dict:
    """One untraced serial mini-NAMD run; returns raw engine statistics.

    The workload of :func:`repro.harness.timelines.run_traced_namd`
    (short 7.5 A cutoff — the paper's fine-grained regime) with the
    tracer off, so the gate measures the engine, not the tracer.
    """
    config = RunConfig(
        nnodes=nnodes,
        workers_per_process=workers,
        comm_threads_per_process=comm_threads,
    )
    run = build_namd(
        Environment(), config, use_m2m_pme=use_m2m_pme, n_atoms=n_atoms,
        n_steps=n_steps, seed=seed, cutoff=7.5,
    )
    wall_s = run.run()
    return {
        "wall_s": wall_s,
        "events": run.env.events_executed,
        "sim_time": run.env.now,
        "step_times": tuple(run.observe()["steps"]),
    }


def bench_fig3_m2m(
    n_steps: int = 3, n_atoms: int = 1372, nnodes: int = 4, workers: int = 2,
    comm_threads: int = 2,
) -> dict:
    """The Fig. 3 many-to-many PME run — the gate's headline benchmark."""
    run = _namd_run(True, n_steps, n_atoms, nnodes, workers, comm_threads)
    return _record(run["wall_s"], run["events"], namd_sim_times(run))


def bench_fig10_window(
    n_steps: int = 4, n_atoms: int = 1372, nnodes: int = 2, workers: int = 2,
    comm_threads: int = 1,
) -> dict:
    """Fig. 10: steps completed in a fixed window, std vs m2m PME."""
    std = _namd_run(False, n_steps, n_atoms, nnodes, workers, comm_threads)
    m2m = _namd_run(True, n_steps, n_atoms, nnodes, workers, comm_threads)
    return _record(
        std["wall_s"] + m2m["wall_s"],
        std["events"] + m2m["events"],
        fig10_sim_times(std, m2m),
    )


def bench_pingpong_512n_sharded(trips: int = 50) -> dict:
    """Cross-machine ping-pong over a really-simulated 512-node torus.

    Runs on the sharded conservative-PDES engine (4 shards), corner to
    corner across the 4x4x4x4x2 torus — a node count the repo
    previously only reached through the analytic performance model
    (EXPERIMENTS.md, figure->artifact table).
    """
    from .shardbench import sharded_bench_pingpong

    rec = sharded_bench_pingpong(512, 4, nbytes=512, trips=trips)
    return _record(
        rec["wall_s"], rec["events"], rec["sim_times"], nshards=rec["nshards"],
        nnodes=512,
    )


def bench_fig3_m2m_128n_sharded(n_steps: int = 2) -> dict:
    """The Fig. 3 m2m PME mini-NAMD run on 128 really-simulated nodes.

    Same workload as ``fig3_m2m`` but at the paper's scale regime
    (128 nodes / 512 worker threads), executed by 4 PDES shards.
    """
    from .shardbench import sharded_bench_fig3_m2m

    rec = sharded_bench_fig3_m2m(
        128, 4, n_steps=n_steps, n_atoms=1372, workers=2, comm_threads=2
    )
    return _record(
        rec["wall_s"], rec["events"], rec["sim_times"], nshards=rec["nshards"],
        nnodes=128,
    )


def bench_serve_load() -> dict:
    """The simulation-as-a-service load (``make serve-gate``'s workload).

    ``sim_times`` holds the per-job result checksums — deterministic
    and machine-portable, so the record gates on them like any
    simulated-time observable once a baseline containing this benchmark
    exists.  Jobs/sec and p50/p99 latency are host-load-dependent and
    land in ``metrics`` (reported, never gated).
    """
    from .servebench import bench_serve_load as _serve

    rec = _serve(scale="full")
    return _record(rec["wall_s"], rec["events"], rec["sim_times"], **rec["metrics"])


# -- gate orchestration ----------------------------------------------------

def gate_runners(scale: str = "full") -> Dict[str, "Callable[[], dict]"]:
    """Zero-arg runners for the three :data:`GATE_BENCHMARKS`, by name.

    The single source of truth for what "run ``pingpong`` at ``scale``"
    means: :func:`run_gate` composes these into the regression record,
    and ``repro.harness.obsgate`` replays the *same* runners off/on
    under profiling — so the obs-gate's cycle-neutrality claim is about
    exactly the workloads the BENCH trajectory gates, not lookalikes.
    """
    if scale == "tiny":
        return {
            "pingpong": lambda: bench_pingpong(trips=6),
            "fig3_m2m": lambda: bench_fig3_m2m(
                n_steps=1, n_atoms=256, nnodes=2, workers=1, comm_threads=1
            ),
            "fig10_window": lambda: bench_fig10_window(
                n_steps=1, n_atoms=256, nnodes=1, workers=2, comm_threads=1
            ),
        }
    return {
        "pingpong": bench_pingpong,
        "fig3_m2m": bench_fig3_m2m,
        "fig10_window": bench_fig10_window,
    }


def run_gate(scale: str = "full") -> Dict[str, dict]:
    """Run every gated benchmark; ``scale="tiny"`` for fast self-tests.

    Full scale additionally records the :data:`SHARDED_BENCHMARKS`
    large-node sharded-engine runs (they are recorded and compared like
    any other benchmark once a baseline containing them exists).
    """
    out = {name: run() for name, run in gate_runners(scale).items()}
    if scale != "tiny":
        out["pingpong_512n_sharded"] = bench_pingpong_512n_sharded()
        out["fig3_m2m_128n_sharded"] = bench_fig3_m2m_128n_sharded()
        out["serve_load"] = bench_serve_load()
    return out


def find_bench_files(root: pathlib.Path) -> List[pathlib.Path]:
    """All BENCH_NNNN.json files at ``root``, ordered by number."""
    hits = []
    for p in root.iterdir():
        m = _BENCH_RE.match(p.name)
        if m:
            hits.append((int(m.group(1)), p))
    return [p for _, p in sorted(hits)]


def next_bench_path(root: pathlib.Path) -> pathlib.Path:
    existing = find_bench_files(root)
    n = 1
    if existing:
        n = int(_BENCH_RE.match(existing[-1].name).group(1)) + 1
    return root / f"BENCH_{n:04d}.json"


def load_record(path: pathlib.Path) -> dict:
    with open(path) as f:
        return json.load(f)


def compare_records(
    baseline: dict,
    current: dict,
    tolerance: float = REGRESSION_TOLERANCE,
    checksum_only: bool = False,
) -> Tuple[List[str], List[str]]:
    """Compare two gate records; returns (failures, notes).

    * any simulated-time checksum difference → hard failure;
    * events/sec more than ``tolerance`` below baseline → failure,
      unless ``checksum_only`` (throughput is still reported as a
      note).  Checksums are portable across machines; events/sec is
      not — CI runs on foreign hardware and gates on checksums only,
      while the committed ``BENCH_NNNN.json`` trajectory (recorded on
      the dev box) keeps the throughput gate.

    When both records carry a ``calibration_wall_s`` (see
    :func:`machine_calibration`) the throughput ratio is normalized by
    the machine-speed ratio before gating, so a loaded or slower box
    does not read as a code regression (nor a faster one mask a real
    regression).  A baseline without calibration cannot be
    speed-compared meaningfully; throughput then becomes a note and
    only checksums gate.

    A baseline benchmark missing from ``current`` fails when both
    records ran at the same ``scale`` (the run silently dropped it) and
    is a note otherwise (e.g. a tiny run against a full-scale record).
    """
    failures: List[str] = []
    notes: List[str] = []
    base_b = baseline.get("benchmarks", {})
    cur_b = current.get("benchmarks", {})
    base_calib = baseline.get("calibration_wall_s")
    cur_calib = current.get("calibration_wall_s")
    # Machine-speed correction: >1 means the current box is slower.
    # Both records uncalibrated (legacy vs legacy) → gate on the raw
    # ratio as before; exactly one calibrated → the speeds are not
    # comparable, so throughput demotes to a note.
    speed = None
    throughput_gated = True
    if base_calib and cur_calib:
        speed = cur_calib / base_calib
        notes.append(
            f"machine calibration: {cur_calib:.3f}s vs baseline "
            f"{base_calib:.3f}s ({speed:.2f}x slower)"
            if speed >= 1.0
            else f"machine calibration: {cur_calib:.3f}s vs baseline "
            f"{base_calib:.3f}s ({1 / speed:.2f}x faster)"
        )
    elif bool(base_calib) != bool(cur_calib):
        throughput_gated = False
        if not checksum_only:
            notes.append(
                "calibration present in only one record — events/sec not "
                "comparable, gating on checksums only"
            )
    same_scale = baseline.get("scale") == current.get("scale")
    for name in base_b:
        if name not in cur_b:
            if same_scale:
                failures.append(f"{name}: in the baseline but missing from this run")
            else:
                notes.append(f"{name}: not run at this scale")
    for name in cur_b:
        if name not in base_b:
            notes.append(f"{name}: no baseline entry (new benchmark)")
            continue
        b, c = base_b[name], cur_b[name]
        if b["checksum"] != c["checksum"]:
            drift = [
                k
                for k in sorted(set(b["sim_times"]) | set(c["sim_times"]))
                if b["sim_times"].get(k) != c["sim_times"].get(k)
            ]
            failures.append(
                f"{name}: simulated-time checksum drift (HARD FAIL) — "
                f"engine changes must be cycle-for-cycle neutral; "
                f"diverging observables: {', '.join(drift) or 'checksum only'}"
            )
        base_eps, cur_eps = b["events_per_sec"], c["events_per_sec"]
        if base_eps > 0:
            ratio = cur_eps / base_eps
            if speed is not None:
                gated_ratio = ratio * speed
                notes.append(
                    f"{name}: {cur_eps:,.0f} ev/s vs baseline {base_eps:,.0f} "
                    f"({ratio:.2f}x raw, {gated_ratio:.2f}x machine-adjusted)"
                )
                label = f"{gated_ratio:.2f}x machine-adjusted"
            else:
                gated_ratio = ratio
                notes.append(
                    f"{name}: {cur_eps:,.0f} ev/s vs baseline {base_eps:,.0f} "
                    f"({ratio:.2f}x)"
                )
                label = f"{ratio:.2f}x"
            if (
                throughput_gated
                and gated_ratio < 1.0 - tolerance
                and not checksum_only
            ):
                failures.append(
                    f"{name}: events/sec regression {label} "
                    f"(< {1.0 - tolerance:.2f}x of baseline)"
                )
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.benchgate", description=__doc__
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output JSON (default: next BENCH_NNNN.json at the repo root)",
    )
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(os.environ.get("REPRO_BENCH_ROOT", ".")),
        help="directory holding BENCH_*.json (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="explicit baseline file (default: highest-numbered prior BENCH_*.json)",
    )
    parser.add_argument(
        "--no-compare", action="store_true", help="record only; skip the gate check"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=REGRESSION_TOLERANCE,
        help="allowed fractional events/sec drop before failing "
        f"(default {REGRESSION_TOLERANCE}); checksum drift always fails",
    )
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="benchmark sizes ('tiny' is for self-tests only)",
    )
    parser.add_argument("--label", default="", help="free-form record label")
    parser.add_argument(
        "--checksum-only",
        action="store_true",
        help="gate on simulated-time checksums only (skip the events/sec "
        "comparison — use on machines other than the one that recorded "
        "the baseline, e.g. CI)",
    )
    args = parser.parse_args(argv)

    root = args.root.resolve()
    out = args.out if args.out is not None else next_bench_path(root)
    prior = [p for p in find_bench_files(root) if p.resolve() != out.resolve()]

    t0 = time.perf_counter()
    benchmarks = run_gate(scale=args.scale)
    total_wall = time.perf_counter() - t0
    calibration = machine_calibration()

    record = {
        "schema": 1,
        "id": out.stem,
        "label": args.label,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": args.scale,
        "total_wall_s": round(total_wall, 2),
        "calibration_wall_s": round(calibration, 4),
        "benchmarks": benchmarks,
    }
    # Atomic write: a concurrent gate run (or a killed one) must not
    # leave a truncated BENCH record in the committed trajectory.
    atomic_write_json(out, record, indent=2, sort_keys=True, trailing_newline=True)
    print(f"bench-gate: wrote {out} ({total_wall:.1f}s total)")
    for name in benchmarks:
        b = benchmarks[name]
        print(
            f"  {name:13s} {b['events']:>9,d} events  {b['wall_s']:>7.2f}s  "
            f"{b['events_per_sec']:>10,.0f} ev/s  checksum {b['checksum'][:12]}"
        )

    if args.no_compare:
        return 0
    baseline_path = args.baseline if args.baseline is not None else (
        prior[-1] if prior else None
    )
    if baseline_path is None:
        print("bench-gate: no prior BENCH_*.json — recorded baseline, nothing to gate")
        return 0
    baseline = load_record(baseline_path)
    failures, notes = compare_records(
        baseline,
        record,
        tolerance=args.tolerance,
        checksum_only=args.checksum_only,
    )
    print(f"bench-gate: comparing against {baseline_path.name}")
    for note in notes:
        print(f"  {note}")
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
