"""Sharded-engine benchmark runs and the equivalence gate.

This module turns the gated single-process benchmarks (pingpong,
fig3_m2m, fig10_window — see :mod:`repro.harness.benchgate`) into
SPMD sharded runs: every shard calls the same workload builder of
:mod:`repro.harness.builders` over a
:class:`~repro.bgq.shardnet.ShardedBGQMachine` that builds only its
own block of nodes, and a :class:`~repro.sim.shard.ShardCoordinator`
advances the shard environments in conservative lockstep windows.

The point of the exercise is **bit-identical simulated time**: a
sharded run must produce exactly the ``sim_times`` observables of the
serial engine — same final clock ``repr``, same per-step boundaries —
for shards ∈ {1, 2, 4}.  :func:`shard_equivalence_gate` checks exactly
that; ``python -m repro.harness.shardbench`` (``make shard-gate``) is
the entry point and docs/SCALING.md the handbook.

SPMD mirror rules (violating any of these diverges the trajectory —
see docs/SCALING.md, "Determinism"):

* build every mirror with the same builder and arguments (same RNG
  seeds, same construction order);
* pre-register every entry method in one fixed order right after
  construction (:meth:`repro.charm.runtime.Charm.register_entries`) —
  handler ids ride inside payloads across shards;
* seed through :meth:`Charm.seed` (it skips remote PEs but still
  allocates handler ids);
* never read another shard's state outside the window barrier.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..bgq.shardnet import ReservationFabric, ShardClient, ShardedBGQMachine
from ..converse import RunConfig
from ..sim.shard import ShardCoordinator, ShardEnvironment, run_sharded_subprocesses
from .builders import (
    DeferredRun,
    build_namd,
    build_pingpong,
    fig10_sim_times,
    namd_sim_times,
    pingpong_sim_times,
)

__all__ = [
    "shard_mirrors",
    "run_sharded_pingpong",
    "run_sharded_namd",
    "sharded_bench_pingpong",
    "sharded_bench_fig3_m2m",
    "sharded_bench_fig10_window",
    "shard_equivalence_gate",
    "SHARD_GATE_SHARD_COUNTS",
    "main",
]

#: Shard counts the equivalence gate compares against the serial engine.
SHARD_GATE_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: ``build(env, machine)`` for one shard mirror of a workload.
MirrorBuilder = Callable[[ShardEnvironment, ShardedBGQMachine], DeferredRun]


def shard_mirrors(
    build: MirrorBuilder, nnodes: int, nshards: int
) -> Tuple[List[DeferredRun], ReservationFabric]:
    """Build every in-process shard mirror, then start them all.

    Shard 0's ``done`` ends the run (rank 0 seeds both workloads and
    hosts the mini-NAMD reduction roots).
    """
    fabric = ReservationFabric(nnodes, nshards)
    runs = []
    for sid in range(nshards):
        env = ShardEnvironment(sid)
        runs.append(
            build(env, ShardedBGQMachine(env, nnodes, sid, nshards, fabric=fabric))
        )
    for run in runs:
        run.start()
    return runs, fabric


def _run_inproc(build: MirrorBuilder, nnodes: int, nshards: int) -> Dict[str, Any]:
    """Run the mirrors under a ShardCoordinator; root-shard statistics."""
    runs, fabric = shard_mirrors(build, nnodes, nshards)
    coordinator = ShardCoordinator([r.env for r in runs], fabric.window, fabric)
    t0 = time.perf_counter()
    coordinator.run(runs[0].done)
    wall_s = time.perf_counter() - t0
    for run in runs:
        run.stop()
    root = runs[0]
    return {
        "sim_time": root.env.now,
        "events": sum(r.env.events_executed for r in runs),
        "wall_s": wall_s,
        "windows": coordinator.windows_run,
        **root.observe(),
    }


def run_sharded_pingpong(
    config: RunConfig,
    nbytes: int,
    nshards: int,
    trips: int = 8,
    src_rank: int = 0,
    dst_rank: Optional[int] = None,
    transport: str = "inproc",
) -> Dict[str, Any]:
    """Sharded ping-pong; returns serial-compatible run statistics.

    ``transport="inproc"`` runs all shards in this process under a
    :class:`ShardCoordinator`; ``"mp"`` forks one OS process per shard
    (eager/MEMFIFO traffic only — which ping-pong is).
    """
    if dst_rank is None:
        dst_rank = (config.nnodes - 1) * config.pes_per_node  # first PE, last node

    def build(env, machine) -> DeferredRun:
        return build_pingpong(
            env, config, nbytes, src_rank=src_rank, dst_rank=dst_rank,
            trips=trips, machine=machine,
        )

    if transport == "inproc":
        run = _run_inproc(build, config.nnodes, nshards)
    elif transport == "mp":
        fabric = ReservationFabric(config.nnodes, nshards)

        def build_client(shard_id: int, nshards_: int) -> ShardClient:
            env = ShardEnvironment(shard_id)
            machine = ShardedBGQMachine(env, config.nnodes, shard_id, nshards_)
            shard = build(env, machine)
            shard.start()

            def result() -> Dict[str, Any]:
                return {
                    "sim_time": env.now,
                    "events": env.events_executed,
                    **shard.observe(),
                }

            return ShardClient(
                env,
                machine,
                done=shard.done if shard_id == 0 else None,
                result_fn=result,
            )

        t0 = time.perf_counter()
        per_shard = run_sharded_subprocesses(
            nshards, fabric.window, build_client, fabric
        )
        wall_s = time.perf_counter() - t0
        run = {
            **per_shard[0],
            "events": sum(r["events"] for r in per_shard.values()),
            "wall_s": wall_s,
        }
    else:
        raise ValueError(f"unknown transport {transport!r}")

    return {
        "sim_time": run["sim_time"],
        "rtts": run["rtts"],
        "events": run["events"],
        "wall_s": run["wall_s"],
        "nshards": nshards,
        "transport": transport,
    }


def run_sharded_namd(
    use_m2m_pme: bool,
    n_steps: int,
    n_atoms: int,
    nnodes: int,
    workers: int,
    comm_threads: int,
    nshards: int,
    seed: int = 17,
) -> Dict[str, Any]:
    """Sharded mini-NAMD run (in-process transport); serial-compatible
    statistics from the root shard (rank 0 hosts both reduction roots).

    Requires the in-process transport: the m2m slot back-channel and
    PME rendezvous flows carry object references across shards.
    """
    config = RunConfig(
        nnodes=nnodes,
        workers_per_process=workers,
        comm_threads_per_process=comm_threads,
    )

    def build(env, machine) -> DeferredRun:
        return build_namd(
            env, config, use_m2m_pme=use_m2m_pme, n_atoms=n_atoms,
            n_steps=n_steps, seed=seed, cutoff=7.5, machine=machine,
        )

    run = _run_inproc(build, nnodes, nshards)
    return {
        "sim_time": run["sim_time"],
        "step_times": tuple(run["steps"]),
        "events": run["events"],
        "wall_s": run["wall_s"],
        "nshards": nshards,
        "windows": run["windows"],
    }


# ---------------------------------------------------------------------------
# benchmark records (benchgate-compatible sim_times dicts)
# ---------------------------------------------------------------------------

def _sharded_record(
    runs: List[Dict[str, Any]], sim_times: Dict[str, str], nshards: int
) -> Dict[str, Any]:
    return {
        "wall_s": sum(r["wall_s"] for r in runs),
        "events": sum(r["events"] for r in runs),
        "sim_times": sim_times,
        "nshards": nshards,
    }


def sharded_bench_pingpong(
    nnodes: int, nshards: int, nbytes: int = 512, trips: int = 8,
    transport: str = "inproc",
) -> Dict[str, Any]:
    """Benchgate-style record for a sharded ping-pong across the torus."""
    run = run_sharded_pingpong(
        RunConfig(nnodes=nnodes, workers_per_process=4), nbytes,
        nshards, trips=trips, transport=transport,
    )
    return _sharded_record([run], pingpong_sim_times(run), nshards)


def sharded_bench_fig3_m2m(
    nnodes: int, nshards: int, n_steps: int = 3, n_atoms: int = 1372,
    workers: int = 2, comm_threads: int = 2,
) -> Dict[str, Any]:
    """Benchgate-style record for the sharded Fig. 3 m2m PME run."""
    run = run_sharded_namd(
        True, n_steps, n_atoms, nnodes, workers, comm_threads, nshards
    )
    return _sharded_record([run], namd_sim_times(run), nshards)


def sharded_bench_fig10_window(
    nnodes: int, nshards: int, n_steps: int = 4, n_atoms: int = 1372,
    workers: int = 2, comm_threads: int = 1,
) -> Dict[str, Any]:
    """Benchgate-style record for the sharded Fig. 10 window experiment."""
    std = run_sharded_namd(
        False, n_steps, n_atoms, nnodes, workers, comm_threads, nshards
    )
    m2m = run_sharded_namd(
        True, n_steps, n_atoms, nnodes, workers, comm_threads, nshards
    )
    return _sharded_record([std, m2m], fig10_sim_times(std, m2m), nshards)


# ---------------------------------------------------------------------------
# the equivalence gate
# ---------------------------------------------------------------------------

def shard_equivalence_gate(
    scale: str = "full", shard_counts: Tuple[int, ...] = SHARD_GATE_SHARD_COUNTS
) -> Tuple[List[str], List[str]]:
    """Serial-vs-sharded bit-identity over the three gated benchmarks.

    For each benchmark, runs the serial engine once, then the sharded
    engine at every shard count (shards=1 exercises the full sharded
    machinery — buffered reservations, window barriers — and must
    still match).  Any differing ``repr`` of any simulated-time
    observable is a failure.  Returns ``(failures, notes)``.
    """
    from .benchgate import bench_fig3_m2m, bench_fig10_window
    from .pingpong import pingpong_run

    if scale == "tiny":
        pp = dict(nnodes=4, nbytes=512, trips=4)
        f3 = dict(nnodes=4, n_steps=1, n_atoms=256, workers=1, comm_threads=1)
        f10 = dict(nnodes=4, n_steps=1, n_atoms=256, workers=1, comm_threads=1)
    else:
        pp = dict(nnodes=4, nbytes=512, trips=200)
        f3 = dict(nnodes=4, n_steps=2, n_atoms=512, workers=2, comm_threads=2)
        f10 = dict(nnodes=4, n_steps=2, n_atoms=512, workers=2, comm_threads=1)

    failures: List[str] = []
    notes: List[str] = []

    def check(name: str, serial: Dict[str, str], sharded_fn: Callable[[int], dict]) -> None:
        for nshards in shard_counts:
            rec = sharded_fn(nshards)
            got = rec["sim_times"]
            if got == serial:
                notes.append(
                    f"{name} shards={nshards}: identical "
                    f"({len(serial)} observables, final={serial['final' if 'final' in serial else sorted(serial)[0]]})"
                )
            else:
                drift = [
                    k
                    for k in sorted(set(serial) | set(got))
                    if serial.get(k) != got.get(k)
                ]
                failures.append(
                    f"{name} shards={nshards}: simulated-time drift vs serial "
                    f"— diverging observables: {', '.join(drift)} "
                    f"(e.g. {drift[0]}: serial={serial.get(drift[0])!r} "
                    f"sharded={got.get(drift[0])!r})"
                )

    pp_config = RunConfig(nnodes=pp["nnodes"], workers_per_process=4)
    serial_pp = pingpong_sim_times(
        pingpong_run(
            pp_config, pp["nbytes"],
            dst_rank=(pp["nnodes"] - 1) * pp_config.pes_per_node,
            trips=pp["trips"],
        )
    )
    check(
        "pingpong", serial_pp,
        lambda n: sharded_bench_pingpong(nshards=n, **pp),
    )
    check(
        "fig3_m2m",
        bench_fig3_m2m(**f3)["sim_times"],
        lambda n: sharded_bench_fig3_m2m(nshards=n, **f3),
    )
    check(
        "fig10_window",
        bench_fig10_window(**f10)["sim_times"],
        lambda n: sharded_bench_fig10_window(nshards=n, **f10),
    )
    # The subprocess transport must agree too; one representative
    # config (pingpong is the MEMFIFO-only benchmark it supports).
    try:
        rec = sharded_bench_pingpong(nshards=2, transport="mp", **pp)
    except (ImportError, OSError, PermissionError) as exc:
        notes.append(f"pingpong mp-transport: skipped ({exc})")
    else:
        if rec["sim_times"] == serial_pp:
            notes.append("pingpong mp-transport shards=2: identical")
        else:
            failures.append(
                "pingpong mp-transport shards=2: simulated-time drift vs serial"
            )
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.shardbench",
        description="sharded-vs-serial equivalence gate: every gated "
        "benchmark must produce bit-identical simulated times on the "
        "sharded PDES engine (shards in {1,2,4}) and the serial engine "
        "(see docs/SCALING.md)",
    )
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="benchmark sizes ('tiny' is for self-tests only)",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures, notes = shard_equivalence_gate(scale=args.scale)
    wall = time.perf_counter() - t0
    print(f"shard-gate: serial-vs-sharded equivalence ({wall:.1f}s total)")
    for note in notes:
        print(f"  {note}")
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print("shard-gate: PASS (bit-identical simulated times)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
