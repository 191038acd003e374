"""Concurrent-Environment isolation gate (``make iso-gate``).

The whole-program lint families prove *statically* that no module-level
mutable state can leak between simulator instances (rules G1-G4, see
docs/ANALYSIS.md).  This harness proves it *dynamically*: N independent
:class:`~repro.sim.Environment` instances are built in one process and
stepped in an adversarial round-robin interleaving (varying stride per
instance per turn), and every instance must produce a **bit-identical**
simulated-time checksum to the same workload run solo through the
normal ``run(until=event)`` path.

Why this is a sound oracle: ``Environment.run(until=event)`` is exactly
"``step()`` until the event is processed", so a manual step loop over
instance A interleaved with steps of instances B..N can only diverge
from A's solo run if stepping B..N mutates state A reads — i.e. if some
shared mutable module global exists that the static pass missed.

Only the public Environment surface is used — ``peek()``, ``step()``,
``Event.processed`` — never ``_queue``/``_imm`` (lint rule P3).

Workloads (N=4 tiny, N=6 full): Converse-level ping-pongs in distinct
run modes plus, at full scale, two Charm-level mini-NAMD runs (std and
many-to-many PME), so both runtime layers are exercised concurrently.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..converse import RunConfig
from ..sim import Environment
from .builders import DeferredRun, build_namd, build_pingpong

__all__ = [
    "build_pingpong_instance",
    "build_namd_instance",
    "gate_workloads",
    "run_solo",
    "run_interleaved",
    "isolation_gate",
    "main",
]

#: Per-turn step strides; instance ``i`` advances ``STRIDES[(turn + i) %
#: len(STRIDES)]`` events on its turn, so the interleaving pattern keeps
#: shifting instead of degenerating into a fixed 1:1:...:1 rotation.
STRIDES: Tuple[int, ...] = (1, 2, 3, 5)


def build_pingpong_instance(
    name: str,
    config: RunConfig,
    nbytes: int,
    dst_rank: Optional[int] = None,
    trips: int = 8,
) -> DeferredRun:
    """A deferred ping-pong run (same protocol as ``pingpong_run``)."""
    run = build_pingpong(
        Environment(), config, nbytes, dst_rank=dst_rank, trips=trips
    )
    run.name = name
    return run


def build_namd_instance(
    name: str,
    use_m2m_pme: bool,
    n_atoms: int = 216,
    n_steps: int = 2,
    seed: int = 7,
) -> DeferredRun:
    """A deferred tiny mini-NAMD run (Charm layer over Converse)."""
    run = build_namd(
        Environment(),
        RunConfig(nnodes=2, workers_per_process=2, comm_threads_per_process=1),
        use_m2m_pme=use_m2m_pme, n_atoms=n_atoms, n_steps=n_steps, seed=seed,
    )
    run.name = name
    return run


#: The ping-pong instances: (name, RunConfig keywords, bytes, dst rank).
_PINGPONGS: Tuple[Tuple[str, dict, int, Optional[int]], ...] = (
    ("pingpong/non-SMP/512B",
     dict(nnodes=2, processes_per_node=1, workers_per_process=1), 512, None),
    ("pingpong/SMP/2048B", dict(nnodes=2, workers_per_process=4), 2048, None),
    ("pingpong/SMP+ct/16B",
     dict(nnodes=2, workers_per_process=4, comm_threads_per_process=1), 16, None),
    ("pingpong/intranode-SMP/128B", dict(nnodes=1, workers_per_process=4), 128, 3),
)


def gate_workloads(scale: str = "full") -> List[Tuple[str, Callable[[], DeferredRun]]]:
    """(name, builder) pairs; each call to a builder is a fresh instance."""
    trips = 6 if scale == "tiny" else 8
    workloads: List[Tuple[str, Callable[[], DeferredRun]]] = [
        (name, lambda name=name, cfg=cfg, nbytes=nbytes, dst=dst:
            build_pingpong_instance(
                name, RunConfig(**cfg), nbytes, dst_rank=dst, trips=trips
            ))
        for name, cfg, nbytes, dst in _PINGPONGS
    ]
    if scale == "full":
        workloads += [
            (name, lambda name=name, m2m=m2m: build_namd_instance(name, m2m))
            for name, m2m in (("namd/std-PME", False), ("namd/m2m-PME", True))
        ]
    return workloads


def run_solo(build: Callable[[], DeferredRun]) -> Tuple[str, str]:
    """Run one workload alone via the normal run path; return (name, checksum)."""
    inst = build()
    inst.run()
    return inst.name, inst.checksum()


def run_interleaved(
    builders: Sequence[Callable[[], DeferredRun]],
    strides: Sequence[int] = STRIDES,
) -> Dict[str, str]:
    """Build every workload fresh, step them round-robin, return checksums.

    Each instance stops exactly when its done event is processed — the
    same stopping point as ``env.run(until=done)`` — so a checksum can
    differ from the solo run only through cross-instance interference.
    """
    instances = [build() for build in builders]
    for inst in instances:
        inst.start()
    active = list(range(len(instances)))
    turn = 0
    while active:
        still: List[int] = []
        for i in active:
            inst = instances[i]
            for _ in range(strides[(turn + i) % len(strides)]):
                if inst.done.processed:
                    break
                if inst.env.peek() == float("inf"):
                    raise RuntimeError(
                        f"{inst.name}: event queue drained before the done "
                        "event was processed"
                    )
                inst.env.step()
            if not inst.done.processed:
                still.append(i)
        active = still
        turn += 1
    for inst in instances:
        inst.stop()
    return {inst.name: inst.checksum() for inst in instances}


def isolation_gate(scale: str = "full", verbose: bool = True) -> Dict[str, dict]:
    """Solo pass, then fresh interleaved pass; compare checksums.

    Returns ``{name: {"solo": cs, "interleaved": cs, "ok": bool}}``.
    """
    workloads = gate_workloads(scale)
    solo: Dict[str, str] = {}
    for name, build in workloads:
        _, cs = run_solo(build)
        solo[name] = cs
        if verbose:
            print(f"iso-gate: solo        {name:32s} {cs}")
    inter = run_interleaved([build for _, build in workloads])
    report: Dict[str, dict] = {}
    for name, _ in workloads:
        ok = solo[name] == inter[name]
        report[name] = {
            "solo": solo[name], "interleaved": inter[name], "ok": ok,
        }
        if verbose:
            verdict = "identical" if ok else "DIVERGED"
            print(
                f"iso-gate: interleaved {name:32s} {inter[name]}  {verdict}"
            )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.isogate",
        description="concurrent-Environment isolation gate: N interleaved "
        "instances must checksum bit-identically to solo runs",
    )
    parser.add_argument(
        "--scale", choices=("tiny", "full"), default="full",
        help="tiny = 4 ping-pong instances; full adds 2 mini-NAMD runs",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="write the per-instance checksum report to this file",
    )
    args = parser.parse_args(argv)

    report = isolation_gate(scale=args.scale)
    if args.json_out is not None:
        from ..ioutil import atomic_write_text

        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.json_out, json.dumps(report, indent=2) + "\n")
    bad = sorted(name for name, rec in report.items() if not rec["ok"])
    if bad:
        print(
            f"iso-gate: FAIL — {len(bad)} instance(s) diverged under "
            f"interleaving: {', '.join(bad)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"iso-gate: PASS ({len(report)} concurrent Environments, "
        "interleaved checksums bit-identical to solo)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
