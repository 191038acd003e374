"""The two measured workloads, each defined once: ping-pong and mini-NAMD.

The serial benchmarks, the iso-gate, the sharded runs, the serve jobs
and the traced figures all build the Converse ping-pong (Figs. 4-5) and
mini-NAMD (Figs. 3 and 10) here, so the bench-, shard-, iso- and
serve-gates prove bit-identity for one definition.

A builder takes the Environment it runs on and, for a sharded run,
that shard's :class:`~repro.bgq.shardnet.ShardedBGQMachine`.  Every
shard calls the same builder with the same arguments (docs/SCALING.md,
"Determinism"): each mirror constructs the application identically,
registers the same handlers in the same order and seeds only the PEs
it owns.  A builder returns a :class:`DeferredRun`, built and seeded
but not started.

The simulated-time observable sets that BENCH records checksum are
defined here too, so serial and sharded records use one rule.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..converse import ConverseRuntime, RunConfig
from ..converse.messages import ConverseMessage
from ..sim import Environment, Event

__all__ = [
    "DeferredRun",
    "NAMD_ENTRY_METHODS",
    "build_pingpong",
    "build_namd",
    "pingpong_sim_times",
    "namd_sim_times",
    "window_steps",
    "fig10_sim_times",
]

#: Every entry method mini-NAMD (incl. its embedded FFT service) sends;
#: pre-registered in this order so the lazily allocated handler ids
#: agree across shard mirrors (handler ids ride inside payloads).
NAMD_ENTRY_METHODS: Tuple[str, ...] = (
    "start",
    "take_positions",
    "add_force",
    "deposit",
    "pme_slab",
    "begin",
    "recv_block",
    "phase_done",
)


@dataclasses.dataclass
class DeferredRun:
    """One workload built and seeded on its Environment, not yet stepped."""

    env: Environment
    start: Callable[[], None]  # bring up scheduler loops (before stepping)
    stop: Callable[[], None]  # tear down scheduler loops (after done)
    done: Event  # Event whose processing ends the run
    #: Raw simulated-time observables, ``{name: list of values}``.
    observe: Callable[[], Dict[str, Sequence]]
    name: str = ""

    def result(self) -> Dict[str, List[str]]:
        """The observables as exact ``repr`` strings (no side effects)."""
        return {k: [repr(x) for x in v] for k, v in self.observe().items()}

    def checksum(self) -> str:
        """Bit-exact digest of final sim time, event count and results."""
        payload = {
            "now": repr(self.env.now),
            "events": self.env.events_executed,
        }
        payload.update(self.result())
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def run(self) -> float:
        """Start, run until ``done``, stop; returns the host wall seconds."""
        t0 = time.perf_counter()
        self.start()
        self.env.run(until=self.done)
        self.stop()
        return time.perf_counter() - t0


def build_pingpong(
    env: Environment,
    config: RunConfig,
    nbytes: int,
    *,
    src_rank: int = 0,
    dst_rank: Optional[int] = None,
    trips: int = 8,
    machine=None,
) -> DeferredRun:
    """Converse ping-pong: ``trips`` round trips from ``src_rank``.

    ``dst_rank`` defaults to the first PE of node 1.  Observables:
    ``rtts``, the round-trip times in cycles.  On a shard mirror only
    the shard owning ``src_rank`` seeds, and only its ``done`` fires.
    """
    rt = ConverseRuntime(env, config, machine=machine)
    if dst_rank is None:
        dst_rank = config.pes_per_node
    rtts: List[float] = []
    done = env.event()
    state = {"t0": 0.0, "trip": 0}

    def pong(pe, msg):
        # Remote side: bounce straight back.
        yield from pe.send(src_rank, hid_ping, nbytes, None)

    def ping(pe, msg):
        now = env.now
        if state["trip"] > 0:
            rtts.append(now - state["t0"])
        if state["trip"] >= trips:
            done.succeed()
            return
        state["t0"] = now
        state["trip"] += 1
        yield from pe.send(dst_rank, hid_pong, nbytes, None)

    hid_pong = rt.register_handler(pong)
    hid_ping = rt.register_handler(ping)
    src_pe = rt.pes[src_rank]
    if src_pe is not None:
        src_pe.local_q.append(
            ConverseMessage(hid_ping, 0, None, src_rank, src_rank)
        )
    return DeferredRun(env, rt.start, rt.stop, done, lambda: {"rtts": rtts})


def build_namd(
    env: Environment,
    config: RunConfig,
    *,
    use_m2m_pme: bool,
    n_atoms: int,
    n_steps: int,
    seed: int,
    pme_every: int = 1,
    cutoff: Optional[float] = None,
    machine=None,
) -> DeferredRun:
    """Mini-NAMD (Charm layer over Converse) on an ApoA1-density system.

    ``cutoff`` overrides ApoA1's (the gated runs use 7.5 A, the paper's
    fine-grained regime).  Observables: ``steps``, the simulated time
    at each step's end, and ``kinetic``, each step's kinetic energy.
    """
    from ..charm import Charm
    from ..namd.charm_app import NamdCharm
    from ..namd.system import APOA1, build_system

    spec = APOA1 if cutoff is None else dataclasses.replace(APOA1, cutoff=cutoff)
    system = build_system(
        n_atoms, spec_like=spec, temperature=0.003, bond_fraction=0.0, seed=seed
    )
    charm = Charm(config, env=env, machine=machine)
    app = NamdCharm(
        charm, system, n_steps=n_steps, pme_every=pme_every,
        use_m2m_pme=use_m2m_pme, dt=0.004,
    )
    charm.register_entries(NAMD_ENTRY_METHODS)
    for p in range(app.patch_grid.n_patches):
        charm.seed(app.patches, p, "start")

    def observe() -> Dict[str, Sequence]:
        return {
            "steps": [t for t, _ in app.step_log],
            "kinetic": [ke for _, ke in app.step_log],
        }

    return DeferredRun(env, charm.start, charm.runtime.stop, charm.done, observe)


# -- simulated-time observable sets (BENCH record ``sim_times``) -----------
#
# Each takes a run statistics dict (``sim_time`` plus ``rtts`` or
# ``step_times``), as returned by the serial and sharded runners alike.

def pingpong_sim_times(run: dict) -> Dict[str, str]:
    """Ping-pong: final clock and the sum of the round-trip times."""
    return {
        "final": repr(run["sim_time"]),
        "rtt_sum": repr(float(sum(run["rtts"]))),
    }


def namd_sim_times(run: dict) -> Dict[str, str]:
    """Mini-NAMD: final clock and every step boundary."""
    sim_times = {"final": repr(run["sim_time"])}
    for i, t in enumerate(run["step_times"]):
        sim_times[f"step{i}"] = repr(t)
    return sim_times


def window_steps(
    std_total: float,
    std_steps: Sequence[float],
    m2m_steps: Sequence[float],
    window: Optional[float] = None,
) -> Tuple[float, int, int]:
    """Fig. 10: steps each PME variant completes inside a fixed window.

    The window defaults to 3/4 of the standard-PME run.  Returns
    ``(window, steps_std, steps_m2m)``.
    """
    if window is None:
        window = std_total * 0.75
    return (
        window,
        sum(1 for t in std_steps if t <= window),
        sum(1 for t in m2m_steps if t <= window),
    )


def fig10_sim_times(std: dict, m2m: dict) -> Dict[str, str]:
    """Fig. 10: both final clocks and both window step counts."""
    _, steps_std, steps_m2m = window_steps(
        std["sim_time"], std["step_times"], m2m["step_times"]
    )
    return {
        "final_std": repr(std["sim_time"]),
        "final_m2m": repr(m2m["sim_time"]),
        "steps_in_window_std": repr(steps_std),
        "steps_in_window_m2m": repr(steps_m2m),
    }
