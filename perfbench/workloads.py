"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs and runs them
through the simulator's public entry points.  The three solo workloads
expose ``op(inputs)``: one operation, returning its set-up samples,
its wall time from first simulated event to completion, and the exact
``repr`` of every simulated-time observable.  ``serve_mix`` drives a
closed client loop against :class:`repro.serve.JobService` instead.
README.md says why each workload was chosen.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import random
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Default seed.  namd_pme at this seed is BENCH_0010's fig10_window run
# (same system seed, same configuration), so its checksum must equal
# that record's.
DEFAULT_SEED = 17


def checksum(sim_times: Dict[str, str]) -> str:
    """sha256 over sorted ``name=repr`` lines (the BENCH record rule)."""
    blob = "\n".join(f"{k}={v}" for k, v in sorted(sim_times.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclasses.dataclass
class OpResult:
    setup_s: List[float]
    wall_s: float
    sim_times: Dict[str, str]


# ---------------------------------------------------------------------------
# pingpong_sweep: Fig. 4 machinery, both sides of the rendezvous threshold
# ---------------------------------------------------------------------------

class PingpongSweep:
    """2-node Converse ping-pong in the three Fig. 4 run modes.

    Four size classes, two eager and two rendezvous (threshold 4096 B).
    The seed picks each (mode, class) size inside a fixed 512-byte
    packet count, so seeds change simulated times but barely change
    host work.  Trips are weighted so each class costs about the same
    host time: neither regime dominates the sweep.
    """

    name = "pingpong_sweep"
    #: (largest size in bytes, trips); sizes are drawn from
    #: (largest - 448, largest], which keeps the packet count fixed.
    SIZE_CLASSES: Tuple[Tuple[int, int], ...] = (
        (512, 160),
        (2048, 80),
        (8192, 48),
        (32768, 20),
    )

    def inputs(self, seed: int) -> List[Tuple[str, int, int]]:
        from repro.harness.pingpong import FIG4_MODES

        rng = random.Random(f"{self.name}:{seed}")
        return [
            (mode, top - rng.randrange(0, 448, 8), trips)
            for mode in FIG4_MODES
            for top, trips in self.SIZE_CLASSES
        ]

    def op(self, plan: List[Tuple[str, int, int]]) -> OpResult:
        from repro.harness.pingpong import FIG4_MODES, pingpong_run

        setup = wall = 0.0
        sim_times: Dict[str, str] = {}
        for mode, nbytes, trips in plan:
            t0 = perf_counter()
            run = pingpong_run(FIG4_MODES[mode], nbytes, trips=trips)
            total = perf_counter() - t0
            wall += run["wall_s"]
            setup += total - run["wall_s"]
            sim_times[f"{mode}/{nbytes}/final"] = repr(run["sim_time"])
            sim_times[f"{mode}/{nbytes}/rtt_sum"] = repr(float(sum(run["rtts"])))
        return OpResult([setup], wall, sim_times)


# ---------------------------------------------------------------------------
# namd_pme: the Fig. 10 std-vs-m2m PME pair (BENCH_0010 fig10_window)
# ---------------------------------------------------------------------------

class NamdPme:
    """Mini-NAMD ApoA1-like system, 7.5 A cutoff, std PME then m2m PME.

    The configuration is BENCH_0010's ``fig10_window``; the seed is the
    molecular system's seed.  One operation is the std/m2m pair.
    """

    name = "namd_pme"
    setup_reps = 9
    N_ATOMS, N_STEPS, NNODES, WORKERS, COMM_THREADS = 1372, 4, 2, 2, 1

    def inputs(self, seed: int) -> int:
        return seed

    def _build(self, seed: int, use_m2m_pme: bool):
        from repro.charm import Charm
        from repro.converse import RunConfig
        from repro.namd.charm_app import NamdCharm
        from repro.namd.system import APOA1, build_system

        spec = dataclasses.replace(APOA1, cutoff=7.5)
        system = build_system(
            self.N_ATOMS, spec_like=spec, temperature=0.003, bond_fraction=0.0,
            seed=seed,
        )
        charm = Charm(
            RunConfig(
                nnodes=self.NNODES,
                workers_per_process=self.WORKERS,
                comm_threads_per_process=self.COMM_THREADS,
            )
        )
        return NamdCharm(
            charm, system, n_steps=self.N_STEPS, pme_every=1,
            use_m2m_pme=use_m2m_pme, dt=0.004,
        )

    def op(self, seed: int) -> OpResult:
        setup: List[float] = []
        for _ in range(self.setup_reps):
            gc.collect()  # each rep starts from the same heap state
            t0 = perf_counter()
            apps = [self._build(seed, False), self._build(seed, True)]
            setup.append(perf_counter() - t0)
        wall = 0.0
        finals, steps = [], []
        for app in apps:
            t0 = perf_counter()
            app.run()
            wall += perf_counter() - t0
            finals.append(app.charm.env.now)
            steps.append([t for t, _ in app.step_log])
        window = finals[0] * 0.75
        sim_times = {
            "final_std": repr(finals[0]),
            "final_m2m": repr(finals[1]),
            "steps_in_window_std": repr(sum(1 for t in steps[0] if t <= window)),
            "steps_in_window_m2m": repr(sum(1 for t in steps[1] if t <= window)),
        }
        return OpResult(setup, wall, sim_times)


# ---------------------------------------------------------------------------
# shard_m2m_128n: Fig. 3 m2m PME on 128 simulated nodes, 4 in-process shards
# ---------------------------------------------------------------------------

class ShardM2m128n:
    """One m2m-PME MD step of the 1372-atom system on 128 BG/Q nodes.

    Runs on the sharded conservative-PDES engine with the in-process
    transport (4 shards, one process).  BENCH_0010's
    ``fig3_m2m_128n_sharded`` runs two steps; one step keeps a run
    inside the benchmark's time budget, so this workload has its own
    references.
    """

    name = "shard_m2m_128n"
    N_STEPS, N_ATOMS, NNODES, WORKERS, COMM_THREADS, NSHARDS = 1, 1372, 128, 2, 2, 4

    def inputs(self, seed: int) -> int:
        return seed

    def op(self, seed: int) -> OpResult:
        from repro.harness.shardbench import run_sharded_namd

        t0 = perf_counter()
        run = run_sharded_namd(
            True, self.N_STEPS, self.N_ATOMS, self.NNODES, self.WORKERS,
            self.COMM_THREADS, self.NSHARDS, seed=seed,
        )
        total = perf_counter() - t0
        sim_times = {"final": repr(run["sim_time"])}
        for i, t in enumerate(run["step_times"]):
            sim_times[f"step{i}"] = repr(t)
        return OpResult([total - run["wall_s"]], run["wall_s"], sim_times)


# ---------------------------------------------------------------------------
# serve_mix: closed loop of clients against one JobService
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ServeLoop:
    jobs: List[Any]
    elapsed_s: float
    service: Any


class ServeMix:
    """4 closed-loop clients, one JobService with 2 workers, one loop.

    The job catalog follows the serve-gate's: Converse ping-pongs in the
    four iso-gate modes, std and m2m mini-NAMD runs, a sharded ping-pong
    and two perfmodel evaluations, whose repeats are calibration-cache
    hits.  Trips and steps are set so every simulation job costs about
    the same host time (0.1-0.2 s); with job costs an order of magnitude
    apart, p50 latency would fall in the gap between job kinds and jump
    between runs.  The seed orders the jobs (each block of nine holds
    every catalog entry once, so the mix does not drift with the seed)
    and picks each job's priority and slice size.
    """

    name = "serve_mix"
    CLIENTS = 4
    WORKERS = 2
    SETUP_REPS = 15
    PRIORITIES = (0, 1, 2)
    SLICES = (32, 96, 256)
    #: (name, RunConfig keywords, bytes, destination rank, trips)
    PINGPONGS = (
        ("pingpong/non-SMP/512B", dict(nnodes=2, processes_per_node=1, workers_per_process=1),
         512, None, 200),
        ("pingpong/SMP/2048B", dict(nnodes=2, workers_per_process=4), 2048, None, 75),
        ("pingpong/SMP+ct/16B", dict(nnodes=2, workers_per_process=4, comm_threads_per_process=1),
         16, None, 115),
        ("pingpong/intranode-SMP/128B", dict(nnodes=1, workers_per_process=4), 128, 3, 400),
    )
    NAMD_ATOMS, NAMD_STEPS = 216, 1

    def inputs(self, seed: int) -> int:
        return seed

    @classmethod
    def catalog(cls, service: Any = None) -> List[Tuple[str, Callable]]:
        """(name, JobSpec.build) pairs; model jobs share ``service``'s cache."""
        from repro.converse import RunConfig
        from repro.harness.isogate import build_namd_instance, build_pingpong_instance
        from repro.harness.servebench import serve_workloads
        from repro.serve import EnvTask

        def env_task(make):
            def build(spec):
                inst = make()
                return EnvTask(inst.env, inst.done, on_start=inst.start,
                               on_stop=inst.stop, result_fn=inst.result, label=spec.name)
            return build

        out = [
            (f"{name}x{trips}", env_task(
                lambda name=name, cfg=cfg, nbytes=nbytes, dst=dst, trips=trips:
                build_pingpong_instance(name, RunConfig(**cfg), nbytes, dst_rank=dst, trips=trips)))
            for name, cfg, nbytes, dst, trips in cls.PINGPONGS
        ]
        out += [
            (name, env_task(lambda name=name, m2m=m2m: build_namd_instance(
                name, m2m, n_atoms=cls.NAMD_ATOMS, n_steps=cls.NAMD_STEPS)))
            for name, m2m in (("namd/std-PME", False), ("namd/m2m-PME", True))
        ]
        out += [(name, build) for name, build in serve_workloads("full", service)
                if name.startswith(("sharded/", "model/"))]
        return out

    def sequence(self, seed: int) -> Iterator[Tuple[int, int, int]]:
        """Endless (catalog index, priority, slice_events) stream."""
        rng = random.Random(f"{self.name}:{seed}")
        n = len(self.catalog())
        while True:
            block = list(range(n))
            rng.shuffle(block)
            for idx in block:
                yield idx, rng.choice(self.PRIORITIES), rng.choice(self.SLICES)

    def setup_sample(self) -> float:
        """Host seconds to build one job body of every catalog entry."""
        from repro.serve import JobSpec

        catalog = self.catalog()
        gc.collect()
        t0 = perf_counter()
        for name, build in catalog:
            build(JobSpec(name=name, build=build))
        return perf_counter() - t0

    def loop(
        self,
        seed: int,
        *,
        seconds: Optional[float] = None,
        min_jobs: int = 0,
        njobs: Optional[int] = None,
        wrap_build: Optional[Callable[[Callable], Callable]] = None,
    ) -> ServeLoop:
        """Run the closed loop for ``seconds`` (and ``min_jobs``), or for
        exactly ``njobs`` jobs; returns every finished job."""
        return asyncio.run(self._loop(seed, seconds, min_jobs, njobs, wrap_build))

    async def _loop(self, seed, seconds, min_jobs, njobs, wrap_build) -> ServeLoop:
        from repro.serve import JobService, JobSpec

        service = JobService(workers=self.WORKERS)
        catalog = self.catalog(service)
        if wrap_build is not None:
            catalog = [(name, wrap_build(build)) for name, build in catalog]
        seq = self.sequence(seed)
        jobs: List[Any] = []
        submitted = 0
        t0 = perf_counter()
        stop_at = t0 + (seconds or 0.0)

        def more() -> bool:
            if njobs is not None:
                return submitted < njobs
            return submitted < min_jobs or perf_counter() < stop_at

        async def client() -> None:
            nonlocal submitted
            while more():
                idx, priority, slice_events = next(seq)
                name, build = catalog[idx]
                submitted += 1
                job = service.submit(
                    JobSpec(name=name, build=build, priority=priority,
                            slice_events=slice_events)
                )
                jobs.append(await job.wait())

        service.start()
        await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        elapsed = perf_counter() - t0
        await service.close()
        return ServeLoop(jobs, elapsed, service)

    def solo(self) -> Dict[str, str]:
        """Checksum of every catalog entry run alone (uncached)."""
        from repro.harness.servebench import solo_checksums

        return solo_checksums(self.catalog())


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (PingpongSweep(), NamdPme(), ShardM2m128n(), ServeMix())
}
