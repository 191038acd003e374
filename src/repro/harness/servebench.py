"""Serve-gate: synthetic many-client load over the job service.

``make iso-gate`` proves the engine-level property (interleaved
Environments checksum bit-identically to solo runs); this harness
proves the *service-level* consequence end to end: N clients submit
simulation jobs to one :class:`~repro.serve.JobService` process —
mixed workloads, mixed priorities, mixed pacing — and **every job's
result checksum must equal the same workload run solo** through the
normal ``run(until=event)`` path.  On top of the correctness gate it
records the service-shaped load numbers (jobs/sec, p50/p99
submit-to-done latency, calibration-cache hit rate) that
``BENCH_NNNN.json`` archives as the ``serve_load`` benchmark.

Workload mix (full scale, 9 distinct jobs x ``repeats`` copies):

* the six iso-gate workloads (Converse ping-pongs in four run modes +
  two Charm mini-NAMD runs) as :class:`~repro.serve.EnvTask` jobs;
* one sharded conservative-PDES ping-pong as a
  :class:`~repro.serve.ShardedTask` job (windowed advancement
  interleaves with single-Environment jobs on the same pool);
* two analytic perfmodel evaluations as
  :class:`~repro.serve.ModelTask` jobs — the repeated copies exercise
  the calibration cache, whose hit-path checksums must equal the
  miss-path ones.

Interleaving diversity: copies cycle ``slice_events`` through
``(32, 96, 256)`` and priorities through ``(0, 1, 2)``, so the worker
pool keeps reshuffling which job advances when — the served schedule
never degenerates into solo-equivalent back-to-back execution.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..serve import DONE, EnvTask, JobService, JobSpec, ModelTask, ShardedTask
from .builders import DeferredRun
from .isogate import gate_workloads
from .report import format_serve_metrics

__all__ = [
    "SLICE_CYCLE",
    "PRIORITY_CYCLE",
    "serve_workloads",
    "run_task_solo",
    "solo_checksums",
    "run_serve_load",
    "serve_gate",
    "bench_serve_load",
    "main",
]

#: Per-copy pacing values — distinct slice sizes shift which jobs share
#: the loop at any instant, the serve-level analogue of the iso-gate's
#: stride rotation.
SLICE_CYCLE: Tuple[int, ...] = (32, 96, 256)
#: Per-copy priorities: copies land in different priority bands, so the
#: heap reorders execution relative to submission order.
PRIORITY_CYCLE: Tuple[int, ...] = (0, 1, 2)


def _env_task_build(name: str, build_iso: Callable[[], DeferredRun]):
    """JobSpec.build adapter: isogate workload -> EnvTask."""

    def build(spec: JobSpec) -> EnvTask:
        inst = build_iso()
        return EnvTask(
            inst.env,
            inst.done,
            on_start=inst.start,
            on_stop=inst.stop,
            result_fn=inst.result,
            label=name,
        )

    return build


def _sharded_task_build(nnodes: int, nshards: int, nbytes: int, trips: int):
    """JobSpec.build adapter: sharded ping-pong -> ShardedTask.

    Builds the shard mirrors exactly as the shard gate does
    (:func:`repro.harness.shardbench.shard_mirrors`); the task's
    windowed ``advance()`` replays the ShardCoordinator loop one window
    per slice.
    """
    from ..converse import RunConfig
    from .builders import build_pingpong
    from .shardbench import shard_mirrors

    def build(spec: JobSpec) -> ShardedTask:
        config = RunConfig(nnodes=nnodes, workers_per_process=2)
        dst_rank = (nnodes - 1) * config.pes_per_node
        runs, fabric = shard_mirrors(
            lambda env, machine: build_pingpong(
                env, config, nbytes, dst_rank=dst_rank, trips=trips,
                machine=machine,
            ),
            nnodes, nshards,
        )
        return ShardedTask(
            [r.env for r in runs],
            runs[0].done,
            fabric.window,
            fabric,
            on_stop=lambda: [r.stop() for r in runs],
            result_fn=runs[0].result,
            label=spec.name,
        )

    return build


def _model_task_build(nodes: int, service: Optional[JobService] = None):
    """JobSpec.build adapter: perfmodel step-time evaluation -> ModelTask.

    When a service is provided the evaluation goes through its shared
    calibration cache; repeats of the same node count are cache hits.
    """

    def build(spec: JobSpec) -> ModelTask:
        from ..namd.system import APOA1
        from ..perfmodel.namdmodel import NamdRunConfig, namd_step_time

        cache = service.cache if service is not None else None
        return ModelTask(
            namd_step_time,
            APOA1,
            nodes,
            NamdRunConfig(),
            cache=cache,
            label=spec.name,
        )

    return build


def serve_workloads(
    scale: str = "full", service: Optional[JobService] = None
) -> List[Tuple[str, Callable[[JobSpec], Any]]]:
    """(name, JobSpec.build) pairs for the serve load at ``scale``."""
    workloads: List[Tuple[str, Callable[[JobSpec], Any]]] = [
        (name, _env_task_build(name, build_iso))
        for name, build_iso in gate_workloads(scale)
    ]
    if scale == "full":
        workloads.append(
            (
                "sharded/pingpong-4n-2s",
                _sharded_task_build(nnodes=4, nshards=2, nbytes=512, trips=6),
            )
        )
        model_nodes = (256, 512)
    else:
        model_nodes = (256,)
    for nodes in model_nodes:
        workloads.append(
            (f"model/apoa1-{nodes}n", _model_task_build(nodes, service))
        )
    return workloads


def run_task_solo(task: Any) -> str:
    """Run one task to completion alone; return its checksum.

    Single-Environment tasks go through the engine's normal
    ``run(until=done)`` path — the independent oracle — while
    sharded/model tasks drive ``advance()`` back to back (their solo
    schedule), so a served checksum can only differ through
    cross-job interference inside the service.
    """
    task.start()
    if isinstance(task, EnvTask):
        task.env.run(until=task.done)
    else:
        while not task.advance(1 << 30):
            pass
    task.stop()
    return task.checksum()


def solo_checksums(
    workloads: Sequence[Tuple[str, Callable[[JobSpec], Any]]]
) -> Dict[str, str]:
    """Solo-run checksum per workload name (fresh build per run)."""
    out: Dict[str, str] = {}
    for name, build in workloads:
        spec = JobSpec(name=name, build=build)
        out[name] = run_task_solo(build(spec))
    return out


async def _drive_load(
    scale: str,
    workers: int,
    repeats: int,
) -> Tuple[List[Any], float, JobService]:
    """Submit repeats x workloads to a fresh service.

    Returns (jobs, wall seconds, the closed service) — the service
    comes back so callers can read its metrics registry: the latency
    histogram *is* the source of the gate's p50/p99.
    """
    service = JobService(workers=workers)
    # Built against the live service so model jobs share its
    # calibration cache (the solo oracle pass builds uncached).
    bound = serve_workloads(scale, service)
    service.start()
    t0 = time.perf_counter()
    jobs = []
    for copy in range(repeats):
        for i, (name, build) in enumerate(bound):
            k = copy * len(bound) + i
            spec = JobSpec(
                name=name,
                build=build,
                priority=PRIORITY_CYCLE[k % len(PRIORITY_CYCLE)],
                slice_events=SLICE_CYCLE[k % len(SLICE_CYCLE)],
                stream_every=2,
            )
            jobs.append(service.submit(spec))
    await service.join()
    wall_s = time.perf_counter() - t0
    await service.close()
    return jobs, wall_s, service


def run_serve_load(
    scale: str = "full",
    workers: int = 4,
    repeats: int = 2,
    metrics_out: Optional[Path] = None,
    prom_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """The benchmark body: solo oracle pass, then the served load.

    Returns a JSON-friendly report::

        {"njobs", "workers", "wall_s", "jobs_per_sec",
         "latency_p50_s", "latency_p99_s", "cache": {...},
         "events": total engine events across jobs,
         "serve_metrics": live-metrics snapshot (JobService.metrics),
         "jobs": {job_id: {"name", "state", "checksum", "solo",
                           "ok", "latency_s"}}}

    ``latency_p50_s``/``latency_p99_s`` are read from the service's
    ``serve.latency_s`` Histogram, not recomputed from the job list —
    the gate number and the live metric are one code path.
    ``metrics_out``/``prom_out`` additionally write the snapshot as
    JSON / Prometheus text exposition (atomic).
    """
    # The oracle pass builds model tasks uncached (service=None): served
    # cache hits must still match the uncached solo evaluation.
    solo = solo_checksums(serve_workloads(scale))

    jobs, wall_s, service = asyncio.run(
        _drive_load(scale, workers, repeats)
    )
    cache_stats = service.cache.stats()
    latency_hist = service.metrics.get("serve.latency_s")
    serve_metrics = service.metrics_snapshot()
    if metrics_out is not None:
        service.metrics.write_json(metrics_out)
    if prom_out is not None:
        service.metrics.write_prometheus(prom_out)

    report_jobs: Dict[str, Any] = {}
    events = 0
    for job in jobs:
        ok = job.state == DONE and job.checksum == solo[job.spec.name]
        if job.result:
            events += int(job.result.get("events", 0))
        report_jobs[job.id] = {
            "name": job.spec.name,
            "state": job.state,
            "checksum": job.checksum,
            "solo": solo[job.spec.name],
            "ok": ok,
            "latency_s": round(job.latency_s() or 0.0, 4),
            "error": job.error,
        }
    return {
        "scale": scale,
        "njobs": len(jobs),
        "workers": workers,
        "wall_s": round(wall_s, 4),
        "jobs_per_sec": round(len(jobs) / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_p50_s": round(latency_hist.percentile(0.50), 4),
        "latency_p99_s": round(latency_hist.percentile(0.99), 4),
        "cache": cache_stats,
        "events": events,
        "serve_metrics": serve_metrics,
        "jobs": report_jobs,
    }


def serve_gate(
    scale: str = "full",
    workers: int = 4,
    repeats: int = 2,
    verbose: bool = True,
    metrics_out: Optional[Path] = None,
    prom_out: Optional[Path] = None,
) -> Tuple[List[str], Dict[str, Any]]:
    """Run the load and gate it; returns (failures, report)."""
    report = run_serve_load(
        scale=scale,
        workers=workers,
        repeats=repeats,
        metrics_out=metrics_out,
        prom_out=prom_out,
    )
    failures: List[str] = []
    if report["njobs"] < 8:
        failures.append(
            f"load too small: {report['njobs']} jobs (< 8 concurrent jobs)"
        )
    for job_id, rec in sorted(report["jobs"].items()):
        if rec["ok"]:
            if verbose:
                print(
                    f"serve-gate: {job_id:28s} {rec['checksum']}  "
                    f"== solo  ({rec['latency_s']:.3f}s)"
                )
            continue
        if rec["state"] != DONE:
            failures.append(
                f"{job_id}: terminal state {rec['state']!r}"
                + (f" — {rec['error']}" if rec["error"] else "")
            )
        else:
            failures.append(
                f"{job_id}: served checksum {rec['checksum']} != solo "
                f"{rec['solo']} (workload {rec['name']})"
            )
    if verbose:
        cache = report["cache"]
        print(
            f"serve-gate: {report['njobs']} jobs / {report['workers']} workers  "
            f"{report['jobs_per_sec']:.1f} jobs/s  "
            f"p50 {report['latency_p50_s']:.3f}s  "
            f"p99 {report['latency_p99_s']:.3f}s  "
            f"cache {cache['hits']}h/{cache['misses']}m"
        )
        summary = format_serve_metrics(report.get("serve_metrics"))
        if summary:
            print(summary)
    return failures, report


def bench_serve_load(scale: str = "full") -> Dict[str, Any]:
    """BENCH_NNNN entry: the served load as a gated benchmark.

    ``sim_times`` is the per-job checksum map — machine-portable and
    deterministic, so future records gate on it like any simulated-time
    observable; jobs/sec and latency land in ``metrics`` (reported, not
    gated — they are host-load-dependent).
    """
    failures, report = serve_gate(scale=scale, verbose=False)
    if failures:
        raise RuntimeError("serve load diverged: " + "; ".join(failures))
    sim_times = {
        job_id: rec["checksum"] for job_id, rec in sorted(report["jobs"].items())
    }
    return {
        "wall_s": report["wall_s"],
        "events": report["events"],
        "sim_times": sim_times,
        "metrics": {
            "njobs": report["njobs"],
            "workers": report["workers"],
            "jobs_per_sec": report["jobs_per_sec"],
            "latency_p50_s": report["latency_p50_s"],
            "latency_p99_s": report["latency_p99_s"],
            "cache_hits": report["cache"]["hits"],
            "cache_misses": report["cache"]["misses"],
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.servebench",
        description="serve-gate: N concurrent service jobs must checksum "
        "bit-identically to solo runs",
    )
    parser.add_argument(
        "--scale", choices=("tiny", "full"), default="full",
        help="tiny = ping-pongs + one model job; full adds mini-NAMD, "
        "a sharded job and a second model job",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="copies of each workload (copies vary priority and pacing)",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="write the full load report to this file",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="write the live-metrics snapshot (JSON) to this file",
    )
    parser.add_argument(
        "--prom-out", type=Path, default=None,
        help="write the metrics as Prometheus text exposition",
    )
    args = parser.parse_args(argv)

    for path in (args.metrics_out, args.prom_out):
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
    failures, report = serve_gate(
        scale=args.scale,
        workers=args.workers,
        repeats=args.repeats,
        metrics_out=args.metrics_out,
        prom_out=args.prom_out,
    )
    if args.json_out is not None:
        from ..ioutil import atomic_write_text

        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.json_out, json.dumps(report, indent=2) + "\n")
    if failures:
        for failure in failures:
            print(f"serve-gate: FAIL — {failure}", file=sys.stderr)
        return 1
    print(
        f"serve-gate: PASS ({report['njobs']} concurrent jobs, served "
        "checksums bit-identical to solo)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
