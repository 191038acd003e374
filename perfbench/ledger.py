"""Per-layer ledger for the traced benchmark run.

The ledger wraps the public functions of each layer of the simulator
from the benchmark's own code: nothing under ``src/`` knows it exists.
While installed, every wrapped call opens a span (name, start, end,
parent span).  Generator functions, which the simulator resumes many
times per call (``Core.compute``, ``PamiContext.advance``, every
simulated process), are timed per resume through a proxy generator.
Counts are kept at the same boundaries.  A layer's self time is the
duration of its spans minus the part covered by child spans.

Spans and counts stay in memory; :meth:`Ledger.dump` writes them when
the run ends.  Only the first ``span_cap`` spans are kept in full, so a
long run cannot grow without bound; self times and counts cover every
span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN_CAP = 50_000

#: Per-layer metrics the traced run reports: name -> unit.  Counts are
#: exact model or host work; ``_s`` entries are host seconds; ``_frac``
#: entries are ratios.  README.md maps each to the end-to-end metric
#: and workload it should move.
LAYER_METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.noop_event_frac": "ratio",
    "sim.heap_pop_frac": "ratio",
    "sim.self_s": "s",
    "bgq.core.compute_calls": "count",
    "bgq.core.rate_of_calls": "count",
    "bgq.core.self_s": "s",
    "bgq.torus.route_calls": "count",
    "bgq.torus.route_s": "s",
    "bgq.torus.route_distinct_frac": "ratio",
    "bgq.network.inject_calls": "count",
    "bgq.network.self_s": "s",
    "bgq.mu.packets": "count",
    "bgq.mu.descriptors": "count",
    "bgq.wakeup.arm_calls": "count",
    "pami.send_calls": "count",
    "pami.advance_calls": "count",
    "pami.advance_idle_frac": "ratio",
    "pami.self_s": "s",
    "converse.send_calls": "count",
    "converse.rendezvous_frac": "ratio",
    "converse.self_s": "s",
    "charm.entry_calls": "count",
    "charm.self_s": "s",
    "namd.pair_forces_calls": "count",
    "namd.forces_s": "s",
    "namd.pme_s": "s",
    "fft.transposes": "count",
    "fft.self_s": "s",
    "shard.windows": "count",
    "shard.empty_window_frac": "ratio",
    "shard.run_window_s": "s",
    "shard.fabric_flush_s": "s",
    "shard.fabric_sends": "count",
    "shard.coord_self_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.slices": "count",
    "serve.slice_overhead_frac": "ratio",
    "serve.build_s": "s",
    "serve.cache_hit_frac": "ratio",
    "perfmodel.calls": "count",
    "perfmodel.s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Ledger:
    """Span stack, per-name self/inclusive time and counts."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.routes: set = set()
        #: (span id, name, start, end, parent span id) of the first
        #: ``span_cap`` spans opened.
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.opened = 0
        stack: List[list] = []
        self_s, incl_s, spans = self.self_s, self.incl_s, self.spans

        def enter(name: str) -> None:
            sid = self.opened
            self.opened = sid + 1
            stack.append([name, perf_counter(), 0.0, sid])

        def leave() -> None:
            t = perf_counter()
            name, t0, child, sid = stack.pop()
            d = t - t0
            self_s[name] += d - child
            incl_s[name] += d
            if stack:
                parent = stack[-1]
                parent[2] += d
                pid = parent[3]
            else:
                pid = -1
            if sid < span_cap:
                spans.append((sid, name, t0, t, pid))

        self.enter = enter
        self.leave = leave

    def dump(self, path: str) -> None:
        """Write spans (columnar) plus the aggregate tables as JSON."""
        cols = list(zip(*self.spans)) if self.spans else [[], [], [], [], []]
        data = {
            "span_columns": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [list(c) for c in cols],
            "spans_opened": self.opened,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(data, f)
        os.replace(tmp, path)


def _timed_gen(gen, name: str, enter, leave):
    """Forward ``gen`` resume by resume, each resume one span."""
    value = None
    thrown: Optional[BaseException] = None
    while True:
        enter(name)
        try:
            if thrown is None:
                out = gen.send(value)
            else:
                out = gen.throw(thrown)
        except StopIteration as stop:
            leave()
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        thrown = None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen on next resume
            thrown, value = exc, None


def _layer_of_file(path: str) -> str:
    """Map a source file under ``repro/`` to its layer name."""
    path = path.replace("\\", "/")
    i = path.rfind("/repro/")
    if i < 0:
        return "app"
    parts = path[i + len("/repro/"):-len(".py")].split("/")
    if parts[0] == "bgq" and len(parts) > 1:
        return f"bgq.{parts[1]}"
    if parts[0] == "harness":
        return "app"
    return parts[0]


class Installer:
    """Patches layer entry points to feed a :class:`Ledger`; undoable."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[Any, str] = {}

    # -- patch helpers -----------------------------------------------------
    def _set(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def layer_of(self, code) -> str:
        layer = self._layer_cache.get(code)
        if layer is None:
            layer = self._layer_cache[code] = _layer_of_file(code.co_filename)
        return layer

    def wrap(self, fn: Callable, span: Optional[str], count: Optional[str] = None) -> Callable:
        """A wrapper of ``fn`` that counts calls and times them as ``span``."""
        enter, leave, counts = self.ledger.enter, self.ledger.leave, self.ledger.counts
        if span is None:
            def counted(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                return _timed_gen(fn(*args, **kwargs), span, enter, leave)

            return functools.update_wrapper(gen_wrapper, fn)

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave()
            if type(out) is GeneratorType:
                return _timed_gen(out, span, enter, leave)
            return out

        return functools.update_wrapper(wrapper, fn)

    def patch(self, owner: Any, attr: str, span: Optional[str], count: Optional[str] = None) -> None:
        self._set(owner, attr, self.wrap(owner.__dict__[attr], span, count))

    # -- the layer map -------------------------------------------------------
    def install(self) -> "Installer":
        from repro.bgq.core import Core
        from repro.bgq.mu import InjectionFifo, MessagingUnit
        from repro.bgq.network import TorusNetwork
        from repro.bgq.shardnet import ReservationFabric
        from repro.bgq.torus import Torus
        from repro.bgq.wakeup import WakeupSource
        from repro.charm.chare import Chare
        from repro.converse.machine import ConverseRuntime
        from repro.fft.fft3d import FFT3D
        from repro.namd import charm_app
        from repro.pami.context import PamiContext
        from repro.perfmodel import namdmodel
        from repro.serve.task import EnvTask, ModelTask, ShardedTask
        from repro.sim.engine import Environment
        from repro.sim.shard import ShardCoordinator, ShardEnvironment

        led = self.ledger
        enter, leave, counts = led.enter, led.leave, led.counts

        # sim: the dispatch loop, and every simulated process resume
        # attributed to the layer whose code the process runs.
        self.patch(Environment, "run", "sim")
        self.patch(Environment, "step", "sim")
        run_window = Environment.__dict__["run_window"]

        def run_window_w(env, stop_time, stop_event=None):
            ev0 = env.events_executed
            t0 = perf_counter()
            enter("sim")
            try:
                return run_window(env, stop_time, stop_event)
            finally:
                leave()
                if isinstance(env, ShardEnvironment):
                    counts["shard.run_window_calls"] += 1
                    led.incl_s["shard.run_window"] += perf_counter() - t0
                    if env.events_executed == ev0:
                        counts["shard.empty_windows"] += 1

        self._set(Environment, "run_window", functools.update_wrapper(run_window_w, run_window))
        process = Environment.__dict__["process"]
        layer_of = self.layer_of

        def process_w(env, gen, name=None):
            if name is None:
                name = getattr(gen, "__name__", None)
            code = getattr(gen, "gi_code", None)
            if code is not None:
                gen = _timed_gen(gen, layer_of(code), enter, leave)
            return process(env, gen, name=name)

        self._set(Environment, "process", functools.update_wrapper(process_w, process))

        # bgq hardware model
        self.patch(Core, "compute", "bgq.core", "bgq.core.compute_calls")
        self.patch(Core, "rate_of", None, "bgq.core.rate_of_calls")
        route = Torus.__dict__["route"]
        routes = led.routes

        def route_w(torus, a, b, dim_order=None):
            counts["bgq.torus.route_calls"] += 1
            routes.add((torus.shape, a, b))
            enter("bgq.torus")
            try:
                return route(torus, a, b, dim_order)
            finally:
                leave()

        self._set(Torus, "route", functools.update_wrapper(route_w, route))
        self.patch(TorusNetwork, "inject", "bgq.network", "bgq.network.inject_calls")
        self.patch(MessagingUnit, "receive_packet", "bgq.mu", "bgq.mu.packets")
        self.patch(InjectionFifo, "post", None, "bgq.mu.descriptors")
        self.patch(WakeupSource, "arm", None, "bgq.wakeup.arm_calls")

        # pami
        self.patch(PamiContext, "send", "pami", "pami.send_calls")
        self.patch(PamiContext, "send_immediate", "pami", "pami.send_calls")
        advance = self.wrap(PamiContext.__dict__["advance"], "pami", "pami.advance_calls")

        def advance_w(ctx, thread):
            if not ctx.has_pending():
                counts["pami.advance_idle"] += 1
            return advance(ctx, thread)

        self._set(PamiContext, "advance", functools.update_wrapper(advance_w, advance))

        # converse: sends, and every registered handler.  Charm entry
        # methods are Converse handlers made by the Charm runtime.
        send = self.wrap(ConverseRuntime.__dict__["send"], "converse", "converse.send_calls")

        def send_w(rt, src_pe, dst_rank, handler_id, nbytes, *args, **kwargs):
            if nbytes > rt.params.rendezvous_threshold:
                counts["converse.rendezvous_sends"] += 1
            return send(rt, src_pe, dst_rank, handler_id, nbytes, *args, **kwargs)

        self._set(ConverseRuntime, "send", functools.update_wrapper(send_w, send))
        register = ConverseRuntime.__dict__["register_handler"]
        wrap = self.wrap

        def register_w(rt, fn, *args, **kwargs):
            if getattr(fn, "__qualname__", "") == "Charm._make_entry_handler.<locals>.entry":
                fn = wrap(fn, "charm", "charm.entry_calls")
            else:
                code = getattr(getattr(fn, "__func__", fn), "__code__", None)
                fn = wrap(fn, layer_of(code) if code is not None else "app")
            return register(rt, fn, *args, **kwargs)

        self._set(ConverseRuntime, "register_handler", functools.update_wrapper(register_w, register))

        # namd / fft application: chare methods and numeric kernels
        for cls in _subclasses(Chare):
            layer = _layer_of_file(inspect.getsourcefile(cls) or "")
            if layer not in ("namd", "fft"):
                continue
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    self.patch(cls, attr, layer)
        self.patch(charm_app, "pair_forces", "namd.forces", "namd.pair_forces_calls")
        self.patch(charm_app, "bonded_forces", "namd.forces")
        self.patch(charm_app, "spread_charges", "namd.pme")
        self.patch(charm_app, "interpolate_forces", "namd.pme")
        self.patch(charm_app, "greens_function", "namd.pme")
        self.patch(FFT3D, "do_transpose", "fft", "fft.transposes")

        # shard: coordinator loop and the reservation fabric barrier
        self.patch(ShardCoordinator, "run", "shard.coord")
        flush = self.wrap(ReservationFabric.__dict__["flush"], "shard.fabric", "shard.windows")

        def flush_w(fabric):
            n = flush(fabric)
            counts["shard.fabric_sends"] += n
            return n

        self._set(ReservationFabric, "flush", functools.update_wrapper(flush_w, flush))

        # serve slices and perfmodel evaluations
        for task_cls in (EnvTask, ShardedTask, ModelTask):
            self.patch(task_cls, "advance", "serve.advance", "serve.slices")
        self.patch(namdmodel, "namd_step_time", "perfmodel", "perfmodel.calls")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Installer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def layer_metrics(led: Ledger, profile: Any, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``profile`` is the exact-mode (stride 1) :class:`repro.obs.Profile`
    of every Environment the operation built; ``wall_s`` the traced
    operation's wall time.  Serve-only entries are filled in by the
    serve workload.
    """
    c, s, inc = led.counts, led.self_s, led.incl_s
    events = profile.total_count
    noop = sum(n["count"] for n in profile.nodes if n["owner"] == "(no-callback)")
    heap = sum(n["heap_pops"] for n in profile.nodes)

    def frac(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "sim.events": events,
        "sim.noop_event_frac": frac(noop, events),
        "sim.heap_pop_frac": frac(heap, events),
        "sim.self_s": s["sim"],
        "bgq.core.compute_calls": c["bgq.core.compute_calls"],
        "bgq.core.rate_of_calls": c["bgq.core.rate_of_calls"],
        "bgq.core.self_s": s["bgq.core"],
        "bgq.torus.route_calls": c["bgq.torus.route_calls"],
        "bgq.torus.route_s": inc["bgq.torus"],
        "bgq.torus.route_distinct_frac": frac(len(led.routes), c["bgq.torus.route_calls"]),
        "bgq.network.inject_calls": c["bgq.network.inject_calls"],
        "bgq.network.self_s": s["bgq.network"],
        "bgq.mu.packets": c["bgq.mu.packets"],
        "bgq.mu.descriptors": c["bgq.mu.descriptors"],
        "bgq.wakeup.arm_calls": c["bgq.wakeup.arm_calls"],
        "pami.send_calls": c["pami.send_calls"],
        "pami.advance_calls": c["pami.advance_calls"],
        "pami.advance_idle_frac": frac(c["pami.advance_idle"], c["pami.advance_calls"]),
        "pami.self_s": s["pami"],
        "converse.send_calls": c["converse.send_calls"],
        "converse.rendezvous_frac": frac(c["converse.rendezvous_sends"], c["converse.send_calls"]),
        "converse.self_s": s["converse"],
        "charm.entry_calls": c["charm.entry_calls"],
        "charm.self_s": s["charm"],
        "namd.pair_forces_calls": c["namd.pair_forces_calls"],
        "namd.forces_s": inc["namd.forces"],
        "namd.pme_s": inc["namd.pme"],
        "fft.transposes": c["fft.transposes"],
        "fft.self_s": s["fft"],
        "shard.windows": c["shard.windows"],
        "shard.empty_window_frac": frac(c["shard.empty_windows"], c["shard.run_window_calls"]),
        "shard.run_window_s": inc["shard.run_window"],
        "shard.fabric_flush_s": inc["shard.fabric"],
        "shard.fabric_sends": c["shard.fabric_sends"],
        "shard.coord_self_s": s["shard.coord"],
        "serve.queue_wait_p50_s": 0.0,
        "serve.slices": c["serve.slices"],
        "serve.slice_overhead_frac": 0.0,
        "serve.build_s": inc["serve.build"],
        "serve.cache_hit_frac": 0.0,
        "perfmodel.calls": c["perfmodel.calls"],
        "perfmodel.s": inc["perfmodel"],
        "trace.coverage": frac(sum(s.values()), wall_s),
    }
    return m
