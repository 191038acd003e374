"""Determinism fuzz suite for the engine fast path.

Two properties, checked over randomized producer/consumer workloads:

1. **Run-to-run determinism** — the same seed produces bit-identical
   trajectories (event counts, final simulated time, queue and L2
   statistics) across repeated runs.

2. **Engine == all-heap reference** — the same workload on the
   reference engine of :func:`all_heap_reference` (every event through
   one heap, no zero-delay deque, see ``repro.sim.engine``) yields a
   bit-identical trajectory.  This is the engine's core invariant: the
   deque must be cycle-for-cycle neutral, not merely "statistically
   equivalent".

All random choices are drawn *before* the simulation starts, so the
workload itself cannot leak host iteration order into the trajectory.
"""

import heapq
import random
from contextlib import contextmanager

import pytest

from repro.bgq import BGQMachine
from repro.converse import RunConfig
from repro.harness.pingpong import pingpong_run
from repro.obs import ProfileSession
from repro.queues import L2AtomicQueue, MutexQueue
from repro.sim import Environment

SEEDS = [7, 23, 1234]


class _HeapOnly:
    """Zero-delay store that schedules onto the heap instead.

    It always reads as empty, so the engine pops every event from the
    heap by ``(time, seq)``: the classic single-heap order.
    """

    __slots__ = ("queue",)

    def __init__(self, queue):
        self.queue = queue

    def append(self, entry):
        heapq.heappush(self.queue, entry)

    def __bool__(self):
        return False


@contextmanager
def all_heap_reference():
    """Every Environment built inside the block is the all-heap reference."""
    init = Environment.__init__

    def init_all_heap(env, *args, **kwargs):
        init(env, *args, **kwargs)
        # Swapping the engine's stores is the point of the reference.
        env._imm = _HeapOnly(env._queue)  # repro-lint: disable=P3

    Environment.__init__ = init_all_heap
    try:
        yield
    finally:
        Environment.__init__ = init


def _fuzz_workload(seed: int) -> dict:
    """Randomized queues + SMT compute + wakeup workload; returns a
    trajectory fingerprint (exact reprs, no tolerances)."""
    rng = random.Random(seed)
    # Pre-draw every random choice (see module docstring).
    qsize = rng.choice([1, 2, 4, 16])
    n_producers = rng.randint(2, 5)
    plans = [
        [(rng.randint(0, 4000), rng.randint(0, 1)) for _ in range(rng.randint(3, 12))]
        for _ in range(n_producers)
    ]
    compute_plans = [
        (rng.randint(1, 6), rng.uniform(100, 5000), rng.choice([1.0, 1.0, 0.25]))
        for _ in range(rng.randint(1, 4))
    ]
    total = sum(len(p) for p in plans)

    env = Environment()
    machine = BGQMachine(env, 1)
    node = machine.node(0)
    l2q = L2AtomicQueue(env, node.l2, size=qsize)
    mq = MutexQueue(env)
    received = []

    def producer(pid, plan):
        thread = node.thread(8 + pid)
        for i, (delay, which) in enumerate(plan):
            yield env.timeout(delay)
            q = l2q if which == 0 else mq
            yield from q.enqueue(thread, (pid, i))

    def consumer():
        thread = node.thread(0)
        while len(received) < total:
            item = yield from l2q.dequeue(thread)
            if item is None:
                item = yield from mq.dequeue(thread)
            if item is not None:
                received.append(item)
                continue
            # Sleep on the queues' wakeup sources (arm/disarm path).
            armed = [(s, s.arm(latency=60.0)) for s in (l2q.wakeup, mq.wakeup)]
            yield env.any_of([ev for _, ev in armed])
            for s, ev in armed:
                s.disarm(ev)

    def computer(cid, reps, instr, weight):
        thread = node.thread(1 + cid)
        for _ in range(reps):
            yield from thread.compute(instr, weight)
            yield env.timeout(17 * (cid + 1))

    for pid, plan in enumerate(plans):
        env.process(producer(pid, plan))
    env.process(consumer())
    for cid, (reps, instr, weight) in enumerate(compute_plans):
        env.process(computer(cid, reps, instr, weight))
    env.run()

    return {
        "now": repr(env.now),
        "events": env.events_executed,
        "received": received,
        "l2q": (l2q.enqueues, l2q.dequeues, l2q.overflow_enqueues),
        "mq": (mq.enqueues, mq.dequeues),
        "l2_ops": node.l2.op_count,
        "wakeups": (l2q.wakeup.signals, l2q.wakeup.wakeups, mq.wakeup.signals),
        "instructions": repr(sum(t.instructions for t in node.threads)),
    }


def _pingpong_fingerprint() -> dict:
    run = pingpong_run(
        RunConfig(nnodes=2, workers_per_process=2, comm_threads_per_process=1),
        nbytes=256,
        trips=6,
    )
    return {"sim_time": repr(run["sim_time"]), "events": run["events"]}


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_workload_run_twice_identical(seed):
    assert _fuzz_workload(seed) == _fuzz_workload(seed)


def test_all_heap_reference_pops_only_from_the_heap():
    with all_heap_reference(), ProfileSession("ref", stride=1) as session:
        env = Environment()
        env.event().succeed()
        env.timeout(0)
        env.run()
    nodes = session.profile().nodes
    assert sum(n["heap_pops"] for n in nodes) == env.events_executed == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_workload_fastpath_matches_slowpath(seed):
    fast = _fuzz_workload(seed)
    with all_heap_reference():
        slow = _fuzz_workload(seed)
    assert fast == slow


def test_pingpong_fastpath_matches_slowpath():
    """Full-stack coverage: Converse runtime + PAMI + MU + torus."""
    fast = _pingpong_fingerprint()
    with all_heap_reference():
        slow = _pingpong_fingerprint()
    assert fast == slow


def _same_time_order() -> list:
    """Dispatch order when timeouts land together with the zero-delay
    events they trigger: a heap entry scheduled earlier at the same
    timestamp pops before a later deque entry."""
    env = Environment()
    order = []

    def sleeper(k):
        yield env.timeout(5)
        order.append(f"timeout{k}")
        yield env.event().succeed()
        order.append(f"wake{k}")

    for k in range(3):
        env.process(sleeper(k))
    env.run()
    return order


def test_same_time_heap_entries_order_like_the_reference():
    fast = _same_time_order()
    with all_heap_reference():
        slow = _same_time_order()
    assert fast == slow
    assert fast[:3] == ["timeout0", "timeout1", "timeout2"]
