"""Profiler contract: deterministic, bounded, correctly attributed.

The two load-bearing claims (docs/OBSERVABILITY.md):

1. Profiling never perturbs the simulation — sim times and event
   counts are bit-identical with and without a ProfileSession.
2. The accumulator stays bounded by *code*, not events: per-event
   callable instances degrade to their class, process names aggregate
   across ranks.
"""

import pytest

from repro.analysis.sanitizer import SanitizerError, sanitized
from repro.converse import RunConfig
from repro.harness.pingpong import pingpong_run
from repro.obs import EngineProfiler, Profile, ProfileSession, owner_name
from repro.obs.profiler import _norm
from repro.sim import Environment
from repro.sim import engine as engine_mod


def run_workload(env, n=200):
    """A deterministic mix of zero-delay and timed events."""
    log = []

    def worker(env, k):
        for i in range(n):
            if i % 3 == 0:
                yield env.timeout(0.0)
            else:
                yield env.timeout(0.5 + k)
            log.append((k, env.now))

    for k in range(3):
        env.process(worker(env, k), name=f"pe{k}")
    env.run()
    return env.now, env.events_executed, tuple(log)


def test_profiled_run_is_bit_identical():
    base = run_workload(Environment())
    with ProfileSession("t"):
        prof = run_workload(Environment())
    assert base == prof


@pytest.mark.parametrize("stride", [1, 4, 32])
def test_profiled_run_is_bit_identical_at_any_stride(stride):
    base = run_workload(Environment())
    with ProfileSession("t", stride=stride):
        prof = run_workload(Environment())
    assert base == prof


def test_event_counts_are_exact_despite_sampling():
    """Every event lands in exactly one sampled interval."""
    with ProfileSession("t", stride=7) as sess:
        env = Environment()
        run_workload(env)
    profile = sess.profile()
    assert profile.total_count == env.events_executed
    # Pop-site split also covers every event exactly once.
    pops = sum(n["deque_pops"] + n["heap_pops"] for n in profile.nodes)
    assert pops == env.events_executed


def test_exact_mode_attributes_every_event():
    with ProfileSession("t", stride=1) as sess:
        env = Environment()
        run_workload(env)
    profile = sess.profile()
    assert profile.total_count == env.events_executed
    # In exact mode the timed share is everything but the final flush.
    assert all(n["count"] > 0 for n in profile.nodes)


def test_accumulator_is_bounded_by_code_not_events():
    """10x the events must not mean 10x the keys."""
    with ProfileSession("small", stride=1) as sess_small:
        run_workload(Environment(), n=50)
    with ProfileSession("big", stride=1) as sess_big:
        run_workload(Environment(), n=500)
    small = {k for p in sess_small.profilers for k in p.acc}
    big = {k for p in sess_big.profilers for k in p.acc}
    assert len(big) <= len(small) + 2


def test_owner_names_aggregate_ranks():
    with ProfileSession("t", stride=1) as sess:
        run_workload(Environment())
    profile = sess.profile()
    owners = {n["owner"] for n in profile.nodes}
    # The three pe0/pe1/pe2 processes collapse into one owner.
    assert any("pe*" in o for o in owners)
    assert not any("pe0" in o or "pe1" in o for o in owners)


def test_session_only_covers_environments_constructed_inside():
    outside = Environment()
    with ProfileSession("t") as sess:
        inside = Environment()
    after = Environment()
    assert outside.profiler is None
    assert after.profiler is None
    assert inside.profiler is sess.profilers[0]
    assert engine_mod._PROFILER_FACTORY[0] is None


def test_sessions_restore_previous_hook_when_nested():
    with ProfileSession("outer") as outer:
        with ProfileSession("inner") as inner:
            env = Environment()
        env2 = Environment()
    assert env.profiler in inner.profilers
    assert env2.profiler in outer.profilers
    assert engine_mod._PROFILER_FACTORY[0] is None


def test_session_disarms_after_exception():
    try:
        with ProfileSession("t"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert engine_mod._PROFILER_FACTORY[0] is None


def test_next_gap_is_deterministic_and_jittered():
    a = EngineProfiler(index=0, stride=8)
    b = EngineProfiler(index=0, stride=8)
    gaps_a = [a.next_gap() for _ in range(100)]
    gaps_b = [b.next_gap() for _ in range(100)]
    assert gaps_a == gaps_b
    assert all(1 <= g <= 15 for g in gaps_a)
    assert len(set(gaps_a)) > 3  # jittered, not a fixed stride
    # stride=1 is exact mode: every gap is 1.
    exact = EngineProfiler(index=0, stride=1)
    assert [exact.next_gap() for _ in range(10)] == [1] * 10


def test_sibling_profilers_sample_out_of_lockstep():
    gaps0 = [EngineProfiler(index=0, stride=8).next_gap() for _ in range(1)]
    p0 = EngineProfiler(index=0, stride=8)
    p1 = EngineProfiler(index=1, stride=8)
    assert [p0.next_gap() for _ in range(20)] != [p1.next_gap() for _ in range(20)]
    assert gaps0  # silence unused warning


def test_flush_is_idempotent():
    with ProfileSession("t", stride=1) as sess:
        env = Environment()
        run_workload(env, n=10)
    prof = sess.profilers[0]
    prof.flush()
    count_once = prof.total_count()
    prof.flush()
    assert prof.total_count() == count_once == env.events_executed


def test_norm_collapses_digit_runs():
    assert _norm("pe3") == "pe*"
    assert _norm("mu0-ififo12") == "mu*-ififo*"
    assert _norm("pkt-1->5") == "pkt-*->*"
    assert _norm("plain") == "plain"


def test_owner_name_shapes():
    assert owner_name(None) == "(no-callback)"

    class Waker:
        def __call__(self, ev):
            pass

    assert owner_name(Waker) == "Waker"

    class Proc:
        name = "pe7"

        def resume(self, ev):
            pass

    assert owner_name(Proc().resume) == "Proc.resume:pe*"

    def free_fn(ev):
        pass

    assert "free_fn" in owner_name(free_fn)


def test_profile_roundtrip_and_coverage():
    with ProfileSession("t", stride=1) as sess:
        run_workload(Environment())
    profile = sess.profile()
    data = profile.to_json()
    back = Profile.from_json(data)
    assert back.to_json() == data
    assert 0.0 < profile.coverage(10) <= 1.0
    assert profile.coverage(len(profile.nodes)) == pytest.approx(1.0)
    assert profile.top(3) == profile.nodes[:3]


def test_profile_from_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        Profile.from_json({"schema": 99, "nodes": []})


def test_profile_merge_sums_counts():
    with ProfileSession("a", stride=1) as sa:
        run_workload(Environment(), n=20)
    with ProfileSession("b", stride=1) as sb:
        run_workload(Environment(), n=20)
    pa, pb = sa.profile(), sb.profile()
    merged = Profile.merge("ab", [pa, pb])
    assert merged.total_count == pa.total_count + pb.total_count
    assert merged.envs == pa.envs + pb.envs


#: Per-site (event type, owner, count, deque_pops, heap_pops) of the
#: 2-node ping-pong (nbytes=256, trips=6) at each stride.  Sampling is
#: deterministic, so a change to the profiled step or to next_gap()
#: that moves any attribution shows up here.
PINGPONG_SITES = {
    1: [
        ("AnyOf", "Process._resume:pe*", 12, 12, 0),
        ("Event", "(no-callback)", 285, 285, 0),
        ("Event", "AnyOf._check", 12, 12, 0),
        ("Event", "Process._resume:mu*-ififo*", 14, 14, 0),
        ("Event", "Process._resume:pe*", 201, 201, 0),
        ("Event", "_Chain", 48, 48, 0),
        ("Event", "_FirstWake", 199, 199, 0),
        ("Timeout", "Process._resume:mu*-ififo*", 12, 0, 12),
        ("Timeout", "Process._resume:pe*", 43, 0, 43),
        ("Timeout", "TorusNetwork._flush_reservations", 12, 12, 0),
        ("Timeout", "_Chain", 24, 0, 24),
        ("Timeout", "_FirstWake", 199, 0, 199),
    ],
    8: [
        ("AnyOf", "Process._resume:pe*", 22, 22, 0),
        ("Event", "(no-callback)", 255, 255, 0),
        ("Event", "AnyOf._check", 15, 15, 0),
        ("Event", "Process._resume:mu*-ififo*", 29, 29, 0),
        ("Event", "Process._resume:pe*", 189, 189, 0),
        ("Event", "_Chain", 76, 76, 0),
        ("Event", "_FirstWake", 249, 249, 0),
        ("Timeout", "Process._resume:pe*", 71, 0, 71),
        ("Timeout", "TorusNetwork._flush_reservations", 21, 21, 0),
        ("Timeout", "_Chain", 8, 0, 8),
        ("Timeout", "_FirstWake", 126, 0, 126),
    ],
    32: [
        ("Event", "(no-callback)", 157, 157, 0),
        ("Event", "Process._resume:mu*-ififo*", 20, 20, 0),
        ("Event", "Process._resume:pe*", 198, 198, 0),
        ("Event", "_Chain", 28, 28, 0),
        ("Event", "_FirstWake", 144, 144, 0),
        ("Timeout", "Process._resume:mu*-ififo*", 12, 0, 12),
        ("Timeout", "Process._resume:pe*", 45, 0, 45),
        ("Timeout", "_FirstWake", 457, 0, 457),
    ],
}


@pytest.mark.parametrize("stride", sorted(PINGPONG_SITES))
def test_pingpong_site_counts_are_pinned(stride):
    with ProfileSession("pingpong", stride=stride) as sess:
        pingpong_run(RunConfig(nnodes=2), nbytes=256, trips=6)
    sites = sorted(
        (n["event_type"], n["owner"], n["count"], n["deque_pops"], n["heap_pops"])
        for n in sess.profile().nodes
    )
    assert sites == PINGPONG_SITES[stride]


def test_sanitize_inside_profile_session_takes_the_checked_path():
    base = run_workload(Environment())
    with sanitized(), ProfileSession("t", stride=1):
        checked = run_workload(Environment())
        env = Environment()
    assert checked == base

    env.timeout(1.0)  # pending work for the reentrant call to grab
    ev = env.event()
    ev._add_callback(lambda _event: env.step())
    ev.succeed()
    with pytest.raises(SanitizerError, match="reentrant"):
        env.step()
