"""``repro.sim.chain`` keeps the event footprint of a one-wait Process.

Each scenario runs twice — once with the generator Process that the
chain replaces, once with :func:`chain` — and must give the same action
order and times and the same ``events_executed`` (after a drained
run, every scheduled event has executed).
"""

import pytest

from repro.sim import Environment
from repro.sim.chain import chain


def _process_version(env, wait, fn, value, done):
    def proc():
        yield env.timeout(wait) if isinstance(wait, (int, float)) else wait
        if fn is not None:
            fn(value)
        if done is not None:
            done.succeed(value)

    env.process(proc())


def _scenario(one_wait):
    env = Environment()
    log = []

    def act(label):
        log.append((label, env.now))

    gate = env.event()
    fired = env.event()
    fired.succeed()

    def script():
        for i in range(3):
            one_wait(env, 2.0 * i, act, f"delay{i}", None)
            one_wait(env, 0.0, act, f"zero{i}", None)
        done = env.event()
        done.callbacks = [lambda ev: act(f"done={ev.value}")]
        one_wait(env, 1.5, None, "v", done)
        one_wait(env, gate, act, "gated", None)
        yield env.timeout(0.5)
        one_wait(env, fired, act, "already-fired", None)
        yield env.timeout(3.0)
        gate.succeed()

    env.process(script())
    env.run()
    return log, env.events_executed


def test_chain_matches_process_event_for_event():
    expected = _scenario(_process_version)
    got = _scenario(chain)
    assert got == expected
    log, events = got
    assert log == [
        ("delay0", 0.0), ("zero0", 0.0), ("zero1", 0.0), ("zero2", 0.0),
        ("already-fired", 0.5), ("done=v", 1.5), ("delay1", 2.0),
        ("gated", 3.5), ("delay2", 4.0),
    ]
    assert events == 32


def test_chain_without_action_or_done_still_runs_its_three_events():
    env = Environment()
    chain(env, 4.0)
    env.run()
    assert env.events_executed == 3
    assert env.now == pytest.approx(4.0)
