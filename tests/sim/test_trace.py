"""Tests for tracer timelines and utilization profiles."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.sim.trace import render_ascii_timeline, utilization_profile
from repro.trace import Tracer


def make_recorder():
    env = Environment()
    rec = Tracer(env)

    def worker():
        rec.begin(0, "integrate")
        yield env.timeout(10)
        rec.begin(0, "pme")
        yield env.timeout(30)
        rec.begin(0, "idle")
        yield env.timeout(60)
        rec.end(0)

    env.process(worker())
    env.run()
    return env, rec


def test_segments_recorded():
    _, rec = make_recorder()
    cats = [(s.category, s.start, s.end) for s in rec.spans]
    assert cats == [("integrate", 0, 10), ("pme", 10, 40), ("idle", 40, 100)]


def test_time_in_category():
    _, rec = make_recorder()
    assert rec.time_in("pme") == 30
    assert rec.time_in("idle") == 60
    assert rec.time_in("missing") == 0


def test_utilization_busy_and_useful():
    _, rec = make_recorder()
    busy, useful = rec.utilization()
    assert busy == pytest.approx(0.4)  # 40/100 non-idle
    assert useful == pytest.approx(0.4)  # integrate+pme are useful


def test_utilization_excludes_overhead_from_useful():
    env = Environment()
    rec = Tracer(env)
    rec.record(0, "comm", 0, 50)
    rec.record(0, "pme", 50, 100)
    busy, useful = rec.utilization()
    assert busy == pytest.approx(1.0)
    assert useful == pytest.approx(0.5)


def test_finish_closes_open_segments():
    env = Environment()
    rec = Tracer(env)

    def worker():
        rec.begin(3, "nonbonded")
        yield env.timeout(25)
        # never ends explicitly

    env.process(worker())
    env.run()
    rec.finish()
    assert len(rec.spans) == 1
    seg = rec.spans[0]
    assert (seg.track, seg.category, seg.start, seg.end) == (3, "nonbonded", 0, 25)


def test_record_validates_order():
    env = Environment()
    rec = Tracer(env)
    with pytest.raises(ValueError):
        rec.record(0, "pme", 10, 5)


def test_zero_length_segments_dropped():
    env = Environment()
    rec = Tracer(env)
    rec.record(0, "pme", 5, 5)
    assert rec.spans == []


def test_utilization_profile_bins_sum():
    env = Environment()
    rec = Tracer(env)
    rec.record(0, "pme", 0, 50)
    rec.record(0, "idle", 50, 100)
    prof = utilization_profile(rec, bins=10)
    assert prof["pme"][:5] == pytest.approx(np.ones(5))
    assert prof["pme"][5:] == pytest.approx(np.zeros(5))
    assert prof["idle"][5:] == pytest.approx(np.ones(5))


def test_utilization_profile_multi_thread_normalized():
    env = Environment()
    rec = Tracer(env)
    rec.record(0, "pme", 0, 100)
    rec.record(1, "idle", 0, 100)
    prof = utilization_profile(rec, bins=4)
    # Only half of thread-time is pme.
    assert prof["pme"] == pytest.approx(0.5 * np.ones(4))


def test_utilization_profile_empty_raises():
    env = Environment()
    rec = Tracer(env)
    with pytest.raises(ValueError):
        utilization_profile(rec)


def test_ascii_render_contains_threads_and_legend():
    _, rec = make_recorder()
    art = render_ascii_timeline(rec, width=40)
    assert "T  0" in art
    assert "legend:" in art
    assert "R" in art and "G" in art


def test_ascii_render_empty():
    env = Environment()
    rec = Tracer(env)
    assert "empty" in render_ascii_timeline(rec)
