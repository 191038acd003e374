"""Process-free one-wait callbacks with a Process's exact event footprint.

Many hardware actions are "wait once, then act": a packet flies for
its route latency and lands, a wakeup interrupt arrives after its
delivery latency, a delivery watcher waits for the last packet of a
message.  Written as a generator :class:`~repro.sim.Process` each costs
a generator, a Process object and two ``_resume`` round trips per
occurrence.  :func:`chain` runs the same action as a callback chain
that schedules *the same events in the same order*:

1. a zero-delay trampoline :class:`~repro.sim.Event`, succeeded at the
   call — the Process's init event;
2. at the trampoline's pop, the wait: a :class:`~repro.sim.Timeout` of
   ``wait`` cycles (created exactly where the generator's
   ``yield env.timeout(...)`` would create it), or a callback on the
   ``wait`` event (run at once if it was already processed, as
   ``Process._resume`` does);
3. at wake: ``fn(value)``, then ``done.succeed(value)``, then a
   stand-in completion ``Event(env).succeed()`` — the Process's own
   completion event.

The stand-in completion has no waiter and does nothing when it pops,
but it keeps ``events_executed`` and the sequence numbering identical
to the Process version: same-time ties pop in sequence order, and the
serve and iso-gate checksums hash ``events_executed``.  Deleting it is
a checksum epoch of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .engine import _PROCESSED, Environment, Event, Timeout

__all__ = ["chain"]


class _Chain:
    """The callback for both stages of one :func:`chain`.

    A callable instance (not a closure or bound method) so the hotspot
    profiler keys every chain by this one class — bounded keys — and
    the chain costs one small object.  ``wait`` is cleared once the
    trampoline has armed it, which marks the second call as the wake.
    """

    __slots__ = ("env", "wait", "fn", "value", "done")

    def __init__(self, env, wait, fn, value, done) -> None:
        self.env = env
        self.wait = wait
        self.fn = fn
        self.value = value
        self.done = done

    def __call__(self, _event: Event) -> None:
        wait = self.wait
        if wait is not None:
            self.wait = None
            if not isinstance(wait, Event):
                Timeout(self.env, wait).callbacks = [self]
                return
            if wait._state != _PROCESSED:
                wait._add_callback(self)
                return
        fn = self.fn
        if fn is not None:
            fn(self.value)
        done = self.done
        if done is not None:
            done.succeed(self.value)
        Event(self.env).succeed()


def chain(
    env: Environment,
    wait: Union[float, Event],
    fn: Optional[Callable[[Any], None]] = None,
    value: Any = None,
    done: Optional[Event] = None,
) -> None:
    """After ``wait`` (cycles, or an event), run ``fn(value)`` and
    succeed ``done`` with ``value`` — with the event footprint of the
    one-wait Process it replaces (see the module docstring)."""
    tramp = Event(env)
    tramp.callbacks = [_Chain(env, wait, fn, value, done)]
    tramp.succeed()
