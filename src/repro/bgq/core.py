"""A2 core model: 4-way SMT with shared issue resources (§II).

The A2 core runs four hardware threads.  Each thread can issue at most
one instruction per cycle; the core can issue two per cycle in aggregate
(one fixed-point + one floating-point), so "to fully saturate the core's
resources, at least two threads per core must be used" [paper].  Because
the core is in-order, a single thread sustains well below 1 IPC (load-use
stalls); co-resident threads hide each other's stalls but contend for the
tiny shared 16 KB L1.  The paper measured a 2.3x speedup for 4 threads
vs 1 on a core in the NAMD kernel, and the model is calibrated to that.

The model is *weighted processor sharing*:

* every activity on a core registers as a member with a weight —
  ``1.0`` for real computation or a naive spin loop, ``~1/60`` for the
  optimized idle poll that stalls on an L2 atomic load (§III-D), ``0``
  for a thread in the ``wait`` state (consumes nothing [paper §II]);
* with effective weighted occupancy ``n_eff = sum(w_i)``, per-unit-weight
  throughput is ``base_ipc / (1 + (n_eff - 1) * smt_interference)``;
* a member's rate is additionally capped by the per-thread issue limit
  and the core's aggregate issue width.

Rates are recomputed whenever membership changes, so an idle thread
entering its poll loop immediately speeds up its neighbours.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..sim import Environment, Event, Timeout
from ..sim.engine import _PENDING
from .params import BGQParams, DEFAULT_PARAMS

__all__ = ["Core", "CoreMember"]

_EPS = 1e-9


class _FirstWake:
    """Succeed ``wait`` when the first of the watched events fires.

    One instance is attached to both the chunk timeout and the core's
    membership-change event in :meth:`Core.compute`; whichever pops
    first succeeds the waiter, the loser finds it already triggered and
    does nothing.  This is an allocation-light replacement for
    ``env.any_of([timeout, change])`` with an *identical* event
    schedule: the timeout is created at the same point (same sequence
    number) and ``wait`` is succeeded exactly where the AnyOf condition
    would have been.
    """

    __slots__ = ("wait",)

    def __init__(self, wait: Event) -> None:
        self.wait = wait

    def __call__(self, _event: Event) -> None:
        w = self.wait
        if w._state == _PENDING:
            w.succeed()


class CoreMember:
    """One registered activity (compute job or occupant) on a core."""

    __slots__ = ("id", "weight")

    def __init__(self, member_id: int, weight: float) -> None:
        self.id = member_id
        self.weight = weight


class Core:
    """One A2 core: a weighted-processor-sharing issue resource."""

    def __init__(
        self,
        env: Environment,
        core_id: int = 0,
        params: BGQParams = DEFAULT_PARAMS,
    ) -> None:
        self.env = env
        self.core_id = core_id
        self.params = params
        # Member ids are per-core (not a class-level counter): ids only
        # key this core's membership dict, and a shared counter would
        # leak state between concurrent environments in one process.
        self._ids = itertools.count()
        self._members: Dict[int, CoreMember] = {}
        self._change: Event = env.event()
        #: ``(per_unit, total)`` of the current membership, or None
        #: until :meth:`rate_of` computes it; every membership or weight
        #: change (:meth:`_notify_change`) drops it.
        self._shares: Optional[Tuple[float, float]] = None
        self.instructions_retired = 0.0

    # -- membership -----------------------------------------------------
    @property
    def occupancy(self) -> float:
        """Current effective weighted occupancy n_eff."""
        return sum(m.weight for m in self._members.values())

    @property
    def n_members(self) -> int:
        return len(self._members)

    def register(self, weight: float = 1.0) -> CoreMember:
        """Add an occupant (idle spinner, busy-wait) with given weight."""
        if weight < 0:
            raise ValueError("member weight must be >= 0")
        m = CoreMember(next(self._ids), weight)
        self._members[m.id] = m
        self._notify_change()
        return m

    def unregister(self, member: CoreMember) -> None:
        if self._members.pop(member.id, None) is not None:
            self._notify_change()

    def set_weight(self, member: CoreMember, weight: float) -> None:
        """Change an occupant's weight (e.g. idle poll -> wait state)."""
        if member.id not in self._members:
            raise KeyError("member not registered on this core")
        if member.weight != weight:
            member.weight = weight
            self._notify_change()

    def _notify_change(self) -> None:
        self._shares = None
        old, self._change = self._change, Event(self.env)
        old.succeed()

    # -- rate model -------------------------------------------------------
    def rate_of(self, member: CoreMember) -> float:
        """Instructions/cycle this member currently receives."""
        w = member.weight
        if w <= 0:
            return 0.0
        p = self.params
        cap = p.thread_issue_cap
        shares = self._shares
        if shares is None:
            # Re-summed over the same members in the same order as an
            # uncached evaluation, so the cached floats are bit-identical.
            members = self._members.values()
            n_eff = sum(m.weight for m in members)
            per_unit = p.base_ipc / (1.0 + max(0.0, n_eff - 1.0) * p.smt_interference)
            # Aggregate issue-width demand, shared proportionally to weight.
            total = 0.0
            for m in members:
                mw = m.weight
                total += min(mw * per_unit, cap * min(1.0, mw))
            self._shares = shares = (per_unit, total)
        per_unit, total = shares
        rate = min(w * per_unit, cap * min(1.0, w))
        width = p.core_issue_width
        if total > width:
            rate *= width / total
        return rate

    # -- work execution --------------------------------------------------
    def compute(self, instructions: float, weight: float = 1.0):
        """Run ``instructions`` of work; generator-style.

        Duration depends on who else occupies the core while the work
        runs; rates are re-evaluated at every membership change.
        """
        if instructions < 0:
            raise ValueError("instruction count must be >= 0")
        if instructions == 0:
            return 0.0
        env = self.env
        member = self.register(weight)
        started = env.now
        remaining = float(instructions)
        rate_of = self.rate_of
        try:
            while remaining > _EPS:
                rate = rate_of(member)
                if rate <= 0:
                    # Weight zero: just wait for a membership change.
                    yield self._change
                    continue
                t_done = remaining / rate
                t0 = env.now
                if t0 + t_done == t0:
                    # Residual work below the clock's float resolution:
                    # it cannot advance simulated time — call it done
                    # (guards against a zero-advance spin).
                    break
                # Manual two-way wait (see _FirstWake): cycle-identical
                # to `yield env.any_of([env.timeout(t_done), change])`.
                to = Timeout(env, t_done)
                wait = Event(env)
                wake = _FirstWake(wait)
                to.callbacks = [wake]
                self._change._add_callback(wake)
                yield wait
                remaining -= (env.now - t0) * rate
        finally:
            self.unregister(member)
        self.instructions_retired += instructions
        return env.now - started

    def occupy(self, weight: float):
        """Context-manager-like occupant registration.

        Use as::

            member = core.register(weight)   # occupy
            ...                              # spin/poll
            core.unregister(member)          # release

        Provided as a helper for call sites that want explicit control.
        """
        return self.register(weight)
