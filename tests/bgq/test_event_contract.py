"""Pinned event counts and final simulated times.

The serve and iso-gate checksums hash ``events_executed``, so a change
that adds or deletes an event — even a do-nothing one — changes those
checksums.  These values were recorded before the process-free packet
flights, route memo and cached core shares landed, which keep the event
count and order exactly; a later change that moves an event count
fails here in tier 1, not only in the serve benchmark's references.
"""

import pytest

from repro.harness.isogate import gate_workloads
from repro.harness.servebench import _sharded_task_build
from repro.serve import JobSpec

#: name -> (events_executed, repr of the final simulated time)
PINNED = {
    "pingpong/non-SMP/512B": (1405, "91487.20000000004"),
    "pingpong/SMP/2048B": (2481, "143949.57760000014"),
    "pingpong/SMP+ct/16B": (2030, "115282.82080000016"),
    "pingpong/intranode-SMP/128B": (549, "27729.064961488835"),
    "namd/std-PME": (26047, "2043332.2503618426"),
    "namd/m2m-PME": (33520, "1834237.3246113618"),
}
SHARDED_PINGPONG_4N_2S = (1093, "81010.67128888889")


WORKLOADS = gate_workloads("full")


@pytest.mark.parametrize("name,build", WORKLOADS, ids=[n for n, _ in WORKLOADS])
def test_iso_gate_workload_event_count_and_time(name, build):
    inst = build()
    inst.start()
    inst.env.run(until=inst.done)
    inst.stop()
    assert (inst.env.events_executed, repr(inst.env.now)) == PINNED[name]


def test_every_iso_gate_workload_is_pinned():
    assert {name for name, _ in WORKLOADS} == set(PINNED)


def test_sharded_pingpong_event_count_and_time():
    build = _sharded_task_build(nnodes=4, nshards=2, nbytes=512, trips=6)
    task = build(JobSpec(name="sharded/pingpong-4n-2s", build=build))
    task.start()
    while not task.advance(1 << 30):
        pass
    task.stop()
    result = task.result()
    assert (result["events"], result["now"]) == SHARDED_PINGPONG_4N_2S
