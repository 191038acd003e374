"""Pinned event counts and final simulated times.

The serve and iso-gate checksums hash ``events_executed``, so a change
that adds or deletes an event — even a do-nothing one — changes those
checksums.  These values were recorded before the process-free packet
flights, route memo and cached core shares landed, which keep the event
count and order exactly; a later change that moves an event count
fails here in tier 1, not only in the serve benchmark's references.
The tiny bench-gate records and tiny sharded mini-NAMD runs are pinned
the same way, so a change to the shared workload builders that moves
an event fails here too.
"""

import pytest

from repro.harness.benchgate import gate_runners
from repro.harness.isogate import gate_workloads
from repro.harness.servebench import _sharded_task_build
from repro.harness.shardbench import run_sharded_namd
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
#: gate_runners("tiny") benchmark -> (BENCH checksum, events)
PINNED_TINY_GATE = {
    "pingpong": (
        "bf08fa1a7f4f15396e416b8c743868ee81c5ce3b3965b3a24e1dd8e14bc47973", 1129,
    ),
    "fig3_m2m": (
        "5cf40d689e575605d8a8400d679d3647b3dcfc24af116cb9e06391c97041a1f5", 18630,
    ),
    "fig10_window": (
        "402b913a7e9e5ce8196eae3a404ec99e024a3c5281d68dc8996ae64ba50cbfe1", 17514,
    ),
}
#: tiny m2m run_sharded_namd: nshards -> (events_executed, repr of final time)
PINNED_SHARDED_NAMD = {
    1: (21321, "1223252.0850927385"),
    2: (21821, "1223252.0850927385"),
}


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


TINY_GATE = list(gate_runners("tiny").items())


@pytest.mark.parametrize("name,run", TINY_GATE, ids=[n for n, _ in TINY_GATE])
def test_tiny_gate_runner_checksum_and_event_count(name, run):
    rec = run()
    assert (rec["checksum"], rec["events"]) == PINNED_TINY_GATE[name]


@pytest.mark.parametrize("nshards", sorted(PINNED_SHARDED_NAMD))
def test_tiny_sharded_namd_event_count_and_time(nshards):
    run = run_sharded_namd(True, 1, 256, 4, 1, 1, nshards)
    assert (run["events"], repr(run["sim_time"])) == PINNED_SHARDED_NAMD[nshards]
