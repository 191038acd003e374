"""Unit tests for the benchmark-regression gate (harness/benchgate.py).

The tiny-scale runners are exercised for real (seconds, not minutes);
the gate logic (record schema, file numbering, comparison rules) is
tested against synthetic records.  No wall-clock assertions — host
speed must never fail the test suite, only the gate itself.
"""

import json

import pytest

from repro.harness.benchgate import (
    GATE_BENCHMARKS,
    _checksum,
    bench_fig3_m2m,
    bench_pingpong,
    compare_records,
    find_bench_files,
    main,
    next_bench_path,
    run_gate,
)


def _rec(events_per_sec, checksum="abc", sim_times=None):
    return {
        "events_per_sec": events_per_sec,
        "checksum": checksum,
        "sim_times": sim_times or {"final": "1.0"},
    }


def _record_with(**benchmarks):
    return {"benchmarks": benchmarks}


# -- benchmark runners (tiny scale) ----------------------------------------

def test_bench_pingpong_record_schema():
    rec = bench_pingpong(nbytes=64, trips=6)
    assert rec["events"] > 0
    assert rec["wall_s"] > 0
    assert rec["events_per_sec"] > 0
    assert rec["checksum"] == _checksum(rec["sim_times"])
    assert set(rec["sim_times"]) == {"final", "rtt_sum"}


def test_bench_fig3_is_deterministic_across_runs():
    a = bench_fig3_m2m(n_steps=1, n_atoms=128, nnodes=2, workers=1, comm_threads=1)
    b = bench_fig3_m2m(n_steps=1, n_atoms=128, nnodes=2, workers=1, comm_threads=1)
    # Wall-clock differs run to run; the simulated trajectory must not.
    assert a["checksum"] == b["checksum"]
    assert a["sim_times"] == b["sim_times"]
    assert a["events"] == b["events"]


@pytest.mark.slow
def test_run_gate_tiny_covers_all_benchmarks():
    out = run_gate(scale="tiny")
    assert set(out) == set(GATE_BENCHMARKS)
    for rec in out.values():
        assert rec["events"] > 0
        assert rec["checksum"] == _checksum(rec["sim_times"])


# -- trajectory files -------------------------------------------------------

def test_bench_file_numbering(tmp_path):
    assert find_bench_files(tmp_path) == []
    assert next_bench_path(tmp_path).name == "BENCH_0001.json"
    (tmp_path / "BENCH_0001.json").write_text("{}")
    (tmp_path / "BENCH_0007.json").write_text("{}")
    (tmp_path / "BENCH_02.json").write_text("{}")  # malformed: ignored
    assert [p.name for p in find_bench_files(tmp_path)] == [
        "BENCH_0001.json",
        "BENCH_0007.json",
    ]
    assert next_bench_path(tmp_path).name == "BENCH_0008.json"


# -- comparison rules -------------------------------------------------------

def test_compare_passes_within_tolerance():
    base = _record_with(x=_rec(100.0))
    cur = _record_with(x=_rec(95.0))  # -5% < 10% tolerance
    failures, notes = compare_records(base, cur)
    assert failures == []
    assert any("0.95x" in n for n in notes)


def test_compare_fails_on_regression():
    base = _record_with(x=_rec(100.0))
    cur = _record_with(x=_rec(85.0))  # -15% > 10% tolerance
    failures, _ = compare_records(base, cur)
    assert len(failures) == 1
    assert "regression" in failures[0]


def test_compare_hard_fails_on_checksum_drift_even_when_faster():
    base = _record_with(x=_rec(100.0, checksum="aaa", sim_times={"final": "1.0"}))
    cur = _record_with(x=_rec(500.0, checksum="bbb", sim_times={"final": "2.0"}))
    failures, _ = compare_records(base, cur)
    assert len(failures) == 1
    assert "checksum drift" in failures[0]
    assert "final" in failures[0]  # names the diverging observable


def test_compare_normalizes_by_machine_calibration():
    base = _record_with(x=_rec(100.0))
    base["calibration_wall_s"] = 1.0
    cur = _record_with(x=_rec(80.0))  # -20% raw...
    cur["calibration_wall_s"] = 1.25  # ...on a 1.25x-slower box: 1.00x adjusted
    failures, notes = compare_records(base, cur)
    assert failures == []
    assert any("machine-adjusted" in n for n in notes)
    # A real regression is still caught even on a faster box.
    cur2 = _record_with(x=_rec(85.0))
    cur2["calibration_wall_s"] = 0.95  # faster box, still 0.81x adjusted
    failures, _ = compare_records(base, cur2)
    assert len(failures) == 1
    assert "machine-adjusted" in failures[0]


def test_compare_uncalibrated_baseline_gates_on_checksums_only():
    base = _record_with(x=_rec(100.0))  # no calibration field (pre-PR-6 record)
    cur = _record_with(x=_rec(50.0))
    cur["calibration_wall_s"] = 1.0
    failures, notes = compare_records(base, cur)
    assert failures == []
    assert any("calibration present in only one record" in n for n in notes)
    drift = _record_with(x=_rec(100.0, checksum="bbb", sim_times={"final": "2.0"}))
    failures, _ = compare_records(base, drift)
    assert len(failures) == 1 and "checksum drift" in failures[0]


def test_compare_checksum_only_skips_throughput_not_checksums():
    base = _record_with(x=_rec(100.0))
    cur = _record_with(x=_rec(50.0))  # -50%: fails the normal gate
    failures, notes = compare_records(base, cur, checksum_only=True)
    assert failures == []  # foreign-hardware mode: ev/s is a note only
    assert any("0.50x" in n for n in notes)
    drift = _record_with(x=_rec(100.0, checksum="bbb", sim_times={"final": "2.0"}))
    failures, _ = compare_records(base, drift, checksum_only=True)
    assert len(failures) == 1
    assert "checksum drift" in failures[0]


def test_compare_new_benchmark_is_note_not_failure():
    failures, notes = compare_records(_record_with(), _record_with(x=_rec(1.0)))
    assert failures == []
    assert any("no baseline" in n for n in notes)


def test_compare_fails_on_benchmark_missing_at_same_scale():
    base = {"scale": "full", "benchmarks": {"x": _rec(1.0), "y": _rec(1.0)}}
    cur = {"scale": "full", "benchmarks": {"x": _rec(1.0)}}
    failures, _ = compare_records(base, cur)
    assert len(failures) == 1
    assert failures[0].startswith("y:") and "missing" in failures[0]


def test_compare_missing_benchmark_at_other_scale_is_note():
    base = {"scale": "full", "benchmarks": {"x": _rec(1.0), "y": _rec(1.0)}}
    cur = {"scale": "tiny", "benchmarks": {"x": _rec(1.0)}}
    failures, notes = compare_records(base, cur)
    assert failures == []
    assert any(n.startswith("y:") for n in notes)


def test_checksum_is_order_independent():
    assert _checksum({"a": "1", "b": "2"}) == _checksum({"b": "2", "a": "1"})
    assert _checksum({"a": "1"}) != _checksum({"a": "2"})


# -- CLI --------------------------------------------------------------------

@pytest.mark.slow
def test_main_records_then_gates(tmp_path, capsys):
    rc = main(["--root", str(tmp_path), "--scale", "tiny"])
    assert rc == 0
    assert (tmp_path / "BENCH_0001.json").exists()
    out = capsys.readouterr().out
    assert "nothing to gate" in out

    # Second run gates against the first: same code, same checksums.
    # Tiny-scale runs are far too short for a stable events/sec, so the
    # perf tolerance is slackened — this asserts the *checksum* path.
    rc = main(["--root", str(tmp_path), "--scale", "tiny", "--tolerance", "0.99"])
    assert rc == 0
    assert (tmp_path / "BENCH_0002.json").exists()
    assert "PASS" in capsys.readouterr().out

    record = json.loads((tmp_path / "BENCH_0002.json").read_text())
    assert record["schema"] == 1
    assert set(record["benchmarks"]) == set(GATE_BENCHMARKS)


@pytest.mark.slow
def test_main_fails_on_doctored_baseline(tmp_path, capsys):
    assert main(["--root", str(tmp_path), "--scale", "tiny"]) == 0
    path = tmp_path / "BENCH_0001.json"
    record = json.loads(path.read_text())
    for rec in record["benchmarks"].values():
        rec["checksum"] = "doctored"
    path.write_text(json.dumps(record))
    rc = main(["--root", str(tmp_path), "--scale", "tiny", "--tolerance", "0.99"])
    assert rc == 1
    assert "HARD FAIL" in capsys.readouterr().err
