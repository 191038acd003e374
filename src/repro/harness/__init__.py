"""Benchmark harness: one driver per table/figure of the paper."""

from .allocbench import AllocBenchResult, fig6_allocator, run_alloc_bench
from .benchgate import (
    GATE_BENCHMARKS,
    bench_fig3_m2m,
    bench_fig10_window,
    bench_pingpong,
    compare_records,
    run_gate,
)
from .fftbench import des_fft_step_us, des_vs_model, table1_model, table1_report
from .builders import DeferredRun
from .isogate import isolation_gate, run_interleaved, run_solo
from .namdbench import (
    PAPER_TABLE2,
    apoa1_pme_every_step,
    fig7_configurations,
    fig8_l2_atomics,
    fig11_bgp_vs_bgq,
    fig12_stmv20m,
    qpx_serial_speedup,
    smt_thread_speedup_des,
    table2_stmv100m,
)
from .pingpong import (
    FIG4_MODES,
    FIG4_SIZES,
    fig4_internode,
    fig5_intranode,
    pingpong_oneway_us,
    pingpong_run,
)
from .report import banner, format_comparison, format_manifest, format_table
from .timelines import (
    TraceResult,
    export_trace_artifacts,
    fig3_pme_timeline,
    fig9_commthread_profile,
    fig10_pme_window,
    run_traced_namd,
)

__all__ = [
    "AllocBenchResult",
    "DeferredRun",
    "FIG4_MODES",
    "FIG4_SIZES",
    "GATE_BENCHMARKS",
    "PAPER_TABLE2",
    "TraceResult",
    "bench_fig3_m2m",
    "bench_fig10_window",
    "bench_pingpong",
    "compare_records",
    "run_gate",
    "apoa1_pme_every_step",
    "banner",
    "des_fft_step_us",
    "des_vs_model",
    "export_trace_artifacts",
    "fig10_pme_window",
    "fig11_bgp_vs_bgq",
    "fig12_stmv20m",
    "fig3_pme_timeline",
    "fig4_internode",
    "fig5_intranode",
    "fig6_allocator",
    "fig7_configurations",
    "fig8_l2_atomics",
    "fig9_commthread_profile",
    "format_comparison",
    "format_manifest",
    "format_table",
    "pingpong_oneway_us",
    "pingpong_run",
    "isolation_gate",
    "run_interleaved",
    "run_solo",
    "qpx_serial_speedup",
    "run_alloc_bench",
    "run_traced_namd",
    "smt_thread_speedup_des",
    "table1_model",
    "table1_report",
    "table2_stmv100m",
]
