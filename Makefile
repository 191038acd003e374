# Convenience entry points; see README.md and docs/TRACING.md.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 test lint trace-test trace-demo trace-gate bench bench-gate chaos shard-gate iso-gate serve-gate obs-gate

tier1: test bench-gate shard-gate trace-gate iso-gate serve-gate obs-gate lint  ## full tier-1 flow: tests + gates + lint

test:            ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

lint:            ## repro-lint static analysis (determinism + runtime protocol,
                 ## docs/ANALYSIS.md); exits nonzero on any un-baselined violation
	$(PYTHON) -m repro.analysis

bench-gate:      ## hot-path benchmark gate: writes the next BENCH_NNNN.json at the
                 ## repo root and exits nonzero on >10% events/sec regression or any
                 ## simulated-time checksum drift vs the prior record (EXPERIMENTS.md)
	$(PYTHON) -c "from repro.harness.benchgate import main; raise SystemExit(main())"

shard-gate:      ## sharded-vs-serial equivalence gate: every gated benchmark must
                 ## produce bit-identical simulated times on the sharded PDES engine
                 ## (shards 1/2/4 + the subprocess transport) and the serial engine
                 ## (docs/SCALING.md)
	$(PYTHON) -m repro.harness.shardbench

iso-gate:        ## concurrent-Environment isolation gate: N independent
                 ## Environments stepped in adversarial interleaving must
                 ## checksum bit-identically to solo runs (docs/ANALYSIS.md,
                 ## G/S rule families); checked-engine mode catches protocol
                 ## violations the interleaving might expose
	REPRO_SANITIZE=1 $(PYTHON) -m repro.harness.isogate

serve-gate:      ## simulation-as-a-service gate: a synthetic many-client load
                 ## (mixed iso-gate, sharded-PDES and perfmodel jobs across
                 ## priorities and pacing) over one JobService process; every
                 ## served job must checksum bit-identically to its solo run
                 ## (ARCHITECTURE.md, "Simulation as a service")
	REPRO_SANITIZE=1 $(PYTHON) -m repro.harness.servebench --json-out serve_report.json

obs-gate:        ## host-side observability gate: profiled runs of the gated
                 ## benchmarks must checksum bit-identically to unprofiled runs
                 ## and the committed BENCH record (cycle neutrality), profiling
                 ## overhead must stay within budget, and hotspot attribution
                 ## must stay concentrated and stable vs the committed baseline
                 ## (docs/OBSERVABILITY.md)
	$(PYTHON) -m repro.harness.obsgate --json-out benchmarks/output/obsgate_report.json

chaos:           ## chaos suite: pingpong/m2m/jacobi/lattice under seeded fault
                 ## profiles x delivery-QoS modes with the checked DES engine;
                 ## reliable cells assert bit-correct payloads, best-effort cells
                 ## the degraded-but-correct gate, all cells eventual quiescence
	REPRO_SANITIZE=1 $(PYTHON) -m repro.harness.chaosbench \
		--profiles drop5 chaos partition --seeds 0 1 2 \
		--workloads pingpong m2m jacobi lattice \
		--qos reliable best_effort fresh \
		--json-out chaos_matrix.json

trace-gate:      ## trace-diff regression gate: re-runs the figure trace configs
                 ## and diffs counters / utilization / critical-path length vs the
                 ## committed baselines in benchmarks/baselines/ (docs/TRACING.md)
	$(PYTHON) -m repro.harness.tracegate

trace-test:      ## just the tracing-subsystem tests (pytest -m trace)
	$(PYTHON) -m pytest -q -m trace tests/trace

trace-demo:      ## traced mini-NAMD run + Chrome/Perfetto + manifest export
	$(PYTHON) -m repro.trace.demo

bench:           ## regenerate every paper table/figure into benchmarks/output/
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
