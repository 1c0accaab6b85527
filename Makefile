PYTHONPATH := src
export PYTHONPATH

.PHONY: test validate check lint advise autoformat bench chaos soak \
	profile kernel-fusion overhead serve

test:
	python -m pytest -x -q

# Full suite under validation mode: every runtime records an event log,
# sanitizes privileges, and the conftest fixture replays each log
# through the offline checker after every test.
validate:
	REPRO_VALIDATE=1 python -m pytest -x -q

lint:
	ruff check src tests

check:
	sh scripts/check.sh

# Static advisor on the demo program: predicted partitions, traffic and
# footprint on a 4-node summit, no kernels executed.
advise:
	python -m repro.analysis advise examples/advisor_demo.py --machine summit:4

# Static auto-format pass on the skew-SpMV demo: ranked ELL / SELL-C-sigma
# / HYB recommendations per operand plus the format lint battery
# (unamortized conversions are errors under --autoformat).
autoformat:
	python -m repro.analysis advise examples/format_advisor_demo.py --autoformat

# Kernel-fusion demo: runs a CG solve with merged loop nests on and off
# (bitwise-identical by construction) and prints the per-group merge
# verdicts from the dependence analyzer, then the static advisor, whose
# replay through the runtime reports the same verdicts as kernel-merge
# findings.
kernel-fusion:
	python examples/kernel_fusion_demo.py
	python -m repro.analysis advise examples/advisor_demo.py -- --maxiter 2

# Fusion benchmark: merged vs replay vs unfused CG + GMG, writes
# BENCH_fusion.json and fails if fusion saves < 30% of launches, if no
# merge-safe group runs as a single loop nest with strictly lower
# modeled compute than replay, or if any bit changes.
# Format benchmark: CSR vs the advised format on a power-law skew SpMV,
# writes BENCH_format.json and fails unless the advised run charges
# strictly less modeled compute with bitwise-identical results.
bench:
	python scripts/bench.py
	python scripts/format.py

# Host-overhead benchmark: CG host seconds per 1k launches at summit:64
# and summit:1024, writes BENCH_runtime_overhead.json and fails unless
# every run reproduces the committed modeled times and solution sha256
# and the validated identity runs are checker-clean.
overhead:
	python scripts/overhead.py

# Chaos benchmark: CG under deterministic fault schedules (transient
# copy/alloc faults, GPU loss + checkpoint/replay recovery), writes
# BENCH_chaos.json and fails unless every run is bitwise-identical to
# the fault-free baseline, checker-clean and within bounded overhead.
chaos:
	python scripts/chaos.py

# Chaos soak fuzzer: seeded randomized multi-fault schedules (concurrent
# node+GPU losses, losses during checkpoint drains and journal replays,
# fault storms at varying replica counts) against the fig9 CG loop,
# writes BENCH_soak.json and fails if any scenario breaks the soak
# invariant: complete bitwise-identical with a checker-clean log, or
# raise a clean FaultError — never a silent wrong answer.
soak:
	python scripts/soak.py

# Serve benchmark: seeded load generator against the multi-tenant
# serving layer (admission control, fair-share windows, cross-request
# SpMV batching, result cache, chaos isolation), writes BENCH_serve.json
# and fails unless batched results are bitwise-identical to per-request
# execution, batching strictly reduces modeled launch overhead, and the
# simulated/sync/asyncio backends serve identical bits.
serve:
	python scripts/serve.py

# Timeline profiling: fig9 CG + fig10 GMG with span recording on.
# Writes Chrome traces (open in chrome://tracing or ui.perfetto.dev)
# and native span logs under artifacts/, then prints the offline
# utilization/critical-path analysis of the CG trace.
profile:
	mkdir -p artifacts
	python -m repro.harness.experiments.fig9_cg \
	    --profile artifacts/fig9_cg.trace.json
	python -m repro.harness.experiments.fig10_gmg \
	    --profile artifacts/fig10_gmg.trace.json
	python -m repro.analysis profile artifacts/fig9_cg.spans.json
