#!/usr/bin/env sh
# Repository gate: lint + tier-1 suite + benchmark tests + validation
# smoke test.
#
#   make check          # or: sh scripts/check.sh
#
# The validation pass re-runs a smoke slice of the suite with
# REPRO_VALIDATE=1, which turns on event-log recording, privilege
# sanitizing and the offline Legion-Spy-style checker (repro.analysis).
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests
else
    echo "ruff not installed; skipping lint (config lives in pyproject.toml)"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark tests (perfbench/tests) =="
python -m pytest perfbench/tests -q

echo "== validation smoke (REPRO_VALIDATE=1) =="
REPRO_VALIDATE=1 python -m pytest -x -q \
    tests/analysis \
    tests/legion/test_runtime.py \
    tests/legion/test_coherence.py \
    tests/legion/test_exact_images.py \
    tests/legion/test_fusion.py \
    tests/integration

echo "== fusion bench smoke (fused vs unfused, writes BENCH_fusion.json) =="
python scripts/bench.py --output BENCH_fusion.json > /dev/null

echo "== kernel fusion smoke (merge verdicts + BENCH_fusion.json payload) =="
# The demo proves at least one merge-safe group executes as one loop
# nest with bitwise-identical results (it exits non-zero otherwise).
python examples/kernel_fusion_demo.py --k 12 --maxiter 2 > /dev/null
# The static advisor must carry the same merge verdicts.  Capture the
# output first: POSIX sh has no pipefail, so `python ... | grep -q`
# would report grep's status and silently swallow a python failure.
advise_out=$(python -m repro.analysis advise examples/advisor_demo.py \
    -- --maxiter 2)
printf '%s\n' "$advise_out" | grep -q "kernel-merge-applied" || {
    echo "advisor produced no kernel-merge-applied verdict" >&2
    exit 1
}
# The bench payload must record merged nests beating issue-order replay
# on modeled compute, bitwise-identically, for both figures.
python - <<'PYEOF'
import json
with open("BENCH_fusion.json") as fh:
    payload = json.load(fh)
for key in ("fig9_cg", "fig10_gmg"):
    pair = payload[key]
    assert pair["fused"]["kernel_merges"] >= 1, f"{key}: no merged nests"
    assert pair["replay"]["kernel_merges"] == 0, f"{key}: replay run merged"
    assert pair["compute_ratio"] < 1.0, f"{key}: modeled compute did not drop"
    assert pair["bitwise_identical"], f"{key}: bitwise mismatch"
print("BENCH_fusion kernel-fusion payload OK")
PYEOF

echo "== host-overhead smoke (CG host seconds per 1k launches at summit:64) =="
# --smoke runs the first scale point only plus both validated identity
# workloads; the script exits non-zero unless every run reproduces the
# modeled time and solution sha256 committed in
# BENCH_runtime_overhead.json and every validated run is checker-clean.
python scripts/overhead.py --smoke \
    --output BENCH_runtime_overhead.smoke.json > /dev/null

echo "== chaos bench smoke (fault schedules vs baseline, writes BENCH_chaos.json) =="
python scripts/chaos.py --output BENCH_chaos.json > /dev/null

echo "== chaos soak smoke (seeded multi-fault schedules, writes BENCH_soak.smoke.json) =="
# A small seeded soak: the driver exits non-zero if any scenario breaks
# the invariant (bitwise + checker-clean, or a clean FaultError), and
# the payload must show the pinned replicas=2 schedule surviving the
# loss of node 0 — the primary checkpoint store.  The full ≥20-scenario
# payload is BENCH_soak.json (make soak).
python scripts/soak.py --scenarios 6 --output BENCH_soak.smoke.json > /dev/null
python - <<'PYEOF'
import json
with open("BENCH_soak.smoke.json") as fh:
    payload = json.load(fh)
s = payload["summary"]
assert s["silent_corruptions"] == 0, "soak produced a silent wrong answer"
assert s["invariant_violations"] == 0, "soak invariant broken"
assert s["node0_loss_replicated_survivals"] >= 1, (
    "no replicated run survived a node-0 (primary store) loss"
)
print(
    f"BENCH_soak OK: {s['scenarios']} scenarios, "
    f"{s['survived_with_faults']} survived with faults, "
    f"{s['fault_errors']} clean fault-errors"
)
PYEOF

echo "== serve bench smoke (multi-tenant serving, writes BENCH_serve.json) =="
# Small tenant counts; the driver exits non-zero unless batched results
# are bitwise-identical to per-request execution, batching strictly
# reduces modeled launch overhead, and backends agree on served bits.
python scripts/serve.py --smoke --output BENCH_serve.json > /dev/null
python - <<'PYEOF'
import json
with open("BENCH_serve.json") as fh:
    payload = json.load(fh)
assert len(payload["scaling"]) >= 3, "serve: fewer than 3 tenant counts"
bat = payload["batching"]
assert bat["batched"]["batches"] >= 1, "serve: no batched launch"
assert bat["bitwise_identical"], "serve: batched bits differ"
assert bat["launch_overhead_reduction"] > 0, "serve: no overhead saving"
assert payload["caching"]["cached"]["cache_hits"] >= 1, "serve: no cache hit"
assert payload["backends"]["identical"], "serve: backends disagree"
print(
    f"BENCH_serve OK: {len(payload['scaling'])} tenant counts, "
    f"{bat['batched']['batches']} batched launches, "
    f"{payload['caching']['cached']['cache_hits']} cache hits"
)
PYEOF

echo "== format bench smoke (CSR vs advised format, writes BENCH_format.json) =="
python scripts/format.py --output BENCH_format.json > /dev/null

echo "== profile smoke (fig9 CG under REPRO_PROFILE=1, trace artifacts) =="
mkdir -p artifacts
REPRO_PROFILE=1 python -m repro.harness.experiments.fig9_cg \
    --columns 2 --profile artifacts/fig9_cg.trace.json > /dev/null
# The exported Chrome trace must be well-formed JSON in the trace-event
# format, and the span log must round-trip through the offline analyzer.
python - <<'PYEOF'
import json
with open("artifacts/fig9_cg.trace.json") as fh:
    trace = json.load(fh)
events = trace["traceEvents"]
assert events, "empty Chrome trace"
assert all(e["ph"] in ("X", "M") for e in events), "unexpected phase"
assert all(
    "ts" in e and "dur" in e and e["dur"] >= 0
    for e in events if e["ph"] == "X"
), "malformed duration event"
print(f"chrome trace OK: {len(events)} events")
PYEOF
python -m repro.analysis profile artifacts/fig9_cg.spans.json > /dev/null

echo "== advisor smoke (static trace, no kernels) =="
python -m repro.analysis advise examples/advisor_demo.py \
    --machine summit:4 -- --maxiter 2 > /dev/null
# The auto-format pass must recommend a non-CSR format for the skewed
# demo (and exit zero: its conversions amortize over the demo's loop).
# Captured, not piped — a python failure must fail the gate, not vanish
# behind grep's exit status.
format_out=$(python -m repro.analysis advise examples/format_advisor_demo.py \
    --autoformat)
printf '%s\n' "$format_out" | grep -q "recommended" || {
    echo "auto-format advisor produced no recommendation" >&2
    exit 1
}
# The seeded-violations program must make the advisor exit non-zero.
if python -m repro.analysis advise examples/advisor_violations.py \
    --data-scale 4e4 > /dev/null 2>&1; then
    echo "advisor failed to flag seeded violations" >&2
    exit 1
fi

echo "== all checks passed =="
