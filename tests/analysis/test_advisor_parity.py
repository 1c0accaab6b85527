"""Advisor reports on four reference programs, against reports captured
when the advisor still predicted with its own copy of the runtime.

``data/advisor_predictor_reports.json`` holds ``Advice.to_dict()`` (minus the
process-wide ``caches`` counters) for the three agreement programs of
``test_advisor_agreement.py``, each in its capture-alongside config, and
for ``examples/advisor_demo.py`` advised on summit:4.  Today's report
must equal that record except where the record disagreed with the
runtime, and there it must equal the runtime's own figure for the same
program:

* memory peaks (and their pressure): frees are recorded now, so peaks
  are the runtime's instance-manager peaks;
* ``est_kernel_seconds``: the runtime's ``profiler.kernel_seconds``,
  which charges merged loop nests as one deduplicated kernel;
* ``kernel-merge-applied`` notes no longer append the old per-group
  savings estimate;
* op reports no longer carry per-op flops/bytes/kernel seconds.
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

from repro.analysis.advisor import _mem_name, analyze
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit
from tests.analysis.test_advisor_agreement import (
    capture,
    fig8_spmv,
    fig9_cg,
    reduce_fold,
)

HERE = Path(__file__).resolve().parent
DEMO = HERE.parents[1] / "examples" / "advisor_demo.py"
RECORDED = json.loads((HERE / "data" / "advisor_predictor_reports.json").read_text())


def _report(advice_dict):
    report = dict(advice_dict)
    report.pop("caches")
    return report


def _agreement(fn):
    plan, runtime = capture(fn)
    return _report(analyze(plan).to_dict()), runtime


def _demo():
    from repro.analysis.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["advise", str(DEMO), "--machine", "summit:4", "--json"]) == 0
    text = out.getvalue()
    report = _report(json.loads(text[text.index("{"):]))
    report["plan"] = "examples/advisor_demo.py"

    runtime = Runtime(
        summit(nodes=4).scope(ProcessorKind.GPU, 24),
        RuntimeConfig.legate(validate=False),
    )
    argv, sys.argv = sys.argv, [str(DEMO)]
    try:
        with contextlib.redirect_stdout(io.StringIO()), runtime_scope(runtime):
            runpy.run_path(str(DEMO), run_name="__main__")
    finally:
        sys.argv = argv
    return report, runtime


PROGRAMS = {
    "fig8-spmv": lambda: _agreement(fig8_spmv),
    "fig9-cg": lambda: _agreement(fig9_cg),
    "reduce": lambda: _agreement(reduce_fold),
    "advisor-demo": _demo,
}


def _expected(recorded, runtime):
    """The recorded report with the changed fields set to the runtime's."""
    expected = json.loads(json.dumps(recorded))
    expected["est_kernel_seconds"] = runtime.profiler.kernel_seconds
    for op in expected["ops"]:
        for key in ("flops", "bytes", "kernel_seconds"):
            del op[key]
    for finding in expected["findings"]:
        if finding["rule"] == "kernel-merge-applied":
            finding["message"] = finding["message"].split(
                "; modeled compute saved"
            )[0]
    memory = {_mem_name(m): m for m in runtime.machine.memories}
    for entry in expected["memories"]:
        peak = runtime.instances.peak_bytes(memory[entry["memory"]])
        entry["peak_bytes"] = int(peak)
        entry["pressure"] = peak / (entry["capacity"] - entry["reserved_bytes"])
    return expected


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_report_matches_record_or_runtime(name):
    report, runtime = PROGRAMS[name]()
    assert report == _expected(RECORDED[name], runtime)
