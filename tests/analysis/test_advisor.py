"""Advisor unit tests: lint battery, machine parsing, CLI exit codes."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

import repro.sparse as sp
from repro.analysis import advise, analyze, trace
from repro.analysis.advisor import AdvisorConfig, parse_machine
from repro.legion import RuntimeConfig
from repro.machine import laptop, summit

REPO = Path(__file__).resolve().parents[2]


def tridiag(n):
    diags = [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)]
    return sps.diags(diags, [-1, 0, 1]).tocsr()


def rules(advice):
    return {f.rule for f in advice.findings}


# ----------------------------------------------------------------------
# Lints
# ----------------------------------------------------------------------
def test_densify_warning_and_error_scale():
    def workload():
        A = sp.csr_matrix(tridiag(400))
        A.toarray()

    small = advise(workload, machine=laptop(), procs=2)
    assert any(
        f.rule == "densify" and f.severity == "warning"
        for f in small.findings
    )
    assert not small.errors

    big = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(data_scale=1e6),
    )
    assert any(
        f.rule == "densify" and f.severity == "error" for f in big.findings
    )
    assert big.errors


def test_convert_roundtrip_detected():
    def workload():
        A = sp.csr_matrix(tridiag(200))
        A.tocsc().tocsr()

    advice = advise(workload, machine=laptop(), procs=2)
    assert "convert-roundtrip" in rules(advice)


def test_capacity_overflow_is_error():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(1000))
        x = rnp.ones(A.shape[0])
        return A @ x

    advice = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(data_scale=1e5),
    )
    assert any(
        f.rule == "capacity" and f.severity == "error"
        for f in advice.findings
    )
    assert advice.errors


def test_spill_downgrades_capacity_to_warning():
    """With config.spill, relievable overflow becomes spill traffic.

    Fusion is off so the eight arrays materialize: with it on, each
    fill fuses into the add that reads it and the array is elided.
    """

    def workload():
        import repro.numeric as rnp

        n = 100_000
        arrays = [rnp.full(n, float(i)) for i in range(8)]
        total = rnp.zeros(n)
        for a in arrays:
            total = total + a
        return total

    def run(spill):
        return advise(
            workload,
            machine=laptop(),
            procs=2,
            config=RuntimeConfig.legate(
                data_scale=40.0, spill=spill, fusion=False
            ),
        )

    degraded = run(spill=True)
    spills = [f for f in degraded.findings if f.rule == "spill"]
    assert spills and all(f.severity == "warning" for f in spills)
    assert "spill policy evicts" in spills[0].message
    assert "capacity" not in rules(degraded)
    assert not degraded.errors

    hard = run(spill=False)
    assert any(
        f.rule == "capacity" and f.severity == "error" for f in hard.findings
    )
    assert "config.spill would degrade" in next(
        f.message for f in hard.findings if f.rule == "capacity"
    )


def test_spill_cannot_relieve_single_oversized_region():
    """A region bigger than the whole budget stays a hard error."""

    def workload():
        import repro.numeric as rnp

        return rnp.ones(100_000)

    advice = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(data_scale=1e5),  # 80 GB on a 64 MB FB
    )
    assert any(
        f.rule == "capacity" and f.severity == "error"
        for f in advice.findings
    )


def test_unsolvable_constraints_are_an_error():
    def workload():
        import repro.numeric as rnp
        from repro.constraints.task import AutoTask
        from repro.legion.runtime import get_runtime

        x = rnp.ones(64)
        y = rnp.ones(64)
        task = AutoTask(get_runtime(), "aligned_and_broadcast", lambda ctx: None)
        task.add_input("x", x.store)
        task.add_output("y", y.store)
        task.add_alignment_constraint(x.store, y.store)
        task.add_broadcast(x.store)
        task.execute()

    advice = advise(workload, machine=laptop(), procs=2)
    errors = [f for f in advice.errors if f.rule == "constraints"]
    assert errors and "aligned_and_broadcast" in errors[0].message


def test_dead_write_detected():
    def workload():
        import repro.numeric as rnp

        x = rnp.zeros(64)
        x.fill(1.0)
        return x

    advice = advise(workload, machine=laptop(), procs=2)
    assert "dead-write" in rules(advice)


def test_clean_program_has_no_errors():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(300))
        v = rnp.ones(A.shape[0])
        for _ in range(3):
            v = A @ v
        return v

    advice = advise(workload, machine=laptop(), procs=2)
    assert not advice.errors
    assert advice.launches > 0
    assert advice.predicted.stats().get("task", 0) > 0


def test_finding_cap_suppresses_floods():
    def workload():
        A = sp.csr_matrix(tridiag(50))
        for _ in range(40):
            A.toarray()

    advice = advise(
        workload,
        machine=laptop(),
        procs=2,
        options=AdvisorConfig(max_findings_per_rule=4),
    )
    densify = [
        f for f in advice.findings
        if f.rule == "densify" and "suppressed" not in f.message
    ]
    assert len(densify) == 4
    assert any("suppressed" in f.message for f in advice.findings)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_report_structure_and_json():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(256))
        return A @ rnp.ones(A.shape[0])

    advice = advise(workload, machine=summit(nodes=2))
    d = advice.to_dict()
    assert d["launches"] == advice.launches
    assert "traffic" in d and "memories" in d and "ops" in d
    spmv = [o for o in advice.ops if "A(i,j)*x(j)" in o.name]
    assert spmv and "pos" in spmv[0].partitions
    text = advice.format_text()
    assert "partition choices" in text
    assert "predicted traffic" in text
    assert "predicted peak memory" in text


def test_trace_then_analyze_on_other_machine():
    """A plan traced once can be analyzed against different machines."""

    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(128))
        return A @ rnp.ones(A.shape[0])

    from repro.machine import ProcessorKind

    plan = trace(workload, machine=laptop(), procs=2)
    local = analyze(plan)
    remote = analyze(
        plan, scope=summit(nodes=2).scope(ProcessorKind.GPU, 12)
    )
    assert local.launches == remote.launches
    # The plan's launch structure is fixed at trace time; only the
    # machine mapping changes, so event counts agree while the memory
    # landscape differs (summit framebuffers, not the laptop's).
    assert remote.predicted.stats() == local.predicted.stats()
    assert {m.memory for m in remote.memories} != {
        m.memory for m in local.memories
    }


# ----------------------------------------------------------------------
# Machine parsing
# ----------------------------------------------------------------------
def test_parse_machine():
    assert parse_machine("laptop").config.nodes == 1
    assert parse_machine("summit").config.nodes == 1
    assert parse_machine("summit:8").config.nodes == 8
    with pytest.raises(ValueError):
        parse_machine("frontier:2")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_advise_clean_program_exits_zero(capsys):
    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_demo.py"),
         "--machine", "summit:4", "--", "--maxiter", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "partition choices" in out
    assert "predicted traffic" in out


def test_cli_advise_violations_exit_one(capsys):
    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_violations.py"),
         "--data-scale", "4e4"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "densify" in out or "capacity" in out


def test_cli_advise_json(capsys):
    import json

    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_demo.py"), "--json",
         "--", "--maxiter", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    # The traced program's own prints precede the report.
    payload = json.loads(out[out.index("{"):])
    assert payload["launches"] > 0


def test_cli_advise_crash_exits_two(tmp_path, capsys):
    from repro.analysis.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("raise RuntimeError('boom')\n")
    assert main(["advise", str(bad)]) == 2
    capsys.readouterr()


def test_cli_legacy_checker_still_works(tmp_path, capsys):
    """The PR-1 checker path is unchanged: bad path -> exit 2."""
    from repro.analysis.cli import main

    assert main([str(tmp_path / "missing.jsonl")]) == 2
    capsys.readouterr()
