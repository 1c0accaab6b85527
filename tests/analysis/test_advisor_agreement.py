"""Advisor-vs-runtime agreement harness.

Run the fig8 SpMV and fig9 CG workloads in capture-alongside mode
(``REPRO_VALIDATE``-style ``validate=True``): every op is recorded into
the plan trace AND executed, so the same run leaves both a plan and a
ground-truth event log.  The advisor then replays the plan through a
fresh runtime and its copy set must match the recorded one (0 tolerance
on copy multisets, 1% declared on total volume).  A default-config
case checks kernel time, peaks and copies against a plain run.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.advisor import analyze, trace
from repro.analysis.events import AllreduceEvent, CopyEvent, EventLog, FoldEvent
from repro.analysis.plan import PlanTrace
from repro.apps.poisson import poisson2d_scipy
from repro.harness.experiments.fig8_spmv import banded_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import MemoryKind, ProcessorKind, laptop, summit

#: Declared agreement tolerance on total predicted copy volume.
VOLUME_RTOL = 0.01


def capture(fn, procs=2):
    """Run ``fn`` with validation on; returns (plan, runtime).

    Fusion stays off, so the ground-truth log is launch-for-launch the
    recorded plan.  The fusion agreement test (test_fusion_agreement.py)
    and the default-config case below cover the fused window.
    """
    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(validate=True, fusion=False),
    )
    plan = PlanTrace(name=getattr(fn, "__name__", "capture"), deferred=False)
    plan.bind(runtime)
    runtime.plan_trace = plan
    try:
        with runtime_scope(runtime):
            fn()
    finally:
        runtime.plan_trace = None
    return plan, runtime


def copy_key(ev):
    return (
        ev.region,
        tuple(ev.rect.lo),
        tuple(ev.rect.hi),
        ev.src_memory,
        ev.dst_memory,
        ev.nbytes,
        ev.why,
    )


def assert_agreement(plan, log):
    advice = analyze(plan)
    predicted = advice.predicted

    recorded_copies = Counter(
        copy_key(e) for e in log.events if isinstance(e, CopyEvent)
    )
    predicted_copies = Counter(
        copy_key(e) for e in predicted.events if isinstance(e, CopyEvent)
    )
    assert predicted_copies == recorded_copies

    recorded_folds = Counter(
        (e.region, tuple(e.rect.lo), tuple(e.rect.hi), e.memory)
        for e in log.events
        if isinstance(e, FoldEvent)
    )
    predicted_folds = Counter(
        (e.region, tuple(e.rect.lo), tuple(e.rect.hi), e.memory)
        for e in predicted.events
        if isinstance(e, FoldEvent)
    )
    assert predicted_folds == recorded_folds

    rec_bytes = sum(e.nbytes for e in log.events if isinstance(e, CopyEvent))
    pred_bytes = sum(
        e.nbytes for e in predicted.events if isinstance(e, CopyEvent)
    )
    assert pred_bytes == pytest.approx(rec_bytes, rel=VOLUME_RTOL)

    assert predicted.stats() == log.stats()

    rec_all = [
        (e.op, e.participants)
        for e in log.events
        if isinstance(e, AllreduceEvent)
    ]
    pred_all = [
        (e.op, e.participants)
        for e in predicted.events
        if isinstance(e, AllreduceEvent)
    ]
    assert pred_all == rec_all
    return advice


def fig8_spmv():
    A = sp.csr_matrix(banded_scipy(600))
    v = rnp.ones(A.shape[1])
    for _ in range(4):
        y = A @ v
    return y


def fig9_cg():
    A = sp.csr_matrix(poisson2d_scipy(16))
    b = rnp.ones(A.shape[0])
    x, info = sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
    return x


def reduce_fold():
    """REDUCE-privilege ops: transpose products, column sums, CSC
    conversion."""
    A = sp.csr_matrix(banded_scipy(300, band=2))
    x = rnp.ones(A.shape[0])
    yt = A.T @ x
    s0 = A.sum(axis=0)
    C = A.tocsc()
    y = C @ rnp.ones(C.shape[1])
    return yt, s0, y


def test_fig8_spmv_agreement():
    plan, runtime = capture(fig8_spmv)
    advice = assert_agreement(plan, runtime.event_log)
    assert advice.launches == len(plan.ops)
    assert any(e.why == "stage" for e in advice.predicted.events
               if isinstance(e, CopyEvent))


def test_fig9_cg_agreement():
    plan, runtime = capture(fig9_cg)
    advice = assert_agreement(plan, runtime.event_log)
    # CG's dot products and norms allreduce across the launch colors.
    assert any(
        isinstance(e, AllreduceEvent) for e in advice.predicted.events
    )


def test_reduce_fold_agreement():
    """REDUCE-privilege workloads exercise the fold path."""
    plan, runtime = capture(reduce_fold)
    advice = assert_agreement(plan, runtime.event_log)
    assert any(isinstance(e, FoldEvent) for e in advice.predicted.events)


def test_deferred_trace_matches_alongside_aggregates():
    """The deferred trace (kernels skipped) predicts the same launch
    and traffic aggregates as the capture-alongside run of the same
    program — region uids differ across runs, so compare aggregates."""
    from repro.analysis.advisor import advise

    def workload():
        A = sp.csr_matrix(banded_scipy(400))
        import repro.numeric as rnp

        v = rnp.ones(A.shape[1])
        for _ in range(3):
            v = A @ v
        return v

    plan, runtime = capture(workload)
    alongside = analyze(plan)
    deferred = advise(workload, machine=laptop(), procs=2)

    assert deferred.launches == alongside.launches
    assert deferred.predicted.stats() == alongside.predicted.stats()
    for cls in set(deferred.traffic) | set(alongside.traffic):
        assert cls in deferred.traffic and cls in alongside.traffic
        assert deferred.traffic[cls]["bytes"] == pytest.approx(
            alongside.traffic[cls]["bytes"], rel=VOLUME_RTOL
        )


def default_cg():
    A = sp.csr_matrix(poisson2d_scipy(64))
    b = rnp.ones(A.shape[0])
    sp.linalg.cg(A, b, rtol=0.0, maxiter=6)


def traffic_by_class(log, machine):
    node = {m.uid: m.node for m in machine.memories}
    out = Counter()
    for e in log.events:
        if isinstance(e, CopyEvent):
            cls = "nvlink" if node[e.src_memory] == node[e.dst_memory] else "nic"
            out[(cls, "copies")] += 1
            out[(cls, "bytes")] += e.nbytes
    return out


def test_default_config_agreement():
    """Default Legate config (task and kernel fusion on), deferred
    trace: kernel time, framebuffer peaks and per-class copies equal a
    plain run of the same program."""
    machine = summit(nodes=2)
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, 12), RuntimeConfig.legate()
    )
    runtime.event_log = EventLog()
    with runtime_scope(runtime):
        default_cg()

    plan = trace(
        default_cg, machine=summit(nodes=2), procs=12,
        config=RuntimeConfig.legate(),
    )
    advice = analyze(plan)

    assert runtime.profiler.kernel_merges > 0
    assert advice.est_kernel_seconds == runtime.profiler.kernel_seconds
    peaks = {
        f"fb[{m.uid}]@node{m.node}": runtime.instances.peak_bytes(m)
        for m in machine.memories
        if m.kind == MemoryKind.FRAMEBUFFER and runtime.instances.peak_bytes(m)
    }
    assert {
        m.memory: m.peak_bytes
        for m in advice.memories
        if m.kind == "framebuffer"
    } == peaks
    predicted = Counter()
    for cls, entry in advice.traffic.items():
        predicted[(cls, "copies")] += entry["copies"]
        predicted[(cls, "bytes")] += entry["bytes"]
    assert predicted == traffic_by_class(runtime.event_log, machine)
