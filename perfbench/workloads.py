"""The four workloads.

Each workload has a ``setup`` (timed as ``setup_s``), a ``step`` (one
timed unit of work: a solve, a serving pass or an ``analyze()`` call)
and a ``summary`` that checks every output and derives the modeled
metrics.  One *op* is the unit ``host_ms_per_op`` is normalized by:
a solver iteration, a request, or an ``analyze()`` call.

Inputs are a pure function of the seed.  The solver and advisor
workloads vary the grid side by a few rows around the paper's build
rule, so each seed is a slightly different decomposition of the same
full-scale problem (``data_scale``/``comm_scale`` are recomputed, so
the modeled problem stays 192 x 26M or 2 x 8M rows).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from perfbench import arrivals, serving, stats
from perfbench.layers import ratio


@dataclass
class Step:
    """One timed unit of work."""

    host_s: float
    ops: int
    digest: str
    modeled_s: float = 0.0
    failed: int = 0
    detail: object = None


@dataclass
class Summary:
    """What a workload's steps add up to: the operations a user would
    count (solves, requests or analyses), failed output checks, and the
    details the report line carries."""

    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    report: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


class Workload:
    """What the runner drives: ``setup`` (timed as ``setup_s``), ``step``
    (one timed unit), ``summary`` (checks every output), and the modeled
    and per-layer figures derived from the steps."""

    name = ""
    op = ""  # the unit host_ms_per_op is normalized by
    min_steps = 1  # timed steps even when --seconds runs out first
    traced_steps = 1  # steps of the traced run (fixed, so counts repeat)

    def setup(self, seed: int, profile: bool = False) -> None:
        raise NotImplementedError

    def step(self) -> Step:
        raise NotImplementedError

    def summary(self, steps: List[Step]) -> Summary:
        raise NotImplementedError

    def modeled_ops_per_s(self, steps: List[Step], summary: Summary) -> float:
        """The end-to-end modeled figure (problems found on the way are
        added to ``summary``)."""
        raise NotImplementedError

    def layer_metrics(self, steps: List[Step], ops: int):
        """Per-layer metrics only this workload can measure, and report
        details: ``(metrics, report)``."""
        return {}, {}


def poisson2d(k: int) -> sps.csr_matrix:
    """The 5-point 2-D Poisson operator on a k x k grid (SciPy)."""
    t = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    eye = sps.identity(k)
    return (sps.kron(eye, t) + sps.kron(t, eye)).tocsr()


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class SolverWorkload(Workload):
    """Repeated fixed-iteration CG (optionally GMG-preconditioned) solves."""

    op = "solver iteration"
    nodes = procs = iters = warmup_iters = base_k = 0
    rows_per_proc = 0
    k_step = 1
    modeled_steps = 3  # modeled throughput over exactly this many solves
    min_steps = 3
    traced_steps = 2
    # The repo's tolerances for these solvers against SciPy.
    rtol, atol = 1e-5, 1e-7

    def grid(self, seed: int) -> int:
        """The build's grid side: within four steps of ``base_k``."""
        return self.base_k + self.k_step * ((seed % 9) - 4)

    def setup(self, seed: int, profile: bool = False) -> None:
        import repro.numeric as rnp
        import repro.sparse as sp
        from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
        from repro.machine import ProcessorKind, summit

        k = self.grid(seed)
        n_full = self.procs * self.rows_per_proc
        self.k = k
        self.host_A = poisson2d(k)
        self.host_b = np.random.default_rng([seed, k]).standard_normal(k * k)
        self.rt = Runtime(
            summit(nodes=self.nodes).scope(ProcessorKind.GPU, self.procs),
            RuntimeConfig.legate(
                data_scale=n_full / (k * k),
                comm_scale=math.sqrt(n_full) / k,
                profile=profile,
            ),
        )
        with runtime_scope(self.rt):
            self.A = sp.csr_matrix(self.host_A)
            self.b = rnp.array(self.host_b)
            self.M = self.preconditioner(self.A, k)
            sp.linalg.cg(self.A, self.b, rtol=0.0, maxiter=self.warmup_iters, M=self.M)
            self.rt.barrier()

    def preconditioner(self, A, k):
        return None

    def step(self) -> Step:
        import repro.sparse as sp
        from repro.legion.runtime import runtime_scope

        with runtime_scope(self.rt):
            t0 = time.perf_counter()
            m0 = self.rt.barrier()
            x, info = sp.linalg.cg(self.A, self.b, rtol=0.0, maxiter=self.iters, M=self.M)
            m1 = self.rt.barrier()
            host = time.perf_counter() - t0
            xh = x.to_numpy()
        return Step(host, self.iters, _digest(xh), modeled_s=m1 - m0, detail=(info, xh))

    def reference(self) -> np.ndarray:
        x, _ = spla.cg(
            self.host_A, self.host_b, rtol=0.0, atol=0.0, maxiter=self.iters,
            M=self.scipy_preconditioner(),
        )
        return x

    def scipy_preconditioner(self):
        return None

    def summary(self, steps: List[Step]) -> Summary:
        problems = []
        ref = self.reference()
        for i, s in enumerate(steps):
            info, xh = s.detail
            if info != self.iters:
                problems.append(f"solve {i}: info={info}, expected {self.iters}")
            if not np.allclose(xh, ref, rtol=self.rtol, atol=self.atol):
                err = float(np.max(np.abs(xh - ref)))
                problems.append(f"solve {i}: differs from SciPy (max abs err {err:.3e})")
        digests = {s.digest for s in steps}
        if len(digests) != 1:
            problems.append(f"solution sha256 not stable across solves: {len(digests)} values")
        return Summary(
            attempted=len(steps),
            failed=0,
            problems=problems,
            report={
                "grid_k": self.k,
                "solution_sha256": steps[0].digest,
                "modeled_s_per_solve": [s.modeled_s for s in steps],
            },
        )

    def modeled_ops_per_s(self, steps: List[Step], summary: Summary) -> float:
        head = steps[: self.modeled_steps]
        return sum(s.ops for s in head) / sum(s.modeled_s for s in head)


class CGWeak192(SolverWorkload):
    """Fig. 9 CG at the paper's largest column: 192 GPUs on 32 nodes."""

    name = "cg-weak-192"
    nodes, procs = 32, 192
    rows_per_proc = 26_000_000
    base_k = 500  # fig9's build rule caps the build at 250k rows
    iters = warmup_iters = 6


class GMG2GPU(SolverWorkload):
    """Fig. 10 two-level GMG-preconditioned CG on 2 GPUs of one node."""

    name = "gmg-2gpu"
    nodes, procs = 1, 2
    rows_per_proc = 8_000_000
    base_k = 511  # must stay odd for the two-level hierarchy
    k_step = 2
    iters = 10
    warmup_iters = 1
    coarse_iters = 8
    omega = 2.0 / 3.0
    rtol, atol = 1e-4, 1e-6

    def preconditioner(self, A, k):
        from repro.apps.multigrid import TwoLevelGMG

        return TwoLevelGMG(
            A, k, coarse_rtol=0.0, coarse_maxiter=self.coarse_iters
        ).as_preconditioner()

    def scipy_preconditioner(self):
        """The same two-level V-cycle in SciPy: injection restriction,
        bilinear prolongation, Galerkin coarse operator, two weighted-
        Jacobi sweeps before and after an 8-iteration coarse CG."""
        k, A = self.k, self.host_A
        kc = (k - 1) // 2
        fine = lambda i: 2 * i + 1  # noqa: E731
        coarse_rows = np.arange(kc * kc)
        ci, cj = np.divmod(coarse_rows, kc)
        R = sps.csr_matrix(
            (np.ones(kc * kc), (coarse_rows, fine(ci) * k + fine(cj))),
            shape=(kc * kc, k * k),
        )
        rows, cols, vals = [], [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                i, j = fine(ci) + di, fine(cj) + dj
                keep = (i >= 0) & (i < k) & (j >= 0) & (j < k)
                rows.append((i * k + j)[keep])
                cols.append(coarse_rows[keep])
                w = (1.0 if di == 0 else 0.5) * (1.0 if dj == 0 else 0.5)
                vals.append(np.full(int(keep.sum()), w))
        P = sps.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(k * k, kc * kc),
        )
        Ac = (R @ A @ P).tocsr()
        dinv = 1.0 / A.diagonal()
        omega = self.omega

        def smooth(r, e, steps):
            for _ in range(steps):
                e = (r * dinv) * omega if e is None else e + ((r - A @ e) * dinv) * omega
            return e

        def vcycle(r):
            e = smooth(r, None, 2)
            ec, _ = spla.cg(Ac, R @ (r - A @ e), rtol=0.0, atol=0.0, maxiter=self.coarse_iters)
            return smooth(r, e + P @ ec, 2)

        return spla.LinearOperator(A.shape, matvec=vcycle)


class ServeMixed(Workload):
    """Open-loop mixed traffic against the multi-tenant SpMV service."""

    name = "serve-mixed"
    op = "request"
    rates = serving.RATES
    requests_per_rate = 1000
    peak_requests = 24000
    warmup_requests = 200

    def setup(self, seed: int, profile: bool = False) -> None:
        self.seed = seed
        self.profile = profile
        self.versions = serving.build_versions(seed)
        self.streams = {
            rate: self.arrivals_at(rate, self.requests_per_rate) for rate in self.rates
        }
        # Warm-up: one short run fills lazy set-up (kernel generation,
        # first-touch imports) before anything is timed.
        warm = self.arrivals_at(self.rates[0], self.warmup_requests)
        serving.run_open_loop(self.versions, warm, self.rates[0], seed, profile=profile)

    def arrivals_at(self, rate: float, count: int):
        return arrivals.generate(self.seed, count, rate, len(serving.TENANTS), serving.ITEMS)

    def step(self) -> Step:
        results = [
            serving.run_open_loop(self.versions, self.streams[rate], rate, self.seed,
                                  profile=self.profile)
            for rate in self.rates
        ]
        digest = hashlib.sha256(
            "".join(r.digest for r in results).encode()
        ).hexdigest()
        return Step(
            host_s=sum(r.host_s for r in results),
            ops=sum(r.attempted for r in results),
            digest=digest,
            failed=sum(r.rejected + r.failed for r in results),
            detail=results,
        )

    def summary(self, steps: List[Step]) -> Summary:
        problems = []
        for i, s in enumerate(steps):
            wrong = sum(r.wrong for r in s.detail)
            if wrong:
                problems.append(f"pass {i}: {wrong} responses differ from R_v @ x")
        if len({s.digest for s in steps}) != 1:
            problems.append("served results differ between passes")
        latencies = [[r.latency_s for r in s.detail] for s in steps]
        if any(m != latencies[0] for m in latencies):
            problems.append("modeled latencies differ between passes")
        per_rate = {}
        for r in steps[0].detail:
            per_rate[f"r{int(r.rate) // 1000}k"] = {
                "p50_ms": 1e3 * stats.percentile(r.latency_s, 50),
                "p99_ms": 1e3 * stats.percentile(r.latency_s, 99),
                "requests": r.attempted,
                "rejected": r.rejected,
                "failed": r.failed,
                "cache_hits": r.cache_hits,
                "generator_late_ms": {
                    "p50": 1e3 * stats.percentile(r.late_s, 50),
                    "p99": 1e3 * stats.percentile(r.late_s, 99),
                    "max": 1e3 * max(r.late_s),
                },
                "backlog_growth": r.backlog_growth,
            }
        return Summary(
            attempted=sum(s.ops for s in steps),
            failed=sum(s.failed for s in steps),
            problems=problems,
            report={
                "rates": per_rate,
                "loop": (
                    f"open, Poisson arrivals, {self.requests_per_rate} requests per rate, "
                    "4 tenants (1 chaos-isolated), model update halfway"
                ),
            },
        )

    def modeled_ops_per_s(self, steps: List[Step], summary: Summary) -> float:
        """Closed-loop capacity over ``peak_requests`` requests."""
        peak, failed = serving.peak_throughput(
            self.versions, self.arrivals_at(self.rates[0], self.peak_requests), self.seed
        )
        if failed:
            summary.problems.append(f"closed-loop capacity run: {failed} requests failed")
        summary.report["peak_rule"] = (
            f"closed loop, {self.peak_requests} requests in rounds of 32 "
            "(four full windows), served / modeled span"
        )
        return peak

    def layer_metrics(self, steps: List[Step], ops: int):
        """Serving-layer figures from the traced pass, plus the open-loop
        maximum-rate search (modeled, so it runs after tracing is off)."""
        results = [r for s in steps for r in s.detail]
        out: Dict[str, float] = {}
        hits = sum(r.cache_hits for r in results)
        widths = [w for r in results for w in r.widths]
        served = hits + len(widths)
        out["serve.cache.lookups"] = served / ops
        out["serve.cache.hit_ratio"] = ratio(hits, served)
        launches = sum(1.0 / w for w in widths)
        out["serve.batch_width.mean"] = len(widths) / launches if launches else 0.0
        out["serve.batched_share"] = ratio(sum(1 for w in widths if w >= 2), len(widths))
        for reason in serving.REFUSALS:
            out[f"serve.refusals.{reason}"] = (
                sum(r.refusals.get(reason, 0) for r in results) / ops
            )
        waits = [w for r in results for w in r.queue_wait_s]
        service = [x for r in results for x in r.service_s]
        late = [x for r in results for x in r.late_s]
        out["serve.queue_wait_ms.p50"] = 1e3 * stats.percentile(waits, 50)
        out["serve.queue_wait_ms.p99"] = 1e3 * stats.percentile(waits, 99)
        out["serve.service_ms.p50"] = 1e3 * stats.percentile(service, 50)
        out["serve.generator_late_ms.p99"] = 1e3 * stats.percentile(late, 99)
        for r in results:
            # Over served requests: refused or failed ones are counted by
            # serve.rejections and success_rate (JSON has no infinity).
            served_s = [x for x in r.latency_s if math.isfinite(x)]
            tag = f"r{int(r.rate) // 1000}k"
            out[f"serve.p50_ms.{tag}"] = 1e3 * stats.percentile(served_s, 50)
            out[f"serve.p99_ms.{tag}"] = 1e3 * stats.percentile(served_s, 99)
        rate, probes = serving.max_rate(
            self.versions,
            lambda r: self.arrivals_at(r, serving.SEARCH_REQUESTS),
            self.seed,
        )
        out["serve.max_rate_rps"] = rate
        rule = (
            f"p99 <= {serving.LATENCY_LIMIT_S * 1e3:g} ms modeled (refused or failed "
            "requests miss it), nothing refused or failed, backlog growth <= 8 requests; "
            f"bisection over [{serving.SEARCH_LO:g}, {serving.SEARCH_HI:g}] rps to "
            f"{serving.SEARCH_STEP:g} rps, {serving.SEARCH_REQUESTS} requests per probe, "
            f"{probes} probes"
        )
        return out, {"max_rate_rule": rule}


class AdviseCG192(Workload):
    """``analyze()`` repeated on a deferred ``trace()`` of the CG program."""

    name = "advise-cg-192"
    op = "analyze() call"
    program = CGWeak192  # the traced program: its machine, size and grid
    min_steps = 2

    def setup(self, seed: int, profile: bool = False) -> None:
        import repro.numeric as rnp
        import repro.sparse as sp
        from repro.analysis import advisor
        from repro.legion.runtime import RuntimeConfig
        from repro.machine import ProcessorKind, summit

        cg = self.program()
        k = cg.grid(seed)
        n_full = cg.procs * cg.rows_per_proc
        self.k = k
        host_A = poisson2d(k)
        host_b = np.random.default_rng([seed, k]).standard_normal(k * k)

        def cg_program():
            A = sp.csr_matrix(host_A)
            b = rnp.array(host_b)
            return sp.linalg.cg(A, b, rtol=0.0, maxiter=cg.iters)

        self.plan = advisor.trace(
            cg_program,
            machine=summit(nodes=cg.nodes),
            kind=ProcessorKind.GPU,
            procs=cg.procs,
            config=RuntimeConfig.legate(
                data_scale=n_full / (k * k), comm_scale=math.sqrt(n_full) / k,
            ),
            name=self.name,
        )

    def step(self) -> Step:
        from repro.analysis import advisor

        t0 = time.perf_counter()
        advice = advisor.analyze(self.plan)
        host = time.perf_counter() - t0
        payload = {
            "launches": advice.launches,
            "findings": [[f.severity, f.rule, f.message] for f in advice.findings],
            "traffic": advice.traffic,
            "memories": [[m.memory, m.peak_bytes] for m in advice.memories],
            "fusion_groups": [list(map(str, g)) for g in advice.fusion_groups],
            "est_kernel_seconds": advice.est_kernel_seconds,
            "est_copy_seconds": advice.est_copy_seconds,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return Step(host, 1, hashlib.sha256(blob).hexdigest(), detail=(advice, payload))

    def summary(self, steps: List[Step]) -> Summary:
        problems = []
        if len({s.digest for s in steps}) != 1:
            problems.append("advisor findings or predicted traffic differ between repeats")
        advice, payload = steps[0].detail
        if advice.launches != len(self.plan.ops) or advice.launches == 0:
            problems.append(f"advisor replayed {advice.launches} of {len(self.plan.ops)} launches")
        if not advice.traffic.get("nic", {}).get("copies"):
            problems.append("advisor predicts no NIC traffic for a 32-node CG")
        if advice.est_kernel_seconds + advice.est_copy_seconds <= 0:
            problems.append("advisor predicts no modeled work")
        return Summary(
            attempted=len(steps),
            failed=0,
            problems=problems,
            report={
                "grid_k": self.k,
                "plan_launches": len(self.plan.ops),
                "findings": len(payload["findings"]),
                "predicted_copies": {
                    cls: entry["copies"] for cls, entry in sorted(advice.traffic.items())
                },
                "advice_sha256": steps[0].digest,
            },
        )

    def modeled_ops_per_s(self, steps: List[Step], summary: Summary) -> float:
        """Iterations per predicted busy second: the advisor's kernel and
        copy estimates spread over the 192 processors."""
        advice, _ = steps[0].detail
        busy = advice.est_kernel_seconds + advice.est_copy_seconds
        return self.program.iters * self.program.procs / busy if busy > 0 else 0.0

    def layer_metrics(self, steps: List[Step], ops: int):
        """The advisor runs no runtime: its launch, copy and footprint
        figures are the ones it predicts for the traced program."""
        advice, _ = steps[0].detail
        out: Dict[str, float] = {
            "legion.launches": advice.launches,
            "distal.kernel_s": advice.est_kernel_seconds,
            "legion.instance.peak_fb_bytes": max(
                (m.peak_bytes for m in advice.memories if m.kind == "framebuffer"),
                default=0,
            ),
        }
        for cls in ("nvlink", "nic"):
            entry = advice.traffic.get(cls, {})
            out[f"machine.copies.{cls}"] = entry.get("copies", 0)
            out[f"machine.copy_bytes.{cls}"] = entry.get("bytes", 0.0)
        return out, {}


WORKLOADS = {
    w.name: w for w in (CGWeak192, GMG2GPU, ServeMixed, AdviseCG192)
}
