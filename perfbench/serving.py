"""Open-loop load generator on the modeled clock (public API only).

The generator interleaves ``SparseService.submit`` and ``SparseService.run``
on the service clock (``service.runtime.issue_time``): it submits every
request whose due time the clock has reached (at least one, so an idle
service jumps to the next arrival), then lets ``run`` drain the queues,
and repeats.  Each request is submitted with its *due* time as its
arrival, so its latency runs from when it was due, including any wait
the generator's own lag imposed; how far the clock had passed the due
time at submission is reported as generator lateness.

``SparseService.serve_streams`` is deliberately not used: its
sequential path admits the whole stream before serving anything, so
the bounded tenant queues reject most of a stream at loads far below
capacity (see ``perfbench/README.md``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np
import scipy.sparse as sps

from perfbench import stats
from perfbench.arrivals import Arrival

USERS, ITEMS, NNZ = 384, 256, 6000
TENANTS = ("t0", "t1", "t2", "chaos")
# Fixed offered rates of the open loop (requests per modeled second).
RATES = (8000, 16000, 32000)
# Why a batcher left a request alone (repro.serve.batcher's taxonomy).
REFUSALS = ("lone-request", "dtype-mix", "version-churn", "shape-mismatch")
LATENCY_LIMIT_S = 1e-3
# Transient copy-fault probability on the chaos tenant's runtime.
COPY_FAULT_RATE = 0.02
# Bracket of the maximum-rate search and its resolution (requests per
# modeled second); requests per probe.
SEARCH_LO, SEARCH_HI, SEARCH_STEP = 16000.0, 48000.0, 500.0
SEARCH_REQUESTS = 6000
# Requests per closed-loop round: four full scheduling windows of 8.
ROUND = 32
# A served result must match SciPy's ``R_v @ x`` to this relative
# tolerance (the serve tests'), measured against ``|R_v| @ |x|`` so that
# rows whose terms cancel are held to the summation-order error bound
# rather than to their tiny result.
RTOL = 1e-9


def build_versions(seed: int) -> List[sps.csr_matrix]:
    """Model versions 0 and 1: one sparsity pattern, retrained values."""
    rng = np.random.default_rng([seed, USERS, ITEMS])
    r0 = sps.random(
        USERS, ITEMS, density=NNZ / (USERS * ITEMS), random_state=rng,
        format="csr", dtype=np.float64,
    )
    r1 = r0.copy()
    r1.data = r1.data * (1.0 + 0.1 * rng.standard_normal(r1.nnz))
    return [r0, r1]


def tenant_configs(seed: int):
    """Three shared tenants plus one chaos-isolated tenant whose
    dedicated runtime injects transient copy faults."""
    from repro.legion.chaos import ChaosConfig
    from repro.serve import TenantConfig

    return [TenantConfig(name) for name in TENANTS[:-1]] + [
        TenantConfig(TENANTS[-1], chaos=ChaosConfig(seed=seed, copy_fault_rate=COPY_FAULT_RATE))
    ]


@dataclass
class RunResult:
    """One open-loop run at one offered rate."""

    rate: float
    attempted: int = 0
    rejected: int = 0
    failed: int = 0
    wrong: int = 0
    host_s: float = 0.0
    latency_s: List[float] = field(default_factory=list)  # inf if not served
    queue_wait_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    widths: List[int] = field(default_factory=list)  # per uncached response
    cache_hits: int = 0
    backlog_growth: float = 0.0
    refusals: Dict[str, int] = field(default_factory=dict)
    digest: str = ""

    @property
    def sustainable(self) -> bool:
        """p99 within the limit (refused or failed requests miss it),
        nothing refused or failed, and no growing backlog."""
        return (
            self.rejected == 0
            and self.failed == 0
            and stats.percentile(self.latency_s, 99) <= LATENCY_LIMIT_S
            and self.backlog_growth <= 8
        )


def matches(matrix: sps.csr_matrix, x: np.ndarray, y: np.ndarray) -> bool:
    """Whether ``y`` is ``matrix @ x`` up to summation order."""
    expect = matrix @ x
    if y.shape != expect.shape:
        return False
    scale = abs(matrix) @ np.abs(x)
    return bool(np.all(np.abs(y - expect) <= RTOL * scale))


def _backlog_growth(due: Sequence[float], finish: Sequence[float]) -> float:
    """How much the queue ahead of a new request grew over the run:
    mean backlog (requests due earlier and not yet finished) seen by the
    last quarter of arrivals minus that seen by the first quarter."""
    n = len(due)
    if n < 8:
        return 0.0
    backlog = []
    finished: List[float] = []
    for i in range(n):
        # Requests 0..i-1 finished by due[i] are those with finish <= due[i].
        backlog.append(i - bisect.bisect_right(finished, due[i]))
        bisect.insort(finished, finish[i])
    q = n // 4
    return float(np.mean(backlog[-q:]) - np.mean(backlog[:q]))


def run_open_loop(
    versions: Sequence[sps.csr_matrix],
    arrivals: Sequence[Arrival],
    rate: float,
    seed: int,
    profile: bool = False,
    check: bool = True,
) -> RunResult:
    """Serve ``arrivals`` open-loop; one model update halfway through."""
    from repro.serve import ServiceConfig, SparseService

    result = RunResult(rate=rate, attempted=len(arrivals))
    t0 = time.perf_counter()
    svc = SparseService(versions[0], tenant_configs(seed), ServiceConfig(profile=profile))
    clock = svc.runtime
    half = len(arrivals) // 2
    pinned: Dict[int, tuple] = {}
    due = [a.due for a in arrivals]
    finish = [math.inf] * len(arrivals)
    i = 0
    while i < len(arrivals):
        now = clock.issue_time
        j = i
        while j < len(arrivals) and (j == i or arrivals[j].due <= now):
            if j == half:
                svc.update_model(versions[1])
            a = arrivals[j]
            result.late_s.append(max(0.0, now - a.due))
            rid = svc.submit(TENANTS[a.tenant], a.x, a.due)
            if rid is None:
                result.rejected += 1
            else:
                pinned[rid] = (a, svc.version)
            j += 1
        svc.run()
        i = j
    result.host_s = time.perf_counter() - t0
    result.refusals = dict(svc.stats().refusals)

    h = hashlib.sha256()
    for rid, (a, version) in sorted(pinned.items(), key=lambda kv: kv[1][0].index):
        resp = svc.responses[rid]
        if not resp.ok:
            result.failed += 1
            continue
        finish[a.index] = resp.finish
        result.queue_wait_s.append(resp.start - resp.arrival)
        result.service_s.append(resp.finish - resp.start)
        if resp.cache_hit:
            result.cache_hits += 1
        else:
            result.widths.append(resp.batch_width)
        h.update(np.ascontiguousarray(resp.y).tobytes())
        if check:
            if not matches(versions[version], a.x, resp.y):
                result.wrong += 1
    result.latency_s = [f - d for f, d in zip(finish, due)]
    result.backlog_growth = _backlog_growth(due, finish)
    result.digest = h.hexdigest()
    return result


def peak_throughput(
    versions: Sequence[sps.csr_matrix], arrivals: Sequence[Arrival], seed: int
) -> tuple:
    """Closed-loop capacity: requests served per modeled second when the
    service is never idle.

    Requests go in rounds of ``ROUND`` (four full scheduling
    windows), all submitted at the current service clock; the next round
    is submitted when ``run`` has drained the previous one, so the
    queues never exceed their bound and nothing is refused.  The due
    times of ``arrivals`` are ignored; their inputs, tenants and the
    halfway model update are kept.  Returns ``(requests_per_s, failed)``.
    """
    from repro.serve import ServiceConfig, SparseService

    svc = SparseService(versions[0], tenant_configs(seed), ServiceConfig())
    clock = svc.runtime
    start = clock.issue_time
    half = len(arrivals) // 2
    for lo in range(0, len(arrivals), ROUND):
        now = clock.issue_time
        for a in arrivals[lo : lo + ROUND]:
            if a.index == half:
                svc.update_model(versions[1])
            if svc.submit(TENANTS[a.tenant], a.x, now) is None:
                raise RuntimeError("closed-loop round exceeded a tenant queue bound")
        svc.run()
    served = [r for r in svc.responses.values() if r.ok]
    span = max(r.finish for r in served) - start
    return len(served) / span, len(svc.responses) - len(served)


def max_rate(versions, arrivals_at, seed: int) -> tuple:
    """Highest sustainable offered rate, by bisection to SEARCH_STEP.

    ``arrivals_at(rate)`` returns the request stream at a rate.  Returns
    ``(rate, probes)``.  The bracket ends are probed only when the
    bisection lands on them: the result is 0.0 when even SEARCH_LO fails
    and SEARCH_HI when the ceiling still sustains.
    """
    probes = 0

    def ok(rate):
        nonlocal probes
        probes += 1
        return run_open_loop(versions, arrivals_at(rate), rate, seed, check=False).sustainable

    lo, hi = SEARCH_LO, SEARCH_HI
    while hi - lo > SEARCH_STEP:
        mid = lo + math.floor((hi - lo) / 2 / SEARCH_STEP) * SEARCH_STEP
        if ok(mid):
            lo = mid
        else:
            hi = mid
    if lo == SEARCH_LO and not ok(lo):
        return 0.0, probes
    if hi == SEARCH_HI and ok(hi):
        return hi, probes
    return lo, probes
