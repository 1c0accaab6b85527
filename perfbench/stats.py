"""Summary rules shared by every workload (pure functions, no imports
from the program under test).

* Host timings are reported as the **median** of in-run samples
  (``statistics.median``: the mean of the two middle samples when the
  count is even).
* Latency percentiles use the **nearest-rank** rule: the p-th percentile
  of n samples is the ceil(p/100 * n)-th smallest, so it is always an
  observed sample and a failed request (``math.inf``) stays visible.
* A tail percentile is reported only with at least ten samples beyond
  it (:func:`tail_percentile`).
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples (the
    small epsilon keeps 99.9 % of 10000 at rank 9990, not 9991)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``0 < p <= 100``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


def tail_percentile(n: int) -> Optional[float]:
    """The highest of 99.9/99/90 with at least ten of ``n`` samples
    beyond its rank, or None when no candidate qualifies."""
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= 10:
            return p
    return None
