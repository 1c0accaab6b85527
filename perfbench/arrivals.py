"""The open-loop request generator for the serving workload.

Arrivals are a Poisson process: exponential inter-arrival gaps at unit
rate, drawn once per seed, then divided by the offered rate.  Every rate
therefore replays the *same* request sequence compressed in time, so
latency at different rates (and the maximum-rate search) compares like
with like.  The generator is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One request: when it is due, who sends it and what it asks."""

    index: int
    due: float  # modeled seconds from the start of the run
    tenant: int
    x: np.ndarray
    repeated: bool  # drawn from the shared pool (cache-hittable)


# The traffic mix: this share of inputs comes from a pool of POOL_SIZE
# vectors shared by all tenants (cache-hittable); this share of requests
# is downcast to float32 (legal, but unbatchable with float64 traffic).
REPEAT_SHARE = 0.2
FLOAT32_SHARE = 0.1
POOL_SIZE = 8


def generate(seed: int, count: int, rate_rps: float, tenants: int, n: int) -> List[Arrival]:
    """``count`` arrivals at ``rate_rps`` offered requests per modeled
    second, spread uniformly over ``tenants``, inputs of length ``n``."""
    if count < 1 or rate_rps <= 0 or tenants < 1:
        raise ValueError("count, rate_rps and tenants must be positive")
    rng = np.random.default_rng([seed, count, tenants, n])
    gaps = rng.exponential(1.0, size=count)
    due = np.cumsum(gaps) / float(rate_rps)
    owner = rng.integers(0, tenants, size=count)
    repeated = rng.random(count) < REPEAT_SHARE
    pool_pick = rng.integers(0, POOL_SIZE, size=count)
    narrow = rng.random(count) < FLOAT32_SHARE
    pool = rng.standard_normal((POOL_SIZE, n))
    fresh = rng.standard_normal((count, n))
    out: List[Arrival] = []
    for i in range(count):
        x = pool[pool_pick[i]] if repeated[i] else fresh[i]
        if narrow[i]:
            x = x.astype(np.float32)
        out.append(Arrival(i, float(due[i]), int(owner[i]), x, bool(repeated[i])))
    return out
