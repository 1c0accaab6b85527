"""Host-speed adjustment of the untraced run's timings.

The host these benchmarks run on drifts by a quarter of its speed and
more over tens of seconds while neighbours contend for cache and memory
bandwidth, and every raw timing drifts with it: raw medians of ten runs
spread by 7-31 % of their median.  A fixed calibration task, timed right
before and after every timed unit, measures that drift as it happens.
The task is a pointer chase over a large list of small Python objects,
memory-latency bound like the runtime's walks over regions, pieces and
instances.

Each timed unit is then adjusted with the calibration as a control
variate, in log space::

    adjusted = raw * (REFERENCE_MS / calibration_ms) ** ELASTICITY

where ``calibration_ms`` is the mean of the two samples bracketing the
unit.  The calibration task is more sensitive to contention than the
workloads are, so the full ratio (elasticity 1) over-corrects; 0.5 is a
compromise fitted over 69 runs of the four workloads on a 2-vCPU x86-64
host (the best value per workload ranged from 0.3 to 0.8), where it cut
the run-to-run spread of ``host_ms_per_op`` from up to 31 % of the
median to at most 15 %.  A change to the program moves ``raw`` and
leaves the calibration alone, so it shows in full.
"""

from __future__ import annotations

import random
import time
from typing import List

from perfbench import stats

# Calibration time the adjusted timings are expressed at (about one
# sample on an idle 2-vCPU x86-64 host), and the elasticity above.
REFERENCE_MS = 20.0
ELASTICITY = 0.5


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Calibrator:
    """Builds the calibration working set once; ``sample()`` times one
    pass of the pointer chase."""

    CELLS = 400_000  # working set well beyond the caches
    READS = 60_000  # about 20-40 ms per sample

    def __init__(self):
        rng = random.Random(0x5EED)
        self._cells = [_Cell(i) for i in range(self.CELLS)]
        self._order = [rng.randrange(self.CELLS) for _ in range(self.READS)]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time one pass (seconds); the sample is also kept."""
        cells = self._cells
        t0 = time.perf_counter()
        total = 0
        for i in self._order:
            total += cells[i].value
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def adjust(raw: float, before: float, after: float) -> float:
    """One timed unit at reference speed, from the calibration samples
    (seconds) taken just before and just after it."""
    calibration_ms = 1e3 * (before + after) / 2.0
    return raw * (REFERENCE_MS / calibration_ms) ** ELASTICITY


def adjusted_median(raws: List[float], brackets: List[float]) -> float:
    """Median of ``raws[i]`` adjusted by ``brackets[i]`` and
    ``brackets[i + 1]`` (one calibration sample between every two units,
    one before the first and one after the last)."""
    if len(brackets) != len(raws) + 1:
        raise ValueError("need one calibration sample around every timed unit")
    return stats.median(
        [adjust(r, brackets[i], brackets[i + 1]) for i, r in enumerate(raws)]
    )
