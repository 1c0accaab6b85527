"""Tests for the benchmark's pure parts (no program under test needed).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import arrivals, layers, stats
from perfbench.metrics import END_TO_END
from perfbench.serving import _backlog_growth
from perfbench.spans import Span, Tracer, self_time_by_layer, self_times

ROOT = Path(__file__).resolve().parents[2]
# Metric names: a letter or digit, then letters, digits, "_", "." or "-".
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- arrivals ----------------------------------------------------------------
def _key(stream):
    return [(a.index, a.due, a.tenant, a.repeated, a.x.dtype.str, a.x.tobytes()) for a in stream]


def test_arrivals_are_a_pure_function_of_the_seed():
    a = arrivals.generate(7, 300, 16000, 4, 32)
    b = arrivals.generate(7, 300, 16000, 4, 32)
    assert _key(a) == _key(b)
    assert _key(arrivals.generate(8, 300, 16000, 4, 32)) != _key(a)


def test_arrivals_replay_one_sequence_at_every_rate():
    slow = arrivals.generate(3, 200, 8000, 4, 16)
    fast = arrivals.generate(3, 200, 32000, 4, 16)
    assert [a.tenant for a in slow] == [a.tenant for a in fast]
    assert all(np.array_equal(s.x, f.x) for s, f in zip(slow, fast))
    assert [s.due / 4 for s in slow] == pytest.approx([f.due for f in fast], rel=1e-12)


def test_arrivals_mix():
    stream = arrivals.generate(1, 4000, 16000, 4, 8)
    dues = [a.due for a in stream]
    assert dues == sorted(dues) and dues[0] > 0
    # Poisson arrivals at 16k rps: 4000 requests take about a quarter second.
    assert dues[-1] == pytest.approx(4000 / 16000, rel=0.1)
    share32 = sum(a.x.dtype == np.float32 for a in stream) / len(stream)
    repeated = sum(a.repeated for a in stream) / len(stream)
    assert share32 == pytest.approx(0.1, abs=0.02)
    assert repeated == pytest.approx(0.2, abs=0.03)
    assert {a.tenant for a in stream} == {0, 1, 2, 3}


def test_arrivals_reject_bad_arguments():
    with pytest.raises(ValueError):
        arrivals.generate(1, 0, 1000, 4, 8)
    with pytest.raises(ValueError):
        arrivals.generate(1, 10, 0, 4, 8)


# -- self time ---------------------------------------------------------------
def test_self_time_nested_spans():
    spans = [
        Span(0, None, "a", "outer", 0.0, 10.0),
        Span(1, 0, "b", "mid", 2.0, 8.0),
        Span(2, 1, "c", "inner", 3.0, 5.0),
    ]
    assert self_times(spans) == {0: 4.0, 1: 4.0, 2: 2.0}


def test_self_time_siblings_and_overlap():
    spans = [
        Span(0, None, "a", "parent", 0.0, 10.0),
        Span(1, 0, "b", "first", 1.0, 3.0),
        Span(2, 0, "b", "second", 5.0, 9.0),
        # Overlaps the second sibling and sticks out past the parent:
        # covered time is the union, clipped to the parent's interval.
        Span(3, 0, "c", "third", 8.0, 12.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (2.0 + 5.0))
    assert self_time_by_layer(spans) == pytest.approx({"a": 3.0, "b": 6.0, "c": 4.0})


def test_tracer_matches_self_times_with_a_fake_clock():
    now = [0.0]

    def clock():
        return now[0]

    tracer = Tracer(clock=clock)

    def leaf():
        now[0] += 1.0

    def mid():
        now[0] += 0.5
        traced_leaf()
        traced_leaf()
        now[0] += 0.25

    traced_leaf = tracer.wrap(leaf, "leaf", "leaf")
    traced_mid = tracer.wrap(mid, "mid", "mid")
    traced_mid()
    traced_leaf()
    assert tracer.calls == {"leaf": 3, "mid": 1}
    assert dict(tracer.self_s) == pytest.approx({"leaf": 3.0, "mid": 0.75})
    assert dict(tracer.self_s) == pytest.approx(self_time_by_layer(tracer.spans))
    parents = {s.name: s.parent for s in tracer.spans}
    assert parents["mid"] is None


def test_tracer_patches_and_restores_a_class():
    class Thing:
        def work(self, x):
            return x + 1

        def _private(self):
            return 0

    original = Thing.__dict__["work"]
    tracer = Tracer()
    tracer.patch_class(Thing, "things")
    assert not getattr(Thing.__dict__["_private"], "__perfbench_wrapped__", False)
    assert Thing().work(1) == 2
    assert tracer.calls["things"] == 1
    tracer.uninstall()
    assert Thing.__dict__["work"] is original


def test_tracer_reset_refuses_open_spans():
    tracer = Tracer()
    tracer.enter("x", "open")
    with pytest.raises(RuntimeError):
        tracer.reset()


# -- summary rules -----------------------------------------------------------
def test_median_rule():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([5.0], 99) == 5.0
    # A refused request (infinite latency) stays visible in the tail.
    assert stats.percentile([1.0] * 99 + [math.inf], 99.5) == math.inf
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_backlog_growth():
    due = [float(i) for i in range(40)]
    # Each request finishes right after it is due: no queue builds up.
    assert _backlog_growth(due, [d + 0.5 for d in due]) == 0.0
    # Service three times slower than arrivals: the queue grows.
    assert _backlog_growth(due, [3.0 * (i + 1) for i in range(40)]) > 8


# -- metric names ------------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _ in END_TO_END] + layers.metric_names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    units = layers.units()
    assert set(units) == set(layers.metric_names())
    for unit in list(units.values()) + [u for _, u in END_TO_END]:
        assert len(unit) <= 16


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    units = layers.units()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, units[n]) for n in layers.metric_names()
    ]
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- host-speed adjustment ---------------------------------------------------
def test_adjust_scales_by_the_calibration_elasticity():
    from perfbench import calibrate

    ref = calibrate.REFERENCE_MS / 1e3
    assert calibrate.adjust(2.0, ref, ref) == pytest.approx(2.0)
    slow = 4 * ref
    assert calibrate.adjust(2.0, slow, slow) == pytest.approx(
        2.0 * 0.25 ** calibrate.ELASTICITY
    )
    # The two bracketing samples are averaged.
    assert calibrate.adjust(1.0, ref / 2, 3 * ref / 2) == pytest.approx(1.0)


def test_adjusted_median_pairs_each_unit_with_its_brackets():
    from perfbench import calibrate

    ref = calibrate.REFERENCE_MS / 1e3
    raws = [1.0, 5.0, 3.0]
    assert calibrate.adjusted_median(raws, [ref] * 4) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        calibrate.adjusted_median(raws, [ref] * 3)
