"""Soak fuzzer harness: determinism, invariant judging, payload shape."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.harness.soak_bench import (
    _FAMILIES,
    _judge,
    _measure,
    _pinned_scenario,
    _random_scenario,
    run_soak,
)
from repro.legion.chaos import ChaosConfig, LossSchedule

NODES = 2
PROCS = 4


def test_scenario_generation_is_seed_deterministic():
    window = (0.002, 0.008)
    a = [
        _random_scenario(np.random.default_rng(5), i, window, NODES, PROCS)
        for i in range(1, 6)
    ]
    b = [
        _random_scenario(np.random.default_rng(5), i, window, NODES, PROCS)
        for i in range(1, 6)
    ]
    assert [s["chaos"] for s in a] == [s["chaos"] for s in b]
    assert [s["name"] for s in a] == [s["name"] for s in b]


def test_random_scenarios_cover_schedule_families():
    window = (0.002, 0.008)
    rng = np.random.default_rng(0)
    fams = {
        _random_scenario(rng, i, window, NODES, PROCS)["family"]
        for i in range(1, 60)
    }
    assert fams == set(_FAMILIES)


def test_pinned_scenario_is_node0_loss_at_replicas_2():
    spec = _pinned_scenario((0.002, 0.008))
    chaos = spec["chaos"]
    assert chaos.ckpt_replicas == 2
    assert chaos.losses == (LossSchedule("node", 0, 0.005),)
    assert chaos.checkpoint_every > 0


def test_judge_survival_and_clean_fault_error():
    baseline = _measure(None, nodes=NODES, procs=PROCS)
    window = (baseline["t_solve_start"], baseline["t_solve_end"])
    # The pinned scenario must complete bitwise-identical.
    ok = _judge(baseline, _pinned_scenario(window), NODES, PROCS)
    assert ok["outcome"] == "completed"
    assert ok["bitwise_identical"] and ok["checker_clean"]
    assert ok["invariant_ok"] and not ok["silent_corruption"]
    assert ok["recoveries"] >= 1
    # An unreplicated store loss must be judged a *clean* fault-error.
    fatal = {
        "name": "store-loss",
        "family": "node_loss",
        "chaos": ChaosConfig(
            checkpoint_every=8,
            ckpt_replicas=1,
            losses=(LossSchedule("node", 0, sum(window) / 2),),
        ),
    }
    bad = _judge(baseline, fatal, NODES, PROCS)
    assert bad["outcome"] == "fault-error"
    assert bad["invariant_ok"]
    assert "checkpoint store" in bad["error"]


def test_run_soak_payload_shape_and_invariant():
    payload = run_soak(scenarios=3, seed=1)
    assert payload["summary"]["scenarios"] == 3
    assert len(payload["scenarios"]) == 3
    assert payload["scenarios"][0]["name"] == "s000-node0-replicas2"
    assert payload["summary"]["silent_corruptions"] == 0
    assert payload["summary"]["invariant_violations"] == 0
    assert payload["summary"]["node0_loss_replicated_survivals"] >= 1
    for rec in payload["scenarios"]:
        assert rec["invariant_ok"]


def test_soak_script_refuses_to_shrink_committed_payload():
    """scripts/soak.py must not overwrite BENCH_soak.json with a smoke
    run: fewer than the default scenarios need an explicit --output."""
    script = Path(__file__).resolve().parents[2] / "scripts" / "soak.py"
    soak = runpy.run_path(str(script))
    committed = soak["COMMITTED"].read_bytes()
    with pytest.raises(SystemExit) as exc:
        soak["main"](["--scenarios", "1"])
    assert exc.value.code == 2
    assert soak["COMMITTED"].read_bytes() == committed
