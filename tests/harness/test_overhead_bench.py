"""Overhead bench gate: runs must reproduce the committed payload."""

import copy

from repro.harness.overhead_bench import mismatches

RUN = {"modeled_time_s": 0.5, "solution_sha256": "ab"}
PAYLOAD = {
    "scales": {"summit:64": dict(RUN)},
    "identity": {"fig9_cg": dict(RUN, checker_clean=True)},
}


def test_identical_payload_passes():
    assert mismatches(PAYLOAD, copy.deepcopy(PAYLOAD)) == []


def test_modeled_time_or_hash_drift_fails():
    for field, value in (("modeled_time_s", 0.5000001), ("solution_sha256", "cd")):
        reference = copy.deepcopy(PAYLOAD)
        reference["identity"]["fig9_cg"][field] = value
        (failure,) = mismatches(PAYLOAD, reference)
        assert failure.startswith(f"fig9_cg: {field}")


def test_missing_entry_and_unclean_checker_fail():
    payload = copy.deepcopy(PAYLOAD)
    payload["identity"]["fig9_cg"]["checker_clean"] = False
    reference = copy.deepcopy(PAYLOAD)
    del reference["scales"]["summit:64"]
    assert mismatches(payload, reference) == [
        "summit:64: no committed entry to compare with",
        "fig9_cg: event-log checker found violations",
    ]
