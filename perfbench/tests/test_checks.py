"""Output checks: golden counters, protocol bands, campaign rules, repeats."""

import copy

import workloads
from workloads import check_op, check_repeats

EXPECTED = {
    "mirage_4b_exact": {
        "counters": {"sim-seed-1": {"events": 100, "beacons_sent": 7}},
        "bands": {"delivery_ratio": [0.95, 1.0], "cost": [1.0, 3.0]},
    },
    "campaign_kukb": {"summary_sha256": {"spec-seed-1": "abc"}},
}


def _sim_out(**counters):
    base = {"events": 100, "beacons_sent": 7}
    base.update(counters)
    return {"counters": base, "protocol": {"delivery_ratio": 0.99, "cost": 1.7}}


def _campaign_out(**counters):
    base = {
        "points": 90,
        "failed_points": 0,
        "cold_executed": 90,
        "cold_cache_hits": 0,
        "resume_executed": 0,
        "resume_cache_hits": 90 * workloads.RESUME_PASSES,
        "resume_identical": True,
        "summary_sha256": "abc",
    }
    base.update(counters)
    return {"counters": base, "protocol": {}}


SIM_INPUT = {"sim_seed": 1}
SPEC_INPUT = {"spec": {"base": {"seed": 1}}}


def test_golden_counters_pass_and_an_injected_change_fails():
    assert check_op("mirage_4b_exact", SIM_INPUT, _sim_out(), EXPECTED) == []
    problems = check_op("mirage_4b_exact", SIM_INPUT, _sim_out(events=101), EXPECTED)
    assert problems == ["events=101, expected 100"]


def test_held_out_seed_is_held_to_the_bands_only():
    held_out = {"sim_seed": 99}
    assert check_op("mirage_4b_exact", held_out, _sim_out(events=5), EXPECTED) == []
    out = _sim_out()
    out["protocol"]["cost"] = 3.5
    assert check_op("mirage_4b_exact", held_out, out, EXPECTED) == ["cost=3.5 outside [1.0, 3.0]"]
    out["protocol"]["cost"] = float("nan")
    assert len(check_op("mirage_4b_exact", held_out, out, EXPECTED)) == 1


def test_campaign_rules():
    assert check_op("campaign_kukb", SPEC_INPUT, _campaign_out(), EXPECTED) == []
    for bad in (
        {"resume_executed": 1},
        {"resume_identical": False},
        {"cold_cache_hits": 3},
        {"summary_sha256": "def"},
        {"failed_points": 2},
    ):
        assert len(check_op("campaign_kukb", SPEC_INPUT, _campaign_out(**bad), EXPECTED)) == 1, bad


def test_repeats_of_one_input_must_match_exactly():
    a = {"input_key": "k1", "counters": {"events": 1}}
    b = {"input_key": "k2", "counters": {"events": 2}}
    again = copy.deepcopy(a)
    assert check_repeats([a, b, again]) == []
    again["counters"]["events"] = 3
    assert check_repeats([a, b, again]) == [2]


def test_inputs_come_from_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.inputs(workload, 7)
        assert first == workloads.inputs(workload, 7)
        assert first != workloads.inputs(workload, 8)
        keys = [workloads.input_key(inp) for inp in first]
        assert len(set(keys)) == len(keys)
    # Index 0 is the seed itself: the default seed runs the committed spec.
    spec = workloads.inputs("campaign_kukb", workloads.DEFAULT_SEED)[0]["spec"]
    assert spec == __import__("json").loads(workloads.KUKB_SPEC.read_text())
