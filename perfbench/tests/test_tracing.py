"""Self-time arithmetic and the instrumentation of a real network."""

import math

import pytest

import tracing
from tracing import SpanTracer, root_of, self_times, summarize


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    own = self_times(parent, start, end)
    assert own.tolist() == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4])
    # The self times of a tree add up to its root's duration.
    assert own.sum() == pytest.approx(10.0)


def test_root_of_follows_chains_and_separate_trees():
    parent = [-1, 0, 1, -1, 3, 0]
    assert root_of(parent).tolist() == [0, 0, 0, 3, 3, 0]


def test_summarize_counts_totals_and_root_sums():
    tracer = SpanTracer()
    # Hand-built spans: two "outer" roots, each with one "inner" child.
    for base in (0.0, 20.0):
        outer = tracer.name_id("outer")
        inner = tracer.name_id("inner")
        tracer.name_ids.extend([outer, inner])
        tracer.parents.extend([-1, len(tracer.starts)])
        tracer.starts.extend([base, base + 1.0])
        tracer.ends.extend([base + 10.0, base + 3.0])
    per_name, by_root = summarize(tracer)
    assert per_name["outer"] == {"count": 2, "total_s": 20.0, "self_s": 16.0}
    assert per_name["inner"] == {"count": 2, "total_s": 4.0, "self_s": 4.0}
    assert by_root == {"outer": pytest.approx(20.0)}


def test_live_spans_nest_and_account_for_the_root():
    tracer = SpanTracer()

    def leaf():
        return sum(range(2000))

    def middle():
        return tracer.span("leaf", leaf) + tracer.span("leaf", leaf)

    tracer.span("root", lambda: [tracer.span("middle", middle) for _ in range(3)])
    data = tracer.arrays()
    names = [tracer.names[i] for i in data["name_id"]]
    assert names.count("leaf") == 6 and names.count("middle") == 3
    assert data["parent"][0] == -1
    per_name, by_root = summarize(tracer)
    root_duration = data["end"][0] - data["start"][0]
    assert by_root["root"] == pytest.approx(root_duration, rel=1e-9)
    assert all(v["self_s"] >= 0 for v in per_name.values())


def test_event_span_names_follow_the_owning_module():
    from repro.link.mac import Mac
    from repro.sim.medium import RadioMedium

    assert tracing.layer_of("repro.net.ctp.trickle") == "routing"
    assert tracing.layer_of("repro.sim.medium_fast") == "medium"
    assert tracing.layer_of("somewhere.else") == "other"
    mac = Mac.__new__(Mac)
    medium = RadioMedium.__new__(RadioMedium)
    assert tracing.event_span_name(mac._cca) == "mac.event"
    assert tracing.event_span_name(medium._end_transmission) == "medium.rx"


def _small_network():
    from repro.metrics.collection_stats import compute_result
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.sim.rng import RngManager
    from repro.topology.generators import grid

    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(7).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=3, duration_s=40.0, warmup_s=20.0, drain_s=5.0)
    net = CollectionNetwork(topo, config)
    net.engine.run_until(config.duration_s)
    result = compute_result(net)
    return net, (result.events_run, result.beacons_sent, net.medium.deliveries)


def test_instrumented_run_is_unperturbed_and_fully_attributed():
    import layers

    from repro.sim.engine import Engine

    original = Engine.__dict__["schedule_at"]
    _net, plain = _small_network()
    counts = []
    for _ in range(2):
        tracer = SpanTracer()
        inst = tracing.instrument(tracer)
        try:
            net, traced = _small_network()
        finally:
            inst.undo()
        assert traced == plain
        per_name, by_root = summarize(tracer)
        out = {"window_s": by_root["engine.run"], "window_root": "engine.run",
               "medium": {"deliveries": net.medium.deliveries}}
        metrics = layers.layer_metrics(per_name, by_root, inst.registry, out)
        assert metrics["engine.events"] == net.engine.events_run
        assert metrics["mac.rx_upcalls"] == net.medium.deliveries
        assert metrics["routing.beacons_sent"] == plain[1]
        loop = per_name["engine.run"]["total_s"]
        assert math.isclose(by_root["engine.run"], loop, rel_tol=1e-9)
        counts.append(layers.counts_of(metrics))
    assert counts[0] == counts[1]
    assert Engine.__dict__["schedule_at"] is original  # undo restored it
