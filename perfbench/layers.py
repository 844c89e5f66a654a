"""Per-layer metrics of a traced operation, derived from its spans.

``PER_LAYER`` lists every metric the traced run reports, with its unit;
``BENCHMARK.json`` names the same list.  A layer a workload never enters
reports zero for its counts and times.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    # setup: topology, sim.network, phy.channel, medium finalize
    ("topology.build_s", "s"),
    ("network.build_s", "s"),
    ("medium.finalize_s", "s"),
    # engine: sim.engine
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    # medium: sim.medium, sim.medium_fast, phy.*
    ("medium.tx", "count"),
    ("medium.tx_s", "s"),
    ("medium.cca", "count"),
    ("medium.cca_s", "s"),
    ("medium.rx_self_s", "s"),
    ("medium.event_self_s", "s"),
    ("medium.deliveries", "count"),
    ("medium.collisions", "count"),
    ("medium.upcalls_per_tx", "ratio"),
    # MAC: link.mac
    ("mac.rx_upcalls", "count"),
    ("mac.rx_self_s", "s"),
    ("mac.rx_useful_ratio", "ratio"),
    ("mac.event_self_s", "s"),
    ("mac.send_calls", "count"),
    ("mac.send_self_s", "s"),
    ("mac.ack_ratio", "ratio"),
    ("mac.channel_access_failures", "count"),
    # estimator: core.estimator
    ("estimator.rx_calls", "count"),
    ("estimator.rx_self_s", "s"),
    ("estimator.send_done_self_s", "s"),
    ("estimator.send_s", "s"),
    ("estimator.evictions", "count"),
    # CTP facade: net.ctp.protocol (routing vs data dispatch)
    ("ctp.dispatch_self_s", "s"),
    # routing: net.ctp.routing, net.ctp.trickle
    ("routing.beacon_rx", "count"),
    ("routing.beacon_rx_self_s", "s"),
    ("routing.update_route_calls", "count"),
    ("routing.update_route_s", "s"),
    ("routing.event_self_s", "s"),
    ("routing.beacons_sent", "count"),
    ("routing.parent_changes", "count"),
    # forwarding: net.ctp.forwarding
    ("forwarding.data_rx", "count"),
    ("forwarding.data_rx_self_s", "s"),
    ("forwarding.send_done_self_s", "s"),
    ("forwarding.event_self_s", "s"),
    ("forwarding.drops", "count"),
    # workload / reduce: workloads.collection, sim.network, metrics.collection_stats
    ("workload.app_sends", "count"),
    ("workload.self_s", "s"),
    ("reduce_s", "s"),
    # campaign / runner: campaign, runner
    ("campaign.points", "count"),
    ("campaign.enumerate_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.resume_pass_s", "s"),
    ("runner.executed", "count"),
    ("runner.cache_hit_ratio", "ratio"),
    ("runner.cache_put", "count"),
    ("runner.cache_put_s", "s"),
    ("runner.cache_get", "count"),
    ("runner.cache_get_s", "s"),
    ("simulate.self_s", "s"),
    # obs: obs.stream
    ("obs.sink_records", "count"),
    ("obs.sink_emit_s", "s"),
    # anything owned by no layer above
    ("other.self_s", "s"),
    # the tracer itself
    ("trace.spans", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
)

UNITS = dict(PER_LAYER)

#: Metrics computed by :func:`run.py` from several operations, not one.
RUN_LEVEL = ("trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    per_name: Dict[str, Dict[str, float]],
    by_root: Dict[str, float],
    registry: Dict[str, List[Any]],
    out: Dict[str, Any],
) -> Dict[str, float]:
    """One traced operation's per-layer metrics (all but :data:`RUN_LEVEL`).

    ``per_name``/``by_root`` come from :func:`tracing.summarize`,
    ``registry`` holds the components built while instrumented, and
    ``out`` is the operation's own output (see ``workloads.run_op``).
    """

    def count(name: str) -> int:
        return int(per_name.get(name, {}).get("count", 0))

    def total(name: str) -> float:
        return float(per_name.get(name, {}).get("total_s", 0.0))

    def own(name: str) -> float:
        return float(per_name.get(name, {}).get("self_s", 0.0))

    def stat(key: str, attr: str) -> int:
        return sum(int(getattr(obj.stats, attr)) for obj in registry.get(key, ()))

    events = sum(v["count"] for k, v in per_name.items() if k.endswith(".event") or k == "medium.rx")
    rx = count("mac.rx")
    useful = stat("mac", "frames_delivered_up") + stat("mac", "acks_received")
    medium = out.get("medium", {})
    campaign = out.get("campaign", {})
    window = out["window_s"]
    m: Dict[str, float] = {
        "topology.build_s": total("topology.build"),
        "network.build_s": own("network.build"),
        "medium.finalize_s": total("medium.finalize"),
        "engine.events": events,
        "engine.self_s": own("engine.run"),
        "medium.tx": count("medium.tx"),
        "medium.tx_s": total("medium.tx"),
        "medium.cca": count("medium.cca"),
        "medium.cca_s": total("medium.cca"),
        "medium.rx_self_s": own("medium.rx"),
        "medium.event_self_s": own("medium.event"),
        "medium.deliveries": int(medium.get("deliveries", 0)),
        "medium.collisions": int(medium.get("collisions", 0)),
        "medium.upcalls_per_tx": _ratio(rx, count("medium.tx")),
        "mac.rx_upcalls": rx,
        "mac.rx_self_s": own("mac.rx"),
        "mac.rx_useful_ratio": _ratio(useful, rx),
        "mac.event_self_s": own("mac.event"),
        "mac.send_calls": count("mac.send"),
        "mac.send_self_s": own("mac.send"),
        "mac.ack_ratio": _ratio(stat("mac", "acks_received"), stat("mac", "tx_unicast")),
        "mac.channel_access_failures": stat("mac", "channel_access_failures"),
        "estimator.rx_calls": count("estimator.rx"),
        "estimator.rx_self_s": own("estimator.rx"),
        "estimator.send_done_self_s": own("estimator.send_done"),
        "estimator.send_s": total("estimator.send"),
        "estimator.evictions": sum(int(e.table.evictions) for e in registry.get("estimator", ())),
        "ctp.dispatch_self_s": own("ctp.rx") + own("ctp.event"),
        "routing.beacon_rx": count("routing.beacon_rx"),
        "routing.beacon_rx_self_s": own("routing.beacon_rx"),
        "routing.update_route_calls": count("routing.update_route"),
        "routing.update_route_s": total("routing.update_route"),
        "routing.event_self_s": own("routing.event"),
        "routing.beacons_sent": stat("routing", "beacons_sent"),
        "routing.parent_changes": stat("routing", "parent_switches"),
        "forwarding.data_rx": count("forwarding.data_rx"),
        "forwarding.data_rx_self_s": own("forwarding.data_rx"),
        "forwarding.send_done_self_s": own("forwarding.send_done"),
        "forwarding.event_self_s": own("forwarding.event"),
        "forwarding.drops": (
            stat("forwarding", "drops_queue_full")
            + stat("forwarding", "drops_retries")
            + stat("forwarding", "drops_thl")
        ),
        "workload.app_sends": sum(int(s.attempted) for s in registry.get("source", ())),
        "workload.self_s": own("workload.event"),
        "reduce_s": total("reduce"),
        "campaign.points": int(campaign.get("points", 0)),
        "campaign.enumerate_s": total("campaign.enumerate"),
        "campaign.self_s": own("campaign.run"),
        "campaign.resume_pass_s": float(out.get("resume_s", 0.0)),
        "runner.executed": int(campaign.get("executed", 0)),
        "runner.cache_hit_ratio": _ratio(campaign.get("resume_hits", 0), campaign.get("resume_points", 0)),
        "runner.cache_put": count("runner.cache_put"),
        "runner.cache_put_s": total("runner.cache_put"),
        "runner.cache_get": count("runner.cache_get"),
        "runner.cache_get_s": total("runner.cache_get"),
        "simulate.self_s": own("simulate"),
        "obs.sink_records": count("obs.emit"),
        "obs.sink_emit_s": total("obs.emit"),
        "other.self_s": own("other.event"),
        "trace.spans": sum(v["count"] for v in per_name.values()),
        # The part of the operation's own timing of its traced window that
        # no span's self time covers.
        "trace.unattributed_s": window - by_root.get(out["window_root"], 0.0),
    }
    return m


def counts_of(metrics: Dict[str, float]) -> Dict[str, float]:
    """The count metrics, which must repeat exactly for the same input."""
    return {k: v for k, v in metrics.items() if UNITS.get(k) == "count"}
