"""Unit tests for the CTP routing engine (parent selection + 2 network bits)."""

import math
import random

import pytest

from repro.core.estimator import EstimatorConfig
from repro.net.ctp.frames import NO_PARENT, make_routing_frame
from repro.net.ctp.routing import CtpRoutingConfig, CtpRoutingEngine
from repro.sim.engine import Engine

from tests.conftest import make_rx_info
from tests.core.helpers import beacon, build_estimator, unicast_attempt
from tests.net.helpers import FakeEstimator


def make_engine(engine, qualities=None, is_root=False, node_id=10, **config):
    estimator = FakeEstimator(qualities)
    routing = CtpRoutingEngine(
        engine,
        estimator,
        node_id=node_id,
        is_root=is_root,
        rng=random.Random(5),
        config=CtpRoutingConfig(**config),
    )
    return routing, estimator


def hear(routing, src, parent, path_etx, pull=False):
    frame = make_routing_frame(src=src, parent=parent, path_etx=path_etx, pull=pull)
    routing.on_beacon_received(frame, make_rx_info(), src)


def test_root_path_etx_zero(engine):
    routing, _ = make_engine(engine, is_root=True)
    assert routing.path_etx() == 0.0


def test_no_route_is_infinite(engine):
    routing, _ = make_engine(engine)
    assert math.isinf(routing.path_etx())
    assert routing.parent is None


def test_selects_min_cost_parent(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 1.0})
    hear(routing, 1, parent=0, path_etx=2.0)
    hear(routing, 2, parent=0, path_etx=0.0)
    assert routing.parent == 2
    assert routing.path_etx() == pytest.approx(1.0)


def test_parent_is_pinned(engine):
    routing, est = make_engine(engine, qualities={1: 1.0})
    hear(routing, 1, parent=0, path_etx=0.0)
    assert est.pinned == {1}


def test_switch_unpins_old_parent(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 1.0})
    hear(routing, 1, parent=0, path_etx=5.0)
    assert routing.parent == 1
    hear(routing, 2, parent=0, path_etx=0.0)
    assert routing.parent == 2
    assert est.pinned == {2}


def test_hysteresis_prevents_marginal_switch(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 1.0}, parent_switch_threshold=1.5)
    hear(routing, 1, parent=0, path_etx=1.0)
    assert routing.parent == 1  # cost 2.0
    hear(routing, 2, parent=0, path_etx=0.0)  # cost 1.0, gain 1.0 < 1.5
    assert routing.parent == 1
    hear(routing, 2, parent=0, path_etx=0.0)
    est.set_quality(1, 3.0)  # old parent degrades: cost 4.0 vs 1.0
    routing.update_route()
    assert routing.parent == 2


def test_high_etx_links_unusable(engine):
    routing, _ = make_engine(engine, qualities={1: 50.0}, max_link_etx=10.0)
    hear(routing, 1, parent=0, path_etx=0.0)
    assert routing.parent is None


def test_neighbor_advertising_me_as_parent_skipped(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0}, node_id=10)
    hear(routing, 1, parent=10, path_etx=3.0)  # immediate loop
    assert routing.parent is None


def test_root_never_selects_parent(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0}, is_root=True)
    hear(routing, 1, parent=0, path_etx=0.0)
    assert routing.parent is None


def test_compare_bit_true_when_better_than_current_route(engine):
    routing, _ = make_engine(engine, qualities={1: 2.0}, compare_new_link_etx=1.0)
    hear(routing, 1, parent=0, path_etx=4.0)  # my cost: 6.0
    frame = make_routing_frame(src=9, parent=0, path_etx=2.0)  # 2+1 < 6
    assert routing.compare_bit(frame, make_rx_info())
    assert routing.stats.compare_true == 1


def test_compare_bit_false_when_worse(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0})
    hear(routing, 1, parent=0, path_etx=0.0)  # my cost 1.0
    frame = make_routing_frame(src=9, parent=0, path_etx=3.0)
    assert not routing.compare_bit(frame, make_rx_info())


def test_compare_bit_true_when_no_route(engine):
    routing, _ = make_engine(engine)
    frame = make_routing_frame(src=9, parent=0, path_etx=7.0)
    assert routing.compare_bit(frame, make_rx_info())


def test_compare_bit_false_for_unrouted_beacon(engine):
    routing, _ = make_engine(engine)
    frame = make_routing_frame(src=9, parent=NO_PARENT, path_etx=math.inf)
    assert not routing.compare_bit(frame, make_rx_info())


def test_compare_bit_false_for_non_routing_frames(engine):
    from repro.link.frame import NetworkFrame

    routing, _ = make_engine(engine)
    assert not routing.compare_bit(NetworkFrame(src=1, dst=2, length_bytes=5), make_rx_info())


def test_beacons_carry_route_state(engine):
    routing, est = make_engine(engine, qualities={1: 1.5})
    routing.start()
    hear(routing, 1, parent=0, path_etx=0.0)
    engine.run_until(0.5)
    assert est.sent, "a beacon should have gone out"
    latest = est.sent[-1]
    assert latest.parent == 1
    assert latest.path_etx == pytest.approx(1.5)


def test_routeless_beacons_set_pull(engine):
    routing, est = make_engine(engine)
    routing.start()
    engine.run_until(0.5)
    assert est.sent
    assert est.sent[-1].pull


def test_beacon_retry_when_mac_busy(engine):
    routing, est = make_engine(engine)
    est.accept_sends = False
    routing.start()
    engine.run_until(0.2)
    est.accept_sends = True
    engine.run_until(1.0)
    assert est.sent  # the retry got through


def test_pull_beacon_resets_trickle(engine):
    routing, _ = make_engine(engine, qualities={1: 1.0}, is_root=True)
    before = routing.trickle.resets
    hear(routing, 1, parent=0, path_etx=2.0, pull=True)
    assert routing.trickle.resets == before + 1


def test_loop_signal_resets_trickle_and_sets_pull(engine):
    routing, est = make_engine(engine, qualities={1: 1.0})
    hear(routing, 1, parent=0, path_etx=0.0)
    routing.start()
    before = routing.trickle.resets
    routing.signal_loop_suspected()
    assert routing.trickle.resets == before + 1
    assert routing.stats.loop_signals == 1


def test_first_route_triggers_callback(engine):
    routing, _ = make_engine(engine)
    found = []
    routing.on_route_found = lambda: found.append(True)
    hear(routing, 1, parent=0, path_etx=0.0)
    assert not found  # neighbor not in estimator table → unusable
    routing.estimator.set_quality(1, 1.0)
    routing.update_route()
    assert found == [True]


# ----------------------------------------------------------------------
# Skipping unchanged re-evaluations
# ----------------------------------------------------------------------
def _routing_over_real_estimator():
    estimator, _client, engine = build_estimator(EstimatorConfig(ku=2, kb=2))
    routing = CtpRoutingEngine(engine, estimator, node_id=0, is_root=False, rng=random.Random(5))
    for src in (1, 2):
        beacon(estimator, src, seq=0)
        beacon(estimator, src, seq=1)  # kb beacons: one ETX sample, mature
    hear(routing, 1, parent=9, path_etx=1.0)
    hear(routing, 2, parent=9, path_etx=1.2)
    return routing, estimator


def test_unchanged_inputs_skip_reevaluation():
    routing, estimator = _routing_over_real_estimator()
    assert routing.parent == 1
    calls = []
    original = routing._select_parent
    routing._select_parent = lambda: calls.append(1) or original()
    routing.update_route()
    hear(routing, 1, parent=9, path_etx=1.0)  # same advertisement: no change
    assert calls == []
    hear(routing, 1, parent=9, path_etx=1.1)
    assert calls == [1]


def test_ack_stream_etx_change_reevaluates_without_a_beacon():
    routing, estimator = _routing_over_real_estimator()
    assert routing.parent == 1
    routing.update_route()  # recorded: nothing changed since
    for _ in range(4):
        unicast_attempt(estimator, 1, acked=False)  # two failed windows of ku
    assert estimator.link_quality(1) > estimator.link_quality(2) + 1.5
    routing.update_route()
    assert routing.parent == 2


def test_estimator_without_version_always_reevaluates(engine):
    routing, est = make_engine(engine, qualities={1: 1.0, 2: 5.0})
    hear(routing, 1, parent=0, path_etx=0.0)
    hear(routing, 2, parent=0, path_etx=0.0)
    assert routing.parent == 1
    est.set_quality(1, 9.0)  # FakeEstimator has no quality version
    routing.update_route()
    assert routing.parent == 2
