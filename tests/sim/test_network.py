"""Unit tests for the network builder."""

import math

import pytest

from repro.core.estimator import EstimatorConfig
from repro.net.ctp.protocol import CtpProtocol
from repro.net.multihoplqi import MultiHopLqi
from repro.sim.network import PROTOCOLS, CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import city_grid, grid
from repro.topology.testbeds import scaled_profile, MIRAGE


def tiny_topology():
    return grid(3, 2, spacing_m=4.0)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        SimConfig(protocol="nonsense")


def test_duration_must_exceed_warmup():
    with pytest.raises(ValueError):
        SimConfig(duration_s=100.0, warmup_s=200.0)


def test_builds_one_node_per_position():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    assert len(net.nodes) == 6


def test_sink_has_no_source_and_is_root():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    sink = net.nodes[0]
    assert sink.source is None
    assert sink.is_root
    assert sink.boot_time == 0.0


def test_ctp_nodes_have_estimators():
    net = CollectionNetwork(tiny_topology(), SimConfig(protocol="4b", duration_s=200.0, warmup_s=50.0))
    for node in net.nodes.values():
        assert isinstance(node.protocol, CtpProtocol)
        assert node.estimator is not None


def test_mhlqi_nodes_have_no_estimator():
    net = CollectionNetwork(
        tiny_topology(), SimConfig(protocol="mhlqi", duration_s=200.0, warmup_s=50.0)
    )
    for node in net.nodes.values():
        assert isinstance(node.protocol, MultiHopLqi)
        assert node.estimator is None


def test_boot_times_staggered():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    boots = [n.boot_time for n in net.nodes.values() if not n.is_root]
    assert all(0.0 <= b <= 30.0 for b in boots)
    assert len(set(boots)) > 1


def test_estimator_config_override():
    config = SimConfig(
        protocol="4b",
        duration_s=200.0,
        warmup_s=50.0,
        estimator_config=EstimatorConfig(table_size=3),
    )
    net = CollectionNetwork(tiny_topology(), config)
    assert net.nodes[1].estimator.table.capacity == 3


def test_interferers_built_from_profile():
    profile = scaled_profile(MIRAGE, 10)
    topo = profile.topology(seed=1)
    net = CollectionNetwork(topo, SimConfig(duration_s=200.0, warmup_s=50.0), profile=profile)
    assert len(net.interferers) == len(profile.interferers)


def test_interferers_disabled_by_config():
    profile = scaled_profile(MIRAGE, 10)
    topo = profile.topology(seed=1)
    net = CollectionNetwork(
        topo,
        SimConfig(duration_s=200.0, warmup_s=50.0, with_interferers=False),
        profile=profile,
    )
    assert net.interferers == []


def test_channel_overrides_applied():
    net = CollectionNetwork(
        tiny_topology(),
        SimConfig(duration_s=200.0, warmup_s=50.0),
        channel_overrides=dict(shadowing_sigma_db=0.0, temporal_sigma_db=0.0),
    )
    assert net.channel.shadowing_sigma_db == 0.0


def test_depth_map_follows_parents():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    # Force parents by hand: 0 ← 1 ← 2, others routeless.
    net.nodes[1].protocol.routing.route_info[0] = None
    net.nodes[1].protocol.routing.parent = 0
    net.nodes[2].protocol.routing.parent = 1
    depths = net.depth_map()
    assert depths[0] == 0
    assert depths[1] == 1
    assert depths[2] == 2
    assert depths[3] is None


def test_depth_map_detects_cycles():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    net.nodes[1].protocol.routing.parent = 2
    net.nodes[2].protocol.routing.parent = 1
    depths = net.depth_map()
    assert depths[1] is None
    assert depths[2] is None


def test_hardware_variation_applied():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    floors = {n.radio.noise_floor_dbm for n in net.nodes.values()}
    assert len(floors) > 1


def test_protocol_registry_complete():
    assert set(PROTOCOLS) == {
        "ctp",
        "ctp-unconstrained",
        "ctp-unidir",
        "ctp-white",
        "4b",
        "mhlqi",
        "geo",
    }


def test_unknown_medium_rejected():
    with pytest.raises(ValueError, match="unknown medium"):
        SimConfig(protocol="4b", medium="warp-drive")


def test_fast_medium_backend_selected():
    from repro.sim.medium_fast import FastRadioMedium

    net = CollectionNetwork(tiny_topology(), SimConfig(protocol="4b", medium="fast"))
    assert isinstance(net.medium, FastRadioMedium)


def test_default_medium_is_exact():
    from repro.sim.medium import RadioMedium
    from repro.sim.medium_fast import FastRadioMedium

    net = CollectionNetwork(tiny_topology(), SimConfig(protocol="4b"))
    assert type(net.medium) is RadioMedium
    assert not isinstance(net.medium, FastRadioMedium)


def test_city_build_keeps_channel_streams_linear_in_nodes():
    """Building a 400-node fast network draws every candidate pair's static
    shadowing once; those one-shot draws must not leave one interned
    generator per pair behind (interned per-pair streams were 79,800, ~236 MB)."""
    topo = city_grid(400, blocks=4, block_m=60.0, rng=RngManager(1).stream("t"))
    net = CollectionNetwork(topo, SimConfig(protocol="4b", seed=1, medium="fast"))
    net.medium.finalize()
    assert len(net.channel._shadowing) > 10 * len(topo.positions)
    assert len(net.channel._rng._streams) <= 2 * len(topo.positions)
