"""Unit tests for the channel model."""

import math
import random

import pytest

from repro.phy.channel import ChannelModel, PathLossModel
from repro.sim.rng import RngManager, derive_seed


def make_channel(**kwargs) -> ChannelModel:
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (0.0, 25.0)}
    defaults = dict(shadowing_sigma_db=3.0, temporal_sigma_db=1.0, temporal_tau_s=10.0)
    defaults.update(kwargs)
    return ChannelModel(positions, RngManager(5), **defaults)


def test_pathloss_log_distance():
    pl = PathLossModel(pl_d0_db=55.0, exponent=3.0)
    assert pl.loss_db(1.0) == pytest.approx(55.0)
    assert pl.loss_db(10.0) == pytest.approx(85.0)
    assert pl.loss_db(100.0) == pytest.approx(115.0)


def test_pathloss_clamps_below_reference_distance():
    pl = PathLossModel()
    assert pl.loss_db(0.01) == pl.loss_db(1.0)


def test_distance():
    ch = make_channel()
    assert ch.distance(0, 1) == pytest.approx(10.0)
    assert ch.distance(0, 2) == pytest.approx(25.0)


def test_mean_gain_symmetric():
    ch = make_channel()
    assert ch.mean_gain_db(0, 1) == ch.mean_gain_db(1, 0)


def test_mean_gain_deterministic_per_seed():
    a = make_channel().mean_gain_db(0, 1)
    b = make_channel().mean_gain_db(0, 1)
    assert a == b


def test_farther_pairs_have_lower_gain_without_shadowing():
    ch = make_channel(shadowing_sigma_db=0.0)
    assert ch.mean_gain_db(0, 1) > ch.mean_gain_db(0, 2)


def test_no_shadowing_matches_pure_pathloss():
    ch = make_channel(shadowing_sigma_db=0.0)
    assert ch.mean_gain_db(0, 1) == pytest.approx(-ch.pathloss.loss_db(10.0))


def test_gain_symmetric_in_time():
    ch = make_channel()
    assert ch.gain_db(0, 1, 5.0) == ch.gain_db(1, 0, 5.0)


def test_temporal_component_frozen_for_tiny_dt():
    ch = make_channel()
    a = ch.temporal_db(0, 1, 100.0)
    b = ch.temporal_db(0, 1, 100.0005)  # well below 1% of tau
    assert a == b


def test_temporal_component_varies_over_long_times():
    ch = make_channel(temporal_sigma_db=2.0)
    samples = {round(ch.temporal_db(0, 1, t), 6) for t in range(0, 2000, 50)}
    assert len(samples) > 5


def test_temporal_disabled_when_sigma_zero():
    ch = make_channel(temporal_sigma_db=0.0)
    assert ch.temporal_db(0, 1, 123.0) == 0.0


def test_temporal_process_roughly_bounded():
    # OU with sigma=2: excursions beyond 5 sigma are effectively impossible.
    ch = make_channel(temporal_sigma_db=2.0)
    values = [ch.temporal_db(0, 1, t * 7.0) for t in range(500)]
    assert max(abs(v) for v in values) < 10.0


def test_add_position_rejects_duplicates():
    ch = make_channel()
    with pytest.raises(ValueError):
        ch.add_position(0, (5.0, 5.0))


def test_add_position_extends_model():
    ch = make_channel()
    ch.add_position(99, (3.0, 4.0))
    assert ch.distance(0, 99) == pytest.approx(5.0)


def test_bimodal_disabled_by_default():
    ch = make_channel()
    assert ch._fade_db(0, 1, 50.0) == 0.0


def test_bimodal_fraction_one_fades_sometimes():
    ch = make_channel(
        bimodal_fraction=1.0, fade_depth_db=20.0, fade_dwell_s=10.0, good_dwell_s=10.0
    )
    values = {ch._fade_db(0, 1, float(t)) for t in range(0, 500, 5)}
    assert values == {0.0, -20.0}


def test_bimodal_fraction_zero_pairs_never_fade():
    ch = make_channel(bimodal_fraction=0.0)
    assert all(ch._fade_db(0, 1, float(t)) == 0.0 for t in range(0, 100, 10))


def test_bimodal_state_included_in_gain():
    always_faded = make_channel(
        bimodal_fraction=1.0,
        fade_depth_db=30.0,
        fade_dwell_s=1e9,
        good_dwell_s=1e-6,
        temporal_sigma_db=0.0,
    )
    # With a near-certain fade state the gain sits ~30 dB below the mean.
    gain = always_faded.gain_db(0, 1, 1000.0)
    mean = always_faded.mean_gain_db(0, 1)
    assert gain <= mean  # faded or (vanishingly unlikely) equal


def test_instantaneous_extra_combines_components():
    ch = make_channel(temporal_sigma_db=1.0, bimodal_fraction=0.0)
    extra = ch.instantaneous_extra_db(0, 1, 50.0)
    assert extra == pytest.approx(ch.temporal_db(0, 1, 50.0))


def test_per_pair_draws_replay_named_streams_without_interning():
    """Shadowing, the OU start value and the bimodal decision equal the
    first values of their named streams, and none of those streams is
    interned; only the multi-use OU and dwell streams are."""
    channel = make_channel(bimodal_fraction=1.0)

    def fresh(*key):
        return random.Random(derive_seed(5, *key))

    assert channel.mean_gain_db(2, 0) == -channel.pathloss.loss_db(25.0) + fresh(
        "shadow", 0, 2
    ).gauss(0.0, 3.0)
    assert channel.mean_gain_many(1, [0, 2]) == [
        channel.mean_gain_db(1, 0),
        -channel.pathloss.loss_db(channel.distance(1, 2)) + fresh("shadow", 1, 2).gauss(0.0, 3.0),
    ]
    assert channel.temporal_db(1, 0, 4.0) == fresh("ou-init", 0, 1).gauss(0.0, 1.0)
    channel.instantaneous_extra_db(0, 2, 4.0)
    bimodal = fresh("bimodal", 0, 2)
    assert bimodal.random() < 1.0
    assert channel._gilbert[(0, 2)].faded == (bimodal.random() >= 240.0 / (240.0 + 80.0))
    assert sorted(channel._rng._streams) == [
        ("bimodal-dwell", 0, 2),
        ("ou", 0, 1),
        ("ou", 0, 2),
    ]
