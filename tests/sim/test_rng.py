"""Unit tests for deterministic RNG streams."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngManager, derive_seed


def test_same_key_same_stream_object():
    mgr = RngManager(1)
    assert mgr.stream("a", 1) is mgr.stream("a", 1)
    assert mgr.cached_stream("a", 1) is mgr.stream("a", 1)


def test_streams_are_deterministic_across_managers():
    a = RngManager(7).stream("mac", 3)
    b = RngManager(7).stream("mac", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_keys_give_different_sequences():
    mgr = RngManager(7)
    a = [mgr.stream("mac", 1).random() for _ in range(5)]
    b = [mgr.stream("mac", 2).random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    a = RngManager(1).stream("x").random()
    b = RngManager(2).stream("x").random()
    assert a != b


def test_consuming_one_stream_does_not_affect_another():
    mgr1 = RngManager(7)
    mgr1.stream("noise").random()  # consume
    value1 = mgr1.stream("mac", 1).random()
    mgr2 = RngManager(7)
    value2 = mgr2.stream("mac", 1).random()
    assert value1 == value2


def test_fork_is_deterministic():
    a = RngManager(7).fork("sub").stream("x").random()
    b = RngManager(7).fork("sub").stream("x").random()
    assert a == b


def test_fork_differs_from_parent():
    parent = RngManager(7)
    fork = parent.fork("sub")
    assert parent.stream("x").random() != fork.stream("x").random()


def test_derive_seed_stable_value():
    # Pin the value: seeds must be stable across processes and versions
    # (simulations must be replayable from a recorded master seed).
    assert derive_seed(42, "mac", 3) == derive_seed(42, "mac", 3)
    assert derive_seed(42, "mac", 3) != derive_seed(42, "mac", 4)


def test_derive_seed_handles_huge_and_negative_ints():
    big = 2**63 + 17
    assert isinstance(derive_seed(big, "x"), int)
    assert isinstance(derive_seed(-5, "x", -3), int)


def test_string_int_key_parts_distinct():
    # "1" (str) and 1 (int) must not collide.
    assert derive_seed(0, "1") != derive_seed(0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(), st.text(max_size=20), st.integers())
def test_property_derive_seed_in_64bit_range(seed, name, part):
    value = derive_seed(seed, name, part)
    assert 0 <= value < 2**64


def test_derive_seed_golden_values():
    """Exact pinned outputs: recorded master seeds must replay forever.

    If this test fails, the seed derivation changed and every recorded
    simulation (and every cached result) is silently invalidated — bump
    ``repro.runner.hashing.CACHE_SCHEMA_VERSION`` and say so in the
    changelog rather than letting old artifacts lie.
    """
    assert derive_seed(0) == 1786884285633530058
    assert derive_seed(42, "node", 3) == 3025732695171680509
    assert derive_seed(42, "node", 3, "phy") == 3960814292293960541
    assert derive_seed(1, "link", 0, 1) == 391915258420543110
    assert derive_seed(123456789, "interferer") == 18341706212044594796


_key_parts = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=8))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(),
    st.lists(st.tuples(st.text(max_size=8), st.lists(_key_parts, max_size=3)), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=5),
)
def test_property_draw_matches_fresh_stream(master, keys, n_gauss):
    """Every draw replays ``Random(derive_seed(master, *key))`` exactly —
    including after the scratch generator was left holding a cached
    second gauss value by an odd number of ``gauss`` calls — and interns
    nothing."""
    mgr = RngManager(master)
    for name, rest in keys:
        key = (name, *rest)
        got = mgr.draw(*key)
        want = random.Random(derive_seed(master, *key))
        assert [got.gauss(0.0, 1.0) for _ in range(n_gauss)] == [
            want.gauss(0.0, 1.0) for _ in range(n_gauss)
        ]
        assert got.random() == want.random()
        assert mgr.draw(*key).getstate() == random.Random(derive_seed(master, *key)).getstate()
    assert mgr._streams == {}
