"""Tests for the deterministic RNG plumbing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util import rng as rng_module
from repro.util.rng import (
    _FNV_CACHE_MAX,
    RngStream,
    _fnv1a,
    _key_to_int,
    _state_words,
    seed_streams,
    spawn_rng,
)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RngStream(42).random(100)
        b = RngStream(42).random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(42).random(100)
        b = RngStream(43).random(100)
        assert not np.array_equal(a, b)

    def test_child_streams_reproducible(self):
        a = RngStream(7).child("core", 3).random(10)
        b = RngStream(7).child("core", 3).random(10)
        assert np.array_equal(a, b)

    def test_child_streams_independent_of_parent_consumption(self):
        parent1 = RngStream(7)
        parent1.random(1000)  # consume a lot
        child1 = parent1.child("x")
        child2 = RngStream(7).child("x")
        assert np.array_equal(child1.random(10), child2.random(10))

    def test_sibling_streams_differ(self):
        root = RngStream(7)
        a = root.child("a").random(50)
        b = root.child("b").random(50)
        assert not np.array_equal(a, b)

    def test_string_keys_stable_across_instances(self):
        # FNV hashing, not Python hash(): no per-process randomization.
        a = spawn_rng(1, "thread", 0).random(5)
        b = spawn_rng(1, "thread", 0).random(5)
        assert np.array_equal(a, b)

    def test_int_and_str_keys_distinct(self):
        a = RngStream(1, ("0",)).random(5)
        b = RngStream(1, (0,)).random(5)
        assert not np.array_equal(a, b)


class TestJitter:
    def test_zero_sigma_identity(self):
        assert RngStream(1).jitter(3.5, 0.0) == 3.5

    def test_jitter_stays_positive(self):
        rng = RngStream(1)
        values = [rng.jitter(1.0, 0.5) for _ in range(2000)]
        assert all(v > 0 for v in values)

    @given(st.floats(min_value=0.001, max_value=0.2))
    def test_jitter_mean_near_value(self, sigma):
        rng = RngStream(99)
        values = np.array([rng.jitter(10.0, sigma) for _ in range(500)])
        assert abs(values.mean() - 10.0) < 10.0 * 4 * sigma / np.sqrt(500) + 0.05


class TestApiSurface:
    def test_geometric_positive(self):
        draws = RngStream(3).geometric(0.5, 100)
        assert (draws >= 1).all()

    def test_integers_range(self):
        draws = RngStream(3).integers(0, 10, 100)
        assert ((draws >= 0) & (draws < 10)).all()

    def test_choice_with_probabilities(self):
        draws = RngStream(3).choice(3, size=500, p=[0.8, 0.1, 0.1])
        counts = np.bincount(draws, minlength=3)
        assert counts[0] > counts[1]


class TestKeyToInt:
    @pytest.mark.parametrize("key, value", [
        ("run", 0x2ACD4ECA),
        ("power7", 0x9C94CAE3),
        ("nehalem", 0x56723CA3),
        ("", 0x811C9DC5),
        ("\u00e9", 0x1E9DE8C1),
        (12, 12),
        (-1, 0xFFFFFFFF),
    ])
    def test_pinned_fnv_values(self, key, value):
        # Every stream of every golden is seeded through these values.
        assert _key_to_int(key) == value
        assert _key_to_int(key) == value  # memoized answer agrees

    def test_memo_is_bounded(self):
        for i in range(_FNV_CACHE_MAX + 100):
            _key_to_int(f"key-{i}")
        info = _fnv1a.cache_info()
        assert info.maxsize == _FNV_CACHE_MAX
        assert info.currsize <= _FNV_CACHE_MAX
        assert _key_to_int("run") == 0x2ACD4ECA


def list_seeded(seed, keys):
    """A generator seeded the way every stream was before lazy seeding:
    the entropy as a plain list of Python ints."""
    material = [seed] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(material))


class TestLazySeeding:
    def test_child_only_streams_never_seed(self):
        root = RngStream(5, ("fleet",))
        root.child("node", 0).child("counters")
        assert root._gen is None

    def test_draws_after_children_match_eager_stream(self):
        lazy = RngStream(5, ("fleet",))
        for i in range(3):
            lazy.child("node", i).random(4)
        eager = RngStream(5, ("fleet",))
        eager.gen  # seeded before any child exists
        assert np.array_equal(lazy.random(20), eager.random(20))

    @pytest.mark.parametrize("seed", [0, 11, 2**32 - 1])
    def test_uint32_entropy_matches_list_entropy(self, seed):
        keys = ("run", "power7", 4, 32)
        assert np.array_equal(
            RngStream(seed, keys).random(50), list_seeded(seed, keys).random(50)
        )

    @pytest.mark.parametrize("seed, first", [
        # First draws of RngStream(seed, ("pin",)), recorded before the
        # uint32 entropy path existed.
        (2**32, ["0x1.00b1f39e83b7ap-1", "0x1.ac4fbe8a4708ap-1",
                 "0x1.dca9bf61d0ae6p-1"]),
        (2**40 + 3, ["0x1.095fb06154504p-3", "0x1.4b60aa6db8374p-1",
                     "0x1.411144c33c4e6p-1"]),
    ])
    def test_wide_seeds_keep_pinned_draws(self, seed, first):
        stream = RngStream(seed, ("pin",))
        assert [float.hex(x) for x in stream.random(3)] == first
        assert np.array_equal(
            RngStream(seed, ("pin",)).random(3),
            list_seeded(seed, ("pin",)).random(3),
        )

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(-1, ("x",))


def fresh_streams(seed=11):
    """Unseeded streams over several entropy lengths and key kinds."""
    keys = [(), ("run",), ("fleet", "node", 3), ("run", "power7", 4, 32),
            ("fleet", "node", 999, "counters", "noise"), (2**40, "x", -1)]
    return [RngStream(seed + i, k) for i, k in enumerate(keys)]


def large_groups(seed=11):
    """Unseeded streams in groups of three entropy lengths, each group
    four times the size that takes the vectorised pass."""
    keys = [("run",), ("run", "power7", 4), ("fleet", "node", "counters", "noise")]
    n = 4 * rng_module._BATCH_MIN
    return [RngStream(seed + i, k + (i,)) for k in keys for i in range(n)]


def seeded_through_state_words(stream):
    return isinstance(stream._gen.bit_generator.seed_seq, rng_module._StateWords)


def draws(stream):
    return (stream.random(5), stream.normal(0.0, 2.0, 5),
            stream.integers(0, 1000, 5))


def assert_same_draws(a, b):
    for x, y in zip(draws(a), draws(b)):
        assert np.array_equal(x, y)


class TestBatchSeeding:
    @pytest.mark.parametrize("length", range(1, 10))
    def test_state_words_match_seed_sequence(self, length):
        gen = np.random.default_rng(length)
        entropy = gen.integers(0, 2**32, size=(202, length), dtype=np.uint64)
        entropy = entropy.astype(np.uint32)
        entropy[0] = 0
        entropy[1] = 0xFFFFFFFF
        words = _state_words(entropy)
        assert words.shape == (202, 4) and words.dtype == np.uint64
        for row, got in zip(entropy, words):
            expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
            assert np.array_equal(got, expected), row

    def test_fast_path_is_trusted_on_this_numpy(self):
        assert rng_module._fast_seeding_ok()

    def test_batch_seeded_draws_match_lazy_streams(self):
        batch = fresh_streams()
        seed_streams(batch)
        assert all(s._gen is not None for s in batch)
        for a, b in zip(batch, fresh_streams()):
            assert_same_draws(a, b)

    def test_seeded_streams_are_left_alone(self):
        stream = RngStream(5, ("busy",))
        stream.random(3)
        gen = stream.gen
        seed_streams([stream])
        assert stream.gen is gen
        reference = RngStream(5, ("busy",))
        reference.random(3)
        assert_same_draws(stream, reference)

    @pytest.mark.parametrize("seed", [2**32, 2**40 + 3])
    def test_wide_seeds_keep_seed_sequence(self, seed):
        stream = RngStream(seed, ("pin",))
        seed_streams([stream])
        assert stream._gen is None
        assert np.array_equal(stream.random(3), list_seeded(seed, ("pin",)).random(3))

    def test_self_check_mismatch_falls_back(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_fast_seeding", None)
        monkeypatch.setattr(
            rng_module, "_state_words",
            lambda entropy: _state_words(entropy) ^ np.uint64(1),
        )
        batch = fresh_streams()
        seed_streams(batch)
        assert rng_module._fast_seeding is False
        assert all(s._gen is not None for s in batch)
        for a, b in zip(batch, fresh_streams()):
            assert_same_draws(a, b)

    def test_large_groups_take_the_vectorised_pass(self):
        batch = large_groups()
        seed_streams(batch)
        assert all(seeded_through_state_words(s) for s in batch)
        for a, b in zip(batch, large_groups()):
            assert_same_draws(a, b)

    def test_large_group_self_check_mismatch_falls_back(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_fast_seeding", None)
        monkeypatch.setattr(
            rng_module, "_state_words",
            lambda entropy: _state_words(entropy) ^ np.uint64(1),
        )
        batch = large_groups()
        seed_streams(batch)
        assert rng_module._fast_seeding is False
        assert not any(seeded_through_state_words(s) for s in batch)
        for a, b in zip(batch, large_groups()):
            assert_same_draws(a, b)

    @pytest.mark.parametrize("size, vectorised", [
        (1, False),
        (rng_module._BATCH_MIN - 1, False),
        (rng_module._BATCH_MIN, True),
    ])
    def test_small_groups_seed_directly(self, size, vectorised):
        def group():
            return [RngStream(3 + i, ("run", "nehalem", 2, i)) for i in range(size)]

        batch = group()
        seed_streams(batch + [RngStream(2**33, ("wide", 0))])
        assert [seeded_through_state_words(s) for s in batch] == [vectorised] * size
        for a, b in zip(batch, group()):
            assert_same_draws(a, b)
