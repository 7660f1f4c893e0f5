"""Tests for the deterministic RNG utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.hashing import _GOLDEN64, _MASK64, mix64
from repro.utils.rng import _BLOCK, DeterministicRng, site_hash_outcome


def scalar_stream(seed: int, n: int) -> tuple[list[int], int]:
    """The splitmix64 recurrence one draw at a time: (draws, final state)."""
    state = mix64(seed & _MASK64)
    draws = []
    for _ in range(n):
        state = (state + _GOLDEN64) & _MASK64
        draws.append(mix64(state))
    return draws, state


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(7)
        b = DeterministicRng(8)
        assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]

    def test_random_in_unit_interval(self):
        rng = DeterministicRng(3)
        for _ in range(1000):
            assert 0.0 <= rng.random() < 1.0

    def test_randint_bounds(self):
        rng = DeterministicRng(3)
        values = {rng.randint(2, 5) for _ in range(200)}
        assert values == {2, 3, 4, 5}

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).randint(5, 2)

    def test_choice(self):
        rng = DeterministicRng(11)
        items = ["a", "b", "c"]
        assert {rng.choice(items) for _ in range(100)} == set(items)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).choice([])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(5)
        items = list(range(30))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelmingly likely for 30 items

    def test_weighted_choice_respects_zero_weight(self):
        rng = DeterministicRng(1)
        picks = {rng.weighted_choice(["x", "y"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"x"}

    def test_weighted_choice_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).weighted_choice(["x"], [0.0])

    def test_fork_streams_are_independent(self):
        parent = DeterministicRng(9)
        child1 = parent.fork(1)
        child2 = parent.fork(2)
        assert [child1.next_u64() for _ in range(5)] != [child2.next_u64() for _ in range(5)]

    def test_blocks_serve_the_scalar_stream(self):
        rng = DeterministicRng(123)
        n = 2 * _BLOCK + 5
        draws, state = scalar_stream(123, n)
        assert [rng.next_u64() for _ in range(n)] == draws
        assert rng._state == state

    def test_every_draw_method_consumes_one_value(self):
        rng = DeterministicRng(77)
        draws, _ = scalar_stream(77, 3)
        assert rng.random() == draws[0] / float(1 << 64)
        assert rng.randint(10, 19) == 10 + draws[1] % 10
        assert rng.choice("abcde") == "abcde"[draws[2] % 5]

    def test_fork_mid_block_uses_the_served_state(self):
        rng = DeterministicRng(31)
        for _ in range(5):
            rng.next_u64()
        _, state = scalar_stream(31, 5)
        child = rng.fork(4)
        expected = DeterministicRng(mix64(state ^ mix64(4)))
        assert [child.next_u64() for _ in range(3)] == [
            expected.next_u64() for _ in range(3)
        ]

    def test_roughly_uniform_mean(self):
        rng = DeterministicRng(42)
        mean = sum(rng.random() for _ in range(10_000)) / 10_000
        assert abs(mean - 0.5) < 0.02


class TestSiteHashOutcome:
    def test_deterministic_per_occurrence(self):
        assert site_hash_outcome(1, 0x400, 17, 0.7) == site_hash_outcome(1, 0x400, 17, 0.7)

    def test_bias_respected(self):
        taken = sum(site_hash_outcome(3, 0x999, i, 0.8) for i in range(20_000))
        assert abs(taken / 20_000 - 0.8) < 0.02

    def test_extreme_biases(self):
        assert all(site_hash_outcome(0, 1, i, 1.0) for i in range(100))
        assert not any(site_hash_outcome(0, 1, i, 0.0) for i in range(100))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=10_000))
    def test_order_independent(self, site, occurrence):
        """The draw must not depend on evaluation order (wrong-path safety)."""
        first = site_hash_outcome(5, site, occurrence, 0.5)
        # Interleave other draws, then repeat.
        site_hash_outcome(5, site + 1, occurrence, 0.5)
        site_hash_outcome(5, site, occurrence + 1, 0.5)
        assert site_hash_outcome(5, site, occurrence, 0.5) == first
