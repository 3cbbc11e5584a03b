"""Tests for argument validation helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.validation import (
    check_fraction,
    check_int_in,
    check_nonnegative,
    check_positive,
    check_probability_vector,
)


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_inclusive(self, value):
        assert check_fraction("x", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError, match="x"):
            check_fraction("x", value)

    def test_exclusive_rejects_bounds(self):
        with pytest.raises(ValueError):
            check_fraction("x", 0.0, inclusive=False)
        with pytest.raises(ValueError):
            check_fraction("x", 1.0, inclusive=False)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 2.5) == 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive("x", value)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            check_nonnegative("x", value)


class TestProbabilityVector:
    def test_accepts_and_normalizes(self):
        vec = check_probability_vector("mix", [0.25, 0.25, 0.5])
        assert vec.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_probability_vector("mix", [0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            check_probability_vector("mix", [-0.5, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_probability_vector("mix", [])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
    def test_normalized_input_roundtrips(self, raw):
        arr = np.array(raw) / np.sum(raw)
        out = check_probability_vector("mix", arr)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, arr, atol=1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=8))
    def test_validating_twice_is_bit_identical(self, raw):
        # Mix hashes its rounded vector, so a Mix rebuilt from another
        # Mix's vector must get the very same bits back.
        total = np.sum(raw)
        if total <= 0:
            return
        once = check_probability_vector("mix", np.array(raw) / total)
        assert np.array_equal(check_probability_vector("mix", once), once)

    def test_unnormalized_by_more_than_round_off_is_rescaled(self):
        out = check_probability_vector("mix", [0.5, 0.5 + 1e-9])
        assert out[0] < 0.5


class TestCheckIntIn:
    def test_accepts_member(self):
        assert check_int_in("smt", 2, (1, 2, 4)) == 2

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="smt"):
            check_int_in("smt", 3, (1, 2, 4))
