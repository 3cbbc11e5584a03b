"""Tests for instruction classes and Mix vectors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch.classes import CLASS_ORDER, InstrClass, Mix, SPIN_LOOP_MIX


def mixes():
    """Hypothesis strategy generating valid instruction mixes."""
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=5, max_size=5
    ).map(lambda raw: Mix(np.array(raw) / np.sum(raw)))


class TestConstruction:
    def test_from_mapping(self):
        m = Mix({InstrClass.LOAD: 0.5, InstrClass.FX: 0.5})
        assert m[InstrClass.LOAD] == pytest.approx(0.5)
        assert m[InstrClass.VS] == 0.0

    def test_from_sequence_order_is_class_order(self):
        m = Mix([0.1, 0.1, 0.1, 0.3, 0.4])
        assert m[InstrClass.VS] == pytest.approx(0.4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="5 entries"):
            Mix([0.5, 0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Mix([0.5, 0.5, 0.5, 0.0, 0.0])

    def test_from_counts(self):
        m = Mix.from_counts({InstrClass.LOAD: 30, InstrClass.FX: 70})
        assert m[InstrClass.FX] == pytest.approx(0.7)

    def test_from_counts_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Mix.from_counts({InstrClass.LOAD: -1, InstrClass.FX: 2})

    def test_from_counts_rejects_all_zero(self):
        with pytest.raises(ValueError, match="all-zero"):
            Mix.from_counts({InstrClass.LOAD: 0})

    def test_vector_is_readonly(self):
        m = Mix.uniform()
        with pytest.raises(ValueError):
            m.vector[0] = 0.9


class TestOperations:
    def test_memory_fraction(self):
        m = Mix({InstrClass.LOAD: 0.3, InstrClass.STORE: 0.2, InstrClass.FX: 0.5})
        assert m.memory_fraction == pytest.approx(0.5)

    def test_blend_identity_at_zero(self):
        base = Mix.uniform()
        assert base.blend(SPIN_LOOP_MIX, 0.0) == base

    def test_blend_full_at_one(self):
        base = Mix.uniform()
        assert base.blend(SPIN_LOOP_MIX, 1.0) == SPIN_LOOP_MIX

    def test_blend_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Mix.uniform().blend(SPIN_LOOP_MIX, 1.5)

    @given(mixes(), st.floats(min_value=0.0, max_value=1.0))
    def test_blend_is_valid_mix(self, base, w):
        blended = base.blend(SPIN_LOOP_MIX, w)
        assert blended.vector.sum() == pytest.approx(1.0, abs=1e-9)

    @given(mixes())
    def test_deviation_from_self_is_zero(self, m):
        assert m.deviation_from(m.vector) == pytest.approx(0.0, abs=1e-12)

    def test_deviation_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Mix.uniform().deviation_from(np.array([1.0]))

    @given(mixes(), mixes())
    def test_deviation_symmetric(self, a, b):
        assert a.deviation_from(b.vector) == pytest.approx(b.deviation_from(a.vector))

    def test_spin_mix_is_branch_heavy(self):
        # The premise of the paper's scalability argument (§II): spinning
        # raises the branch fraction far above any ideal mix.
        assert SPIN_LOOP_MIX[InstrClass.BRANCH] > 1 / 3
        assert SPIN_LOOP_MIX[InstrClass.VS] == 0.0

    def test_eq_and_hash(self):
        a = Mix.uniform()
        b = Mix([0.2, 0.2, 0.2, 0.2, 0.2])
        assert a == b and hash(a) == hash(b)
        assert a != Mix([0.6, 0.1, 0.1, 0.1, 0.1])

    @given(mixes())
    def test_hash_is_cached_and_stable(self, m):
        first = hash(m)
        assert hash(m) == first
        assert first == hash(tuple(np.round(m.vector, 12)))
        twin = Mix(m.vector.copy())
        assert twin == m and hash(twin) == first

    def test_as_dict_roundtrip(self):
        m = Mix([0.1, 0.2, 0.3, 0.2, 0.2])
        assert Mix(m.as_dict()) == m
