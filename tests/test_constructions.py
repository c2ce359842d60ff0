from fractions import Fraction

import pytest

from sumfree.constructions import (
    FORBIDDEN_COMBINATION_BITS,
    cg_density,
    construct_extremal,
    endpoint_combination,
    extremal_base,
    random_sum_free,
)
from sumfree.intervals import IntervalSet
from sumfree.predicates import is_k_sum_free
from sumfree.rationals import MAX_MEASURE, rational

A0_TEXT = "(8/177,4/59)|(28/177,14/59)|(2/3,1)"


class TestExtremalFamily:
    def test_base_text_and_measure(self):
        a0 = construct_extremal(0)
        assert str(a0) == A0_TEXT
        assert a0.measure() == rational(77, 177)
        assert a0.inf() == rational(8, 177)
        assert a0.sup() == 1

    def test_exactly_seven_valid_augmentations(self):
        verdicts = {bits: is_k_sum_free(endpoint_combination(bits), 3)[0]
                    for bits in range(8)}
        assert sum(verdicts.values()) == 7
        assert not verdicts[FORBIDDEN_COMBINATION_BITS]

    def test_family_measures_and_containment_of_base(self):
        a0 = extremal_base()
        for i in range(1, 8):
            ai = construct_extremal(i)
            assert ai.measure() == rational(77, 177)
            assert a0.is_subset_of(ai)
            assert ai.difference(a0).measure() == 0

    def test_enumeration_order(self):
        # bit patterns 0..7 minus the forbidden one, in numeric order
        expected_bits = [0, 1, 3, 4, 5, 6, 7]
        for i, bits in enumerate(expected_bits, start=1):
            assert construct_extremal(i) == endpoint_combination(bits)

    def test_family_members_distinct(self):
        assert len({construct_extremal(i) for i in range(8)}) == 8

    def test_index_validation(self):
        for bad in (-1, 8):
            with pytest.raises(ValueError):
                construct_extremal(bad)


class TestCgDensity:
    def test_k4_exact(self):
        assert cg_density(4) == rational(63, 110)

    def test_k10_regression(self):
        # frozen from a direct evaluation with stdlib fractions
        k = Fraction(10)
        expected = (k - 2) / (k * k - 2) * (k + 8 / (k * (k**4 - 2 * k**2 - 4)))
        assert expected == Fraction(9996, 12245)
        assert cg_density(10) == rational(9996, 12245)

    def test_range_sanity(self):
        for k in range(4, 101):
            assert 0 < cg_density(k) < 1

    def test_small_k_rejected(self):
        for k in (1, 2, 3):
            with pytest.raises(ValueError):
                cg_density(k)


class TestGenerator:
    def test_outputs_are_sum_free(self):
        for seed in range(1, 200):
            out = random_sum_free(seed, 4)
            ok, witness = is_k_sum_free(out, 3)
            assert ok, f"seed {seed}: {witness}"

    def test_pinned_outputs(self):
        # one strip of (1/3)(S+S) from the sampled union S
        assert str(random_sum_free(1, 4)) == "[1/9,1/6)|(97/177,97/118]"
        assert str(random_sum_free(7, 4)) == (
            "(1/18,299/5310)|[19/48,37/90)|[4/9,25/48)|[37/60,2/3)")
        assert str(random_sum_free(11, 4)) == (
            "[1411/3186,4/9]|[238/531,955/2124]|[14/27,65/118]|(2/3,119/177)|(161/236,7/9)")
        assert str(random_sum_free(24, 4)) == "[1/54,1/36)|[119/354,119/236)"

    def test_deterministic(self):
        for seed in (1, 7, 99):
            assert random_sum_free(seed, 5) == random_sum_free(seed, 5)

    def test_within_unit_interval_and_ceiling(self):
        for seed in range(1, 200):
            out = random_sum_free(seed, 4)
            if out.is_empty:
                continue
            assert out.inf() >= 0 and out.sup() <= 1
            assert out.measure() <= MAX_MEASURE

    def test_component_budget_validation(self):
        with pytest.raises(ValueError):
            random_sum_free(1, 0)
