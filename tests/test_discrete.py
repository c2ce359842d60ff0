import itertools
import random

import pytest

from sumfree.constructions import extremal_base
from sumfree.discrete import (
    DEFAULT_BUDGET,
    NAIVE_BUDGET,
    BudgetError,
    IntSet,
    discretize,
    is_k_sum_free_int,
    max_k_sum_free,
    max_k_sum_free_naive,
)


def has_triple(elems, k):
    """Brute force over all ordered triples, x = y and x = y = z allowed."""
    return any(x + y == k * z for x, y, z in itertools.product(elems, repeat=3))


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_pruned_matches_naive(self, k):
        for n in range(1, 19):
            pruned = max_k_sum_free(n, k)
            best, count, _ = max_k_sum_free_naive(n, k)
            assert (pruned.max_size, pruned.extremal_count) == (best, count), (n, k)

    @pytest.mark.parametrize("n,k", [(12, 3), (15, 4), (14, 5)])
    def test_listed_sets_are_maximum_and_free(self, n, k):
        result = max_k_sum_free(n, k, enumerate_sets=True)
        assert len(result.extremal_sets) == result.extremal_count
        assert len(set(map(str, result.extremal_sets))) == result.extremal_count
        for s in result.extremal_sets:
            assert len(s) == result.max_size
            assert is_k_sum_free_int(s, k) == (True, None)


class TestPredicate:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_witness_is_a_triple_of_the_set(self, k):
        rng = random.Random(k)
        for _ in range(200):
            elems = rng.sample(range(1, 31), rng.randint(1, 8))
            ok, witness = is_k_sum_free_int(elems, k)
            assert ok == (not has_triple(elems, k))
            if ok:
                assert witness is None
            else:
                x, y, z = witness
                assert x + y == k * z and x <= y
                assert {x, y, z} <= set(elems)

    def test_takes_an_intset(self):
        assert is_k_sum_free_int(IntSet(10, (2, 3, 4)), 2) == (False, (2, 2, 2))

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            is_k_sum_free_int([1, 2], 0)


class TestIntSet:
    @pytest.mark.parametrize("text", ["{}", "{1}", "{1,3,5}", "{2,9,20}"])
    def test_parse_str_round_trip(self, text):
        assert str(IntSet.parse(text)) == text
        s = IntSet.parse(text, n=20)
        assert IntSet.parse(str(s), n=20) == s

    def test_canonical_order(self):
        s = IntSet.parse("{ 5, 1,3 ,1 }", n=6)
        assert (s.n, s.elements, str(s)) == (6, (1, 3, 5), "{1,3,5}")

    def test_from_mask(self):
        assert IntSet.from_mask(0b10101, 5) == IntSet(5, (1, 3, 5))

    @pytest.mark.parametrize("elements", [(0, 1), (1, 6), (-2,)])
    def test_rejects_elements_outside_range(self, elements):
        with pytest.raises(ValueError, match="1..5"):
            IntSet(5, elements)

    def test_parse_rejects_element_above_n(self):
        with pytest.raises(ValueError, match="1..5"):
            IntSet.parse("{1,9}", n=5)

    def test_parse_rejects_missing_braces(self):
        with pytest.raises(ValueError):
            IntSet.parse("1,2")


class TestBudget:
    def test_pruned_search(self):
        with pytest.raises(BudgetError):
            max_k_sum_free(DEFAULT_BUDGET + 1, 3)
        assert max_k_sum_free(DEFAULT_BUDGET + 1, 3, budget=DEFAULT_BUDGET + 1).max_size > 0

    def test_naive_search(self):
        with pytest.raises(BudgetError):
            max_k_sum_free_naive(NAIVE_BUDGET + 1, 3)


class TestDiscretize:
    @pytest.mark.parametrize("n", [59, 177, 354])
    def test_a0_grid_is_3_sum_free(self, n):
        S = discretize(extremal_base(), n)
        assert S.n == n and len(S) > 0
        assert is_k_sum_free_int(S, 3) == (True, None)
