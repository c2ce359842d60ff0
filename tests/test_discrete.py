import itertools
import random

import pytest

from sumfree.cli import USAGE_ERROR, run
from sumfree.constructions import cg_density, extremal_base
from sumfree.discrete import (
    DEFAULT_BUDGET,
    NAIVE_BUDGET,
    BudgetError,
    DensityReport,
    IntSet,
    density_report,
    discretize,
    is_k_sum_free_int,
    max_k_sum_free,
    max_k_sum_free_naive,
)
from sumfree.rationals import rational


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


class TestDensity:
    # the search ratio and the asymptotic density sit side by side; they
    # converge only as n grows, so no test equates them
    @pytest.mark.parametrize("k", [4, 5])
    def test_report_fields(self, k):
        n = 18
        rep = density_report(k, n)
        best, _, _ = max_k_sum_free_naive(n, k)
        assert isinstance(rep, DensityReport)
        assert (rep.n, rep.k, rep.max_size) == (n, k, best)
        assert rep.search_ratio == rational(best, n)
        assert rep.asymptotic_density == cg_density(k)

    @pytest.mark.parametrize("k,text", [
        (4, "k=4 n=18: search max 10 (ratio 5/9 ~ 0.555556), "
            "asymptotic density 63/110 ~ 0.572727"),
        (5, "k=5 n=18: search max 12 (ratio 2/3 ~ 0.666667), "
            "asymptotic density 1863/2855 ~ 0.652539"),
    ])
    def test_cli_text_line(self, k, text, capsys):
        assert str(density_report(k, 18)) == text
        assert run(["density", "-k", str(k), "-n", "18"]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_cli_records_lines(self, capsys):
        assert run(["density", "-k", "5", "-n", "18", "--format", "records"]) == 0
        assert capsys.readouterr().out == (
            "search-ratio\t2/3\t-\tpass\n"
            "asymptotic-density\t1863/2855\t-\tpass\n"
        )

    def test_rejects_n_beyond_budget(self, capsys):
        assert run(["density", "-k", "4", "-n", str(DEFAULT_BUDGET + 1)]) == USAGE_ERROR
        assert "error:" in capsys.readouterr().err
