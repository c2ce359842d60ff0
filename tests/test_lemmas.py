import pytest

import sumfree
import sumfree.lemmas
import sumfree.predicates
from conftest import random_interval_set
from sumfree.constructions import extremal_base, random_sum_free
from sumfree.intervals import IntervalSet
from sumfree.lemmas import (
    LemmaContext,
    PreconditionError,
    check_dense_tail_bound,
    check_extent_bound,
    check_sumset_min_bound,
    check_superadditivity,
    check_tail_bound,
    check_tail_equality,
    check_top_window_bound,
    lemma_report,
    tail_cut,
    window,
)
from sumfree.predicates import NotSumFreeError, is_k_sum_free
from sumfree.rationals import rational
from sumfree.trace import check_extremal_containment, trace_measure_bound


def S(text):
    return IntervalSet.parse(text)


class TestContext:
    def test_extremal_base(self):
        ctx = LemmaContext.from_set(extremal_base())
        assert ctx.a == rational(8, 177)
        assert ctx.eps1 == 0 and ctx.eps2 == 0
        assert ctx.A1 == S("(2/3,1)")

    def test_empty_top_window_convention(self):
        # inf of an empty top window is taken as 1: eps1 = 1/3, eps2 = 0
        ctx = LemmaContext.from_set(S("(1/12,1/9)|[1,1]"))
        assert ctx.eps1 == rational(1, 3)
        assert ctx.eps2 == 0
        assert ctx.eps2 == rational(1, 3) - ctx.eps1 - ctx.A1.measure()

    def test_requires_sup_one(self):
        with pytest.raises(PreconditionError):
            LemmaContext.from_set(S("(0,1/2)"))

    def test_head_equals_checked_context_of_the_head(self):
        ctx = LemmaContext.from_set(extremal_base())
        R = ctx.S.intersect(window(ctx.a, tail_cut(ctx.a)))
        assert R == S("(8/177,4/59)|(28/177,14/59)")
        head = ctx.head(R)
        assert head == LemmaContext.from_set(R, rescale=True)
        assert head.rescaled and head.S.sup() == 1


class TestExtentBound:
    def test_extremal_base(self):
        res = check_extent_bound(extremal_base())
        assert res.rhs == rational(173, 354)
        assert res.passed

    def test_top_third_saturates(self):
        res = check_extent_bound(S("(2/3,1)"))
        assert res.rhs == rational(1, 3)
        assert res.passed and S("(2/3,1)").measure() == res.rhs

    def test_singleton(self):
        res = check_extent_bound(S("[1,1]"))
        assert res.rhs == rational(1, 4)
        assert res.passed

    def test_rejects_violating_input(self):
        with pytest.raises(NotSumFreeError) as err:
            check_extent_bound(S("(0,1)"))
        assert err.value.witness.holds_in(S("(0,1)"))


class TestTopWindowBound:
    def test_extremal_base(self):
        res = check_top_window_bound(extremal_base())
        assert res.rhs == rational(1, 2)
        assert res.passed

    def test_top_third(self):
        assert check_top_window_bound(S("(2/3,1)")).rhs == rational(1, 2)

    def test_sup_enforced_without_rescale(self):
        with pytest.raises(PreconditionError):
            check_top_window_bound(S("(1/3,1/2)"))
        assert check_top_window_bound(S("(1/3,1/2)"), rescale=True).passed


class TestTailBound:
    def test_extremal_base_equality(self):
        a0 = extremal_base()
        res = check_tail_bound(a0)
        assert res.name == "tail-bound[small-eps1]"
        assert res.rhs == rational(1, 3)
        cut = rational(2, 9) + rational(8, 177) / 3
        assert cut == rational(14, 59)
        tail = a0.intersect(S("[14/59,1]"))
        assert tail == S("(2/3,1)") and tail.measure() == rational(1, 3)
        assert res.passed

    def test_top_third(self):
        res = check_tail_bound(S("(2/3,1)"))
        assert res.name == "tail-bound[small-eps1]" and res.passed
        assert res.rhs == rational(1, 3)

    def test_large_eps1_branch(self):
        # top window starts at 5/6: eps1 = 1/6, eps2 = 0, a = 1/12 < (3/2)eps1
        s = S("(1/12,1/8)|(5/6,1)")
        assert is_k_sum_free(s, 3)[0]
        ctx = LemmaContext.from_set(s)
        assert ctx.eps1 == rational(1, 6) and ctx.eps2 == 0
        res = check_tail_bound(s)
        assert res.name == "tail-bound[large-eps1]"
        assert res.rhs == rational(1, 3) - (ctx.eps1 - 2 * ctx.a / 3) / 24
        assert res.passed


class TestTailEquality:
    def test_extremal_base_triggered(self):
        res = check_tail_equality(extremal_base())
        assert res is not None and res.passed

    def test_untriggered_when_top_shrinks(self):
        s = S("(8/177,4/59)|(28/177,14/59)|(2/3,99/100)|[1,1]")
        assert is_k_sum_free(s, 3)[0]
        res = check_tail_equality(s)
        assert res is None

    def test_top_third(self):
        res = check_tail_equality(S("(2/3,1)"))
        assert res is not None and res.passed

    def test_precondition_a_positive(self):
        with pytest.raises(PreconditionError):
            check_tail_equality(S("(0,1/4)|(2/3,1)"))

    def test_rejects_negative_inf(self):
        # 3-sum-free with sup 1 and eps1 + 2*eps2 = 1/3: only inf A > 0 fails
        s = S("[-1,-1]|[1,1]")
        assert is_k_sum_free(s, 3)[0]
        ctx = LemmaContext.from_set(s)
        assert ctx.eps1 + 2 * ctx.eps2 == rational(1, 3)
        with pytest.raises(PreconditionError, match="inf A > 0") as err:
            check_tail_equality(s)
        assert not isinstance(err.value, NotSumFreeError)


class TestDenseTailBound:
    def test_extremal_base(self):
        res = check_dense_tail_bound(extremal_base())
        assert res is not None and res.passed

    def test_top_third_not_applicable(self):
        res = check_dense_tail_bound(S("(2/3,1)"))
        assert res is None

    def test_measure_threshold_is_exact(self):
        assert rational(77, 177) > rational(5, 12)
        assert 77 * 12 == 924 and 5 * 177 == 885


class TestSumsetChecks:
    def test_superadditivity_examples(self):
        rec = check_superadditivity(S("(0,1/10)"), S("(0,1/10)|(9/10,1)"))
        assert rec.passed

    def test_min_bound_swaps_operands(self):
        rec = check_sumset_min_bound(S("(0,1/10)|(9/10,1)"), S("(0,1/10)"))
        assert rec.passed
        assert rec.lhs == rational(2, 5)  # min(2*1/10 + 2/10, 1/10 + 1)

    def test_random(self, rng):
        for _ in range(100):
            a = random_interval_set(rng)
            b = random_interval_set(rng)
            if a.is_empty or b.is_empty:
                continue
            assert check_superadditivity(a, b).passed
            assert check_sumset_min_bound(a, b).passed


class TestLemmaReport:
    def test_extremal_base_all_pass(self):
        rep = lemma_report(extremal_base())
        assert rep.all_passed and not rep.rescaled
        names = {r.name for r in rep.records}
        assert "extent-bound" in names
        assert "top-window-bound" in names
        assert "tail-bound[small-eps1]" in names
        assert "dense-tail-bound" in names
        assert "tail-equality-rigidity" in names
        assert any(n.startswith("sumset-min-bound") for n in names)

    def test_generated_sets_always_pass(self):
        for seed in range(1, 300):
            out = random_sum_free(seed, 4)
            if out.is_empty:
                continue
            rep = lemma_report(out, rescale=True)
            assert rep.all_passed, (seed, [str(r) for r in rep.failures])

    def test_rejects_non_sum_free(self):
        with pytest.raises(NotSumFreeError):
            lemma_report(S("(0,1)"))


class TestErrorContract:
    """A non-3-sum-free input is a precondition failure of every checker."""

    NOT_SUM_FREE = "(0,1/4)|(2/3,1)"  # 1/8 + 1/8 = 3 * 1/12

    @pytest.mark.parametrize(
        "checker",
        [
            check_extent_bound,
            check_top_window_bound,
            check_tail_bound,
            check_tail_equality,
            check_dense_tail_bound,
            lemma_report,
            trace_measure_bound,
            check_extremal_containment,
        ],
        ids=lambda f: f.__name__,
    )
    def test_checker_raises_witness(self, checker):
        s = S(self.NOT_SUM_FREE)
        with pytest.raises(NotSumFreeError) as err:
            checker(s)
        assert isinstance(err.value, PreconditionError)
        assert isinstance(err.value, ValueError)
        assert err.value.witness.holds_in(s)

    SUP_HALF = "(0,1/8)|(1/3,1/2)"  # 1/16 + 1/16 = 3 * 1/24, sup 1/2

    @pytest.mark.parametrize("rescale", [False, True])
    @pytest.mark.parametrize(
        "checker",
        [
            check_top_window_bound,
            check_tail_bound,
            check_tail_equality,
            check_dense_tail_bound,
            lemma_report,
            trace_measure_bound,
        ],
        ids=lambda f: f.__name__,
    )
    def test_witness_in_input_when_sup_not_one(self, checker, rescale):
        # sum-freeness is checked before the sup, on the set as given
        s = S(self.SUP_HALF)
        with pytest.raises(NotSumFreeError) as err:
            checker(s, rescale=rescale)
        assert err.value.witness.holds_in(s)

    def test_one_precondition_error(self):
        assert issubclass(NotSumFreeError, PreconditionError)
        assert sumfree.PreconditionError is sumfree.lemmas.PreconditionError
        assert sumfree.lemmas.PreconditionError is sumfree.predicates.PreconditionError
