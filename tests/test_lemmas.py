import pytest
from hypothesis import given, settings

import sumfree
import sumfree.lemmas
import sumfree.predicates
from conftest import interval_sets, random_interval_set, window
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
)
from sumfree.predicates import NotSumFreeError, is_k_sum_free, strip
from sumfree.rationals import rational
from sumfree.trace import check_extremal_containment, trace_measure_bound


def S(text):
    return IntervalSet.parse(text)


def C(text, rescale=False):
    return LemmaContext.from_set(S(text), rescale)


class TestContext:
    def test_extremal_base(self):
        ctx = LemmaContext.from_set(extremal_base())
        assert ctx.a == rational(8, 177)
        assert ctx.eps1 == 0 and ctx.eps2 == 0
        assert ctx.A1 == S("(2/3,1)")

    def test_point_top_window(self):
        # A1 = {1}: inf 1 and measure 0, so eps1 = 1/3, eps2 = 0
        ctx = C("(1/12,1/9)|[1,1]")
        assert ctx.A1 == S("[1,1]")
        assert ctx.eps1 == rational(1, 3)
        assert ctx.eps2 == 0
        assert ctx.eps2 == rational(1, 3) - ctx.eps1 - ctx.A1.measure()

    def test_requires_sup_one(self):
        with pytest.raises(PreconditionError):
            LemmaContext.from_set(S("(0,1/2)"))

    @settings(max_examples=150)
    @given(interval_sets(min_value=0))
    def test_stripped_set_has_positive_inf_and_top_window(self, a):
        # one strip leaves a 3-sum-free set, whose context has a > 0 and A1 nonempty
        stripped = strip(a)
        if stripped.is_empty:
            return
        ctx = LemmaContext.from_set(stripped, rescale=True)
        assert ctx.a > 0 and not ctx.A1.is_empty

    def test_head_equals_checked_context_of_the_head(self):
        ctx = LemmaContext.from_set(extremal_base())
        R = ctx.S.intersect(window(ctx.a, tail_cut(ctx.a)))
        assert R == S("(8/177,4/59)|(28/177,14/59)")
        head = ctx.head(R)
        assert head == LemmaContext.from_set(R, rescale=True)
        assert head.rescaled and head.S.sup() == 1

    def test_head_and_tail_windows(self):
        # R and tail are the two windows split at 2/9 + a/3, heads included
        for seed in range(1, 120):
            A = random_sum_free(seed, 4)
            if A.is_empty:
                continue
            ctx = LemmaContext.from_set(A, rescale=True)
            contexts = [ctx] if ctx.R.is_empty else [ctx, ctx.head(ctx.R)]
            for c in contexts:
                cut = tail_cut(c.a)
                assert c.R == c.S.intersect(window(c.a, cut))
                assert c.tail == c.S.intersect(window(cut, 1)).measure()
                assert (c.mu_A1, c.mu_R) == (c.A1.measure(), c.R.measure())


class TestExtentBound:
    def test_extremal_base(self):
        res = check_extent_bound(LemmaContext.from_set(extremal_base()))
        assert res.rhs == rational(173, 354)
        assert res.passed

    def test_top_third_saturates(self):
        res = check_extent_bound(C("(2/3,1)"))
        assert res.rhs == rational(1, 3)
        assert res.passed and S("(2/3,1)").measure() == res.rhs

    def test_singleton(self):
        res = check_extent_bound(C("[1,1]"))
        assert res.rhs == rational(1, 4)
        assert res.passed

    def test_rejects_violating_input(self):
        with pytest.raises(NotSumFreeError) as err:
            LemmaContext.from_set(S("(0,1)"))
        assert err.value.witness.holds_in(S("(0,1)"))


class TestTopWindowBound:
    def test_extremal_base(self):
        res = check_top_window_bound(LemmaContext.from_set(extremal_base()))
        assert res.rhs == rational(1, 2)
        assert res.passed

    def test_top_third(self):
        assert check_top_window_bound(C("(2/3,1)")).rhs == rational(1, 2)

    def test_sup_enforced_without_rescale(self):
        with pytest.raises(PreconditionError):
            C("(1/3,1/2)")
        assert check_top_window_bound(C("(1/3,1/2)", rescale=True)).passed


class TestTailBound:
    def test_extremal_base_equality(self):
        a0 = extremal_base()
        res = check_tail_bound(LemmaContext.from_set(a0))
        assert res.name == "tail-bound[small-eps1]"
        assert res.rhs == rational(1, 3)
        cut = rational(2, 9) + rational(8, 177) / 3
        assert cut == rational(14, 59)
        tail = a0.intersect(S("[14/59,1]"))
        assert tail == S("(2/3,1)") and tail.measure() == rational(1, 3)
        assert res.passed

    def test_top_third(self):
        res = check_tail_bound(C("(2/3,1)"))
        assert res.name == "tail-bound[small-eps1]" and res.passed
        assert res.rhs == rational(1, 3)

    def test_large_eps1_branch(self):
        # top window starts at 5/6: eps1 = 1/6, eps2 = 0, a = 1/12 < (3/2)eps1
        s = S("(1/12,1/8)|(5/6,1)")
        assert is_k_sum_free(s, 3)[0]
        ctx = LemmaContext.from_set(s)
        assert ctx.eps1 == rational(1, 6) and ctx.eps2 == 0
        res = check_tail_bound(ctx)
        assert res.name == "tail-bound[large-eps1]"
        assert res.rhs == rational(1, 3) - (ctx.eps1 - 2 * ctx.a / 3) / 24
        assert res.passed


class TestTailEquality:
    def test_extremal_base_triggered(self):
        res = check_tail_equality(LemmaContext.from_set(extremal_base()))
        assert res is not None and res.passed

    def test_untriggered_when_top_shrinks(self):
        s = S("(8/177,4/59)|(28/177,14/59)|(2/3,99/100)|[1,1]")
        assert is_k_sum_free(s, 3)[0]
        res = check_tail_equality(LemmaContext.from_set(s))
        assert res is None

    def test_top_third(self):
        res = check_tail_equality(C("(2/3,1)"))
        assert res is not None and res.passed

    def test_precondition_a_positive(self):
        # inf A = 0 is no context: (0, 1/4) holds 1/8 + 1/8 = 3 * 1/12
        with pytest.raises(NotSumFreeError):
            C("(0,1/4)|(2/3,1)")

    def test_rejects_negative_inf(self):
        # 3-sum-free with sup 1, yet outside [0, +inf): no context is built
        s = S("[-1,-1]|[1,1]")
        assert is_k_sum_free(s, 3)[0]
        with pytest.raises(PreconditionError, match=r"inside \[0, \+inf\)") as err:
            LemmaContext.from_set(s)
        assert not isinstance(err.value, NotSumFreeError)

    def test_not_applicable_where_tail_bound_is_not(self):
        # eps1 = 0 and mu(A1) = 1/12, so eps1 + 2*eps2 = 1/2 > 1/3
        ctx = C("(2/3,3/4)|[1,1]")
        assert ctx.eps1 + 2 * ctx.eps2 == rational(1, 2)
        assert check_tail_bound(ctx) is None
        assert check_tail_equality(ctx) is None


class TestDenseTailBound:
    def test_extremal_base(self):
        res = check_dense_tail_bound(LemmaContext.from_set(extremal_base()))
        assert res is not None and res.passed

    def test_top_third_not_applicable(self):
        res = check_dense_tail_bound(C("(2/3,1)"))
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
            rec = check_sumset_min_bound(a, b)
            assert rec.passed
            # measures passed in give the same record
            assert check_sumset_min_bound(a, b, a.measure(), b.measure()) == rec


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

    def test_empty_head_has_no_head_pair(self):
        # a = 2/3 > 1/3, so the head window [a, 2/9 + a/3] is empty
        rep = lemma_report(S("(2/3,1)"))
        assert rep.context.R.is_empty
        assert [r.name for r in rep.records if r.name.startswith("sumset")] == [
            "sumset-min-bound(S,S)"]

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

    def test_sparse_top_window_drops_both_tail_records(self):
        # eps1 + 2*eps2 = 1/2 > 1/3: neither tail record applies
        rep = lemma_report(S("(2/3,3/4)|[1,1]"))
        assert [r.name for r in rep.records] == [
            "extent-bound", "top-window-bound", "sumset-min-bound(S,S)"]

    def test_calls_each_checker_through_its_module_binding(self, monkeypatch):
        # patching a checker's module name reaches every call the report makes
        names = ["check_extent_bound", "check_top_window_bound", "check_tail_bound",
                 "check_tail_equality", "check_dense_tail_bound"]
        called = []

        def counting(name, real):
            def call(ctx):
                called.append(name)
                return real(ctx)
            return call

        for name in names:
            monkeypatch.setattr(sumfree.lemmas, name, counting(name, getattr(sumfree.lemmas, name)))
        lemma_report(extremal_base())
        assert called == names


class TestErrorContract:
    """A set passes one check, ``LemmaContext.from_set``, before the lemma
    code; every entry point that takes a set reports the same errors."""

    @staticmethod
    def via_context(checker):
        """A set reaches a single-set checker only through ``from_set``."""

        def entry(A, rescale=False):
            return checker(LemmaContext.from_set(A, rescale))

        entry.__name__ = checker.__name__
        return entry

    NOT_SUM_FREE = "(0,1/4)|(2/3,1)"  # 1/8 + 1/8 = 3 * 1/12

    @pytest.mark.parametrize(
        "entry",
        [
            LemmaContext.from_set,
            via_context(check_extent_bound),
            via_context(check_top_window_bound),
            via_context(check_tail_bound),
            via_context(check_tail_equality),
            via_context(check_dense_tail_bound),
            lemma_report,
            trace_measure_bound,
            check_extremal_containment,
        ],
        ids=lambda f: f.__name__,
    )
    def test_checker_raises_witness(self, entry):
        s = S(self.NOT_SUM_FREE)
        with pytest.raises(NotSumFreeError) as err:
            entry(s)
        assert isinstance(err.value, PreconditionError)
        assert isinstance(err.value, ValueError)
        assert err.value.witness.holds_in(s)

    SUP_HALF = "(0,1/8)|(1/3,1/2)"  # 1/16 + 1/16 = 3 * 1/24, sup 1/2

    @pytest.mark.parametrize("rescale", [False, True])
    @pytest.mark.parametrize(
        "entry",
        [
            LemmaContext.from_set,
            via_context(check_top_window_bound),
            via_context(check_tail_bound),
            via_context(check_tail_equality),
            via_context(check_dense_tail_bound),
            lemma_report,
            trace_measure_bound,
        ],
        ids=lambda f: f.__name__,
    )
    def test_witness_in_input_when_sup_not_one(self, entry, rescale):
        # sum-freeness is checked before the sup, on the set as given
        s = S(self.SUP_HALF)
        with pytest.raises(NotSumFreeError) as err:
            entry(s, rescale=rescale)
        assert err.value.witness.holds_in(s)

    @pytest.mark.parametrize(
        "A, match",
        [
            # 3-sum-free with sup 1, but outside [0, +inf)
            pytest.param(S("[-1,-1]|[1,1]"), r"inside \[0, \+inf\)", id="negative"),
            pytest.param(IntervalSet.empty(), "nonempty", id="empty"),
        ],
    )
    @pytest.mark.parametrize(
        "entry", [LemmaContext.from_set, lemma_report, trace_measure_bound],
        ids=lambda f: f.__name__,
    )
    def test_outside_the_domain_is_not_a_sum_free_failure(self, entry, A, match):
        with pytest.raises(PreconditionError, match=match) as err:
            entry(A)
        assert not isinstance(err.value, NotSumFreeError)

    def test_one_precondition_error(self):
        assert issubclass(NotSumFreeError, PreconditionError)
        assert sumfree.PreconditionError is sumfree.lemmas.PreconditionError
        assert sumfree.lemmas.PreconditionError is sumfree.predicates.PreconditionError
