import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumfree
import sumfree.lemmas
import sumfree.predicates
from conftest import interval_sets, random_interval_set, window
from sumfree.constructions import extremal_base, random_sum_free
from sumfree.intervals import IntervalSet
from sumfree.lemmas import (
    CheckRecord,
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
        R = ctx.S.intersect(window(ctx.a, rational(2, 9) + ctx.a / 3))
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
                cut = rational(2, 9) + c.a / 3
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


class TestCheckRecord:
    """A record is its two sides; its verdict is derived from them."""

    @pytest.mark.parametrize("lhs,rhs,passed", [(rational(1, 3), rational(1, 2), True),
                                                (rational(1, 2), rational(1, 2), True),
                                                (rational(1, 2), rational(1, 3), False)])
    def test_passed_is_lhs_at_most_rhs(self, lhs, rhs, passed):
        rec = CheckRecord("r", lhs, rhs)
        assert rec.passed is passed
        assert str(rec).startswith("[PASS]" if passed else "[FAIL]")

    def test_the_verdict_is_not_a_field(self):
        rec = CheckRecord("r", rational(0), rational(0))
        with pytest.raises(AttributeError):
            rec.passed = False
        with pytest.raises(TypeError):
            CheckRecord("r", rational(1), rational(0), passed=True)

    @pytest.mark.parametrize("field", ["name", "lhs", "rhs", "note", "passed", "margin"])
    @pytest.mark.parametrize("make", [lambda: CheckRecord("r", rational(1, 3), rational(1, 2)),
                                      lambda: CheckRecord._over("r", 2, 3, 6)],
                             ids=["rationals", "ints"])
    def test_every_field_is_read_only(self, make, field):
        rec = make()
        rec.lhs, rec.rhs  # a side read keeps its Fraction, and the record stays immutable
        with pytest.raises(AttributeError):
            setattr(rec, field, rational(0))
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert str(rec) == "[PASS] r: 1/3 <= 1/2"

    @pytest.mark.parametrize("note", ["", "a note"])
    def test_ints_over_a_denominator_make_the_same_record(self, note):
        ints = CheckRecord._over("r", -4, 6, 12, note)
        fractions = CheckRecord("r", rational(-1, 3), rational(1, 2), note)
        assert ints == fractions and fractions == ints
        assert hash(ints) == hash(fractions)
        assert str(ints) == str(fractions)
        assert repr(ints) == repr(fractions) == (
            f"CheckRecord(name='r', lhs=Fraction(-1, 3), rhs=Fraction(1, 2), note={note!r})")
        assert (ints.lhs, ints.rhs, ints.margin) == (rational(-1, 3), rational(1, 2),
                                                     rational(5, 6))
        assert ints != CheckRecord("s", rational(-1, 3), rational(1, 2), note)
        assert ints != CheckRecord._over("r", -4, 7, 12, note)
        assert ints != ("r", rational(-1, 3), rational(1, 2), note)

    def test_pickles_and_copies(self):
        for rec in (CheckRecord._over("r", -4, 6, 12, "n"),
                    CheckRecord("r", rational(-1, 3), rational(1, 2), "n")):
            for again in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
                assert again == rec and str(again) == str(rec)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**4),
           st.integers(1, 10**4))
    def test_passed_and_margin_agree_with_fractions(self, lhs, rhs, p, q):
        # ints over one denominator, and rationals over two
        cases = [(CheckRecord._over("r", lhs, rhs, p), rational(lhs, p), rational(rhs, p)),
                 (CheckRecord("r", rational(lhs, p), rational(rhs, q)),
                  rational(lhs, p), rational(rhs, q))]
        for rec, left, right in cases:
            assert rec.passed is (left <= right)
            assert rec.margin == right - left
            assert (rec.lhs, rec.rhs) == (left, right)

    def test_renamed_keeps_the_sides_and_the_verdict(self):
        for rec in (CheckRecord._over("r", 5, 3, 9, "n"),
                    CheckRecord("r", rational(1, 3), rational(1, 2), "n")):
            for renamed, note in ((rec.renamed("s"), "n"), (rec.renamed("s", "m"), "m")):
                assert (renamed.name, renamed.note) == ("s", note)
                assert (renamed.lhs, renamed.rhs, renamed.passed, renamed.margin) == (
                    rec.lhs, rec.rhs, rec.passed, rec.margin)


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

    def test_both_slacks_are_nonnegative(self):
        # eps1 + eps2 <= 0 is the verdict, so it must hold exactly when
        # eps1 = eps2 = 0: A1 lies in [2/3 + eps1, 1]
        for seed in range(300):
            A = random_sum_free(seed, 5)
            if A.is_empty:
                continue
            ctx = LemmaContext.from_set(A, rescale=True)
            assert ctx.eps1 >= 0 and ctx.eps2 >= 0, seed

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
            assert check_sumset_min_bound(a, b).passed

    def test_min_bound_equals_the_bound_from_set_operations(self, rng):
        # the sumset is measured on codes; here it is the union of the
        # pairwise sums of the components
        for _ in range(100):
            a, b = random_interval_set(rng), random_interval_set(rng)
            if a.is_empty or b.is_empty:
                continue
            fresh = IntervalSet.parse(str(a))  # keeps no sums
            is_k_sum_free(a, 3)  # keeps the codes of a+a on a
            for x, y in ((a, b), (a, a), (fresh, fresh)):
                if x.measure() > y.measure():
                    x, y = y, x
                bound = min(2 * x.measure() + y.measure(), x.measure() + y.diameter())
                sumset = IntervalSet([p.sum(q) for p in x for q in y])
                assert check_sumset_min_bound(x, y) == CheckRecord(
                    "sumset-min-bound", bound, sumset.measure())

    @pytest.mark.parametrize("check", [check_superadditivity, check_sumset_min_bound])
    def test_an_empty_operand_is_a_precondition_error(self, check):
        for a, b in ((IntervalSet.empty(), S("(0,1)")), (S("(0,1)"), IntervalSet.empty())):
            with pytest.raises(PreconditionError, match="nonempty operands"):
                check(a, b)


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
