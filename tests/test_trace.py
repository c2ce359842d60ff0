import pytest

import sumfree.lemmas
import sumfree.predicates
from sumfree.constructions import construct_extremal, extremal_base, random_sum_free
from sumfree.intervals import IntervalSet
from sumfree.lemmas import (
    LemmaContext,
    PreconditionError,
    check_dense_tail_bound,
    check_extent_bound,
    check_tail_bound,
    check_tail_equality,
    check_top_window_bound,
    lemma_report,
)
from sumfree.predicates import NotSumFreeError, is_k_sum_free
from sumfree.rationals import MAX_MEASURE, rational
from sumfree.trace import (
    ContainmentReport,
    TraceCase,
    check_extremal_containment,
    trace_measure_bound,
)

A0_RECORDS = [
    "[PASS] extent-bound: 77/177 <= 173/354",
    "[PASS] top-window-bound: 77/177 <= 1/2",
    "[PASS] tail-bound[small-eps1]: 1/3 <= 1/3",
    "[PASS] tail-equality-rigidity: 0 <= 0  (tail mass is exactly 1/3)",
    "[PASS] dense-tail-bound: 1/3 <= 1/3  (mu(A) >= 5/12)",
    "[PASS] sumset-min-bound(S,S): 77/59 <= 265/177",
    "[PASS] sumset-min-bound(R,A1): 77/177 <= 31/59",
]

A0_VERDICTS = [
    "[PASS] window-2/3-mass: 0 <= 0",
    "[PASS] window-4/9-mass: 0 <= 0",
    "[PASS] window-1/3-mass: 0 <= 0",
    "[PASS] tail-bound[small-eps1]: 1/3 <= 1/3",
    "[PASS] dense-tail-bound: 1/3 <= 1/3  (mu(A) >= 5/12)",
    "[PASS] head-split: 77/177 <= 77/177",
    "[PASS] head-window-cap: 6/59 <= 34/177",
    "[PASS] head-tail-bound[small-eps1]: 1/3 <= 1/3  (on (1/r)*R)",
    "[PASS] head-split-again: 6/59 <= 6/59",
    "[PASS] head2-extent-bound: 4/177 <= 4/177",
    "[PASS] head2-room: 4/177 <= 4/177",
    "[PASS] head2-sup-cap: 4/59 <= 4/59",
    "[PASS] head-combined: 6/59 <= 6/59",
    "[PASS] measure-linear: 77/177 <= 77/177",
    "[PASS] linear-vs-ceiling: 77/177 <= 77/177  (equality only at a = 8/177)",
    "[PASS] final-vs-ceiling: 77/177 <= 77/177",
]

# reached by the optimizer; R0 = R & [a, 2r/9 + a/3] is empty
CASE1_R0_EMPTY_SET = ("[640/3357,952/3357]|(2860/10071,2876/10071)"
                      "|(8633/30213,2878/10071)|(2/3,1)")

CASE1_R0_EMPTY_VERDICTS = [
    "[PASS] window-2/3-mass: 0 <= 0",
    "[PASS] window-4/9-mass: 0 <= 0",
    "[PASS] window-1/3-mass: 0 <= 0",
    "[PASS] tail-bound[small-eps1]: 1/3 <= 1/3",
    "[PASS] dense-tail-bound: 1/3 <= 1/3  (mu(A) >= 5/12)",
    "[PASS] head-split: 12928/30213 <= 12928/30213",
    "[PASS] head-window-cap: 2857/30213 <= 958/10071",
    "[PASS] head-tail-bound[small-eps1]: 2857/8634 <= 4316/12951  (on (1/r)*R)",
    "[PASS] head-split-again: 2857/30213 <= 2878/30213",
    "[PASS] head-cap-combined: 2857/30213 <= 958/10071",
    "[PASS] head-cap-linear: 2857/30213 <= 958/10071",
    "[PASS] head-cap-constant: 958/10071 <= 2/21",
    "[PASS] final-vs-ceiling: 12928/30213 <= 77/177",
]


class TestPinnedVerdicts:
    """The exact output on the extremal sets and one Case1-R0-empty set."""

    def test_a0_lemma_records(self):
        assert [str(r) for r in lemma_report(extremal_base()).records] == A0_RECORDS

    def test_a0_trace_verdicts(self):
        assert [str(v) for v in trace_measure_bound(extremal_base()).verdicts] == A0_VERDICTS

    def test_case1_r0_empty_trace(self):
        t = trace_measure_bound(IntervalSet.parse(CASE1_R0_EMPTY_SET))
        assert [str(v) for v in t.verdicts] == CASE1_R0_EMPTY_VERDICTS
        assert t.case is TraceCase.CASE1_R0_EMPTY and t.R0.is_empty
        assert t.final_bound == rational(12928, 30213) and t.equality_attained

    @pytest.mark.parametrize("i", range(8))
    def test_extremal_family(self, i):
        A = construct_extremal(i)
        t = trace_measure_bound(A)
        assert t.case is TraceCase.CASE1_R0_NONEMPTY
        assert t.final_bound == MAX_MEASURE and t.equality_attained
        assert len(t.verdicts) == 16 and t.all_passed
        rep = lemma_report(A)
        assert len(rep.records) == 7 and rep.all_passed


class TestOneVerdictType:
    """The report and the trace show the checker records as returned."""

    def test_a0_records_are_the_checker_returns(self):
        rep = lemma_report(extremal_base())
        ctx = rep.context
        returned = [check_extent_bound(ctx), check_top_window_bound(ctx),
                    check_tail_bound(ctx), check_tail_equality(ctx),
                    check_dense_tail_bound(ctx)]
        assert rep.records[:5] == returned
        t = trace_measure_bound(extremal_base())
        tail, dense = check_tail_bound(t.context), check_dense_tail_bound(t.context)
        assert [v for v in t.verdicts if v.name in (tail.name, dense.name)] == [tail, dense]


class TestValidateOnce:
    """A set is decided 3-sum-free once, across every entry point."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = sumfree.lemmas.is_k_sum_free

        def counting(A, k):
            calls.append(A)
            return real(A, k)

        monkeypatch.setattr(sumfree.lemmas, "is_k_sum_free", counting)
        return calls

    def test_extremal_set(self, checks):
        lemma_report(extremal_base())
        assert len(checks) == 1
        t = trace_measure_bound(extremal_base())
        assert t.case is TraceCase.CASE1_R0_NONEMPTY
        assert len(checks) == 2  # the head (1/r)*R is not checked again

    def test_generated_set(self, checks):
        A = random_sum_free(1, 4)
        lemma_report(A)
        assert len(checks) == 1
        t = trace_measure_bound(A, rescale=True)
        assert t.case is TraceCase.EARLY_EXIT
        assert len(checks) == 1  # the trace reuses the report's context

    @pytest.mark.parametrize("A", [random_sum_free(1, 4), extremal_base().dilate(rational(1, 2))],
                             ids=["early-exit", "Case1-R0-nonempty"])
    def test_report_and_trace_build_one_context(self, A, monkeypatch):
        built = []
        real = LemmaContext._of.__func__

        def counting(cls, B, rescale):
            built.append(B)
            return real(cls, B, rescale)

        monkeypatch.setattr(LemmaContext, "_of", classmethod(counting))
        report = lemma_report(A)
        trace = trace_measure_bound(A, rescale=True)
        assert [B for B in built if B is A] == [A]  # the trace's head is built from R
        assert report.context is trace.context and report.context.rescaled

    def test_a_kept_rescaled_context_still_needs_the_flag(self):
        A = extremal_base().dilate(rational(1, 2))
        ctx = LemmaContext.from_set(A, True)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="rescale=True"):
                LemmaContext.from_set(A, False)
            with pytest.raises(PreconditionError, match="rescale=True"):
                trace_measure_bound(A)
        assert LemmaContext.from_set(A, True) is ctx

    @pytest.mark.parametrize("text", ["(1/2,1)", "(1/4,1/2)"])
    def test_a_set_that_is_not_sum_free_raises_on_every_call(self, text):
        A = IntervalSet.parse(text)
        calls = [lambda: LemmaContext.from_set(A), lambda: LemmaContext.from_set(A, True),
                 lambda: lemma_report(A), lambda: trace_measure_bound(A, rescale=True)]
        for call in calls * 2:
            with pytest.raises(NotSumFreeError) as info:
                call()
            assert info.value.witness.holds_in(A)

    @staticmethod
    def memo_sets():
        base = [construct_extremal(i) for i in range(8)]
        base += [A.dilate(rational(1, 2)) for A in base]
        return base + [A for A in (random_sum_free(s, 4) for s in range(1, 60)) if A]

    def test_kept_values_give_the_answers_of_a_fresh_set(self):
        for A in self.memo_sets():
            A = IntervalSet.parse(str(A))
            assert is_k_sum_free(A, 3) == (True, None)
            report, trace = lemma_report(A), trace_measure_bound(A, rescale=True)
            again = lemma_report(A), trace_measure_bound(A, rescale=True)
            for rep, tr in (again, (lemma_report(IntervalSet.parse(str(A))),
                                    trace_measure_bound(IntervalSet.parse(str(A)), rescale=True))):
                assert rep.records == report.records and rep.checked == report.checked
                assert (tr.case, tr.verdicts, tr.final_bound) == (
                    trace.case, trace.verdicts, trace.final_bound)
            if A.sup() <= 1:
                assert check_extremal_containment(A) == check_extremal_containment(
                    IntervalSet.parse(str(A)))

    def test_once_across_the_certify_entry_points(self, monkeypatch):
        for i in range(8):
            construct_extremal(i)  # warm the cache
        A = IntervalSet.parse(str(construct_extremal(1)))
        decided = []
        real = sumfree.predicates.conflicts

        def counting(B, k):
            if B is A:
                decided.append(k)
            return real(B, k)

        monkeypatch.setattr(sumfree.predicates, "conflicts", counting)
        assert is_k_sum_free(A, 3) == (True, None)
        assert lemma_report(A).all_passed
        assert trace_measure_bound(A, rescale=True).all_passed
        assert check_extremal_containment(A).container == 1
        assert decided == [3]


class TestContainment:
    """The inverse-statement check compares against the cached extremal sets."""

    def test_a0_fits_every_augmentation(self):
        assert check_extremal_containment(construct_extremal(0)) == ContainmentReport(
            MAX_MEASURE, True, True, (1, 2, 3, 4, 5, 6, 7), 1)

    def test_warm_checks_parse_nothing(self, monkeypatch):
        for i in range(8):
            construct_extremal(i)  # warm the cache
        parses = []
        real = IntervalSet.parse

        def counting(text):
            parses.append(text)
            return real(text)

        monkeypatch.setattr(IntervalSet, "parse", staticmethod(counting))
        reports = [check_extremal_containment(construct_extremal(i)) for i in range(1, 8)]
        assert parses == []
        assert reports == [ContainmentReport(MAX_MEASURE, True, True, (i,), i)
                           for i in range(1, 8)]
