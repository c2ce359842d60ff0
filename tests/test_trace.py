import pytest

import sumfree.lemmas
from sumfree.constructions import construct_extremal, extremal_base, random_sum_free
from sumfree.intervals import IntervalSet
from sumfree.lemmas import (
    check_dense_tail_bound,
    check_extent_bound,
    check_tail_bound,
    check_tail_equality,
    check_top_window_bound,
    lemma_report,
)
from sumfree.rationals import MAX_MEASURE
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
    "[PASS] sumset-min-bound(0,0): 8/177 <= 8/177",
    "[PASS] sumset-min-bound(0,1): 6/59 <= 6/59",
    "[PASS] sumset-min-bound(0,2): 21/59 <= 21/59",
    "[PASS] sumset-min-bound(1,1): 28/177 <= 28/177",
    "[PASS] sumset-min-bound(1,2): 73/177 <= 73/177",
    "[PASS] sumset-min-bound(2,2): 2/3 <= 2/3",
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


class TestPinnedVerdicts:
    """The exact output on the extremal sets, character for character."""

    def test_a0_lemma_records(self):
        assert [str(r) for r in lemma_report(extremal_base()).records] == A0_RECORDS

    def test_a0_trace_verdicts(self):
        assert [str(v) for v in trace_measure_bound(extremal_base()).verdicts] == A0_VERDICTS

    @pytest.mark.parametrize("i", range(8))
    def test_extremal_family(self, i):
        A = construct_extremal(i)
        t = trace_measure_bound(A)
        assert t.case is TraceCase.CASE1_R0_NONEMPTY
        assert t.final_bound == MAX_MEASURE and t.equality_attained
        assert len(t.verdicts) == 16 and t.all_passed
        rep = lemma_report(A)
        assert len(rep.records) == 11 and rep.all_passed


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
    """A set is checked for 3-sum-freeness once per report or trace."""

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
        assert len(checks) == 2


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
