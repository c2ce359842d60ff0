import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interval_sets, random_interval_set
from sumfree.constructions import (construct_extremal, endpoint_combination, extremal_base,
                                   random_sum_free)
from sumfree.intervals import Interval, IntervalSet
from sumfree.lemmas import lemma_report
from sumfree.predicates import NotSumFreeError, conflicts, forbidden_region, is_k_sum_free, strip
from sumfree.rationals import rational


def S(text):
    return IntervalSet.parse(text)


class TestPredicate:
    def test_extremal_base_is_sum_free(self):
        ok, witness = is_k_sum_free(extremal_base(), 3)
        assert ok and witness is None

    def test_empty_set(self):
        ok, witness = is_k_sum_free(IntervalSet.empty(), 3)
        assert ok and witness is None

    def test_excluded_endpoint_combination(self):
        bad = endpoint_combination(0b010)
        ok, w = is_k_sum_free(bad, 3)
        assert not ok
        assert (w.x, w.y, w.z) == (rational(8, 177), rational(2, 3), rational(14, 59))
        assert w.x + w.y == 3 * w.z

    def test_unit_interval_fails_with_interior_witness(self):
        ok, w = is_k_sum_free(S("(0,1)"), 3)
        assert not ok
        assert w.holds_in(S("(0,1)"))

    @pytest.mark.parametrize("text,k,xyz", [
        ("(0,1/4)|(2/3,1)", 3, ("1/8", "1/8", "1/12")),
        # the conflict is the single point 14/59
        ("[8/177,4/59)|(28/177,14/59]|[2/3,1)", 3, ("8/177", "2/3", "14/59")),
        # the conflict is the single point 1/2
        ("[1/2,1/2]|[1,1]|(3/2,2)", 3, ("1/2", "1", "1/2")),
        ("(0,1)", 3, ("1/2", "1/2", "1/3")),
        ("(0,1/8)|(1/3,1/2)", 3, ("1/16", "1/16", "1/24")),
        ("[-1,-1/2]|(1/7,2/3)", 3, ("-7/8", "-7/8", "-7/12")),
        ("(1/5,1/3)|[3/4,1]", 4, ("4/15", "7/8", "137/480")),
        ("(1/4,1/2]|[3/5,1)", 1, ("2/5", "2/5", "4/5")),
    ])
    def test_pinned_witnesses(self, text, k, xyz):
        ok, w = is_k_sum_free(S(text), k)
        assert not ok and w.k == k
        assert (w.x, w.y, w.z) == tuple(map(rational, xyz))

    def test_witness_soundness_random(self, rng):
        for lo in (0, -2):
            for _ in range(300):
                a = random_interval_set(rng, lo=lo, hi=2)
                for k in (1, 3, 4):
                    ok, w = is_k_sum_free(a, k)
                    if not ok:
                        assert w.k == k and w.holds_in(a) and w.x <= w.y

    def test_k2_trivially_false_for_nonempty(self, rng):
        ok, w = is_k_sum_free(S("(1/4,1/3)"), 2)
        assert not ok and w.x + w.y == 2 * w.z
        for _ in range(50):
            a = random_interval_set(rng, lo=0, hi=2)
            if a.is_empty:
                continue
            ok, w = is_k_sum_free(a, 2)
            assert not ok and w.holds_in(a)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            is_k_sum_free(S("(0,1)"), 0)

    @pytest.mark.parametrize("k", [3.0, 2.5, True])
    def test_k_must_be_an_int_before_and_after_a_verdict(self, k):
        A = S("(2/3,1)")
        with pytest.raises(ValueError, match="k must be a positive integer"):
            is_k_sum_free(A, k)
        assert is_k_sum_free(A, 3) == (True, None)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            is_k_sum_free(A, k)

    def test_reformulations_agree(self, rng):
        # (1/3)(A+A) missing A is the same as (3A - A) missing A
        third = rational(1, 3)
        for _ in range(200):
            a = random_interval_set(rng, lo=0, hi=2)
            if a.is_empty:
                continue
            ok, _ = is_k_sum_free(a, 3)
            via_z = a.minkowski(a).dilate(third).intersect(a).is_empty
            via_x = a.dilate(3).minkowski(a.reflect()).intersect(a).is_empty
            assert ok == via_z == via_x

    def test_small_instance_component_oracle(self, rng):
        # components pairwise: A is k-sum-free iff no (I+J) meets k*K
        for _ in range(300):
            a = random_interval_set(rng, max_components=3, lo=0, hi=1)
            if a.is_empty:
                continue
            for k in (1, 3, 4):
                comps = a.components
                clash = False
                for i, I in enumerate(comps):
                    for J in comps[i:]:
                        sij = IntervalSet([I.sum(J)])
                        for K in comps:
                            scaled = IntervalSet([K]).dilate(k)
                            if not sij.intersect(scaled).is_empty:
                                clash = True
                ok, _ = is_k_sum_free(a, k)
                assert ok == (not clash)


class TestVerdictMemo:
    """A verdict kept on a set is the verdict a fresh copy gets."""

    @settings(max_examples=150)
    @given(interval_sets(), st.permutations([1, 1, 2, 2, 3, 3, 4, 4]))
    def test_any_call_order_matches_a_fresh_set(self, a, ks):
        for k in ks:
            ok, w = is_k_sum_free(a, k)
            fresh = IntervalSet.parse(str(a))
            assert (ok, w) == is_k_sum_free(fresh, k)
            assert ok == (w is None)
            if w is not None:
                assert w.k == k and w.holds_in(a)
        assert a == fresh and hash(a) == hash(fresh) and str(a) == str(fresh)

    @settings(max_examples=150)
    @given(interval_sets(min_value=0), st.permutations([1, 2, 3, 4]))
    def test_report_raises_the_kept_witness(self, a, ks):
        for k in ks:
            is_k_sum_free(a, k)
        ok, w = is_k_sum_free(a, 3)
        if ok:
            return
        with pytest.raises(NotSumFreeError) as info:
            lemma_report(a)
        assert info.value.witness == w and w.holds_in(a)

    def test_threads_sharing_sets_read_correct_verdicts(self, rng):
        sets = [random_interval_set(rng, lo=0, hi=2) for _ in range(6)]
        expected = {(i, k): is_k_sum_free(IntervalSet.parse(str(a)), k)
                    for i, a in enumerate(sets) for k in (1, 3, 4)}
        sums = [IntervalSet.parse(str(a)).minkowski(IntervalSet.parse(str(a))) for a in sets]
        wrong = []

        def worker(seed):
            order = random.Random(seed)
            for _ in range(60):
                i, k = order.randrange(len(sets)), order.choice((1, 3, 4))
                if is_k_sum_free(sets[i], k) != expected[i, k]:
                    wrong.append((i, k))
                if sets[i].minkowski(sets[i]) != sums[i]:  # the kept A+A
                    wrong.append((i, "sums"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestSumsMemo:
    """A+A kept on a set by the predicate, and carried by ``dilate``, is
    the sumset that sets without a kept sumset get."""

    @staticmethod
    def fresh(a):
        return IntervalSet.parse(str(a))

    @settings(max_examples=200)
    @given(interval_sets(), st.sampled_from(
        [rational(1), rational(1, 2), rational(2), rational(3, 7), rational(6), rational(10, 3)]))
    # the dilations reduce the denominator: (1/2,1) over 2 to (1,2) over 1
    @example(S("(1/2,1)|[3/2,3/2]"), rational(2))
    @example(S("[-1/6,-1/12)|(1/3,1/2]"), rational(6))
    def test_kept_sums_match_a_fresh_set(self, a, c):
        is_k_sum_free(a, 3)
        pairwise = IntervalSet([p.sum(q) for p in a for q in a])
        assert a.minkowski(a) == self.fresh(a).minkowski(self.fresh(a)) == pairwise
        d = a.dilate(c)
        e = d.dilate(c)  # carried twice
        for b in (d, e):
            assert b.minkowski(b) == self.fresh(b).minkowski(self.fresh(b))
            for k in (1, 3, 4):
                assert conflicts(b, k) == conflicts(self.fresh(b), k)
                assert is_k_sum_free(b, k) == is_k_sum_free(self.fresh(b), k)
        if a:
            assert forbidden_region(a) == forbidden_region(self.fresh(a))


    @pytest.mark.parametrize("sets", [
        [construct_extremal(i) for i in range(8)],
        [random_sum_free(seed, 4) for seed in range(100)],
    ], ids=["A0..A7", "random_sum_free"])
    def test_int_dilation_equals_the_fraction_one(self, sets):
        # _dilate(p, q) is dilate(p/q) with p and q not reduced, as
        # LemmaContext._of rescales by D/top; both with and without kept sums
        for a in map(self.fresh, sets):
            top = a._codes[-1] >> 1
            factors = [(1, 1), (2, 1), (1, 3), (4, 6), (59, 177), (177, 59), (a._den, top)]
            for keep in (False, True):
                if keep:
                    conflicts(a, 3)
                for p, q in factors:
                    by_ints, by_fraction = a._dilate(p, q), a.dilate(Fraction(p, q))
                    assert (by_ints._den, by_ints._codes) == (by_fraction._den, by_fraction._codes)
                    assert (getattr(by_ints, "_sums", None)
                            == getattr(by_fraction, "_sums", None)), (a, p, q)
                    assert (getattr(by_ints, "_sums", None) is None) != keep


class TestStrip:
    """S minus (1/3)(S+S) is 3-sum-free, so one strip needs no re-check."""

    @settings(max_examples=150)
    @given(interval_sets())
    def test_one_strip_is_sum_free(self, a):
        assert is_k_sum_free(strip(a), 3)[0]
        if not a.is_empty:
            assert is_k_sum_free(a.difference(forbidden_region(a)), 3)[0]

    @settings(max_examples=150)
    @given(interval_sets())
    def test_strip_fixes_exactly_the_sum_free_sets(self, a):
        assert (strip(a) == a) == is_k_sum_free(a, 3)[0]

    def test_strip_of_an_interval(self):
        assert strip(S("(1/3,1)")) == S("[2/3,1)")
        assert strip(S("(1/2,3/4)")) == S("(1/2,3/4)")

    @settings(max_examples=200)
    @given(interval_sets())
    def test_one_sweep_equals_the_set_operations(self, a):
        assert strip(a) == a.difference(a.minkowski(a).dilate(rational(1, 3)))


class TestConflicts:
    """The conflict set is empty exactly when the predicate holds."""

    @staticmethod
    def meets(p, q):
        """Whether two pieces share a point, from their endpoints and flags."""
        if p.lo != q.lo:
            lo, lo_closed = max((p.lo, p.lo_closed), (q.lo, q.lo_closed))
        else:
            lo, lo_closed = p.lo, p.lo_closed and q.lo_closed
        if p.hi != q.hi:
            hi, hi_closed = min((p.hi, p.hi_closed), (q.hi, q.hi_closed))
        else:
            hi, hi_closed = p.hi, p.hi_closed and q.hi_closed
        return lo < hi or (lo == hi and lo_closed and hi_closed)

    @settings(max_examples=150)
    @given(interval_sets())
    # 1 + 1 = 2 when k = 1: the flags at 1 and 2 decide
    @example(S("(1/2,1)|[2,5/2]"))
    @example(S("(1/2,1]|[2,5/2]"))
    def test_empty_iff_sum_free(self, a):
        # A is k-sum-free iff no components I, J, K have I + J meeting k*K
        pieces = a.components
        for k in range(1, 7):
            scaled = [Interval(k * c.lo, k * c.hi, c.lo_closed, c.hi_closed) for c in pieces]
            free = not any(self.meets(i.sum(j), kc)
                           for i in pieces for j in pieces for kc in scaled)
            assert conflicts(a, k).is_empty == free, k
            assert is_k_sum_free(a, k)[0] == free, k

    @settings(max_examples=200)
    @given(interval_sets())
    def test_one_sweep_equals_the_set_operations(self, a):
        for k in range(1, 7):
            assert conflicts(a, k) == a.minkowski(a).dilate(rational(1, k)).intersect(a)


class TestForbiddenRegion:
    def test_first_interval(self):
        U = S("(8/177,4/59)")
        assert U.dilate(3).minkowski(U.reflect()) == S("(4/59,28/177)")

    def test_middle_and_top(self):
        V = S("(28/177,14/59)")
        top = S("(2/3,1)")
        third = rational(1, 3)
        union = V.dilate(3).minkowski(V.reflect()).union(
            top.minkowski(top).dilate(third))
        assert union == S("(14/59,2/3)")

    def test_cross_term(self):
        V, top = S("(28/177,14/59)"), S("(2/3,1)")
        assert V.dilate(3).minkowski(top.reflect()) == S("(-31/59,8/177)")

    def test_extremal_base_avoids_own_region(self):
        a0 = extremal_base()
        assert forbidden_region(a0).intersect(a0).is_empty

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            forbidden_region(IntervalSet.empty())

    def test_a_point_joins_iff_it_is_outside_the_region(self):
        # p from the endpoints of A and F(A), their midpoints, and
        # offsets of 1/997 from both, which fall inside and outside parts
        step = rational(1, 997)
        checked = 0
        for seed in range(1, 41):
            a = random_sum_free(seed, 1 + seed % 6)
            if a.is_empty:
                continue
            region = forbidden_region(a)
            ends = sorted({x for c in (*a, *region) for x in (c.lo, c.hi)})
            points = ends + [(p + q) / 2 for p, q in zip(ends, ends[1:])]
            for p in {p + d for p in points for d in (-step, 0, step)}:
                if a.contains(p):
                    continue
                joined = a.union(IntervalSet.point(p))
                assert is_k_sum_free(joined, 3)[0] == (not region.contains(p)), (a, p)
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("i", range(1, 8))
    def test_each_maximal_set_leaves_no_room_in_the_unit_interval(self, i):
        a = construct_extremal(i)
        assert S("[0,1]").is_subset_of(a.union(forbidden_region(a)))

    def test_extremal_base_leaves_only_its_endpoints(self):
        a0 = extremal_base()
        ends = IntervalSet([Interval(x, x, True, True) for c in a0 for x in (c.lo, c.hi)])
        assert len(ends) == 6
        assert S("[0,1]").difference(a0.union(forbidden_region(a0))) == ends

    def test_disjointness_characterizes_sum_freeness(self, rng):
        # conflict-free against the z-part of the region, or against the
        # whole region, is the predicate
        third = rational(1, 3)
        for _ in range(150):
            a = random_interval_set(rng, lo=0, hi=2)
            if a.is_empty:
                continue
            ok, _ = is_k_sum_free(a, 3)
            assert ok == a.minkowski(a).dilate(third).intersect(a).is_empty
            assert ok == a.intersect(forbidden_region(a)).is_empty
