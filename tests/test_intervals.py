import copy
import pickle
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clip, interval_sets, random_interval_set, rationals, window
from sumfree.constructions import construct_extremal
from sumfree.intervals import (EmptySetError, Interval, IntervalSet, ParseError,
                               _self_sumset_codes, _sumset_codes)
from sumfree.lemmas import lemma_report
from sumfree.predicates import is_k_sum_free
from sumfree.rationals import rational

A0_TEXT = "(8/177,4/59)|(28/177,14/59)|(2/3,1)"


def S(text):
    return IntervalSet.parse(text)


def _coprime_denominators(count, digits=20):
    """Pairwise coprime denominators of ``digits`` digits, like the optimizer's."""
    out, d = [], 10 ** (digits - 1) + 1
    while len(out) < count:
        if all(gcd(d, e) == 1 for e in out):
            out.append(d)
        d += 2
    return out


BIG_DENOMS = _coprime_denominators(6)


def big_rational(rng, lo=-2, hi=3):
    den = rng.choice(BIG_DENOMS)
    return rational(rng.randint(lo * den, hi * den), den)


def pieces_between(rng, values, count):
    pieces = []
    for _ in range(count):
        a, b = sorted((rng.choice(values), rng.choice(values)))
        pieces.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return pieces


def small_pair(rng):
    return random_interval_set(rng), random_interval_set(rng)


def big_pair(rng):
    # large mutually coprime denominators and negative endpoints
    values = [big_rational(rng) for _ in range(10)]
    return tuple(IntervalSet(pieces_between(rng, values, rng.randint(1, 4)))
                 for _ in range(2))


def shared_endpoint_pair(rng):
    # b reuses a's endpoints with fresh open/closed flags, so the operands
    # touch and overlap exactly at large-denominator points
    a = IntervalSet(pieces_between(rng, [big_rational(rng) for _ in range(6)], 3))
    values = [e for c in a.components for e in (c.lo, c.hi)] or [rational(0)]
    values += [big_rational(rng), -values[0]]
    return a, IntervalSet(pieces_between(rng, values, rng.randint(1, 4)))


def probe_points(sets, pieces=()):
    """Every endpoint of the given sets and pieces, and every gap midpoint."""
    ends = sorted({e for s in sets for c in s.components for e in (c.lo, c.hi)}
                  | {e for c in pieces for e in (c.lo, c.hi)})
    mids = [(p + q) / 2 for p, q in zip(ends, ends[1:])]
    if ends:
        mids += [ends[0] - 1, ends[-1] + 1]
    return ends + mids


class TestNormalize:
    def test_open_endpoints_do_not_touch(self):
        s = IntervalSet([Interval(rational(0), rational(1, 2)),
                         Interval(rational(1, 2), rational(1))])
        assert len(s) == 2
        assert str(s) == "(0,1/2)|(1/2,1)"

    def test_adjacency_merge(self):
        s = IntervalSet([Interval(rational(0), rational(1, 2), False, True),
                         Interval(rational(1, 2), rational(1))])
        assert str(s) == "(0,1)"

    def test_lowest_terms(self):
        s = IntervalSet([Interval(rational(3, 6), rational(2, 2))])
        assert str(s) == "(1/2,1)"

    def test_degenerate_dropped(self):
        assert IntervalSet([Interval(rational(1), rational(0))]).is_empty
        assert IntervalSet([Interval(rational(1), rational(1))]).is_empty
        assert not IntervalSet([Interval(rational(1), rational(1), True, True)]).is_empty

    def test_overlap_merge_keeps_closedness(self):
        s = IntervalSet([Interval(rational(0), rational(2), True, False),
                         Interval(rational(1), rational(2), False, True)])
        assert str(s) == "[0,2]"

    @settings(max_examples=150)
    @given(interval_sets())
    def test_idempotent(self, s):
        assert IntervalSet(s.components) == s

    def test_singleton_absorbed(self):
        s = S("(0,1/2)").union(IntervalSet.point(rational(1, 2)))
        assert str(s) == "(0,1/2]"


class TestContains:
    def test_rational_points(self):
        A = S("(0,1/2]|[2/3,1)")
        assert rational(1, 2) in A and A.contains(rational(2, 3))
        assert rational(0) not in A and rational(1) not in A and rational(3, 5) not in A

    def test_points_are_converted_with_rational(self):
        # as dilate and translate do: an int, a float or a 'p/q' string
        A = S("(0,1/2]|[2/3,1)")
        assert "1/2" in A and 0.5 in A and A.contains("2/3") and A.contains(0.75)
        assert "3/5" not in A and 1 not in A and 0.0 not in A and not A.contains("1")


class TestMeasure:
    def test_extremal_set(self):
        assert S(A0_TEXT).measure() == rational(77, 177)

    def test_empty(self):
        assert IntervalSet.empty().measure() == 0

    def test_single_component(self):
        assert S("(8/177,4/59)").measure() == rational(4, 177)

    def test_points_are_null(self):
        assert S("[1/2,1/2]").measure() == 0

    def test_additive_on_disjoint(self, rng):
        for _ in range(200):
            a = random_interval_set(rng)
            b = random_interval_set(rng).difference(a)
            assert a.union(b).measure() == a.measure() + b.measure()


class TestDilateTranslateReflect:
    def test_dilate(self):
        assert str(S("(2/3,1)").dilate(3)) == "(2,3)"

    def test_dilate_identity(self):
        assert S(A0_TEXT).dilate(1) == S(A0_TEXT)

    def test_dilate_measure_exact(self):
        assert S(A0_TEXT).dilate(59).measure() == rational(77, 3)

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            S("(0,1)").dilate(0)
        with pytest.raises(ValueError):
            S("(0,1)").dilate(rational(-1, 2))

    @settings(max_examples=100)
    @given(interval_sets(), rationals(min_value=1, max_value=5, max_denominator=30))
    def test_dilation_scales_measure(self, s, alpha):
        if alpha > 0:
            assert s.dilate(alpha).measure() == alpha * s.measure()

    def test_translate(self):
        assert str(S("(0,1)").translate(rational(1, 3))) == "(1/3,4/3)"
        assert IntervalSet.empty().translate(5).is_empty
        assert str(S("[1/2,1/2]").translate(rational(1, 2))) == "[1,1]"

    def test_reflect(self):
        assert str(S("(1,2)|[3,4]").reflect()) == "[-4,-3]|(-2,-1)"
        assert S("(1,2)").reflect().reflect() == S("(1,2)")


class TestMinkowski:
    def test_open_plus_open(self):
        assert str(S("(2/3,1)").minkowski(S("(2/3,1)"))) == "(4/3,2)"

    def test_cross_component(self):
        got = S("(8/177,4/59)").minkowski(S("(2/3,1)"))
        assert str(got) == "(42/59,63/59)"

    def test_zero_singleton_identity(self):
        assert S("[0,0]").minkowski(S(A0_TEXT)) == S(A0_TEXT)

    def test_empty_absorbs(self):
        assert S("(0,1)").minkowski(IntervalSet.empty()).is_empty

    def test_closedness_semantics(self):
        # an endpoint of a sum is attained iff both sides attain theirs
        assert str(S("(0,1]").minkowski(S("[2,3]"))) == "(2,4]"
        assert str(S("[0,1)").minkowski(S("[2,3)"))) == "[2,4)"

    def test_commutative(self, rng):
        for _ in range(50):
            a, b = random_interval_set(rng), random_interval_set(rng)
            assert a.minkowski(b) == b.minkowski(a)

    def test_associative(self, rng):
        for _ in range(30):
            a, b, c = (random_interval_set(rng, max_components=3) for _ in range(3))
            if a.is_empty or b.is_empty or c.is_empty:
                continue
            assert a.minkowski(b).minkowski(c) == a.minkowski(b.minkowski(c))

    def test_dilate_distributes(self, rng):
        for _ in range(50):
            a, b = random_interval_set(rng), random_interval_set(rng)
            alpha = rational(rng.randint(1, 20), rng.randint(1, 20))
            assert a.minkowski(b).dilate(alpha) == a.dilate(alpha).minkowski(b.dilate(alpha))

    def test_superadditive_measure(self, rng):
        # mu(A+B) >= mu(A) + mu(B) for nonempty bounded sets
        for _ in range(200):
            a, b = random_interval_set(rng), random_interval_set(rng)
            if a.is_empty or b.is_empty:
                continue
            assert a.minkowski(b).measure() >= a.measure() + b.measure()

    def test_min_lower_bound(self, rng):
        # mu(A+B) >= min(2 mu(A) + mu(B), mu(A) + diam(B)) when mu(A) <= mu(B)
        for _ in range(200):
            a, b = random_interval_set(rng), random_interval_set(rng)
            if a.is_empty or b.is_empty:
                continue
            if a.measure() > b.measure():
                a, b = b, a
            bound = min(2 * a.measure() + b.measure(), a.measure() + b.diameter())
            assert a.minkowski(b).measure() >= bound


class TestBooleanOps:
    def test_intersect_extremal_top(self):
        assert str(S(A0_TEXT).intersect(S("[2/3,1]"))) == "(2/3,1)"

    def test_union_empty(self):
        assert S(A0_TEXT).union(IntervalSet.empty()) == S(A0_TEXT)

    def test_difference_endpoint_residue(self):
        assert str(S("[2/3,1]").difference(S("(2/3,1)"))) == "[2/3,2/3]|[1,1]"

    def test_symmetric_difference(self):
        a, b = S("(0,2)"), S("(1,3)")
        assert a.symmetric_difference(b) == a.union(b).difference(a.intersect(b))

    def test_membership_oracle(self, rng):
        # every result agrees pointwise with direct logic on the operands'
        # components; membership is constant between consecutive probe
        # points, so probing each of them and each gap midpoint is exhaustive
        for a, b in (pair(rng) for pair in (small_pair, big_pair, shared_endpoint_pair)
                     for _ in range(60)):
            ops = {"|": a.union(b), "&": a.intersect(b), "-": a.difference(b),
                   "^": a.symmetric_difference(b), "+": a.minkowski(b)}
            sums = [I.sum(J) for I in a.components for J in b.components]
            probes = probe_points([a, b, *ops.values()], sums)
            for x in probes:
                in_a = any(c.contains(x) for c in a.components)
                in_b = any(c.contains(x) for c in b.components)
                assert ops["|"].contains(x) == (in_a or in_b)
                assert ops["&"].contains(x) == (in_a and in_b)
                assert ops["-"].contains(x) == (in_a and not in_b)
                assert ops["^"].contains(x) == (in_a != in_b)
                assert ops["+"].contains(x) == any(s.contains(x) for s in sums)
            for sub, sup in ((a, b), (a, ops["|"]), (ops["&"], b), (ops["-"], a)):
                members = [x for x in probe_points([sub, sup]) if sub.contains(x)]
                assert sub.is_subset_of(sup) == all(sup.contains(x) for x in members)

    @settings(max_examples=100)
    @given(interval_sets(), interval_sets())
    def test_demorgan_via_difference(self, a, b):
        box = IntervalSet.interval(-3, 4, True, True)
        lhs = box.difference(a.union(b))
        rhs = box.difference(a).intersect(box.difference(b))
        assert lhs == rhs


@st.composite
def clip_cases(draw):
    """``(set, lo, hi)``: window ends are endpoints of the set or any
    rationals in [-2, 3] with denominators up to 90, which need not
    divide the set's; hi is lo one time in five, and lo > hi is common."""
    a = draw(interval_sets())
    ends = [e for c in a.components for e in (c.lo, c.hi)]
    end = st.sampled_from(ends) | rationals() if ends else rationals()
    lo = draw(end)
    hi = lo if draw(st.integers(0, 4)) == 0 else draw(end)
    return a, lo, hi


class TestClip:
    @settings(max_examples=400)
    @given(clip_cases())
    # lo > hi, and lo == hi inside, at and outside the set
    @example((S("(0,1)"), rational(2, 3), rational(1, 3)))
    @example((S("(0,1)"), rational(1, 2), rational(1, 2)))
    @example((S("(0,1)|[2,3]"), rational(0), rational(0)))
    @example((S("(0,1)|[2,3]"), rational(2), rational(2)))
    # window ends on open and closed component ends, from either side
    @example((S("(0,1/2]|[2/3,1)"), rational(1, 2), rational(2, 3)))
    @example((S("(0,1/2]|[2/3,1)"), rational(0), rational(1)))
    @example((S("[0,1/2)|(2/3,1]"), rational(1, 2), rational(2, 3)))
    @example((S("[0,1/2)|(2/3,1]"), rational(0), rational(1)))
    # negative values, and window denominators that do not divide D
    @example((S("[-2,-1/2)|(1/4,3]"), rational(-5, 7), rational(2, 9)))
    @example((S("(-1,1)"), rational(-1, 3), rational(-1, 5)))
    def test_clip_is_intersect_with_the_window(self, case):
        a, lo, hi = case
        assert clip(a, lo, hi) == a.intersect(window(lo, hi))

    def test_clip_of_the_empty_set(self):
        assert clip(IntervalSet.empty(), 0, 1).is_empty

    def test_clip_keeps_flags_at_the_window_ends(self):
        a = S("(0,1/2]|[2/3,1)")
        assert str(clip(a, rational(1, 2), rational(2, 3))) == "[1/2,1/2]|[2/3,2/3]"
        assert str(clip(a, 0, 1)) == str(a)
        assert str(clip(a, rational(1, 4), rational(3, 4))) == "[1/4,1/2]|[2/3,3/4]"


@st.composite
def code_windows(draw):
    """``(set, den, lo, hi)``: a set with negative values and singletons,
    a multiple den of its D, and window ends as ints over den that are
    the set's endpoints or any ints in [-2, 3] * den; either end is None
    (unbounded) one time in six, hi is lo one time in five, and lo > hi
    is common."""
    a = draw(interval_sets())
    for x in draw(st.lists(rationals(), max_size=2)):
        a = a.union(IntervalSet.point(x))
    den = a._den * draw(st.sampled_from([1, 2, 3, 7, 648]))
    ends = [int(e * den) for c in a.components for e in (c.lo, c.hi)]
    end = st.integers(-2 * den, 3 * den)
    if ends:
        end = st.sampled_from(ends) | end
    lo = None if draw(st.integers(0, 5)) == 0 else draw(end)
    if lo is not None and draw(st.integers(0, 4)) == 0:
        return a, den, lo, lo
    return a, den, lo, None if draw(st.integers(0, 5)) == 0 else draw(end)


class TestCodeSpace:
    """The int forms of the window cut and its measure, and the
    self-sumset from half the pairs, against the rational forms."""

    @settings(max_examples=400)
    @given(code_windows())
    @example((S("(0,1/2)|(1/2,1)"), 2, 1, 1))  # a window on a missing point
    @example((S("[0,0]|(1/3,2/3)"), 3, 0, 0))  # a window on a singleton
    @example((S("(-1,1)"), 6, 5, -5))  # lo > hi
    @example((S("(-1,1)"), 6, None, None))
    def test_mass_is_the_measure_of_the_clip(self, case):
        a, den, lo, hi = case
        if a.is_empty:
            assert a._mass(den, lo, hi) == 0
            return
        # an unbounded end cuts nothing, as the window from inf A would not
        wlo = a.inf() if lo is None else rational(lo, den)
        whi = a.sup() if hi is None else rational(hi, den)
        assert a._mass(den, lo, hi) == clip(a, wlo, whi).measure() * den

    @settings(max_examples=400)
    @given(code_windows())
    def test_int_clip_is_clip(self, case):
        a, den, lo, hi = case
        if lo is None or hi is None:
            return
        assert a._clip(lo, hi, den) == clip(a, rational(lo, den), rational(hi, den))

    @settings(max_examples=300)
    @given(st.lists(st.integers(-300, 300), unique=True, max_size=14))
    def test_self_sumset_is_the_full_pairwise_merge(self, values):
        codes = sorted(values)[:len(values) // 2 * 2]
        assert _self_sumset_codes(codes) == _sumset_codes(codes, list(codes))

    def test_self_sumset_of_a0(self):
        a0 = S(A0_TEXT)
        assert _self_sumset_codes(a0._codes) == _sumset_codes(a0._codes, list(a0._codes))
        assert a0.minkowski(a0) == a0.minkowski(S(A0_TEXT))


class TestExtrema:
    def test_extremal_set_extrema(self):
        a0 = S(A0_TEXT)
        assert a0.inf() == rational(8, 177)
        assert a0.sup() == 1
        assert a0.diameter() == 1 - rational(8, 177)

    def test_diameter(self):
        assert S("(1/4,1/2)|(3/4,1)").diameter() == rational(3, 4)

    def test_empty_rejected(self):
        for op in ("inf", "sup", "diameter"):
            with pytest.raises(EmptySetError):
                getattr(IntervalSet.empty(), op)()


ROUND_TRIPS = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
               "copy": copy.copy, "deepcopy": copy.deepcopy}


class TestPickleAndCopy:
    # a set rebuilds from its codes, so it can be sent to another process
    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    @pytest.mark.parametrize("text", ["{}"] + [str(construct_extremal(i)) for i in range(8)])
    def test_round_trip(self, trip, text):
        a = S(text)
        b = ROUND_TRIPS[trip](a)
        assert b == a and hash(b) == hash(a) and str(b) == text
        assert (b._den, b._codes) == (a._den, a._codes)
        assert b.measure() == a.measure()

    @pytest.mark.parametrize("trip", ROUND_TRIPS)
    def test_a_set_with_cached_verdict_and_sums(self, trip):
        a = S(A0_TEXT)
        assert is_k_sum_free(a, 3) == (True, None)
        lemma_report(a)
        b = ROUND_TRIPS[trip](a)
        assert b == a and is_k_sum_free(b, 3) == (True, None)
        assert b.minkowski(b) == a.minkowski(a)
        with pytest.raises(AttributeError, match="immutable"):
            b._den = 1

    def test_a_pickled_lemma_report(self):
        report = lemma_report(S(A0_TEXT))
        again = pickle.loads(pickle.dumps(report))
        assert again == report and again.checked == report.checked
        assert [str(r) for r in again.records] == [str(r) for r in report.records]


SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def lenient_token(draw):
    """``(text, value)`` of a number as the parser takes it: a possibly
    negative, possibly unreduced numerator, with or without a denominator."""
    num = draw(st.integers(-60, 60))
    if draw(st.booleans()):
        return str(num), rational(num)
    den = draw(st.integers(1, 24))
    return f"{num}{draw(SPACES)}/{draw(SPACES)}{den}", rational(num, den)


@st.composite
def lenient_pieces(draw):
    """``(text, Interval)`` of one piece in any order, whitespace and
    flags, degenerate or reversed pieces included."""
    (lo_text, lo), (hi_text, hi) = draw(lenient_token()), draw(lenient_token())
    if draw(st.integers(0, 4)) == 0:
        hi_text, hi = lo_text, lo
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    w = [draw(SPACES) for _ in range(6)]
    text = (f"{w[0]}{'[' if lo_closed else '('}{w[1]}{lo_text}{w[2]},{w[3]}{hi_text}"
            f"{w[4]}{']' if hi_closed else ')'}{w[5]}")
    return text, Interval(lo, hi, lo_closed, hi_closed)


def piece_text(draw, lo, hi, lo_closed, hi_closed):
    """One piece as text, each endpoint unreduced by a drawn factor, with
    drawn whitespace around every token."""
    def number(x):
        f = draw(st.integers(1, 3))
        return f"{x.numerator * f}{draw(SPACES)}/{draw(SPACES)}{x.denominator * f}"
    w = [draw(SPACES) for _ in range(6)]
    return (f"{w[0]}{'[' if lo_closed else '('}{w[1]}{number(lo)}{w[2]},{w[3]}{number(hi)}"
            f"{w[4]}{']' if hi_closed else ')'}{w[5]}")


@st.composite
def split_sets(draw):
    """``(A, text, pieces)``: a drawn set A and its text as pieces whose
    union is A.  Each component is cut at drawn inner points; at a cut x
    the two pieces touch (one side closed at x), meet in x (both closed)
    or overlap on an interval (the right one starts before x).  The
    pieces come in order or shuffled, written by ``piece_text``."""
    A = draw(interval_sets())
    pieces = []
    for c in A.components:
        lo, lo_closed = c.lo, c.lo_closed
        for i in sorted(draw(st.sets(st.integers(1, 9), max_size=3))):
            x = c.lo + (c.hi - c.lo) * rational(i, 10)
            if x <= lo:
                continue
            mode = draw(st.sampled_from(["touch-left", "touch-right", "meet", "overlap"]))
            pieces.append(Interval(lo, x, lo_closed, mode != "touch-right"))
            if mode == "overlap":
                lo, lo_closed = (lo + x) / 2, False
            else:
                lo, lo_closed = x, mode != "touch-left"
        pieces.append(Interval(lo, c.hi, lo_closed, c.hi_closed))
    if draw(st.booleans()):
        pieces = draw(st.permutations(pieces))
    text = "|".join(piece_text(draw, p.lo, p.hi, p.lo_closed, p.hi_closed) for p in pieces)
    return A, text or "{}", pieces


class TestTextFormat:
    @settings(max_examples=300)
    @given(split_sets())
    def test_split_pieces_parse_to_the_set(self, drawn):
        # in-order text whose pieces touch or overlap must be merged: its
        # codes do not strictly increase, so a parse that took them as
        # they come would not equal A
        A, text, pieces = drawn
        assert IntervalSet.parse(text) == IntervalSet(pieces) == A

    @pytest.mark.parametrize("text", ["[0,1/2)|[1/2,1]", "[0,1/2]|(1/2,1]", "[0,1/2]|[1/2,1]",
                                      "[0,2/3)|(1/3,1]", "[1/2,1]|[0,1/2)", "[0, 2/4)|[ 3/6,1]"])
    def test_touching_or_overlapping_pieces_are_one_component(self, text):
        assert IntervalSet.parse(text) == S("[0,1]")

    @settings(max_examples=200)
    @given(interval_sets())
    def test_parse_of_str_is_the_set(self, A):
        assert IntervalSet.parse(str(A)) == A

    def test_canonical_round_trip(self):
        for text in (A0_TEXT, "{}", "[0,0]", "(-31/59,8/177)", "[1/2,1)|(1,2]"):
            assert str(IntervalSet.parse(text)) == text

    def test_parse_normalizes(self):
        assert str(S("(2/3,1)|(8/177,4/59)|(1/2,2/2)")) == "(8/177,4/59)|(1/2,1)"
        assert str(S("( 3/6 , 2/2 )")) == "(1/2,1)"

    def test_round_trip_random(self, rng):
        for _ in range(200):
            s = random_interval_set(rng)
            assert IntervalSet.parse(str(s)) == s

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            IntervalSet.parse("(0,1)|junk")
        assert err.value.pos == 6
        with pytest.raises(ParseError):
            IntervalSet.parse("")
        with pytest.raises(ParseError) as err:
            IntervalSet.parse("(1/0,2)")
        assert "denominator" in str(err.value)
        # a zero denominator in the hi token is reported at the start of
        # its piece's lo token
        for text, pos in (("(0,1)|(1/2, 3/0)", 7), ("(0,1)| ( 1/2,3/0)", 9),
                          ("[0,1]|(2,3/ 0]|junk", 7)):
            with pytest.raises(ParseError) as err:
                IntervalSet.parse(text)
            assert err.value.pos == pos and "zero denominator" in str(err.value)

    @settings(max_examples=300)
    @given(st.lists(lenient_pieces(), min_size=1, max_size=5))
    def test_lenient_text_parses_like_the_pieces(self, drawn):
        text = "|".join(t for t, _ in drawn)
        assert IntervalSet.parse(text) == IntervalSet([p for _, p in drawn])

    @pytest.mark.parametrize("text,canonical", [
        ("(1,1)", "{}"),
        ("(2,1]", "{}"),
        ("[1,1]", "[1,1]"),
        ("(2,1]|[1/2,1/2]", "[1/2,1/2]"),
        ("[-6/4, -2/4)|(-1/2,0]", "[-3/2,-1/2)|(-1/2,0]"),
        (" ( 2/4 , 9 / 6 ] | [0 ,1/3) ", "[0,1/3)|(1/2,3/2]"),
        ("(0,2/3)|[1/3,1]|(5/6,4/3)", "(0,4/3)"),
    ])
    def test_lenient_examples(self, text, canonical):
        assert str(IntervalSet.parse(text)) == canonical

    def test_canonical_equality_is_set_equality(self, rng):
        for _ in range(100):
            s = random_interval_set(rng)
            shuffled = list(s.components)
            rng.shuffle(shuffled)
            assert IntervalSet(shuffled) == s

    def test_a_set_never_equals_a_non_set(self):
        s = S("(0,1)")
        assert s.__eq__(1) is NotImplemented
        assert not s == 1 and s != "(0,1)"


class TestImmutability:
    def test_setattr_blocked(self):
        s = S("(0,1)")
        with pytest.raises(AttributeError):
            s.components = ()

    def test_hashable(self):
        assert len({S("(0,1)"), S("(0,2/2)"), S("(0,1)"), S("[0,1)")}) == 2
