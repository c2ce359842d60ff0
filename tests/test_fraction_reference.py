"""The checkers and the tracer compute in ints over N = 648 * D; here
every quantity, window mass and verdict side is recomputed from the
proof's formulas in ``Fraction`` arithmetic, with windows cut by
``intersect`` and sumsets taken pairwise, and compared with theirs.
Equal records on these sets show that each division over N is exact:
a floor division that truncated would give a different side.  No known
set reaches Case2, so its formulas are also compared on a grid of
contexts built from its numbers."""

import random
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conftest import interval_sets, window
from sumfree.constructions import construct_extremal, random_sum_free
from sumfree.intervals import IntervalSet
from sumfree.lemmas import LemmaContext, lemma_report
from sumfree.predicates import strip
from sumfree.rationals import MAX_MEASURE, rational as F
from sumfree.trace import ProofTrace, TraceCase, _case2, _window_verdicts, trace_measure_bound
from test_trace import CASE1_R0_EMPTY_SET, WINDOW_BC_SET

THIRD = F(1, 3)


def context(A):
    """The context quantities of A rescaled to sup 1, as rationals."""
    S = A.dilate(1 / A.sup())
    A1 = S.intersect(window(F(2, 3), 1))
    eps1 = A1.inf() - F(2, 3)
    a = S.inf()
    R = S.intersect(window(a, F(2, 9) + a / 3))
    mu, mu_A1, mu_R = S.measure(), A1.measure(), R.measure()
    return SimpleNamespace(S=S, A1=A1, R=R, a=a, eps1=eps1, eps2=THIRD - eps1 - mu_A1,
                           measure=mu, mu_A1=mu_A1, mu_R=mu_R, tail=mu - mu_R)


def sumset_bound(A, B):
    mA, mB = A.measure(), B.measure()
    if mA > mB:
        A, B, mA, mB = B, A, mB, mA
    # a copy of B is not B, so its sums are merged over all pairs
    sums = A.minkowski(IntervalSet(B.components))
    return min(2 * mA + mB, mA + B.diameter()), sums.measure()


def tail_bound(c):
    if c.eps1 + 2 * c.eps2 > THIRD:
        return []
    if c.eps1 <= 2 * c.a / 3:
        return [("tail-bound[small-eps1]", c.tail, THIRD - c.eps1 / 6)]
    return [("tail-bound[large-eps1]", c.tail, THIRD - (c.eps1 - 2 * c.a / 3) / 24)]


def dense_tail_bound(c):
    return [("dense-tail-bound", c.tail, THIRD)] if c.measure >= F(5, 12) else []


def lemma_records(c):
    out = [("extent-bound", c.measure, (2 - c.a) / 4),
           ("top-window-bound", c.measure, THIRD + c.mu_A1 / 2), *tail_bound(c)]
    if c.eps1 + 2 * c.eps2 <= THIRD and c.tail == THIRD:
        out.append(("tail-equality-rigidity", c.eps1 + c.eps2, F(0)))
    out += [*dense_tail_bound(c), ("sumset-min-bound(S,S)", *sumset_bound(c.S, c.S))]
    if not c.R.is_empty:
        out.append(("sumset-min-bound(R,A1)", *sumset_bound(c.R, c.A1)))
    return out


def window_records(c):
    S, a, e1, e2 = c.S, c.a, c.eps1, c.eps2
    if e1 + 2 * e2 > THIRD:
        return []

    def mass(lo, hi):
        return S.intersect(window(lo, hi)).measure()

    out = [(f"window-{name}-mass", mass(lo, hi), e2 / 3) for name, lo, hi in (
        ("2/3", F(4, 9) + 2 * e1 / 3, F(2, 3)),
        ("4/9", THIRD + e1 / 2, F(4, 9) + e1 / 6),
        ("1/3", F(2, 9) + (a + e1) / 3, THIRD + a / 3))]
    if e1 > 2 * a / 3:
        mB, mC = mass(THIRD + a / 3, THIRD + e1 / 2), mass(F(2, 9) + 2 * a / 9, F(2, 9) + e1 / 3)
        out += [("window-B_1/3-mass", mB, F(3, 4) * (e1 / 2 - a / 3)),
                ("window-B+C-mass", 2 * mB / 3 + mC, e1 / 3 - 2 * a / 9)]
    return out


def case2(a, mu, muR, r, final):
    """Case2's verdict sides and its final bound, lowered from ``final``."""
    top = 5 * r / 12
    dichotomy = max((r - a) / 2, (2 * r - a) / 6)
    linear = THIRD + min(max(F(1, 9) - a / 3, F(2, 27) - a / 18), F(5, 54) + 5 * a / 36)
    const = F(22, 51) if a < F(2, 15) else F(2, 5)
    out = [("head-top-window", muR, top), ("head-dichotomy", muR, dichotomy),
           ("measure-linear", mu, linear), ("case2-constant", linear, const),
           ("constant-vs-ceiling", const, MAX_MEASURE)]
    return out, min(final, THIRD + min(dichotomy, top), linear, const)


def trace(c):
    """``(case, verdict sides, final bound, r, b, eta1, eta2)`` of the proof."""
    a, mu, muR = c.a, c.measure, c.mu_R
    if mu < F(5, 12):
        return (TraceCase.EARLY_EXIT, [("below-dense-threshold", mu, F(5, 12)),
                                       ("threshold-vs-ceiling", F(5, 12), MAX_MEASURE)],
                F(5, 12), None, None, None, None)
    cap_R = F(2, 9) - 2 * a / 3
    out = [*window_records(c), *tail_bound(c), *dense_tail_bound(c),
           ("head-split", mu, THIRD + muR), ("head-window-cap", muR, cap_R)]
    final = THIRD + muR
    r = c.R.sup()
    h = context(c.R)
    if h.eps1 + 2 * h.eps2 > THIRD:
        verdicts, final = case2(a, mu, muR, r, final)
        out += [*verdicts, ("final-vs-ceiling", final, MAX_MEASURE)]
        return TraceCase.CASE2, out, final, r, None, h.eps1, h.eps2
    R0_cap = 2 * r / 9 + a / 3
    R0 = c.R.intersect(window(a, R0_cap))
    muR0 = R0.measure()
    split = r / 3 + muR0
    ((name, lhs, rhs),) = tail_bound(h)
    out += [("head-" + name, lhs, rhs), ("head-split-again", muR, split)]
    if R0.is_empty:
        cap = min(r / 3, cap_R)
        lin = min(F(2, 27) + a / 9, cap_R)
        out += [("head-cap-combined", muR, cap), ("head-cap-linear", muR, lin),
                ("head-cap-constant", lin, F(2, 21))]
        case, b = TraceCase.CASE1_R0_EMPTY, None
        final = min(final, THIRD + split, THIRD + cap, THIRD + F(2, 21))
    else:
        b = R0.sup()
        combined = min(4 * r / 9 - a / 12, 5 * r / 9 - 2 * a / 3)
        linear = THIRD + min(F(8, 81) + 7 * a / 108, F(10, 81) - 13 * a / 27)
        out += [("head2-extent-bound", muR0, (2 * b - a) / 4), ("head2-room", muR0, b - a),
                ("head2-sup-cap", b, R0_cap), ("head-combined", muR, combined),
                ("measure-linear", mu, linear), ("linear-vs-ceiling", linear, MAX_MEASURE)]
        case = TraceCase.CASE1_R0_NONEMPTY
        final = min(final, THIRD + split, THIRD + combined, linear)
    out.append(("final-vs-ceiling", final, MAX_MEASURE))
    return case, out, final, r, b, h.eps1, h.eps2


def sides(records):
    return [(r.name, r.lhs, r.rhs) for r in records]


def assert_matches_the_fraction_formulas(A):
    ref = context(A)
    ctx = LemmaContext.from_set(A, rescale=True)
    names = ("a", "eps1", "eps2", "measure", "mu_A1", "mu_R", "tail")
    for c, r in [(ctx, ref)] + ([] if ctx.R.is_empty else [(ctx.head(ctx.R), context(ref.R))]):
        assert (c.S, c.A1, c.R) == (r.S, r.A1, r.R)
        assert [getattr(c, n) for n in names] == [getattr(r, n) for n in names]
        assert sides(_window_verdicts(c)) == window_records(r)
    assert sides(lemma_report(A).records) == lemma_records(ref)
    t = trace_measure_bound(A, rescale=True)
    case, verdicts, final, r, b, eta1, eta2 = trace(ref)
    assert (t.case, sides(t.verdicts), t.final_bound) == (case, verdicts, final)
    assert (t.r, t.b, t.eta1, t.eta2) == (r, b, eta1, eta2)


def extremal():
    return [construct_extremal(i) for i in range(8)]


@pytest.mark.parametrize("sets", [
    pytest.param(extremal, id="A0..A7"),
    pytest.param(lambda: [A.dilate(F(1, 2)) for A in extremal()], id="A0..A7-halved"),
    pytest.param(lambda: [A.dilate(F(59, 60)) for A in extremal()], id="A0..A7-times-59/60"),
    pytest.param(lambda: [IntervalSet.parse(t) for t in (CASE1_R0_EMPTY_SET, WINDOW_BC_SET)],
                 id="pins"),
    *(pytest.param(lambda m=m: [random_sum_free(s, m) for s in range(200)], id=f"random-m{m}")
      for m in range(1, 6)),
])
def test_integer_path_matches_the_fraction_formulas(sets):
    for A in sets():
        if not A.is_empty:
            assert_matches_the_fraction_formulas(A)


def test_integer_path_matches_on_dense_subsets_of_the_extremal_sets():
    # A0..A7 less two random intervals of length at most 1/60 mostly keep
    # measure >= 5/12, so they reach Case1, which the sets above do only
    # through A0..A7 and the pin
    rng = random.Random(5)
    cases = set()
    for n in range(400):
        A = construct_extremal(n % 8)
        for _ in range(2):
            den = rng.choice((60, 90, 177, 354, 531, 1000))
            x, d = F(rng.randint(0, den), den), F(rng.randint(0, den // 60), den)
            A = A.difference(IntervalSet.interval(x, x + d, rng.random() < 0.5,
                                                  rng.random() < 0.5))
        assert_matches_the_fraction_formulas(A)
        cases.add(trace_measure_bound(A, rescale=True).case)
    assert TraceCase.CASE1_R0_NONEMPTY in cases


@settings(max_examples=150)
@given(interval_sets(min_value=0))
def test_integer_path_matches_on_stripped_sets(a):
    stripped = strip(a)
    if not stripped.is_empty:
        assert_matches_the_fraction_formulas(stripped)


def test_case2_matches_the_fraction_formulas():
    # contexts of Case2's numbers alone, over N = 648 times their common
    # denominator; r < 2a makes (2r - a)/6 the larger term of head-dichotomy
    empty = IntervalSet.empty()
    for a in [F(i, 1000) for i in range(223)] + [F(2, 51), F(2, 15)]:
        cut = F(2, 9) + a / 3
        for r in {a + (cut - a) * k / 4 for k in range(5)} | {3 * a / 2}:
            for mu in (F(5, 12), MAX_MEASURE, F(1, 2)):
                for muR in (F(0), F(1, 12), r / 3):
                    N = 648 * lcm(a.denominator, r.denominator, mu.denominator, muR.denominator)
                    ctx = LemmaContext(empty, False, empty, empty, N, int(a * N), 0, 0,
                                       int(mu * N), 0, int(muR * N))
                    t = ProofTrace(TraceCase.CASE2, ctx, r=r, final_bound=THIRD + muR)
                    _case2(t, int(r * N))
                    verdicts, final = case2(a, mu, muR, r, THIRD + muR)
                    assert (sides(t.verdicts), t.final_bound) == (verdicts, final), (a, r, mu, muR)
                    assert t.verdicts[3].note == ("a < 2/15" if a < F(2, 15) else "a >= 2/15")
