import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interval_sets, rationals
from sumfree.intervals import Interval, IntervalSet
from sumfree.constructions import construct_extremal
from sumfree.optimize import _close, _moved, _propose_stack, _push, _roots, _trim, optimize
from sumfree.predicates import is_k_sum_free, strip
from sumfree.rationals import MAX_MEASURE, rational
from sumfree.trace import check_extremal_containment

ITERATIONS = 300


@pytest.fixture(scope="module")
def run():
    return optimize(3, 1, ITERATIONS)


def test_deterministic_in_its_arguments(run):
    again = optimize(3, 1, ITERATIONS)
    assert (str(again.best), again.accepted, again.evaluated) == (
        str(run.best), run.accepted, run.evaluated)


# exact outputs, so a change to the interval core that alters the walk fails
PINNED = {
    1: ("(445/9824,587/8651]|[13450369/84987424,20983/88416]|[2/3,1)",
        rational(332685821, 764886816), 58, 274),
    2: ("(77/1766,231/3532]|(307/1948,921/3896]|[2/3,1)",
        rational(4478405, 10320504), 78, 264),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_outputs(seed, run):
    result = run if seed == 1 else optimize(3, seed, ITERATIONS)
    assert (str(result.best), result.measure, result.accepted, result.evaluated) == PINNED[seed]


#: the benchmark's optimize workload, optimize(3, seed, 1600), in full
BENCH_PINNED = {
    1: ("[8/177,4/59)|[28/177,14/59)|[2/3,1)", rational(77, 177), 163, 1465),
    2: ("[49017607807/1084521332736,49017607807/723014221824)"
        "|[772031829631/4880345997312,772031829631/3253563998208)|[2/3,1)",
        rational(8492350125941, 19521383989248), 169, 1451),
    3: ("[8/177,4/59)|(28/177,14/59]|(2/3,1]", rational(77, 177), 82, 1449),
}


@pytest.mark.parametrize("seed", sorted(BENCH_PINNED))
def test_pinned_bench_walks(seed):
    result = optimize(3, seed, 1600)
    assert (str(result.best), result.measure, result.accepted,
            result.evaluated) == BENCH_PINNED[seed]


def test_result_is_feasible_and_under_the_ceiling(run):
    assert is_k_sum_free(run.best, 3) == (True, None)
    assert len(run.best) <= run.m == 3
    assert run.measure == run.best.measure() <= MAX_MEASURE
    assert 0 <= run.best.inf() and run.best.sup() <= 1
    assert (run.seed, run.iterations) == (1, ITERATIONS)
    assert 0 <= run.accepted <= run.evaluated <= ITERATIONS


def test_single_interval_lands_on_exact_optimum():
    result = optimize(1, 1, ITERATIONS)
    assert str(result.best) == "[2/3,1)"
    assert result.measure == rational(1, 3)


def test_rediscovers_the_optimum():
    result = optimize(3, 4, 6000)
    assert result.measure == MAX_MEASURE
    report = check_extremal_containment(result.best)
    assert report.is_extremal and report.consistent
    # maximal: every endpoint that can be closed is closed
    assert result.best in [construct_extremal(i) for i in range(1, 8)]


@pytest.mark.parametrize("text,index", [
    ("(8/177,4/59)|(28/177,14/59)|(2/3,1)", 7),
    # A0 with 8/177 closed, as a push leaves it; it lies in A1, A2 and A3
    ("[8/177,4/59)|(28/177,14/59)|(2/3,1)", 3),
])
def test_close_returns_a_maximal_set(text, index):
    assert _close(IntervalSet.parse(text)) == construct_extremal(index)


@pytest.mark.parametrize("m,iterations", [(0, 10), (-1, 10), (3, -1),
                                          (2.5, 300), (3.0, 300), (True, 300),
                                          (3, 300.0), (3, True)])
def test_rejects_bad_arguments(m, iterations):
    with pytest.raises(ValueError):
        optimize(m, 1, iterations)


@settings(max_examples=150)
@given(interval_sets(min_value=0, max_value=1))
def test_stack_stays_below_the_top_block(a):
    # a state is a nonempty 3-sum-free subset of [0, 1], so c * sup S < 2/3
    S = strip(a)
    if S.is_empty:
        return
    out = _propose_stack(S)
    assert len(out) == len(S) + 1
    assert out.components[-1] == Interval(rational(2, 3), rational(1), False, False)


def test_push_survives_a_merge():
    # random_sum_free(6, 5); pushing a lo endpoint merges two components
    S = IntervalSet.parse("[1/9,1/6)|(2/3,23/30)|[137/177,31/36]|(205/236,349/354]")
    assert str(_push(S)) == "[1/9,1/6)|(2/3,1]"


EPS = rational(1, 10**40)


@settings(max_examples=200)
@given(interval_sets(min_value=0, max_value=1))
def test_push_puts_every_endpoint_on_its_frontier(a):
    S = strip(a)
    if S.is_empty:
        return
    P = _push(S)
    assert is_k_sum_free(P, 3) == (True, None)
    assert P.measure() >= S.measure() and P.sup() == 1
    assert _push(P) == P
    comps = P.components
    for ci, c in enumerate(comps):
        lo_room = c.lo - (comps[ci - 1].hi if ci else 0)
        hi_room = (comps[ci + 1].lo if ci + 1 < len(comps) else 1) - c.hi
        if lo_room >= EPS:
            assert not is_k_sum_free(_moved(P, ci, lo=c.lo - EPS, lo_closed=False), 3)[0]
        if hi_room >= EPS:
            assert not is_k_sum_free(_moved(P, ci, hi=c.hi + EPS, hi_closed=False), 3)[0]


# -- the code-space helpers against their Fraction forms -------------------


def moved_reference(S, ci, lo=None, hi=None, lo_closed=None, hi_closed=None):
    """``_moved`` through ``Interval`` components."""
    comps = list(S.components)
    c = comps[ci]
    comps[ci] = Interval(c.lo if lo is None else lo, c.hi if hi is None else hi,
                         c.lo_closed if lo_closed is None else lo_closed,
                         c.hi_closed if hi_closed is None else hi_closed)
    return IntervalSet(comps)


@settings(max_examples=200)
@given(interval_sets(), st.data())
def test_moved_matches_the_component_form(a, data):
    if a.is_empty:
        return
    ci = data.draw(st.integers(0, len(a) - 1))
    args = [data.draw(st.none() | rationals()) for _ in range(2)]
    args += [data.draw(st.none() | st.booleans()) for _ in range(2)]
    assert _moved(a, ci, *args) == moved_reference(a, ci, *args)


@pytest.mark.parametrize("ci,kwargs,text", [
    # merges with a neighbour: touching closed/open, overlapping, swallowing
    (1, {"lo": rational(1, 4), "lo_closed": True}, "(0,1)"),
    (1, {"lo": rational(1, 4)}, "(0,1/4)|(1/4,1)"),
    (0, {"hi": rational(3, 4)}, "(0,1)"),
    (0, {"lo": rational(-1), "hi": rational(2)}, "(-1,2)"),
    # degenerate: dropped, or kept as a point when both ends are closed
    (0, {"hi": rational(0)}, "(1/2,1)"),
    (0, {"hi": rational(0), "lo_closed": True, "hi_closed": True}, "[0,0]|(1/2,1)"),
    (1, {"lo": rational(2)}, "(0,1/4)"),
])
def test_moved_merges_and_drops(ci, kwargs, text):
    S = IntervalSet.parse("(0,1/4)|(1/2,1)")
    assert _moved(S, ci, **kwargs) == moved_reference(S, ci, **kwargs) == IntervalSet.parse(text)


@settings(max_examples=200)
@given(interval_sets(), st.integers(1, 4))
# equal lengths, where the leftmost wins
@example(IntervalSet.parse("(0,1/10)|[1/5,3/10]|(1/2,3/5]|(4/5,9/10)"), 2)
def test_trim_matches_the_length_ranking(a, m):
    ranked = sorted(enumerate(a.components), key=lambda e: (-(e[1].length), e[0]))
    kept = sorted(idx for idx, _ in ranked[:m])
    assert _trim(a, m) == IntervalSet([a.components[i] for i in kept])


def roots_reference(F):
    """Every v with a + b = 3c where v is one or more of a, b, c and the
    others are in F."""
    for b in F:
        yield b / 2
        yield 3 * b / 2
        for c in F:
            yield 3 * c - b
            yield (b + c) / 3


@settings(max_examples=200)
@given(interval_sets())
def test_integer_roots_are_the_fraction_roots_over_6D(a):
    values = [c >> 1 for c in a._codes]
    D = a._den
    assert list(_roots(values)) == [6 * D * r for r in roots_reference(
        [rational(v, D) for v in values])]
