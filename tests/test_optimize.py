import random
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interval_sets
from sumfree.intervals import Interval, IntervalSet, _scaled
from sumfree.constructions import construct_extremal
from sumfree.optimize import (GRID_STAGES, _TOP_BLOCK, _close, _draw, _propose_stack, _push,
                              _replaced, _roots, _trim, optimize)
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
    1: ("[8/177,4/59)|(28/177,14/59]|(2/3,1]", rational(77, 177), 3, 300),
    2: ("(8/177,4/59]|(28/177,14/59]|(2/3,1]", rational(77, 177), 2, 300),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_outputs(seed, run):
    result = run if seed == 1 else optimize(3, seed, ITERATIONS)
    assert (str(result.best), result.measure, result.accepted, result.evaluated) == PINNED[seed]


#: the benchmark's optimize workload, optimize(3, seed, 1600), in full
BENCH_PINNED = {
    1: ("[8/177,4/59)|(28/177,14/59]|(2/3,1]", rational(77, 177), 3, 1600),
    2: ("(8/177,4/59]|(28/177,14/59]|(2/3,1]", rational(77, 177), 2, 1600),
    3: ("[8/177,4/59)|(28/177,14/59]|(2/3,1]", rational(77, 177), 3, 1600),
}


#: candidates the benchmark's walks build; the other iterations repeat
#: a proposal already rejected on the same state
BENCH_CHECKED = {1: 390, 2: 389, 3: 379}


@pytest.mark.parametrize("seed", sorted(BENCH_PINNED))
def test_pinned_bench_walks(seed):
    result = optimize(3, seed, 1600)
    assert (str(result.best), result.measure, result.accepted,
            result.evaluated) == BENCH_PINNED[seed]
    assert result.checked == BENCH_CHECKED[seed]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_walks_end_on_a_maximal_set(seed):
    # a quality floor that outlives the exact pins above: each of the
    # benchmark's walks ends on one of A1..A7
    assert optimize(3, seed, 1600).best in [construct_extremal(i) for i in range(1, 8)]


def test_result_is_feasible_and_under_the_ceiling(run):
    assert is_k_sum_free(run.best, 3) == (True, None)
    assert len(run.best) <= run.m == 3
    assert run.measure == run.best.measure() <= MAX_MEASURE
    assert 0 <= run.best.inf() and run.best.sup() <= 1
    assert (run.seed, run.iterations) == (1, ITERATIONS)
    assert 0 <= run.accepted <= run.evaluated <= ITERATIONS


@pytest.mark.parametrize("m,iterations", [(1, 0), (1, 300), (3, 0), (3, 1), (5, 300)])
def test_every_iteration_evaluates_one_candidate(m, iterations):
    assert optimize(m, 2, iterations).evaluated == iterations


@pytest.mark.parametrize("m", range(1, 6))
def test_checked_is_bounded_by_the_keys_per_state(m):
    # each state has m * (GRID_STAGES + 4) * 6 nudge keys and one stack
    # key at most, and each is checked at most once per state
    for seed in range(1, 6):
        r = optimize(m, seed, 1600)
        assert r.checked <= r.evaluated
        assert r.checked <= (r.accepted + 1) * (m * (GRID_STAGES + 4) * 6 + 1)


@pytest.mark.parametrize("seed", range(1, 9))
def test_short_walks_reach_the_optimum_for_each_m(seed):
    # 1/3 at one component, 3/7 at two and a maximal set of measure
    # 77/177 at three, each within 300 iterations
    assert optimize(1, seed, ITERATIONS).measure == rational(1, 3)
    assert optimize(2, seed, ITERATIONS).measure == rational(3, 7)
    assert optimize(3, seed, ITERATIONS).best in [construct_extremal(i) for i in range(1, 8)]


# -- the walk without the skip of rejected proposals, as a reference ------


def propose_reference(rng, S):
    """One proposal with its parameters drawn as it is built."""
    if rng.random() >= 0.75:
        return _propose_stack(S)
    ci = rng.randrange(len(S))
    step_den = 6 * 2 ** rng.randint(0, GRID_STAGES + 3)
    den = lcm(S._den, step_den)
    codes = _scaled(S._codes, den // S._den)
    step = 2 * rng.randint(1, 3) * (den // step_den)
    lo, hi = codes[2 * ci], codes[2 * ci + 1]
    if rng.random() < 0.5:
        return _replaced(den, codes, ci, max(lo - step, lo & 1), hi)
    return _replaced(den, codes, ci, lo, min(hi + step, 2 * den + (hi & 1)))


def optimize_reference(m, seed, iterations):
    """(best, measure, accepted, evaluated) of a walk that builds and
    measures the candidate of every iteration."""
    rng = random.Random(seed)
    state = _TOP_BLOCK
    mu = state.measure()
    accepted = 0
    for _ in range(iterations):
        cand = _trim(strip(propose_reference(rng, state)), m)
        cmu = cand.measure()
        if cmu > mu or cmu == mu and cand != state and state.is_subset_of(cand):
            accepted += 1
            state, mu = cand, cmu
    best = _close(_push(state))
    return best, best.measure(), accepted, iterations


@pytest.mark.parametrize("m", range(1, 6))
def test_skipping_rejected_proposals_changes_no_output(m):
    for seed in range(1, 11):
        r = optimize(m, seed, ITERATIONS)
        assert (r.best, r.measure, r.accepted, r.evaluated) == optimize_reference(
            m, seed, ITERATIONS)


def draw_reference(rng, n):
    """``_draw`` through the ``random`` module's range functions."""
    if rng.random() < 0.75:
        return (rng.randrange(n), rng.randint(0, GRID_STAGES + 3), rng.randint(1, 3),
                rng.random() < 0.5)
    return None


@pytest.mark.parametrize("n", range(1, 7))
def test_draw_is_the_randrange_stream(n):
    # same values and same generator state after, on this interpreter
    for seed in range(300):
        ours, ref = random.Random(seed), random.Random(seed)
        assert [_draw(ours, n) for _ in range(40)] == [draw_reference(ref, n) for _ in range(40)]
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("m", range(1, 7))
def test_endpoint_denominators_fit_a_machine_word(m):
    for seed in range(1, 11):
        best = optimize(m, seed, ITERATIONS).best
        assert all(x.denominator <= 2 ** 63 for c in best for x in (c.lo, c.hi)), (seed, best)


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


def test_stacks_of_the_top_block_give_the_optima():
    # the extremal set is self-similar: one stack of the top block is the
    # two-component optimum, and a second one is A0
    two = _propose_stack(_TOP_BLOCK)
    assert two == IntervalSet.parse("(4/21,2/7)|(2/3,1)")
    assert two.measure() == rational(3, 7)
    assert _propose_stack(two) == construct_extremal(0)


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
            assert not is_k_sum_free(moved_reference(P, ci, lo=c.lo - EPS, lo_closed=False), 3)[0]
        if hi_room >= EPS:
            assert not is_k_sum_free(moved_reference(P, ci, hi=c.hi + EPS, hi_closed=False), 3)[0]


# -- the code-space helpers against their Fraction forms -------------------


def moved_reference(S, ci, lo=None, hi=None, lo_closed=None, hi_closed=None):
    """S with component ci's endpoints and flags replaced where given,
    through ``Interval`` components."""
    comps = list(S.components)
    c = comps[ci]
    comps[ci] = Interval(c.lo if lo is None else lo, c.hi if hi is None else hi,
                         c.lo_closed if lo_closed is None else lo_closed,
                         c.hi_closed if hi_closed is None else hi_closed)
    return IntervalSet(comps)


# the two tests below check ``_replaced``, the move of one component in
# code space that a nudge, a push and a close use, against its
# ``Interval`` form


@settings(max_examples=200)
@given(interval_sets(), st.integers(1, 6), st.data())
def test_moved_matches_the_component_form(a, k, data):
    if a.is_empty:
        return
    # over k times the denominator, as a nudge or a push lifts the codes
    den, codes = k * a._den, [2 * k * (c >> 1) + (c & 1) for c in a._codes]
    ci = data.draw(st.integers(0, len(a) - 1))
    lo, hi = (data.draw(st.integers(-4 * den, 4 * den)) for _ in range(2))
    assert _replaced(den, codes, ci, lo, hi) == moved_reference(
        a, ci, rational(lo >> 1, den), rational(hi >> 1, den), not lo & 1, bool(hi & 1))


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
    # the moved component's codes over S's denominator D = 4, read off
    # the arguments and S's component ci
    old = S.components[ci]
    lo, hi = kwargs.get("lo", old.lo), kwargs.get("hi", old.hi)
    lo_open = not kwargs.get("lo_closed", old.lo_closed)
    hi_closed = kwargs.get("hi_closed", old.hi_closed)
    codes = (2 * int(4 * lo) + lo_open, 2 * int(4 * hi) + hi_closed)
    assert (_replaced(4, S._codes, ci, *codes) == moved_reference(S, ci, **kwargs)
            == IntervalSet.parse(text))


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
