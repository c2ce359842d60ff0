import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_sets, outward_moves
from sumfree.intervals import Interval, IntervalSet
from sumfree.constructions import construct_extremal, random_sum_free
from sumfree.exact import branch_and_bound, check_certificate
from sumfree.optimize import _TOP_BLOCK, _close, _propose_stack, optimize
from sumfree.predicates import is_k_sum_free, strip
from sumfree.rationals import MAX_MEASURE, rational
from sumfree.trace import check_extremal_containment

ITERATIONS = 300
A0 = str(construct_extremal(0))
A7 = "(8/177,4/59]|(28/177,14/59]|(2/3,1]"


@pytest.fixture(scope="module")
def run():
    return optimize(3, 1, ITERATIONS)


def test_deterministic_in_its_arguments(run):
    again = optimize(3, 1, ITERATIONS)
    assert (str(again.best), again.accepted, again.evaluated, again.search.pivots) == (
        str(run.best), run.accepted, run.evaluated, run.search.pivots)


#: m -> (value, the search's open optimum, the closed result, accepted,
#: LP nodes, pruned leaves); the incumbent is the stack chain, so the
#: search only proves it optimal
EXACT = {
    1: (rational(1, 3), "(2/3,1)", "(2/3,1]", 0, 1, 1),
    2: (rational(3, 7), "(4/21,2/7)|(2/3,1)", "(4/21,2/7]|(2/3,1]", 1, 5, 3),
    3: (MAX_MEASURE, A0, A7, 2, 19, 10),
}


@pytest.mark.parametrize("m", sorted(EXACT))
def test_exact_optimum_for_few_components(m):
    # 1/3 with one component, 3/7 with two and 77/177 with three, each
    # proved by a certificate that checks
    r = optimize(m, 1, ITERATIONS)
    s = r.search
    assert (r.measure, str(s.best), str(r.best), r.accepted, r.evaluated,
            s.pruned) == EXACT[m]
    assert r.proved and s.improved == 0 and s.value == r.measure
    assert check_certificate(s.tree, m, r.measure)
    # from the empty set, the search finds the same optimum by itself
    alone = branch_and_bound(m)
    assert alone.proved and alone.improved > 0
    assert (alone.value, str(alone.best)) == EXACT[m][:2]


def test_four_components_do_not_beat_the_ceiling():
    r = optimize(4, 1, 2000)
    assert (str(r.best), r.measure, r.proved, r.evaluated, r.search.pruned) == (
        A7, MAX_MEASURE, True, 91, 46)
    assert check_certificate(r.search.tree, 4, MAX_MEASURE)


@pytest.mark.parametrize("m,iterations", [(1, 0), (2, 4), (2, 5), (3, 0), (3, 2), (3, 18),
                                          (3, 19), (3, 40000), (5, 300)])
def test_iterations_is_the_node_budget(m, iterations):
    # proved exactly when the budget covers the whole tree; a search cut
    # short still returns the stack chain's set, closed
    r = optimize(m, 2, iterations)
    nodes = {1: 1, 2: 5, 3: 19, 5: 299}[m]
    assert r.evaluated == min(iterations, nodes)
    assert r.proved == (iterations >= nodes)
    assert str(r.best) == str(optimize(m, 2, 40000).best)


def test_result_is_feasible_and_under_the_ceiling(run):
    assert is_k_sum_free(run.best, 3) == (True, None)
    assert len(run.best) <= run.m == 3
    assert run.measure == run.best.measure() <= MAX_MEASURE
    assert 0 <= run.best.inf() and run.best.sup() <= 1
    assert (run.seed, run.iterations) == (1, ITERATIONS)
    assert 0 <= run.accepted <= run.evaluated <= ITERATIONS


@settings(max_examples=200)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_random_sets_do_not_beat_the_exact_value(seed, m):
    # strip can split components, so the bound is the one for the set's
    # own count: 1/3, 3/7, and 77/177 from three components on (exact up
    # to six by the search, and the paper's ceiling beyond)
    S = random_sum_free(seed, m)
    bound = {0: 0, 1: EXACT[1][0], 2: EXACT[2][0]}.get(len(S), MAX_MEASURE)
    assert S.measure() <= bound


@pytest.mark.parametrize("m", range(1, 7))
def test_no_endpoint_of_an_output_can_move_outward(m):
    # the output is an optimum for its component count, proved for m <= 6
    # by the default node budget, so it reaches 1 and every endpoint
    # inside [0, 1] is on its frontier
    r = optimize(m, 1, 2000)
    assert r.proved and r.best.sup() == 1 and len(r.best) <= m
    moves = outward_moves(r.best)
    assert moves and not any(is_k_sum_free(moved, 3)[0] for moved in moves)


@pytest.mark.parametrize("m", range(1, 7))
def test_endpoint_denominators_fit_a_machine_word(m):
    best = optimize(m, 1, ITERATIONS).best
    assert all(x.denominator <= 2 ** 63 for c in best for x in (c.lo, c.hi)), best


def test_rediscovers_the_optimum():
    result = optimize(3, 4, 6000)
    assert result.measure == MAX_MEASURE
    report = check_extremal_containment(result.best)
    assert report.is_extremal and report.consistent
    # maximal: every endpoint that can be closed is closed
    assert result.best in [construct_extremal(i) for i in range(1, 8)]


@pytest.mark.parametrize("text,closed", [
    (A0, str(construct_extremal(7))),
    # A0 with 8/177 closed; it lies in A1, A2 and A3
    ("[8/177,4/59)|(28/177,14/59)|(2/3,1)", str(construct_extremal(3))),
    # closing 5/6 merges the two components; [2/3,1] is not 3-sum-free
    ("(2/3,5/6)|(5/6,1)", "(2/3,1]"),
])
def test_close_returns_a_maximal_set(text, closed):
    assert str(_close(IntervalSet.parse(text))) == closed


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
