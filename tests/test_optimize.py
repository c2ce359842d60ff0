import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import outward_moves
from sumfree.intervals import IntervalSet
from sumfree.constructions import construct_extremal, random_sum_free
from sumfree.exact import branch_and_bound, check_certificate
from sumfree.optimize import _close, optimize
from sumfree.predicates import is_k_sum_free
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
#: LP nodes, pruned leaves); for m = 1 and 2 the search starts from the
#: empty set and improves on it, for m = 3 it starts from A0 and only
#: proves it optimal
EXACT = {
    1: (rational(1, 3), "(2/3,1)", "(2/3,1]", 1, 1, 0),
    2: (rational(3, 7), "(4/21,2/7)|(2/3,1)", "(4/21,2/7]|(2/3,1]", 2, 5, 1),
    3: (MAX_MEASURE, A0, A7, 0, 19, 10),
}


@pytest.mark.parametrize("m", sorted(EXACT))
def test_exact_optimum_for_few_components(m):
    # 1/3 with one component, 3/7 with two and 77/177 with three, each
    # proved by a certificate that checks
    r = optimize(m, 1, ITERATIONS)
    s = r.search
    assert (r.measure, str(s.best), str(r.best), r.accepted, r.evaluated,
            s.pruned) == EXACT[m]
    assert r.proved and s.improved == r.accepted and s.value == r.measure
    assert check_certificate(s.tree, m, r.measure)


@pytest.mark.parametrize("m,nodes", [(1, 1), (2, 5), (3, 19), (4, 91)])
def test_the_search_from_the_empty_set_finds_the_optimum_by_itself(m, nodes):
    # from the empty set the search rediscovers each optimum, A0 (77/177)
    # for three and for four components in as many nodes as optimize,
    # which starts from A0 there
    alone = branch_and_bound(m)
    assert alone.proved and alone.improved > 0 and alone.nodes == nodes
    assert (alone.value, str(alone.best)) == EXACT[min(m, 3)][:2]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_optimize_is_the_search_from_a0(m):
    # the same tree split for split, with the same leaf certificates, and
    # A0 is never improved on
    r = optimize(m, 0, 2000)
    s = branch_and_bound(m, 3, 2000, construct_extremal(0))
    assert r.search.improved == s.improved == 0
    assert tree_of(r.search.tree) == tree_of(s.tree)


def tree_of(tree):
    """The splits in preorder, with each leaf's (y, den)."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node.split or (node.y, node.den))
        stack.extend(node.children)
    return out


def test_four_components_do_not_beat_the_ceiling():
    r = optimize(4, 1, 2000)
    assert (str(r.best), r.measure, r.proved, r.evaluated, r.search.pruned) == (
        A7, MAX_MEASURE, True, 91, 46)
    assert check_certificate(r.search.tree, 4, MAX_MEASURE)


#: (m, iterations) -> the closed best set of a search cut short before
#: it found the optimum; from the empty set for m <= 2
CUT_SHORT = {(1, 0): "{}", (2, 4): "(2/3,1]"}


@pytest.mark.parametrize("m,iterations", [(1, 0), (2, 4), (2, 5), (3, 0), (3, 2), (3, 18),
                                          (3, 19), (3, 40000), (5, 300)])
def test_iterations_is_the_node_budget(m, iterations):
    # proved exactly when the budget covers the whole tree; a search cut
    # short returns its best set so far, closed, which is A0's closure
    # A7 for m >= 3, where the search starts from A0
    r = optimize(m, 2, iterations)
    nodes = {1: 1, 2: 5, 3: 19, 5: 299}[m]
    assert r.evaluated == min(iterations, nodes)
    assert r.proved == (iterations >= nodes)
    best = CUT_SHORT.get((m, iterations)) or str(optimize(m, 2, 40000).best)
    assert str(r.best) == best


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

