import pytest
from hypothesis import given, settings

from conftest import interval_sets
from sumfree.intervals import Interval
from sumfree.optimize import _propose_stack, optimize
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
    1: ("[198969412842361962695/4514984727228488613888,198969412842361962695/3009989818152325742592)"
        "|[11240145691/71269613568,11240145691/47513075712)|[2/3,1)",
        rational(3921031088635212447943, 9029969454456977227776), 88, 264),
    2: ("[1046/23091,523/7697)|[3661/23091,5480/23091)|[2/3,1)",
        rational(10039, 23091), 85, 280),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pinned_outputs(seed, run):
    result = run if seed == 1 else optimize(3, seed, ITERATIONS)
    assert (str(result.best), result.measure, result.accepted, result.evaluated) == PINNED[seed]


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


@pytest.mark.parametrize("m,iterations", [(0, 10), (-1, 10), (3, -1)])
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
