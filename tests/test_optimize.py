import pytest

from sumfree.optimize import optimize
from sumfree.predicates import is_k_sum_free
from sumfree.rationals import MAX_MEASURE, rational

ITERATIONS = 300


@pytest.fixture(scope="module")
def run():
    return optimize(3, 1, ITERATIONS)


def test_deterministic_in_its_arguments(run):
    again = optimize(3, 1, ITERATIONS)
    assert (str(again.best), again.accepted, again.evaluated) == (
        str(run.best), run.accepted, run.evaluated)


def test_result_is_feasible_and_under_the_ceiling(run):
    assert is_k_sum_free(run.best, 3) == (True, None)
    assert len(run.best) <= run.m == 3
    assert run.measure == run.best.measure() <= MAX_MEASURE
    assert 0 <= run.best.inf() and run.best.sup() <= 1
    assert (run.seed, run.iterations) == (1, ITERATIONS)
    assert 0 <= run.accepted <= run.evaluated <= ITERATIONS


def test_single_interval_lands_on_exact_optimum():
    result = optimize(1, 1, ITERATIONS)
    assert str(result.best) == "(2/3,1)"
    assert result.measure == rational(1, 3)


@pytest.mark.parametrize("m,iterations", [(0, 10), (-1, 10), (3, -1)])
def test_rejects_bad_arguments(m, iterations):
    with pytest.raises(ValueError):
        optimize(m, 1, iterations)
