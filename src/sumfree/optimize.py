"""Search for 3-sum-free interval sets of maximal measure.

``optimize(m, ...)`` returns a 3-sum-free subset of [0, 1] with at most
m components, of the largest measure such a set can have, and says
whether that is proved.  It runs in three steps.

First, stacking gives the incumbent.  The extremal set is self-similar,
and a stack (S -> c*S | (2/3, 1)) walks its recursion: one stack of the
top block (2/3, 1) gives the two-component set (4/21, 2/7) | (2/3, 1) of
measure 3/7, and a second one gives A0, of measure 77/177.  The stacks
go on while they fit in m components and add measure, so the incumbent
is (2/3, 1) for m = 1, the 3/7 set for m = 2 and A0 for m >= 3.

Second, the exact search of ``sumfree.exact`` (an LP branch and bound
over sets of at most m open components) starts from that incumbent and
either proves it optimal or finds a better set.  It proves each of the
three optimal among sets of at most as many components: 1/3 in one LP
node, 3/7 in 5 nodes and 77/177 in 19, and 77/177 for m = 4 in 91
(``test_exact_optimum_for_few_components`` and
``test_four_components_do_not_beat_the_ceiling`` in
``tests/test_optimize.py``).  ``iterations`` is its node budget; when it
runs out, the result is the best set found so far and ``proved`` is
False.

Third, a closing pass closes every endpoint that can be closed, since
the search works on open components, so a set of measure 77/177 comes
back as one of the maximal sets A1..A7.

The search is a pure function of (m, iterations); no state is shared
across calls and no parallelism is used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Search, branch_and_bound
from .intervals import IntervalSet, _merge
from .predicates import conflicts, is_k_sum_free
# unused; kept because bench/tests/test_bench.py expects this binding
from .predicates import forbidden_region  # noqa: F401
from .rationals import Rational, rational

__all__ = ["OptimizeResult", "optimize"]

#: the first incumbent and the top block of a stack
_TOP_BLOCK = IntervalSet.interval(rational(2, 3), rational(1))


@dataclass
class OptimizeResult:
    """``accepted`` counts the incumbent's improvements, by stacks and by
    the search; ``search`` holds the search's counts and its tree."""

    best: IntervalSet
    measure: Rational
    m: int
    seed: int
    iterations: int
    accepted: int
    search: Search

    @property
    def evaluated(self) -> int:
        """The LP nodes the search solved."""
        return self.search.nodes

    @property
    def proved(self) -> bool:
        """Whether no set of at most m components measures more."""
        return self.search.proved


def optimize(m: int, seed: int, iterations: int) -> OptimizeResult:
    """A 3-sum-free subset of [0,1] with at most m components, of maximal
    measure when ``proved``.

    Deterministic in (m, iterations); m and iterations are ints (a bool
    or a float such as 3.0 is rejected).  ``iterations`` bounds the LP
    nodes of the search.  ``seed`` does not affect the result; it is
    only echoed in it.  Every returned set passes the exact 3-sum-free
    predicate.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be >= 1 (an int), got {m!r}")
    if type(iterations) is not int or iterations < 0:
        raise ValueError(f"iterations must be >= 0 (an int), got {iterations!r}")
    state, accepted = _TOP_BLOCK, 0
    while True:
        stacked = _propose_stack(state)
        if len(stacked) > m or stacked.measure() <= state.measure():
            break
        state, accepted = stacked, accepted + 1
    search = branch_and_bound(m, 3, iterations, state)
    best = _close(search.best)
    ok, witness = is_k_sum_free(best, 3)
    if not ok:
        raise AssertionError(f"optimizer produced an infeasible set: {witness}")
    return OptimizeResult(best, best.measure(), m, seed, iterations,
                          accepted + search.improved, search)


def _propose_stack(S):
    """Shrink the whole configuration into the head window under a fresh
    top block: S -> c*S | (2/3, 1).

    Sum-freeness is dilation invariant and a 3-sum-free set inside
    [a, 2/9 + a/3] coexists with (2/3, 1), so good configurations embed
    recursively as the head of better ones.  The scale c is pinned to
    the largest value keeping c*S inside its own head window, which
    lands stacked optima exactly on the frontier.  S is a 3-sum-free
    subset of [0, 1] of positive measure, so 0 < sup S - inf S / 3 <= 1
    and c >= 2/9.  c*S stays below the top block: c * sup S =
    (2/9) sup S / (sup S - inf S / 3) < 2/3 because inf S < 2 sup S.
    """
    # c = (2/9) / (sup S - inf S / 3), from the codes of the extrema
    c = rational(2 * S._den, 3 * (3 * (S._codes[-1] >> 1) - (S._codes[0] >> 1)))
    return S.dilate(c).union(_TOP_BLOCK)


# -- closing -----------------------------------------------------------


def _close(S: IntervalSet) -> IntervalSet:
    """S with every endpoint closed whose closing keeps S feasible.

    The search returns open components, so a search that ends on A0
    has not yet reached a maximal set.  One pass, right to left and hi
    before lo, suffices: a merge with a neighbour never shifts the index
    of a component still to come, and since adding points only adds
    constraints, an endpoint that cannot be closed now cannot be closed
    later either.  A closed lo has an even code and a closed hi an odd
    one, so closing an open lo is its code - 1 and closing an open hi
    is its code + 1.
    """
    for i in reversed(range(len(S))):
        for end in (2 * i + 1, 2 * i):
            codes = S._codes[:]
            codes[end] = codes[end] | 1 if end & 1 else codes[end] & ~1
            trial = IntervalSet._of(S._den, _merge(codes[::2], codes[1::2]))
            if trial != S and conflicts(trial, 3).is_empty:
                S = trial
    return S
