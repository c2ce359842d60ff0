"""Search for 3-sum-free interval sets of maximal measure.

``optimize(m, ...)`` returns a 3-sum-free subset of [0, 1] with at most
m components, of the largest measure such a set can have, and says
whether that is proved.  It runs in two steps.

First, the exact search of ``sumfree.exact`` (an LP branch and bound
over sets of at most m open components) runs from the incumbent A0 of
measure 77/177 when it fits in m components (m >= 3), and from the
empty set otherwise.  It either proves the incumbent optimal or finds a
better set.  It proves 1/3 optimal for one component in one LP node,
3/7 for two in 5 nodes, and 77/177 for three in 19 nodes and for four
in 91 (``test_exact_optimum_for_few_components`` and
``test_four_components_do_not_beat_the_ceiling`` in
``tests/test_optimize.py``).  The incumbent A0 keeps the trees for
m >= 3 small: from the empty set, m = 5 and 6 take 301 and 923 nodes
instead of 299 and 919.  ``iterations`` is the search's node budget;
when it runs out, the result is the best set found so far and
``proved`` is False.

Second, a closing pass closes every endpoint that can be closed, since
the search works on open components, so a set of measure 77/177 comes
back as one of the maximal sets A1..A7.

The search is a pure function of (m, iterations) and uses no
parallelism; the one state kept across calls is the root tableau of
each m, which ``sumfree.exact`` builds on first use and no search
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import construct_extremal
from .exact import Search, branch_and_bound
from .intervals import IntervalSet, _keep_sums, _merge, _self_sumset_codes
from .predicates import _conflict_codes, is_k_sum_free
# unused; kept because bench/tests/test_bench.py expects this binding
from .predicates import forbidden_region  # noqa: F401
from .rationals import Rational

__all__ = ["OptimizeResult", "optimize"]


@dataclass
class OptimizeResult:
    """The closed set ``best`` and its measure; ``search`` holds the
    search's counts and its tree.  ``seed`` is only echoed: the
    benchmark reads it back."""

    best: IntervalSet
    measure: Rational
    m: int
    seed: int
    iterations: int
    search: Search

    @property
    def accepted(self) -> int:
        """The search's improvements of the incumbent
        (``search.improved``)."""
        return self.search.improved

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
    search = branch_and_bound(m, 3, iterations, construct_extremal(0) if m >= 3 else None)
    best = _close(search.best)
    ok, witness = is_k_sum_free(best, 3)
    if not ok:
        raise AssertionError(f"optimizer produced an infeasible set: {witness}")
    return OptimizeResult(best, best.measure(), m, seed, iterations, search)


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

    Every trial stays a code list over S's denominator, and is 3-sum-free
    when ``conflicts`` finds nothing on its codes.  Only the result is
    built as a set, which reduces the denominator when a merge has left
    it reducible, and it keeps the sumset codes of the last trial taken,
    reduced with it, so a later ``conflicts`` on it merges no sums.
    """
    codes, sums = S._codes, None
    for i in reversed(range(len(S))):
        for end in (2 * i + 1, 2 * i):
            trial = codes[:]
            trial[end] = trial[end] | 1 if end & 1 else trial[end] & ~1
            trial = _merge(trial[::2], trial[1::2])
            if trial != codes:
                trial_sums = _self_sumset_codes(trial)
                if not _conflict_codes(trial, 3, trial_sums):
                    codes, sums = trial, trial_sums
    out = IntervalSet._of(S._den, codes)
    if sums is not None:
        _keep_sums(out, S._den, sums)
    return out
