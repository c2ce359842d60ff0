"""Search for 3-sum-free interval sets of maximal measure.

The optimizer climbs over exactly-feasible states: every candidate
passes through ``predicates.strip``, which removes (1/3)(S+S) and so
makes it 3-sum-free, so the returned set is 3-sum-free by construction
and its measure obeys the 77/177 ceiling exactly.

The climb starts at the top block (2/3, 1) and scans the proposals of
its state in a fixed order: first the stack (S -> c*S | (2/3, 1)), then
every outward endpoint nudge, by component, then grid exponent t, then
step count, lo side before hi side.  It rejects a stripped candidate of
more than m components.  It accepts one that measures more, or the same
and contains the state, so an endpoint can close but two sets of equal
measure cannot trade places forever.  On the first accepted candidate it
moves and starts a new scan.  It stops when a whole scan accepts
nothing, so its last state is a local optimum over every proposal, or
when ``iterations`` candidates have been built.  It draws no random
numbers.

The extremal set is self-similar, and stacking walks its recursion: one
stack of (2/3, 1) gives the two-component optimum (4/21, 2/7) | (2/3, 1)
of measure 3/7, and a second one gives A0 exactly.  So for m >= 3 the
climb holds A0 after two candidates, and its last scan shows that no
proposal improves it.  A closing pass then closes every endpoint that
can be closed, so a set of measure 77/177 comes back as one of the
maximal sets A1..A7.

Nothing moves an endpoint of the last state outward onto its
feasibility frontier, because none can move within [0, 1].  Up to
closed endpoints, the climb holds only the three sets above: (2/3, 1),
the set of measure 3/7, and A0.  Each is optimal among sets of at most
as many components (3/7 by an exact search over two components, A0 by
the paper's theorem).  An outward move adds measure and keeps or lowers
the component count, so the moved set is not 3-sum-free.

A state of n <= m components has one stack and
n * (GRID_STAGES + 4) * 6 nudges, and every move starts a new scan, so
the climb builds at most (accepted + 1) * (m * (GRID_STAGES + 4) * 6 + 1)
candidates, however large ``iterations`` is.

The climb runs on the integer codes of ``intervals`` (one denominator D
per set, two codes per component): proposals rewrite codes, and the
strip and the feasibility test are one sweep each.  ``Fraction`` values
are built only at the edges: the result, the measure comparison of each
candidate, and the scale factor of a stack.

The climb is a pure function of (m, iterations); no state is shared
across calls and no parallelism is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .intervals import IntervalSet, _merge, _scaled
from .predicates import conflicts, is_k_sum_free, strip
# unused; kept because bench/tests/test_bench.py expects this binding
from .predicates import forbidden_region  # noqa: F401
from .rationals import Rational, rational

__all__ = ["OptimizeResult", "optimize"]

#: a nudge moves an endpoint by 1, 2 or 3 steps of 1/(6 * 2**t), for
#: t = 0..GRID_STAGES + 3
GRID_STAGES = 18

#: the first state of the climb and the top block of a stack proposal
_TOP_BLOCK = IntervalSet.interval(rational(2, 3), rational(1))


@dataclass
class OptimizeResult:
    best: IntervalSet
    measure: Rational
    m: int
    seed: int
    iterations: int
    accepted: int
    evaluated: int


def optimize(m: int, seed: int, iterations: int) -> OptimizeResult:
    """Search for a 3-sum-free subset of [0,1] with at most m components.

    Deterministic in (m, iterations); m and iterations are ints (a bool
    or a float such as 3.0 is rejected).  ``seed`` does not affect the
    result; it is only echoed in it.  Every returned set passes the
    exact 3-sum-free predicate.  The climb accepts no loss of measure,
    so its last state is its best.  ``evaluated`` counts the candidates
    built, stripped and measured: min(iterations, n), where n is what
    the climb builds until a whole scan accepts nothing, at most
    (accepted + 1) * (m * (GRID_STAGES + 4) * 6 + 1).  ``accepted``
    counts the candidates that moved the state.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be >= 1 (an int), got {m!r}")
    if type(iterations) is not int or iterations < 0:
        raise ValueError(f"iterations must be >= 0 (an int), got {iterations!r}")
    state = _TOP_BLOCK
    mu = state.measure()
    accepted = evaluated = 0
    scan = _scan(state)

    while evaluated < iterations:
        cand = next(scan, None)
        if cand is None:
            break  # a whole scan accepted nothing: a local optimum
        evaluated += 1
        cand = strip(cand)
        if len(cand) > m:
            continue
        cmu = cand.measure()
        if cmu > mu or cmu == mu and cand != state and state.is_subset_of(cand):
            accepted += 1
            state, mu = cand, cmu
            scan = _scan(state)

    best = _close(state)
    ok, witness = is_k_sum_free(best, 3)
    if not ok:
        raise AssertionError(f"optimizer produced an infeasible set: {witness}")
    return OptimizeResult(best, best.measure(), m, seed, iterations, accepted, evaluated)


# -- state helpers -----------------------------------------------------


def _feasible(S: IntervalSet) -> bool:
    return conflicts(S, 3).is_empty


def _replaced(den: int, codes, ci: int, lo: int, hi: int) -> IntervalSet:
    """The set over ``den`` of the code ranges ``codes`` with range ci
    replaced by [lo, hi): dropped if empty, merged with what it meets."""
    los, his = codes[::2], codes[1::2]
    if lo < hi:
        los[ci], his[ci] = lo, hi
    else:
        del los[ci], his[ci]
    return IntervalSet._of(den, _merge(los, his))


# -- proposals ---------------------------------------------------------


def _scan(S):
    """The candidates of one scan of S, unstripped: the stack, then every
    nudge by component, grid exponent, step count and side (lo first)."""
    yield _propose_stack(S)
    for ci in range(len(S)):
        for t in range(GRID_STAGES + 4):
            for steps in (1, 2, 3):
                yield _propose_nudge(S, ci, t, steps, True)
                yield _propose_nudge(S, ci, t, steps, False)


def _propose_stack(S):
    """Shrink the whole configuration into the head window under a fresh
    top block: S -> c*S | (2/3, 1).

    Sum-freeness is dilation invariant and a 3-sum-free set inside
    [a, 2/9 + a/3] coexists with (2/3, 1), so good configurations embed
    recursively as the head of better ones.  The scale c is pinned to
    the largest value keeping c*S inside its own head window, which
    lands stacked local optima exactly on the frontier.  S is a state, a
    3-sum-free subset of [0, 1] of positive measure (the first state has
    one and the climb never loses measure), so 0 < sup S - inf S / 3 <= 1
    and c >= 2/9.  c*S stays below the top block: c * sup S =
    (2/9) sup S / (sup S - inf S / 3) < 2/3 because inf S < 2 sup S.
    """
    # c = (2/9) / (sup S - inf S / 3), from the codes of the extrema
    c = rational(2 * S._den, 3 * (3 * (S._codes[-1] >> 1) - (S._codes[0] >> 1)))
    return S.dilate(c).union(_TOP_BLOCK)


def _propose_nudge(S, ci, t, steps, lo_side):
    """Move the lo or hi endpoint of component ci outward by ``steps``
    steps of 1/(6 * 2**t).  An inward move gives a subset of the 3-sum-free S, which the strip
    keeps and which measures less, so it could never be accepted."""
    step_den = 6 * 2 ** t
    den = lcm(S._den, step_den)
    codes = _scaled(S._codes, den // S._den)
    # adding step to a code moves its value by the step
    step = 2 * steps * (den // step_den)
    lo, hi = codes[2 * ci], codes[2 * ci + 1]
    if lo_side:
        return _replaced(den, codes, ci, max(lo - step, lo & 1), hi)
    return _replaced(den, codes, ci, lo, min(hi + step, 2 * den + (hi & 1)))


# -- closing -----------------------------------------------------------


def _close(S: IntervalSet) -> IntervalSet:
    """S with every endpoint closed whose closing keeps S feasible.

    The climb leaves an endpoint open unless a proposal closed it, so a
    climb that ends on A0 has not yet reached a maximal set.  One pass,
    right to left and hi before lo, suffices: a merge with a neighbour
    never shifts the index of a component still to come, and since
    adding points only adds constraints, an endpoint that cannot be
    closed now cannot be closed later either.  A closed lo has an even
    code and a closed hi an odd one, so closing an open lo is its code
    - 1 and closing an open hi is its code + 1.
    """
    for i in reversed(range(len(S))):
        for side in ("hi", "lo"):
            c = S._codes
            lo, hi = c[2 * i], c[2 * i + 1]
            lo, hi = (lo, hi | 1) if side == "hi" else (lo & ~1, hi)
            trial = _replaced(S._den, c, i, lo, hi)
            if trial != S and _feasible(trial):
                S = trial
    return S
