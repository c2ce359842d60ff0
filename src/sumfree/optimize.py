"""Seeded search for 3-sum-free interval sets of maximal measure.

The optimizer walks over exactly-feasible states: every candidate
passes through ``predicates.strip``, which removes (1/3)(S+S) and so
makes it 3-sum-free, so the returned set is 3-sum-free by construction
and its measure obeys the 77/177 ceiling exactly.

The walk is a hill climb from the top block (2/3, 1) over two
proposals: outward endpoint nudges by log-uniform rational steps, and
stacking (S -> c*S | (2/3, 1)).  It rejects a stripped candidate of
more than m components.  It accepts one that measures more, or the
same and contains the state, so an endpoint can close but two sets of
equal measure cannot trade places forever.  The extremal set is
self-similar, and stacking walks its recursion: one stack of (2/3, 1)
gives the two-component optimum (4/21, 2/7) | (2/3, 1) of measure 3/7,
and a second one gives A0 exactly, so the walk starts one or two stacks
from an optimum.  When the walk ends, a closing pass closes every
endpoint that can be closed, so a set of measure 77/177 comes back as
one of the maximal sets A1..A7.

Nothing moves an endpoint of the last state outward onto its
feasibility frontier, because none can move within [0, 1].  Up to
closed endpoints, the walk holds only the three sets above: (2/3, 1),
the set of measure 3/7, and A0.  Each is optimal among sets of at most
as many components (3/7 by an exact search over two components, A0 by
the paper's theorem).  An outward move adds measure and keeps or lowers
the component count, so the moved set is not 3-sum-free.  That the walk
reaches no other state is evidence, not a proof: a scan of m = 1..10
and seeds 1..100 at 300 and 1,600 iterations, and of m = 3 at 40,000,
found none.

The walk runs on the integer codes of ``intervals`` (one denominator D
per set, two codes per component): proposals rewrite codes, and the
strip and the feasibility test are one sweep each.  ``Fraction`` values
are built only at the edges: the result, the measure comparison of each
candidate, and the scale factor of a stack.

Each iteration first draws its proposal's parameters, its key: a
nudge's component, grid exponent, step count and side, or none for a
stack.  Given the state, the candidate is a pure function of the key,
so a key rejected on a state stays rejected until the state moves.  The
walk keeps the keys rejected on its current state, skips a repeated one
without building its candidate, and forgets them all on a move.  The
draws are made whether or not the key is skipped, so the random stream
and every output but ``checked`` are those of the walk without the
skip.  A state of
n <= m components has n * (GRID_STAGES + 4) * 6 nudge keys and one
stack key, so a walk builds at most
(accepted + 1) * (m * (GRID_STAGES + 4) * 6 + 1) candidates, however
many iterations it runs.

The walk is a pure function of (m, seed, iterations); no state is
shared across calls and no parallelism is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .intervals import IntervalSet, _merge, _scaled
from .predicates import conflicts, is_k_sum_free, strip
# unused; kept because bench/tests/test_bench.py expects this binding
from .predicates import forbidden_region  # noqa: F401
from .rationals import Rational, rational

__all__ = ["OptimizeResult", "optimize"]

#: a nudge moves an endpoint by 1, 2 or 3 steps of 1/(6 * 2**t), with
#: t drawn uniformly from 0..GRID_STAGES + 3
GRID_STAGES = 18

#: the first state of the walk and the top block of a stack proposal
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
    checked: int

    def __str__(self) -> str:
        return (f"best measure {self.measure} (~{float(self.measure):.9f}) "
                f"with {len(self.best)} component(s): {self.best}")


def optimize(m: int, seed: int, iterations: int) -> OptimizeResult:
    """Search for a 3-sum-free subset of [0,1] with at most m components.

    Deterministic in (m, seed, iterations); m and iterations are ints (a
    bool or a float such as 3.0 is rejected).  Every returned set passes
    the exact 3-sum-free predicate.  One walk uses the whole budget; it
    accepts no loss of measure, so its last state is its best.
    ``evaluated`` counts the proposals drawn, one per iteration, so it
    always equals ``iterations``; ``accepted`` counts those that moved
    the state; ``checked`` counts the candidates built, stripped and
    measured.  A proposal already rejected on the current state is
    skipped unchecked, so ``checked`` is at most ``evaluated`` and at
    most (accepted + 1) * (m * (GRID_STAGES + 4) * 6 + 1).
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be >= 1 (an int), got {m!r}")
    if type(iterations) is not int or iterations < 0:
        raise ValueError(f"iterations must be >= 0 (an int), got {iterations!r}")
    rng = random.Random(seed)
    state = _TOP_BLOCK
    mu = state.measure()
    accepted = checked = 0
    # the proposals rejected on the current state; cleared on a move
    rejected = set()

    for _ in range(iterations):
        key = _draw(rng, len(state))
        if key in rejected:
            continue
        checked += 1
        cand = strip(_propose_stack(state) if key is None else _propose_nudge(state, *key))
        if len(cand) > m:
            rejected.add(key)
            continue
        cmu = cand.measure()
        if cmu > mu or cmu == mu and cand != state and state.is_subset_of(cand):
            accepted += 1
            state, mu = cand, cmu
            rejected.clear()
        else:
            rejected.add(key)

    best = _close(state)
    ok, witness = is_k_sum_free(best, 3)
    if not ok:
        raise AssertionError(f"optimizer produced an infeasible set: {witness}")
    return OptimizeResult(best, best.measure(), m, seed, iterations, accepted, iterations,
                          checked)


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


def _below(bits, n: int) -> int:
    """A uniform int in [0, n) for an int n >= 1, from ``bits``, a
    ``Random.getrandbits``.

    CPython's ``randrange(n)`` draws n.bit_length() bits and redraws
    until the value is below n; this is that loop without its argument
    checks, so it consumes and returns the same stream.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _draw(rng: random.Random, n: int):
    """The parameters of one proposal on a state of n components: None
    for a stack, else a nudge's (component, t, step count, lo side).
    Given the state, they fix the candidate.  The stream is that of
    ``randrange(n)``, ``randint(0, GRID_STAGES + 3)`` and
    ``randint(1, 3)``, drawn through ``_below``."""
    if rng.random() < 0.75:
        bits = rng.getrandbits
        return (_below(bits, n), _below(bits, GRID_STAGES + 4), 1 + _below(bits, 3),
                rng.random() < 0.5)
    return None


def _propose_stack(S):
    """Shrink the whole configuration into the head window under a fresh
    top block: S -> c*S | (2/3, 1).

    Sum-freeness is dilation invariant and a 3-sum-free set inside
    [a, 2/9 + a/3] coexists with (2/3, 1), so good configurations embed
    recursively as the head of better ones.  The scale c is pinned to
    the largest value keeping c*S inside its own head window, which
    lands stacked local optima exactly on the frontier.  S is a state, a
    3-sum-free subset of [0, 1] of positive measure (the first state has
    one and the walk never loses measure), so 0 < sup S - inf S / 3 <= 1
    and c >= 2/9.  c*S stays below the top block: c * sup S =
    (2/9) sup S / (sup S - inf S / 3) < 2/3 because inf S < 2 sup S.
    """
    # c = (2/9) / (sup S - inf S / 3), from the codes of the extrema
    c = rational(2 * S._den, 3 * (3 * (S._codes[-1] >> 1) - (S._codes[0] >> 1)))
    return S.dilate(c).union(_TOP_BLOCK)


def _propose_nudge(S, ci, t, steps, lo_side):
    """Move the lo or hi endpoint of component ci outward by ``steps``
    steps of 1/(6 * 2**t).  Coarse and fine steps are drawn alike at
    every iteration, so the walk can hop between basins late in the run.
    An inward move gives a subset of the 3-sum-free S, which the strip
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

    The walk leaves an endpoint open unless a proposal closed it, so a
    walk that ends on A0 has not yet reached a maximal set.  One pass,
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
