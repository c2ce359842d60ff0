"""Seeded search for 3-sum-free interval sets of maximal measure.

The optimizer walks over exactly-feasible states: every candidate
passes through ``predicates.strip``, which removes (1/3)(S+S) and so
makes it 3-sum-free, so the returned set is 3-sum-free by construction
and its measure obeys the 77/177 ceiling exactly.

Three mechanisms cooperate:

  * a hill climb over proposals (outward endpoint nudges on a
    shrinking rational grid, whole-component shifts, interval insertion
    into currently allowed space, stacking) accepts every candidate that
    measures no less; shifts cost no measure, so configurations drift
    freely along the feasibility frontier, and a move that loses measure
    would only be undone by the next push;
  * periodic coordinate ascent ("push") moves each endpoint outward
    exactly onto its feasibility frontier: growing a set can only add
    violations, and the first one appears at a root of a + b = 3c
    among the endpoints, so a bisection over those roots finds it;
  * a final snap replaces endpoints by the simplest nearby rationals
    (continued-fraction approximants) when that keeps feasibility and
    loses at most ``SNAP_TOLERANCE`` measure, and a push after it wins
    the loss back on a simpler frontier point, so converged runs land
    on exact optima such as [2/3, 1) with measure exactly 1/3; a last
    pass closes every endpoint that can be closed, so a set of measure
    77/177 comes back as one of the maximal sets A1..A7.

The walk runs on the integer codes of ``intervals`` (one denominator D
per set, two codes per component): proposals rewrite codes, the strip
and the feasibility test are one sweep each, the trim ranks code
lengths, and the push's roots of a + b = 3c are ints over 6D.
``Fraction`` values are built only at the edges: the result, the
measure comparison of each candidate, the scale factor of a stack or
of a push's final rescale, and the snap approximants.

The walk is a pure function of (m, seed, iterations); no state is
shared across calls and no parallelism is used.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import lcm

from .intervals import IntervalSet, _merge, _scaled
from .predicates import conflicts, forbidden_region, is_k_sum_free, strip
from .rationals import Rational, rational

__all__ = ["OptimizeResult", "optimize"]

#: nudge grid refines from 1/(177*2) down to 1/(177*2**GRID_STAGES)
GRID_STAGES = 18
#: every PUSH_EVERY-th iteration pushes the current state
PUSH_EVERY = 1500
#: denominators a snap tries for each endpoint
SNAP_DENOMINATORS = (3, 59, 177, 354, 708, 2832, 10000)
#: measure a snap may give up; the push after it wins it back
SNAP_TOLERANCE = rational(1, 1 << 22)
#: stack scales are quantized down to multiples of 1/_GRID_DEN.  This
#: does not bound endpoint denominators: the push roots and dilation,
#: the strip endpoints (x+y)/3, insert's twelfths and stack's dilation
#: still compound them, and optimize(3, 2, 1600) returns a 13-digit
#: denominator
_GRID_DEN = 177 * 2**28


#: the top block of a stack proposal and the space an insert may use
_TOP_BLOCK = IntervalSet.interval(rational(2, 3), rational(1))
_UNIT = IntervalSet.interval(0, 1)


def _quantize_down(x):
    num = (x.numerator * _GRID_DEN) // x.denominator
    return rational(num, _GRID_DEN)


@dataclass
class OptimizeResult:
    best: IntervalSet
    measure: Rational
    m: int
    seed: int
    iterations: int
    accepted: int
    evaluated: int

    def __str__(self) -> str:
        return (f"best measure {self.measure} (~{float(self.measure):.9f}) "
                f"with {len(self.best)} component(s): {self.best}")


def optimize(m: int, seed: int, iterations: int) -> OptimizeResult:
    """Search for a 3-sum-free subset of [0,1] with at most m components.

    Deterministic in (m, seed, iterations); m and iterations are ints (a
    bool or a float such as 3.0 is rejected).  Every returned set passes
    the exact 3-sum-free predicate.  One walk uses the whole budget; it
    accepts no loss of measure, so its last state is its best.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be >= 1 (an int), got {m!r}")
    if type(iterations) is not int or iterations < 0:
        raise ValueError(f"iterations must be >= 0 (an int), got {iterations!r}")
    rng = random.Random(seed)
    state = _initial_state(rng)
    mu = state.measure()
    accepted = 0
    evaluated = 0

    for i in range(iterations):
        if i % PUSH_EVERY == PUSH_EVERY - 1:
            state = _push(state)
            mu = state.measure()
            continue
        stage = 1 + (GRID_STAGES * i) // iterations
        cand = _propose(rng, state, m, stage)
        if cand is None:
            continue
        evaluated += 1
        cand = _trim(strip(cand), m)
        cmu = cand.measure()
        if cmu >= mu:
            state, mu = cand, cmu
            accepted += 1

    # polish: snaps may dip slightly, pushes recover on a simpler
    # frontier point; keep whichever candidate measures best
    best = cand = state
    for _ in range(5):
        before = cand.measure()
        cand = _push(_snap(_push(cand)))
        if cand.measure() > best.measure():
            best = cand
        if cand.measure() <= before:
            break
    best = _close(best)
    ok, witness = is_k_sum_free(best, 3)
    if not ok:
        raise AssertionError(f"optimizer produced an infeasible set: {witness}")
    return OptimizeResult(best, best.measure(), m, seed, iterations, accepted, evaluated)


# -- state helpers -----------------------------------------------------


def _feasible(S: IntervalSet) -> bool:
    return conflicts(S, 3).is_empty


def _moved(S: IntervalSet, ci: int, lo=None, hi=None,
           lo_closed=None, hi_closed=None) -> IntervalSet:
    """S with component ci's endpoints and flags replaced where given."""
    den = S._den
    for v in (lo, hi):
        if v is not None:
            den = lcm(den, v.denominator)
    codes = _scaled(S._codes, den // S._den)
    a, b = codes[2 * ci], codes[2 * ci + 1]
    p = a >> 1 if lo is None else lo.numerator * (den // lo.denominator)
    q = b >> 1 if hi is None else hi.numerator * (den // hi.denominator)
    lo_open = a & 1 if lo_closed is None else not lo_closed
    hi_shut = b & 1 if hi_closed is None else hi_closed
    return _replaced(den, codes, ci, 2 * p + lo_open, 2 * q + hi_shut)


def _replaced(den: int, codes, ci: int, lo: int, hi: int) -> IntervalSet:
    """The set over ``den`` of the code ranges ``codes`` with range ci
    replaced by [lo, hi): dropped if empty, merged with what it meets."""
    los, his = codes[::2], codes[1::2]
    if lo < hi:
        los[ci], his[ci] = lo, hi
    else:
        del los[ci], his[ci]
    return IntervalSet._of(den, _merge(los, his))


def _trim(S: IntervalSet, m: int) -> IntervalSet:
    """Keep the m longest components (leftmost wins ties)."""
    if len(S) <= m:
        return S
    c = S._codes
    # over one denominator the code values rank the lengths; sorted is
    # stable, so the leftmost of equal lengths comes first
    ranked = sorted(range(len(S)), key=lambda i: (c[2 * i] >> 1) - (c[2 * i + 1] >> 1))
    return S._select(sorted(ranked[:m]))


def _initial_state(rng: random.Random) -> IntervalSet:
    """A small random feasible seed; the walk grows it from there."""
    den = rng.choice((90, 120, 177, 240))
    lo = rational(rng.randint(1, den - 2), den)
    hi = lo + rational(rng.randint(1, den // 3), den)
    # for 0 < lo < hi the strip of (lo, hi) is (lo, hi) or [2hi/3, hi),
    # one component, so no trim is needed
    return strip(IntervalSet.interval(lo, min(hi, 1)))


# -- proposals ---------------------------------------------------------


def _propose(rng: random.Random, S: IntervalSet, m: int, stage: int):
    roll = rng.random()
    if roll < 0.18 and len(S) < m:
        return _propose_insert(rng, S)
    if roll < 0.40:
        return _propose_shift(rng, S, stage)
    if roll < 0.75:
        return _propose_nudge(rng, S, stage)
    return _propose_stack(S)


def _propose_stack(S):
    """Shrink the whole configuration into the head window under a fresh
    top block: S -> c*S | (2/3, 1).

    Sum-freeness is dilation invariant and a 3-sum-free set inside
    [a, 2/9 + a/3] coexists with (2/3, 1), so good configurations embed
    recursively as the head of better ones.  The scale c is pinned to
    the largest value keeping c*S inside its own head window, which
    lands stacked local optima exactly on the frontier.  S is a state, a
    3-sum-free subset of [0, 1] of positive measure (the first state has
    one and the walk never loses measure), so 0 < sup S - inf S / 3 <= 1,
    and c >= 2/9 stays positive when quantized.  c*S stays below the top
    block: c * sup S = (2/9) sup S / (sup S - inf S / 3) < 2/3 because
    inf S < 2 sup S, and rounding c down keeps it below.
    """
    # c = (2/9) / (sup S - inf S / 3), from the codes of the extrema
    c = rational(2 * S._den, 3 * (3 * (S._codes[-1] >> 1) - (S._codes[0] >> 1)))
    if c.denominator > 10**7:
        c = _quantize_down(c)
    return S.dilate(c).union(_TOP_BLOCK)


def _propose_shift(rng, S, stage):
    """Translate one whole component; measure-neutral, so always accepted
    when the shifted set stays feasible after the strip."""
    ci = rng.randrange(len(S))
    den, codes, shift = _stepped(rng, S, stage)
    if rng.random() < 0.4:
        shift = -shift
    lo, hi = codes[2 * ci] + shift, codes[2 * ci + 1] + shift
    if lo < 0 or hi >> 1 > den:
        return None
    return _replaced(den, codes, ci, lo, hi)


def _stepped(rng, S, stage):
    """A log-uniform step size as ``(den, codes of S over den, 2 * step *
    den)``, so that adding the last to a code moves it by the step.
    Coarse moves stay available at every stage so the walk can hop
    between basins late in the run."""
    t = rng.randint(0, stage + 3)
    if rng.random() < 0.3:
        step_den = 177 * 2 ** max(0, t - 2)
    else:
        step_den = 6 * 2 ** t
    den = lcm(S._den, step_den)
    return den, _scaled(S._codes, den // S._den), 2 * rng.randint(1, 3) * (den // step_den)


def _propose_nudge(rng, S, stage):
    """Move one endpoint outward.  An inward move gives a subset of the
    3-sum-free S, which the strip keeps and which measures less, so it
    could never be accepted."""
    ci = rng.randrange(len(S))
    den, codes, shift = _stepped(rng, S, stage)
    lo, hi = codes[2 * ci], codes[2 * ci + 1]
    if rng.random() < 0.5:
        return _replaced(den, codes, ci, max(lo - shift, lo & 1), hi)
    return _replaced(den, codes, ci, lo, min(hi + shift, 2 * den + (hi & 1)))


def _propose_insert(rng, S):
    """Drop a new interval into space not obviously excluded."""
    allowed = _UNIT.difference(S.union(forbidden_region(S)))
    c = allowed._codes
    gaps = [(lo >> 1, hi >> 1) for lo, hi in zip(c[::2], c[1::2]) if lo >> 1 < hi >> 1]
    if not gaps:
        return None
    g_lo, g_hi = gaps[rng.randrange(len(gaps))]
    f1 = rng.randint(0, 12)
    f2 = rng.randint(0, 12)
    if f1 > f2:
        f1, f2 = f2, f1
    if f1 == f2:
        return None
    # the open piece from f1/12 to f2/12 of the way across the gap, over 12D
    lo, hi = (12 * g_lo + (g_hi - g_lo) * f for f in (f1, f2))
    return S.union(IntervalSet._of(12 * allowed._den, [2 * lo + 1, 2 * hi]))


# -- coordinate ascent and snapping -----------------------------------


def _push(S: IntervalSet) -> IntervalSet:
    """Move every endpoint outward onto its feasibility frontier.

    One pass, right to left and hi before lo, so a merge with a
    neighbour never shifts the index of a component still to come.
    Growing the other components only adds constraints, so an endpoint
    already on its frontier stays there.  Finally the whole set is
    rescaled so its supremum is 1: dilation preserves sum-freeness and
    multiplies measure by 1/sup, so this is always a win and lifts
    configurations stuck on the dilation ridge of the frontier.
    """
    for i in reversed(range(len(S))):
        S = _expand_endpoint(S, i, "hi")
        S = _expand_endpoint(S, i, "lo")
    s = S.sup()
    if s < 1:
        S = S.dilate(1 / s)
    return S


def _expand_endpoint(S: IntervalSet, ci: int, side: str) -> IntervalSet:
    """S with one endpoint moved outward exactly onto its frontier.

    Growing a set only adds solutions of x + y = 3z, so feasibility is
    monotone in the move t.  A first solution appears where an endpoint
    of S+S meets one of 3S, that is where a + b = 3c for endpoints a, b,
    c with the moving one among them.  So the frontier is the room or a
    root from ``_roots``, and a bisection over those moves finds it.
    With the endpoint open, the set at the frontier is the union of the
    feasible sets before it, so it is feasible too.  A closed endpoint
    stays closed when that is still feasible.
    """
    den = 6 * S._den
    codes = _scaled(S._codes, 6)
    j = 2 * ci + (side == "hi")
    base = codes[j] >> 1
    if side == "lo":
        was_closed, sign = not codes[j] & 1, -1
        room = base - (codes[j - 1] >> 1 if ci > 0 else 0)
    else:
        was_closed, sign = codes[j] & 1, 1
        room = (codes[j + 1] >> 1 if j + 1 < len(codes) else den) - base
    if room <= 0:
        return S

    def moved(t, closed):
        if side == "lo":
            return _replaced(den, codes, ci, 2 * (base - t) + (not closed), codes[j + 1])
        return _replaced(den, codes, ci, codes[j - 1], 2 * (base + t) + closed)

    others = [x >> 1 for x in S._codes]
    del others[j]
    moves = sorted({t for t in (sign * (v - base) for v in _roots(others)) if 0 < t < room})
    moves.append(room)
    k = bisect_left(moves, True, key=lambda t: not _feasible(moved(t, False)))
    if k == 0:
        return S
    t = moves[k - 1]
    if was_closed and _feasible(moved(t, True)):
        return moved(t, True)
    return moved(t, False)


def _roots(F):
    """Every v with a + b = 3c where v is one or more of a, b, c and the
    others are in F, for values given as ints over a denominator D and
    returned as ints over 6D: b/2, 3b/2, 3c - b and (b + c)/3."""
    for b in F:
        yield 3 * b
        yield 9 * b
        for c in F:
            yield 18 * c - 6 * b
            yield 2 * (b + c)


def _close(S: IntervalSet) -> IntervalSet:
    """S with every endpoint closed whose closing keeps S feasible.

    ``_expand_endpoint`` leaves a frontier endpoint open when it was
    open, so a pushed optimum such as A0 is not maximal.  One pass,
    right to left and hi before lo as in ``_push``, suffices: closing
    adds points, and adding points only adds constraints, so an endpoint
    that cannot be closed now cannot be closed later either.
    """
    for i in reversed(range(len(S))):
        for side in ("hi", "lo"):
            trial = _moved(S, i, **{f"{side}_closed": True})
            if trial != S and _feasible(trial):
                S = trial
    return S


def _snap(S: IntervalSet) -> IntervalSet:
    """Replace endpoints by nearby simple rationals.

    A snap may lose up to ``SNAP_TOLERANCE`` measure; the caller pushes
    afterwards so the loss is recovered on a simpler frontier point.
    """
    for _ in range(24):
        trial = next(_snaps(S), None)
        if trial is None:
            break
        S = trial
    return S


def _snaps(S: IntervalSet):
    """Feasible one-endpoint snaps of S within 2**-18 that lose at most
    ``SNAP_TOLERANCE`` measure, in component, side and approximant order."""
    window = rational(1, 1 << 18)
    floor = S.measure() - SNAP_TOLERANCE
    for ci, c in enumerate(S.components):
        for side in ("lo", "hi"):
            v = getattr(c, side)
            for cand in _approximants(v):
                if cand == v or abs(cand - v) > window:
                    continue
                trial = _moved(S, ci, **{side: cand})
                if trial.measure() >= floor and _feasible(trial):
                    yield trial


def _approximants(v):
    """Simple rationals near v, best approximations first."""
    out = []
    for d in SNAP_DENOMINATORS:
        r = v.limit_denominator(d)
        if r not in out:
            out.append(r)
    return out
