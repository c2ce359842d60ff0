"""Seeded search for 3-sum-free interval sets of maximal measure.

The optimizer walks over exactly-feasible states: every candidate
passes through ``predicates.strip``, which removes (1/3)(S+S) and so
makes it 3-sum-free, so the returned set is 3-sum-free by construction
and its measure obeys the 77/177 ceiling exactly.

Three mechanisms cooperate:

  * simulated-annealing proposals (endpoint nudges on a shrinking
    rational grid, whole-component shifts, interval insertion into
    currently allowed space, deletion, splitting) explore the topology
    of configurations; shifts cost no measure, so configurations drift
    freely along the feasibility frontier;
  * periodic coordinate ascent ("push") expands each endpoint outward
    by exact bisection against the feasibility frontier, which is
    monotone: growing a set can only add violations;
  * a final snap replaces endpoints by the simplest nearby rationals
    (continued-fraction approximants) when that keeps feasibility and
    does not lose measure, so converged runs land on exact optima such
    as [2/3, 1) with measure exactly 1/3.

The walk is a pure function of (m, seed, iterations); no state is
shared across calls and no parallelism is used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .intervals import Interval, IntervalSet
from .predicates import conflicts, forbidden_region, is_k_sum_free, strip
from .rationals import Rational, rational

__all__ = ["OptimizeResult", "optimize"]

#: nudge grid refines from 1/(177*2) down to 1/(177*2**GRID_STAGES)
GRID_STAGES = 18
#: every PUSH_EVERY-th iteration pushes and snaps the current state
PUSH_EVERY = 1500
#: bisection rounds per endpoint in a push
PUSH_ROUNDS = 30
#: the iteration budget is split into this many restart chunks
RESTARTS = 6
#: denominators a snap tries for each endpoint
SNAP_DENOMINATORS = (3, 59, 177, 354, 708, 2832, 10000)
#: bisection midpoints and stack scales are quantized down to multiples
#: of 1/_GRID_DEN.  This does not bound endpoint denominators: the
#: unquantized push dilation, the strip endpoints (x+y)/3, split's
#: twelfths and stack's dilation still compound them, and
#: optimize(3, 2, 1600) returns a 37-digit denominator, above 2**63
_GRID_DEN = 177 * 2**28


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

    Deterministic in (m, seed, iterations).  Every returned set passes
    the exact 3-sum-free predicate.  The iteration budget is split into
    independent restart chunks; the best state across all chunks wins.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    rng = random.Random(seed)
    state = _initial_state(rng)
    best = state
    best_mu = state.measure()
    mu = best_mu
    accepted = 0
    evaluated = 0
    chunk = max(PUSH_EVERY + 1, iterations // RESTARTS)

    for i in range(iterations):
        if i and i % chunk == 0:
            state = _initial_state(rng)
            mu = state.measure()
            continue
        if i % PUSH_EVERY == PUSH_EVERY - 1:
            state = _push(state, m)
            state = _snap(state, m)
            mu = state.measure()
            if mu > best_mu:
                best, best_mu = state, mu
            continue
        stage = 1 + (GRID_STAGES * i) // max(iterations, 1)
        cand = _propose(rng, state, m, stage)
        if cand is None:
            continue
        evaluated += 1
        cand = _trim(strip(cand), m)
        cmu = cand.measure()
        if cmu >= mu or _anneal_accept(rng, mu, cmu, i, iterations):
            state, mu = cand, cmu
            accepted += 1
            if cmu > best_mu:
                best, best_mu = cand, cmu

    # polish: tolerance snaps may dip slightly, pushes recover on a
    # simpler frontier point; keep whichever candidate measures best
    cand = best
    for _ in range(5):
        before = cand.measure()
        cand = _push(cand, m)
        cand = _snap(cand, m, tol=rational(1, 1 << 22))
        cand = _push(cand, m)
        cand = _snap(cand, m)
        if cand.measure() > best_mu:
            best, best_mu = cand, cand.measure()
        if cand.measure() <= before:
            break
    ok, witness = is_k_sum_free(best, 3)
    if not ok:
        raise AssertionError(f"optimizer produced an infeasible set: {witness}")
    return OptimizeResult(best, best.measure(), m, seed, iterations, accepted, evaluated)


# -- state helpers -----------------------------------------------------


def _feasible(S: IntervalSet) -> bool:
    return conflicts(S, 3).is_empty


def _moved(S: IntervalSet, ci: int, lo=None, hi=None) -> IntervalSet:
    """S with component ci's lo and/or hi moved; its closedness is kept."""
    comps = list(S.components)
    c = comps[ci]
    comps[ci] = Interval(c.lo if lo is None else lo, c.hi if hi is None else hi,
                         c.lo_closed, c.hi_closed)
    return IntervalSet(comps)


def _trim(S: IntervalSet, m: int) -> IntervalSet:
    """Keep the m longest components (leftmost wins ties)."""
    if len(S) <= m:
        return S
    ranked = sorted(enumerate(S.components), key=lambda e: (-(e[1].length), e[0]))
    return S._select(sorted(idx for idx, _ in ranked[:m]))


def _initial_state(rng: random.Random) -> IntervalSet:
    """A small random feasible seed; the walk grows it from there."""
    den = rng.choice((90, 120, 177, 240))
    lo = rational(rng.randint(1, den - 2), den)
    hi = lo + rational(rng.randint(1, den // 3), den)
    # for 0 < lo < hi the strip of (lo, hi) is (lo, hi) or [2hi/3, hi),
    # one component, so no trim is needed
    return strip(IntervalSet.interval(lo, min(hi, 1)))


def _anneal_accept(rng, mu, cmu, i, iterations) -> bool:
    t0, t1 = 2e-2, 1e-7
    frac = i / max(iterations - 1, 1)
    temp = t0 * (t1 / t0) ** frac
    delta = float(cmu - mu)
    return rng.random() < math.exp(delta / temp)


# -- proposals ---------------------------------------------------------


def _propose(rng: random.Random, S: IntervalSet, m: int, stage: int):
    roll = rng.random()
    if S.is_empty or (roll < 0.18 and len(S) < m):
        return _propose_insert(rng, S)
    if roll < 0.40:
        return _propose_shift(rng, S, stage)
    if roll < 0.75:
        return _propose_nudge(rng, S, stage)
    if roll < 0.80:
        return _propose_stack(S)
    if roll < 0.87 and len(S) > 1:
        return _propose_delete(rng, S)
    return _propose_split(rng, S)


def _propose_stack(S):
    """Shrink the whole configuration into the head window under a fresh
    top block: S -> c*S | (2/3, 1).

    Sum-freeness is dilation invariant and a 3-sum-free set inside
    [a, 2/9 + a/3] coexists with (2/3, 1), so good configurations embed
    recursively as the head of better ones.  The scale c is pinned to
    the largest value keeping c*S inside its own head window, which
    lands stacked local optima exactly on the frontier.  S is a nonempty
    3-sum-free subset of [0, 1] (``_propose`` sends an empty S to
    insert), so 0 < sup S - inf S / 3 <= 1, and c >= 2/9 stays positive
    when quantized.  c*S stays below the top block: c * sup S =
    (2/9) sup S / (sup S - inf S / 3) < 2/3 because inf S < 2 sup S,
    and rounding c down keeps it below.
    """
    c = rational(2, 9) / (S.sup() - S.inf() / 3)
    if c.denominator > 10**7:
        c = _quantize_down(c)
    return S.dilate(c).union(IntervalSet.interval(rational(2, 3), rational(1)))


def _propose_shift(rng, S, stage):
    """Translate one whole component; measure-neutral, so always accepted
    when the shifted set stays feasible after the strip."""
    ci = rng.randrange(len(S))
    c = S.components[ci]
    step = _rand_step(rng, stage)
    if rng.random() < 0.4:
        step = -step
    lo = c.lo + step
    hi = c.hi + step
    if lo < 0 or hi > 1:
        return None
    return _moved(S, ci, lo, hi)


def _rand_step(rng, stage):
    """Log-uniform step size; coarse moves stay available at every stage
    so the walk can hop between basins late in the run."""
    t = rng.randint(0, stage + 3)
    if rng.random() < 0.3:
        den = 177 * 2 ** max(0, t - 2)
    else:
        den = 6 * 2 ** t
    return rational(rng.randint(1, 3), den)


def _propose_nudge(rng, S, stage):
    ci = rng.randrange(len(S))
    c = S.components[ci]
    step = _rand_step(rng, stage)
    if rng.random() < 0.5:
        step = -step
    if rng.random() < 0.5:
        return _moved(S, ci, lo=min(max(c.lo + step, rational(0)), rational(1)))
    return _moved(S, ci, hi=min(max(c.hi + step, rational(0)), rational(1)))


def _propose_insert(rng, S):
    """Drop a new interval into space not obviously excluded."""
    if S.is_empty:
        allowed = IntervalSet.interval(0, 1)
    else:
        allowed = IntervalSet.interval(0, 1).difference(S.union(forbidden_region(S)))
    gaps = [c for c in allowed.components if c.length > 0]
    if not gaps:
        return None
    g = gaps[rng.randrange(len(gaps))]
    span = g.length
    f1 = rational(rng.randint(0, 12), 12)
    f2 = rational(rng.randint(0, 12), 12)
    if f1 > f2:
        f1, f2 = f2, f1
    if f1 == f2:
        return None
    piece = Interval(g.lo + span * f1, g.lo + span * f2)
    return S.union(IntervalSet([piece]))


def _propose_delete(rng, S):
    drop = rng.randrange(len(S))
    return S._select(i for i in range(len(S)) if i != drop)


def _propose_split(rng, S):
    comps = list(S.components)
    ci = rng.randrange(len(comps))
    c = comps[ci]
    if c.length == 0:
        return None
    f1 = rational(rng.randint(1, 10), 12)
    f2 = min(f1 + rational(rng.randint(0, 2), 12), rational(11, 12))
    a = c.lo + c.length * f1
    b = c.lo + c.length * f2
    left = Interval(c.lo, a, c.lo_closed, False)
    right = Interval(b, c.hi, False, c.hi_closed)
    comps[ci:ci + 1] = [left, right]
    return IntervalSet(comps)


# -- coordinate ascent and snapping -----------------------------------


def _push(S: IntervalSet, m: int) -> IntervalSet:
    """Expand every endpoint outward to the feasibility frontier.

    Growing a set monotonically adds constraints, so bisection against
    the exact predicate converges to the frontier from the feasible
    side.  Two sweeps settle interactions between endpoints.  Finally
    the whole set is rescaled so its supremum is 1: dilation preserves
    sum-freeness and multiplies measure by 1/sup, so this is always a
    win and lifts configurations stuck on the dilation ridge of the
    frontier.
    """
    if S.is_empty:
        return S
    for _ in range(2):
        i = 0
        while i < len(S.components):
            S = _expand_endpoint(S, i, "lo")
            S = _expand_endpoint(S, i, "hi")
            i += 1
        S = _trim(S, m)
    s = S.sup()
    if s < 1:
        S = S.dilate(1 / s)
    return S


def _expand_endpoint(S: IntervalSet, ci: int, side: str) -> IntervalSet:
    comps = S.components
    c = comps[ci]
    if side == "lo":
        limit = comps[ci - 1].hi if ci > 0 else rational(0)
        room = c.lo - limit
    else:
        limit = comps[ci + 1].lo if ci + 1 < len(comps) else rational(1)
        room = limit - c.hi

    def moved(t):
        return _moved(S, ci, lo=c.lo - t) if side == "lo" else _moved(S, ci, hi=c.hi + t)

    if room <= 0:
        return S
    full = moved(room)
    if _feasible(full):
        return full
    lo_t, hi_t = rational(0), room
    for _ in range(PUSH_ROUNDS):
        mid = _quantize_down((lo_t + hi_t) / 2)
        if mid <= lo_t or mid >= hi_t:
            break
        if _feasible(moved(mid)):
            lo_t = mid
        else:
            hi_t = mid
    # The frontier lies in (lo_t, hi_t]; when it is a simple rational
    # (binding constraints are linear with small coefficients), land on
    # it exactly instead of keeping the bisection approximation.
    for t in _bracket_candidates(lo_t, hi_t, c, side):
        if _feasible(moved(t)):
            return moved(t)
    return moved(lo_t) if lo_t > 0 else S


_SNAP_DENS = (2, 3, 4, 6, 9, 12, 24, 59, 118, 177, 354, 531, 708, 1062,
              2124, 4248, 10000, 100000)


def _bracket_candidates(lo_t, hi_t, c, side):
    """Simple move distances inside (lo_t, hi_t], largest value first."""
    base = c.lo if side == "lo" else c.hi
    v_feas = base - lo_t if side == "lo" else base + lo_t
    v_infe = base - hi_t if side == "lo" else base + hi_t
    seen = set()
    vals = []
    for probe in (v_infe, (v_feas + v_infe) / 2):
        for d in _SNAP_DENS:
            r = probe.limit_denominator(d)
            t = base - r if side == "lo" else r - base
            if lo_t < t <= hi_t and t not in seen:
                seen.add(t)
                vals.append(t)
    vals.sort(reverse=True)
    return vals


def _snap(S: IntervalSet, m: int, tol=None) -> IntervalSet:
    """Replace endpoints by nearby simple rationals when it costs nothing.

    With a nonzero ``tol`` a snap may lose up to that much measure; the
    caller is expected to push afterwards so the loss is recovered on a
    simpler frontier point.
    """
    tol = rational(0) if tol is None else rational(tol)
    for _ in range(24):
        trial = next(_snaps(S, tol), None)
        if trial is None:
            break
        S = _trim(trial, m)
    return S


def _snaps(S: IntervalSet, tol):
    """Feasible one-endpoint snaps of S within 2**-18 that lose at most
    tol measure, in component, side and approximant order."""
    window = rational(1, 1 << 18)
    floor = S.measure() - tol
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
