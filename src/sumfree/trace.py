"""Step-by-step certification that a concrete 3-sum-free set obeys the
77/177 measure ceiling, mirroring the case analysis of the proof.

The tracer evaluates, with exact rationals, every intermediate quantity
the argument manipulates:

    a    = inf A                       (after rescaling so sup A = 1)
    R    = A & [a, 2/9 + a/3]          the head of the set
    r    = sup R
    R0   = R & [a, 2r/9 + a/3]         the head of the head
    b    = sup R0
    eta1, eta2                         the top-window slacks of (1/r)*R

and records one exact verdict per displayed inequality.  The final
certified bound is the minimum over all applicable bounds and is >=
mu(A); on the extremal set it equals 77/177 exactly, with every step an
equality.  R0 and the auxiliary windows of ``_window_verdicts`` are cut
with ``IntervalSet.clip``, in integer codes, with no window set built.

Cases:
    early-exit          mu(A) < 5/12, nothing to do
    Case1-R0-empty      eta1 + 2*eta2 <= 1/3 and R0 is empty
    Case1-R0-nonempty   eta1 + 2*eta2 <= 1/3 and R0 is nonempty
    Case2               eta1 + 2*eta2 > 1/3

The tracer takes its set's context from ``LemmaContext.from_set`` and
hands it to the checkers it reuses.  The 3-sum-free verdict and the
context are kept on the set, so a set is validated once, and its
context built once per rescale flag, across all entry points, however
many of them a caller runs on it: after ``lemma_report(A)``,
``trace_measure_bound(A, rescale=True)`` checks nothing and shares the
report's context.

Also here: the inverse-statement checker, which asserts that any set of
measure exactly 77/177 coincides with the three-interval extremal set
up to measure zero and is contained in one of the seven maximal
augmentations.  It needs sup A <= 1 without rescaling, so it checks
[0, 1] and 3-sum-freeness itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .constructions import construct_extremal
from .intervals import IntervalSet
from .lemmas import (
    CheckRecord,
    LemmaContext,
    PreconditionError,
    check_dense_tail_bound,
    check_tail_bound,
)
from .predicates import NotSumFreeError, is_k_sum_free
from .rationals import MAX_MEASURE, Rational, rational

__all__ = ["TraceCase", "ProofTrace", "trace_measure_bound",
           "ContainmentReport", "check_extremal_containment"]

_THIRD = rational(1, 3)
_DENSE_THRESHOLD = rational(5, 12)


class TraceCase(Enum):
    EARLY_EXIT = "early-exit"
    CASE1_R0_EMPTY = "Case1-R0-empty"
    CASE1_R0_NONEMPTY = "Case1-R0-nonempty"
    CASE2 = "Case2"

    def __str__(self) -> str:
        return self.value


@dataclass
class ProofTrace:
    """Everything the certification computed for one concrete set."""

    original: IntervalSet
    checked: IntervalSet
    rescaled: bool
    measure: Rational
    case: TraceCase
    context: LemmaContext
    R: IntervalSet = field(default_factory=IntervalSet.empty)
    r: Optional[Rational] = None
    R0: IntervalSet = field(default_factory=IntervalSet.empty)
    b: Optional[Rational] = None
    eta1: Optional[Rational] = None
    eta2: Optional[Rational] = None
    verdicts: list = field(default_factory=list)
    final_bound: Rational = MAX_MEASURE

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def equality_attained(self) -> bool:
        return self.measure == self.final_bound

    @property
    def failures(self) -> list:
        return [v for v in self.verdicts if not v.passed]


def trace_measure_bound(A: IntervalSet, rescale: bool = False) -> ProofTrace:
    """Certify mu(A) <= 77/177 on a concrete 3-sum-free set with sup = 1.

    Pass ``rescale=True`` to work on (1/sup A)*A when sup differs from 1.
    A's context comes from ``LemmaContext.from_set``, which checks A and
    builds the context once per set and rescale flag across all entry
    points; the context of the head (1/r)*R is derived from it without a
    second check, as R is a subset.
    """
    ctx = LemmaContext.from_set(A, rescale)
    S, mu = ctx.S, ctx.measure

    if mu < _DENSE_THRESHOLD:
        t = ProofTrace(A, S, ctx.rescaled, mu, TraceCase.EARLY_EXIT, ctx)
        t.verdicts.append(CheckRecord("below-dense-threshold", mu, _DENSE_THRESHOLD,
                                      mu < _DENSE_THRESHOLD, note="strict"))
        t.verdicts.append(CheckRecord("threshold-vs-ceiling", _DENSE_THRESHOLD,
                                      MAX_MEASURE, _DENSE_THRESHOLD <= MAX_MEASURE))
        t.final_bound = _DENSE_THRESHOLD
        return t

    a, R = ctx.a, ctx.R
    bounds = []
    verdicts = _window_verdicts(ctx)
    verdicts += [v for v in (check_tail_bound(ctx), check_dense_tail_bound(ctx))
                 if v is not None]

    muR = ctx.mu_R
    verdicts.append(CheckRecord("head-split", mu, _THIRD + muR, mu <= _THIRD + muR))
    verdicts.append(CheckRecord("head-window-cap", muR, rational(2, 9) - 2 * a / 3,
                                muR <= rational(2, 9) - 2 * a / 3))
    bounds.append(_THIRD + muR)

    # dense-tail-bound caps the tail at 1/3, so muR = mu - tail >= 1/12 > 0
    r = R.sup()
    ctx_r = ctx.head(R)  # the head (1/r)*R
    eta1, eta2 = ctx_r.eps1, ctx_r.eps2

    if eta1 + 2 * eta2 <= _THIRD:
        R0 = R.clip(a, 2 * r / 9 + a / 3)
        case, extra, final_extra = _case1(ctx, ctx_r, muR, r, R0)
    else:
        case, extra, final_extra = _case2(ctx, muR, r)
    verdicts.extend(extra)
    bounds.extend(final_extra)

    t = ProofTrace(A, S, ctx.rescaled, mu, case, ctx, R, r,
                   verdicts=verdicts, eta1=eta1, eta2=eta2)
    if case is TraceCase.CASE1_R0_NONEMPTY:
        t.R0, t.b = R0, R0.sup()
    t.final_bound = min(bounds)
    t.verdicts.append(CheckRecord("final-vs-ceiling", t.final_bound, MAX_MEASURE,
                                  t.final_bound <= MAX_MEASURE))
    return t


def _window_verdicts(ctx: LemmaContext) -> list:
    """Mass bounds for the auxiliary windows that bound the middle of S.

    None apply when eps1 + 2*eps2 > 1/3.  The B and C bounds are only
    derived on the large-eps1 branch (eps1 > 2a/3); outside it their
    windows are degenerate and the bounds' right-hand sides go negative,
    so they are not claims there.
    """
    S, a, e1, e2 = ctx.S, ctx.a, ctx.eps1, ctx.eps2
    if e1 + 2 * e2 > _THIRD:
        return []
    out = []
    for name, lo, hi in (
        ("2/3", rational(4, 9) + 2 * e1 / 3, rational(2, 3)),
        ("4/9", _THIRD + e1 / 2, rational(4, 9) + e1 / 6),
        ("1/3", rational(2, 9) + (a + e1) / 3, _THIRD + a / 3),
    ):
        m = S.clip(lo, hi).measure()
        out.append(CheckRecord(f"window-{name}-mass", m, e2 / 3, m <= e2 / 3))
    if e1 > 2 * a / 3:
        mB = S.clip(_THIRD + a / 3, _THIRD + e1 / 2).measure()
        mC = S.clip(rational(2, 9) + 2 * a / 9, rational(2, 9) + e1 / 3).measure()
        rhsB = rational(3, 4) * (e1 / 2 - a / 3)
        out.append(CheckRecord("window-B_1/3-mass", mB, rhsB, mB <= rhsB))
        rhsBC = e1 / 3 - 2 * a / 9
        lhsBC = 2 * mB / 3 + mC
        out.append(CheckRecord("window-B+C-mass", lhsBC, rhsBC, lhsBC <= rhsBC))
    return out


def _case1(ctx, ctx_r, muR, r, R0):
    """eta1 + 2*eta2 <= 1/3: recurse the tail bound into the head."""
    a, mu = ctx.a, ctx.measure
    verdicts = []
    bounds = []
    tb = check_tail_bound(ctx_r)
    verdicts.append(replace(tb, name="head-" + tb.name, note="on (1/r)*R"))
    muR0 = R0.measure()
    verdicts.append(CheckRecord("head-split-again", muR, r / 3 + muR0,
                                muR <= r / 3 + muR0))
    bounds.append(_THIRD + r / 3 + muR0)

    if R0.is_empty:
        cap = min(r / 3, rational(2, 9) - 2 * a / 3)
        lin = min(rational(2, 27) + a / 9, rational(2, 9) - 2 * a / 3)
        verdicts.append(CheckRecord("head-cap-combined", muR, cap, muR <= cap))
        verdicts.append(CheckRecord("head-cap-linear", muR, lin, muR <= lin))
        verdicts.append(CheckRecord("head-cap-constant", lin, rational(2, 21),
                                    lin <= rational(2, 21)))
        bounds.extend([_THIRD + cap, _THIRD + rational(2, 21)])
        return TraceCase.CASE1_R0_EMPTY, verdicts, bounds

    b = R0.sup()
    extent = (2 * b - a) / 4
    room = b - a
    verdicts.append(CheckRecord("head2-extent-bound", muR0, extent, muR0 <= extent))
    verdicts.append(CheckRecord("head2-room", muR0, room, muR0 <= room))
    bcap = 2 * r / 9 + a / 3
    verdicts.append(CheckRecord("head2-sup-cap", b, bcap, b <= bcap))
    combined = min(4 * r / 9 - a / 12, 5 * r / 9 - 2 * a / 3)
    verdicts.append(CheckRecord("head-combined", muR, combined, muR <= combined))
    linear = min(rational(8, 81) + 7 * a / 108, rational(10, 81) - 13 * a / 27)
    verdicts.append(CheckRecord("measure-linear", mu, _THIRD + linear,
                                mu <= _THIRD + linear))
    verdicts.append(CheckRecord("linear-vs-ceiling", _THIRD + linear, MAX_MEASURE,
                                _THIRD + linear <= MAX_MEASURE,
                                note="equality only at a = 8/177"))
    bounds.extend([_THIRD + combined, _THIRD + linear])
    return TraceCase.CASE1_R0_NONEMPTY, verdicts, bounds


def _case2(ctx, muR, r):
    """eta1 + 2*eta2 > 1/3: the head is sparse enough to bound directly."""
    a, mu = ctx.a, ctx.measure
    verdicts = []
    bounds = []
    top = 5 * r / 12
    verdicts.append(CheckRecord("head-top-window", muR, top, muR <= top))
    dichotomy = max((r - a) / 2, (2 * r - a) / 6)
    verdicts.append(CheckRecord("head-dichotomy", muR, dichotomy, muR <= dichotomy))
    combined = min(dichotomy, top)
    bounds.append(_THIRD + combined)
    linear = min(
        max(rational(1, 9) - a / 3, rational(2, 27) - a / 18),
        rational(5, 54) + 5 * a / 36,
    )
    verdicts.append(CheckRecord("measure-linear", mu, _THIRD + linear,
                                mu <= _THIRD + linear))
    if a < rational(2, 15):
        const = rational(22, 51)
        note = "a < 2/15"
    else:
        const = rational(11, 27)
        note = "a >= 2/15"
    verdicts.append(CheckRecord("case2-constant", _THIRD + linear, const,
                                _THIRD + linear <= const, note=note))
    verdicts.append(CheckRecord("constant-vs-ceiling", const, MAX_MEASURE,
                                const < MAX_MEASURE))
    bounds.extend([_THIRD + linear, const])
    return TraceCase.CASE2, verdicts, bounds


@dataclass
class ContainmentReport:
    """Outcome of the inverse-statement check for one set."""

    measure: Rational
    is_extremal: bool
    sym_diff_zero: Optional[bool] = None
    containers: tuple = ()
    container: Optional[int] = None

    @property
    def consistent(self) -> bool:
        """False would falsify the inverse statement; treat as fatal."""
        if not self.is_extremal:
            return True
        return bool(self.sym_diff_zero) and self.container is not None


def check_extremal_containment(A: IntervalSet) -> ContainmentReport:
    """Verify that a measure-77/177 set sits inside the extremal family.

    For an extremal set the symmetric difference with the three-interval
    base set must be measure-zero and the set must be a pointwise subset
    of at least one of the seven maximal augmentations; the report lists
    every container and the smallest index.
    """
    if not A.is_empty and (A.inf() < 0 or A.sup() > 1):
        raise PreconditionError("containment check requires A inside [0, 1]")
    ok, witness = is_k_sum_free(A, 3)
    if not ok:
        raise NotSumFreeError(witness)
    mu = A.measure()
    if mu != MAX_MEASURE:
        return ContainmentReport(mu, False)
    sym_zero = A.symmetric_difference(construct_extremal(0)).measure() == 0
    containers = tuple(
        i for i in range(1, 8) if A.is_subset_of(construct_extremal(i))
    )
    return ContainmentReport(mu, True, sym_zero, containers,
                             containers[0] if containers else None)
