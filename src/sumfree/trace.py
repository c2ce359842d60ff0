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

and records one exact verdict per displayed inequality, stated as its
two sides lhs <= rhs; a verdict passes exactly when that holds.  The final
certified bound is the minimum over all applicable bounds and is >=
mu(A); on the extremal set it equals 77/177 exactly, with every step an
equality.  Every case computes in the ints over N = 648 * D of the
set's ``LemmaContext`` (see ``lemmas`` for why every division is exact
there): R0 is cut with ``IntervalSet._clip``, the window masses come
from ``IntervalSet._mass`` with no window set built, r and b are read
with ``IntervalSet._end``.  A verdict over N keeps its sides as ints,
and a ``Fraction`` is built only for a side that is read, for the public
fields r, b, eta1, eta2 and ``final_bound``, and for the named constants
2/21, 3/7, 22/51 and 2/5, which are not ints over N.  The early exit and
the Case1/Case2 split read the context's ``dense`` and ``tail_applies``.

Cases:
    early-exit          mu(A) < 5/12, nothing to do
    Case1-R0-empty      eta1 + 2*eta2 <= 1/3 and R0 is empty
    Case1-R0-nonempty   eta1 + 2*eta2 <= 1/3 and R0 is nonempty
    Case2               eta1 + 2*eta2 > 1/3

The tracer takes its set's context from ``LemmaContext.from_set`` and
hands it to the checkers it reuses.  The 3-sum-free verdict and the
context are kept on the set, so a set is validated once, and its one
context built once, across all entry points, however many of them a
caller runs on it: after ``lemma_report(A)``,
``trace_measure_bound(A, rescale=True)`` checks nothing and shares the
report's context.

Also here: the inverse-statement checker, which asserts that any set of
measure exactly 77/177 coincides with the three-interval extremal set
up to measure zero and is contained in one of the seven maximal
augmentations.  It needs sup A <= 1 without rescaling, so it checks
[0, 1] and 3-sum-freeness itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

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

_DENSE_THRESHOLD = rational(5, 12)
_HEAD_CAP = rational(2, 21)  # head-cap-constant's bound on mu(R) when R0 is empty
_R0_EMPTY_BOUND = rational(3, 7)  # 1/3 + _HEAD_CAP


class TraceCase(Enum):
    EARLY_EXIT = "early-exit"
    CASE1_R0_EMPTY = "Case1-R0-empty"
    CASE1_R0_NONEMPTY = "Case1-R0-nonempty"
    CASE2 = "Case2"

    def __str__(self) -> str:
        return self.value


@dataclass
class ProofTrace:
    """Everything the certification computed for one concrete set.

    ``trace_measure_bound`` builds it at entry and fills it in as the
    proof goes: R, r, eta1 and eta2 once mu(A) >= 5/12, R0 in Case1 and
    b once R0 is nonempty.  ``final_bound`` is the minimum of the bounds
    of the case reached.  ``checked``, ``rescaled`` and ``measure`` are
    read from the context: the checked set S, whether it is a rescaled
    copy of the caller's set, and mu(S).  ``tightest`` is the verdict
    with the least margin rhs - lhs.
    """

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
    def checked(self) -> IntervalSet:
        return self.context.S

    @property
    def rescaled(self) -> bool:
        return self.context.rescaled

    @property
    def measure(self) -> Rational:
        return self.context.measure

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def equality_attained(self) -> bool:
        return self.measure == self.final_bound

    @property
    def failures(self) -> list:
        return [v for v in self.verdicts if not v.passed]

    @property
    def tightest(self) -> Optional[CheckRecord]:
        """The verdict of least margin rhs - lhs, the first one in verdict
        order on a tie; None while there is no verdict."""
        return min(self.verdicts, key=lambda v: v.margin, default=None)


def trace_measure_bound(A: IntervalSet, rescale: bool = False) -> ProofTrace:
    """Certify mu(A) <= 77/177 on a concrete 3-sum-free set with sup = 1.

    Pass ``rescale=True`` to work on (1/sup A)*A when sup differs from 1.
    A's context comes from ``LemmaContext.from_set``, which checks A and
    builds its one context once across all entry points; the context of
    the head (1/r)*R is derived from it without a second check, as R is
    a subset.  Every verdict is lhs <= rhs and passes exactly when that
    holds.
    """
    ctx = LemmaContext.from_set(A, rescale)
    N, a, mu, muR = ctx.N, ctx.a_N, ctx.measure_N, ctx.mu_R_N
    t = ProofTrace(TraceCase.EARLY_EXIT, ctx)

    if not ctx.dense:
        t.verdicts += [CheckRecord("below-dense-threshold", ctx.measure, _DENSE_THRESHOLD,
                                   note="strict"),
                       CheckRecord("threshold-vs-ceiling", _DENSE_THRESHOLD, MAX_MEASURE)]
        t.final_bound = _DENSE_THRESHOLD
        return t

    t.verdicts += _window_verdicts(ctx)
    t.verdicts += [v for v in (check_tail_bound(ctx), check_dense_tail_bound(ctx))
                   if v is not None]
    window_cap = 2 * N // 9 - 2 * a // 3
    split = ctx._record("head-split", mu, N // 3 + muR)
    t.final_bound = split.rhs  # the first bound; each case may lower it
    t.verdicts += [split, ctx._record("head-window-cap", muR, window_cap)]

    # dense-tail-bound caps the tail at 1/3, so muR = mu - tail >= 1/12 > 0
    r = ctx.R._end(N, -1)
    t.R, t.r = ctx.R, rational(r, N)
    ctx_r = ctx.head(ctx.R)  # the head (1/r)*R
    t.eta1, t.eta2 = ctx_r.eps1, ctx_r.eps2
    if ctx_r.tail_applies:
        _case1(t, ctx_r, r, window_cap)
    else:
        _case2(t, r)
    t.verdicts.append(CheckRecord("final-vs-ceiling", t.final_bound, MAX_MEASURE))
    return t


def _window_verdicts(ctx: LemmaContext) -> Iterator[CheckRecord]:
    """Mass bounds for the auxiliary windows that bound the middle of S.

    None apply when eps1 + 2*eps2 > 1/3.  The B and C bounds are only
    derived on the large-eps1 branch (eps1 > 2a/3); outside it their
    windows are degenerate and the bounds' right-hand sides go negative,
    so they are not claims there.  It reads only the context, in ints
    over its N.
    """
    if not ctx.tail_applies:
        return
    S, N, a, e1, e2 = ctx.S, ctx.N, ctx.a_N, ctx.eps1_N, ctx.eps2_N
    for name, lo, hi in (
        ("2/3", 4 * N // 9 + 2 * e1 // 3, 2 * N // 3),
        ("4/9", N // 3 + e1 // 2, 4 * N // 9 + e1 // 6),
        ("1/3", 2 * N // 9 + (a + e1) // 3, N // 3 + a // 3),
    ):
        yield ctx._record(f"window-{name}-mass", S._mass(N, lo, hi), e2 // 3)
    if e1 > 2 * a // 3:
        mB = S._mass(N, N // 3 + a // 3, N // 3 + e1 // 2)
        mC = S._mass(N, 2 * N // 9 + 2 * a // 9, 2 * N // 9 + e1 // 3)
        yield ctx._record("window-B_1/3-mass", mB, 3 * (e1 // 2 - a // 3) // 4)
        yield ctx._record("window-B+C-mass", 2 * mB // 3 + mC, e1 // 3 - 2 * a // 9)


def _case1(t: ProofTrace, ctx_r: LemmaContext, r: int, window_cap: int) -> None:
    """eta1 + 2*eta2 <= 1/3: recurse the tail bound into the head.

    ``r`` is sup R and ``window_cap`` head-window-cap's bound 2/9 - 2a/3
    on mu(R), both ints over the context's N.
    """
    ctx = t.context
    N, a, mu, muR = ctx.N, ctx.a_N, ctx.measure_N, ctx.mu_R_N
    R0_cap = 2 * r // 9 + a // 3
    t.R0 = R0 = t.R._clip(a, R0_cap, N)
    muR0 = R0._mass(N)
    split = r // 3 + muR0
    tb = check_tail_bound(ctx_r)
    t.verdicts += [tb.renamed("head-" + tb.name, "on (1/r)*R"),
                   ctx._record("head-split-again", muR, split)]

    if R0.is_empty:
        t.case = TraceCase.CASE1_R0_EMPTY
        cap = min(r // 3, window_cap)
        lin = ctx._record("head-cap-linear", muR, min(2 * N // 27 + a // 9, window_cap))
        t.verdicts += [ctx._record("head-cap-combined", muR, cap), lin,
                       CheckRecord("head-cap-constant", lin.rhs, _HEAD_CAP)]
        t.final_bound = min(t.final_bound, rational(N // 3 + min(split, cap), N), _R0_EMPTY_BOUND)
        return

    t.case = TraceCase.CASE1_R0_NONEMPTY
    b = R0._end(N, -1)
    t.b = rational(b, N)
    combined = min(4 * r // 9 - a // 12, 5 * r // 9 - 2 * a // 3)
    linear = ctx._record("measure-linear", mu, N // 3 + min(8 * N // 81 + 7 * a // 108,
                                                            10 * N // 81 - 13 * a // 27))
    t.verdicts += [ctx._record("head2-extent-bound", muR0, (2 * b - a) // 4),
                   ctx._record("head2-room", muR0, b - a),
                   ctx._record("head2-sup-cap", b, R0_cap),
                   ctx._record("head-combined", muR, combined),
                   linear,
                   CheckRecord("linear-vs-ceiling", linear.rhs, MAX_MEASURE,
                               note="equality only at a = 8/177")]
    t.final_bound = min(t.final_bound, rational(N // 3 + min(split, combined), N), linear.rhs)


def _case2(t: ProofTrace, r: int) -> None:
    """eta1 + 2*eta2 > 1/3: the head is sparse enough to bound directly.

    ``r`` is sup R, an int over the context's N.
    """
    ctx = t.context
    N, a, mu, muR = ctx.N, ctx.a_N, ctx.measure_N, ctx.mu_R_N
    t.case = TraceCase.CASE2
    top = 5 * r // 12
    dichotomy = max((r - a) // 2, (2 * r - a) // 6)
    linear = ctx._record("measure-linear", mu, N // 3 + min(
        max(N // 9 - a // 3, 2 * N // 27 - a // 18), 5 * N // 54 + 5 * a // 36))
    # each constant is the exact supremum of 1/3 + linear on its side of
    # 2/15: 22/51 at a = 2/51, and 2/5 at a = 2/15
    if 15 * a < 2 * N:
        const, note = rational(22, 51), "a < 2/15"
    else:
        const, note = rational(2, 5), "a >= 2/15"
    t.verdicts += [ctx._record("head-top-window", muR, top),
                   ctx._record("head-dichotomy", muR, dichotomy),
                   linear,
                   CheckRecord("case2-constant", linear.rhs, const, note=note),
                   CheckRecord("constant-vs-ceiling", const, MAX_MEASURE)]
    t.final_bound = min(t.final_bound, rational(N // 3 + min(dichotomy, top), N),
                        linear.rhs, const)


@dataclass
class ContainmentReport:
    """Outcome of the inverse-statement check for one set."""

    measure: Rational
    is_extremal: bool
    sym_diff_zero: Optional[bool] = None
    containers: tuple = ()

    @property
    def container(self) -> Optional[int]:
        """The smallest index of a container, or None when there is none."""
        return self.containers[0] if self.containers else None

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
    if not A.is_empty and (A._end(A._den, 0) < 0 or A._end(A._den, -1) > A._den):
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
    return ContainmentReport(mu, True, sym_zero, containers)
