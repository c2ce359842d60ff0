"""Executable verifiers for the measure inequalities of 3-sum-free sets.

Each checker evaluates one proved inequality on a concrete interval
set, with exact rational arithmetic and no tolerance, and returns its
verdict as a ``CheckRecord`` (lhs <= rhs), or None when the inequality
does not apply to the set.  The inequalities are theorems, so a failing
verdict on a genuinely 3-sum-free input means an implementation bug (or
a falsified theorem) and the caller is expected to treat it as fatal.

Every checker of a single set requires a 3-sum-free input with
sup(A) = 1, and ``LemmaContext.from_set`` is the one place that checks
it.  A set that is not 3-sum-free raises ``NotSumFreeError``, a
``PreconditionError`` whose ``witness`` is a violating triple of the
caller's set.  Pass ``rescale=True`` to work on (1/sup A) * A instead,
which is flagged in the aggregate report.  Each single-set checker takes
a plain set, which it validates, or a ``LemmaContext``, which it uses as
it is: ``lemma_report`` and the tracer validate a set once and hand the
context to every checker.

Notation used throughout (all exact rationals):

    a    = inf A
    A1   = A & [2/3, 1]          the top window
    eps1 = inf(A1) - 2/3         slack before the top window starts
    eps2 = (1/3 - eps1) - mu(A1) mass missing from the top window

When A1 is empty its infimum is taken to be 1, so eps1 = 1/3 and
eps2 = 0; this keeps eps2 = 1/3 - eps1 - mu(A1) an identity for every
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .intervals import IntervalSet
from .predicates import NotSumFreeError, PreconditionError, Witness, is_k_sum_free
from .rationals import Rational, rational

__all__ = [
    "LemmaContext",
    "CheckRecord",
    "LemmaReport",
    "PreconditionError",
    "check_extent_bound",
    "check_top_window_bound",
    "check_tail_bound",
    "check_tail_equality",
    "check_dense_tail_bound",
    "check_superadditivity",
    "check_sumset_min_bound",
    "lemma_report",
    "window",
    "tail_cut",
]

_THIRD = rational(1, 3)
_TWO_THIRDS = rational(2, 3)


@dataclass(frozen=True)
class CheckRecord:
    """One exact inequality verdict: lhs <= rhs (or = for equalities)."""

    name: str
    lhs: Rational
    rhs: Rational
    passed: bool
    note: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return f"[{mark}] {self.name}: {self.lhs} <= {self.rhs}{extra}"


@dataclass(frozen=True)
class LemmaContext:
    """A checked set S with sup 1, and the quantities every checker reads.

    ``from_set`` runs the shared checks in this order: A is nonempty; A
    itself is 3-sum-free, else ``NotSumFreeError`` with a witness in A;
    sup A = 1, or with ``rescale=True`` S is (1/sup A) * A, flagged by
    ``rescaled``.  a, A1, eps1 and eps2 are those of S, ``measure`` is
    mu(S) and ``tail`` the tail mass mu(S & [2/9 + a/3, 1]).
    """

    a: Rational
    A1: IntervalSet
    eps1: Rational
    eps2: Rational
    S: IntervalSet
    rescaled: bool
    measure: Rational
    tail: Rational

    @classmethod
    def from_set(cls, A: IntervalSet, rescale: bool = False) -> "LemmaContext":
        if A.is_empty:
            raise PreconditionError("checker requires a nonempty set")
        ok, witness = is_k_sum_free(A, 3)
        if not ok:
            raise NotSumFreeError(witness)
        return cls._of(A, rescale)

    def head(self, R: IntervalSet) -> "LemmaContext":
        """The context of (1/sup R) * R for a nonempty subset R of S.

        R is 3-sum-free because S is, so it is not checked again.
        """
        return self._of(R, rescale=True)

    @classmethod
    def _of(cls, A: IntervalSet, rescale: bool) -> "LemmaContext":
        """The quantities of a nonempty set already known to be 3-sum-free."""
        s = A.sup()
        if s != 1:
            if not rescale:
                raise PreconditionError(
                    f"checker requires sup(A) = 1, got {s} (pass rescale=True)")
            if s <= 0:
                raise PreconditionError("cannot rescale a set with sup <= 0")
            A = A.dilate(1 / s)
        A1 = A.intersect(window(_TWO_THIRDS, rational(1)))
        inf_A1 = rational(1) if A1.is_empty else A1.inf()
        eps1 = inf_A1 - _TWO_THIRDS
        eps2 = (_THIRD - eps1) - A1.measure()
        a = A.inf()
        tail = A.intersect(window(tail_cut(a), 1)).measure()
        return cls(a, A1, eps1, eps2, A, s != 1, A.measure(), tail)


def window(lo, hi) -> IntervalSet:
    """Closed interval [lo, hi] as a set; empty when lo > hi."""
    lo, hi = rational(lo), rational(hi)
    if lo > hi:
        return IntervalSet.empty()
    return IntervalSet.interval(lo, hi, True, True)


def tail_cut(a) -> Rational:
    """The cut point 2/9 + a/3 splitting a set into head and tail."""
    return rational(2, 9) + rational(a) / 3


def _context(A: IntervalSet | LemmaContext, rescale: bool) -> LemmaContext:
    return A if isinstance(A, LemmaContext) else LemmaContext.from_set(A, rescale)


def check_extent_bound(A: IntervalSet | LemmaContext) -> CheckRecord:
    """mu(A) <= (2 sup A - inf A) / 4 for bounded 3-sum-free A in R+.

    A plain set may have any sup: it is validated with rescaling, as the
    inequality is scale-free, and bounded as given.
    """
    if isinstance(A, LemmaContext):
        A = A.S
    else:
        if A.is_empty:
            raise PreconditionError("extent bound requires a nonempty set")
        if A.inf() < 0:
            raise PreconditionError("extent bound requires A inside [0, +inf)")
        LemmaContext.from_set(A, rescale=True)
    mu, bound = A.measure(), (2 * A.sup() - A.inf()) / 4
    return CheckRecord("extent-bound", mu, bound, mu <= bound)


def check_top_window_bound(A: IntervalSet | LemmaContext, rescale: bool = False) -> CheckRecord:
    """mu(A) <= 1/3 + mu(A & [2/3,1]) / 2 for 3-sum-free A with sup = 1."""
    ctx = _context(A, rescale)
    bound = _THIRD + ctx.A1.measure() / 2
    return CheckRecord("top-window-bound", ctx.measure, bound, ctx.measure <= bound)


def check_tail_bound(A: IntervalSet | LemmaContext, rescale: bool = False) -> CheckRecord | None:
    """Piecewise bound on the tail mass mu(A & [2/9 + a/3, 1]).

    Applicable when eps1 + 2*eps2 <= 1/3, else None.  The bound is
    1/3 - eps1/6 when eps1 <= 2a/3 (named "tail-bound[small-eps1]"), and
    1/3 - (eps1 - 2a/3)/24 otherwise ("tail-bound[large-eps1]").
    """
    ctx = _context(A, rescale)
    if ctx.eps1 + 2 * ctx.eps2 > _THIRD:
        return None
    if ctx.eps1 <= 2 * ctx.a / 3:
        branch, bound = "small-eps1", _THIRD - ctx.eps1 / 6
    else:
        branch, bound = "large-eps1", _THIRD - (ctx.eps1 - 2 * ctx.a / 3) / 24
    return CheckRecord(f"tail-bound[{branch}]", ctx.tail, bound, ctx.tail <= bound)


def check_tail_equality(A: IntervalSet | LemmaContext,
                        rescale: bool = False) -> CheckRecord | None:
    """Tail mass exactly 1/3 forces eps1 = eps2 = 0.

    The verdict is eps1 + eps2 <= 0, and None when the tail mass is not
    1/3.  Rejects inf A <= 0, which for a 3-sum-free finite union means
    a set with negative points (0 in A gives 0 + 0 = 3*0, and an interval
    (0, e) gives x = y = 3z/2), and eps1 + 2*eps2 > 1/3.

    A failing verdict would falsify the rigidity statement; the suite
    treats it as fatal.
    """
    ctx = _context(A, rescale)
    if ctx.a <= 0:
        raise PreconditionError(f"tail equality requires inf A > 0, got {ctx.a}")
    if ctx.eps1 + 2 * ctx.eps2 > _THIRD:
        raise PreconditionError("tail equality requires eps1 + 2*eps2 <= 1/3")
    if ctx.tail != _THIRD:
        return None
    return CheckRecord("tail-equality-rigidity", ctx.eps1 + ctx.eps2, rational(0),
                       ctx.eps1 == 0 and ctx.eps2 == 0, note="tail mass is exactly 1/3")


def check_dense_tail_bound(A: IntervalSet | LemmaContext,
                           rescale: bool = False) -> CheckRecord | None:
    """mu(A) >= 5/12 implies tail mass mu(A & [a/3 + 2/9, 1]) <= 1/3.

    None when mu(A) < 5/12.
    """
    ctx = _context(A, rescale)
    if ctx.measure < rational(5, 12):
        return None
    return CheckRecord("dense-tail-bound", ctx.tail, _THIRD, ctx.tail <= _THIRD,
                       note="mu(A) >= 5/12")


def check_superadditivity(A: IntervalSet, B: IntervalSet) -> CheckRecord:
    """mu(A+B) >= mu(A) + mu(B) for nonempty bounded sets."""
    if A.is_empty or B.is_empty:
        raise PreconditionError("superadditivity requires nonempty operands")
    lhs = A.measure() + B.measure()
    rhs = A.minkowski(B).measure()
    return CheckRecord("sumset-superadditive", lhs, rhs, lhs <= rhs)


def check_sumset_min_bound(A: IntervalSet, B: IntervalSet) -> CheckRecord:
    """mu(A+B) >= min(2 mu(A) + mu(B), mu(A) + diam(B)) with mu(A) <= mu(B).

    Operands are swapped internally if needed.
    """
    if A.is_empty or B.is_empty:
        raise PreconditionError("sumset bound requires nonempty operands")
    if A.measure() > B.measure():
        A, B = B, A
    lhs = min(2 * A.measure() + B.measure(), A.measure() + B.diameter())
    rhs = A.minkowski(B).measure()
    return CheckRecord("sumset-min-bound", lhs, rhs, lhs <= rhs)


@dataclass
class LemmaReport:
    """All lemma verdicts for one set, plus the context they used."""

    original: IntervalSet
    checked: IntervalSet
    rescaled: bool
    context: LemmaContext
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]


def lemma_report(A: IntervalSet, rescale: bool = True) -> LemmaReport:
    """Run every applicable inequality check on one 3-sum-free set.

    Rejects sets that are empty, not inside [0, +inf), or not 3-sum-free
    (with the witness).  The set is validated once, into the context
    every checker is given.
    """
    if A.is_empty:
        raise PreconditionError("lemma report requires a nonempty set")
    if A.inf() < 0:
        raise PreconditionError("lemma report requires A inside [0, +inf)")
    ctx = LemmaContext.from_set(A, rescale)
    records = [check_extent_bound(ctx), check_top_window_bound(ctx), check_tail_bound(ctx)]
    if records[-1] is not None:
        # a > 0 here: inf A >= 0 was checked and a 3-sum-free set misses 0;
        # eps1 + 2*eps2 <= 1/3 because the tail bound applies
        records.append(check_tail_equality(ctx))
    records.append(check_dense_tail_bound(ctx))
    records = [r for r in records if r is not None]

    comps = [IntervalSet([c]) for c in ctx.S.components]
    for i in range(len(comps)):
        for j in range(i, len(comps)):
            rec = check_sumset_min_bound(comps[i], comps[j])
            records.append(replace(rec, name=f"sumset-min-bound({i},{j})"))

    return LemmaReport(A, ctx.S, ctx.rescaled, ctx, records)
