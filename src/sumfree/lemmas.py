"""Executable verifiers for the measure inequalities of 3-sum-free sets.

Each checker evaluates one proved inequality on a concrete interval
set, with exact rational arithmetic and no tolerance, and returns its
verdict as a ``CheckRecord`` (lhs <= rhs), or None when the inequality
does not apply to the set.  The inequalities are theorems, so a failing
verdict on a genuinely 3-sum-free input means an implementation bug (or
a falsified theorem) and the caller is expected to treat it as fatal.

Every checker of a single set takes a ``LemmaContext``: a nonempty
3-sum-free set inside [0, +inf) with sup 1.  ``LemmaContext.from_set``
is the one place that checks a set.  A set that is not 3-sum-free
raises ``NotSumFreeError``, a ``PreconditionError`` whose ``witness`` is
a violating triple of the caller's set.  Pass ``rescale=True`` to work
on (1/sup A) * A instead, which is flagged in the aggregate report.
``lemma_report`` and the tracer take their context from ``from_set``
and hand it to every checker.  Each quantity is built once per set
across all entry points: the caller's own check, ``lemma_report``, the
tracer and the containment check.  ``is_k_sum_free`` keeps the
3-sum-free verdict on the set, and with it the codes of A+A, which
``minkowski`` reads for the sumset bound on (S, S), also when S is the
rescaled set; ``from_set`` keeps the context on the set, so the report
and the trace of one set share it.  The windows A1 and R are cut with
``IntervalSet.clip``, in integer codes, with no window set built.

Notation used throughout (all exact rationals):

    a    = inf A
    A1   = A & [2/3, 1]          the top window
    eps1 = inf(A1) - 2/3         slack before the top window starts
    eps2 = (1/3 - eps1) - mu(A1) mass missing from the top window
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .intervals import IntervalSet
from .predicates import NotSumFreeError, PreconditionError, is_k_sum_free
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
    lies inside [0, +inf); A itself is 3-sum-free, else
    ``NotSumFreeError`` with a witness in A; sup A = 1, or with
    ``rescale=True`` S is (1/sup A) * A, flagged by ``rescaled``.  a,
    A1, eps1 and eps2 are those of S, ``measure`` is mu(S), ``R`` the
    head S & [a, 2/9 + a/3] and ``tail`` the tail mass
    mu(S & [2/9 + a/3, 1]) = mu(S) - mu(R).  ``mu_A1`` and ``mu_R`` are
    mu(A1) and mu(R), kept so no checker measures them again.

    ``from_set`` keeps the context on A together with ``rescale`` and
    returns it to a repeat call with the same flag; a call that raises
    keeps nothing, so it raises again on every call.  When sup A = 1 the
    context's S is A itself, a reference cycle that the garbage
    collector frees.
    """

    a: Rational
    A1: IntervalSet
    eps1: Rational
    eps2: Rational
    S: IntervalSet
    rescaled: bool
    measure: Rational
    R: IntervalSet
    tail: Rational
    mu_A1: Rational
    mu_R: Rational

    @classmethod
    def from_set(cls, A: IntervalSet, rescale: bool = False) -> "LemmaContext":
        memo = getattr(A, "_context", None)
        if memo is not None and memo[0] == rescale:
            return memo[1]
        if A.is_empty:
            raise PreconditionError("checker requires a nonempty set")
        if A.inf() < 0:
            raise PreconditionError("checker requires A inside [0, +inf)")
        ok, witness = is_k_sum_free(A, 3)
        if not ok:
            raise NotSumFreeError(witness)
        ctx = cls._of(A, rescale)
        object.__setattr__(A, "_context", (rescale, ctx))
        return ctx

    def head(self, R: IntervalSet) -> "LemmaContext":
        """The context of (1/sup R) * R for a nonempty subset R of S.

        R is 3-sum-free because S is, so it is not checked again.
        """
        return self._of(R, rescale=True)

    @classmethod
    def _of(cls, A: IntervalSet, rescale: bool) -> "LemmaContext":
        """The quantities of a nonempty 3-sum-free set inside [0, +inf).

        0 is not in such a set (0 + 0 = 3*0), so sup A > 0.  After scaling
        sup S = 1, so S has points in [2/3, 1] and A1 is nonempty.
        """
        s = A.sup()
        if s != 1:
            if not rescale:
                raise PreconditionError(
                    f"checker requires sup(A) = 1, got {s} (pass rescale=True)")
            A = A.dilate(1 / s)
        A1 = A.clip(_TWO_THIRDS, 1)
        mu_A1 = A1.measure()
        eps1 = A1.inf() - _TWO_THIRDS
        eps2 = (_THIRD - eps1) - mu_A1
        a = A.inf()
        # A lies in [a, 1] and the head and tail windows share one point
        R = A.clip(a, tail_cut(a))
        mu, mu_R = A.measure(), R.measure()
        return cls(a, A1, eps1, eps2, A, s != 1, mu, R, mu - mu_R, mu_A1, mu_R)


def tail_cut(a) -> Rational:
    """The cut point 2/9 + a/3 splitting a set into head and tail."""
    return rational(2, 9) + rational(a) / 3


def check_extent_bound(ctx: LemmaContext) -> CheckRecord:
    """mu(S) <= (2 - a) / 4 for 3-sum-free S in R+ with sup 1, a = inf S.

    This is mu(A) <= (2 sup A - inf A) / 4 at sup A = 1.
    """
    bound = (2 - ctx.a) / 4
    return CheckRecord("extent-bound", ctx.measure, bound, ctx.measure <= bound)


def check_top_window_bound(ctx: LemmaContext) -> CheckRecord:
    """mu(S) <= 1/3 + mu(S & [2/3,1]) / 2 for 3-sum-free S with sup = 1."""
    bound = _THIRD + ctx.mu_A1 / 2
    return CheckRecord("top-window-bound", ctx.measure, bound, ctx.measure <= bound)


def check_tail_bound(ctx: LemmaContext) -> CheckRecord | None:
    """Piecewise bound on the tail mass mu(S & [2/9 + a/3, 1]).

    Applicable when eps1 + 2*eps2 <= 1/3, else None.  The bound is
    1/3 - eps1/6 when eps1 <= 2a/3 (named "tail-bound[small-eps1]"), and
    1/3 - (eps1 - 2a/3)/24 otherwise ("tail-bound[large-eps1]").
    """
    if ctx.eps1 + 2 * ctx.eps2 > _THIRD:
        return None
    if ctx.eps1 <= 2 * ctx.a / 3:
        branch, bound = "small-eps1", _THIRD - ctx.eps1 / 6
    else:
        branch, bound = "large-eps1", _THIRD - (ctx.eps1 - 2 * ctx.a / 3) / 24
    return CheckRecord(f"tail-bound[{branch}]", ctx.tail, bound, ctx.tail <= bound)


def check_tail_equality(ctx: LemmaContext) -> CheckRecord | None:
    """Tail mass exactly 1/3 forces eps1 = eps2 = 0.

    The verdict is eps1 + eps2 <= 0.  None where the tail bound does not
    apply (eps1 + 2*eps2 > 1/3) and when the tail mass is not 1/3.  The
    statement needs a > 0, which every context has: 0 in S gives
    0 + 0 = 3*0, and an interval (0, e) in S gives x = y = 3z/2.

    A failing verdict would falsify the rigidity statement; the suite
    treats it as fatal.
    """
    if ctx.eps1 + 2 * ctx.eps2 > _THIRD or ctx.tail != _THIRD:
        return None
    return CheckRecord("tail-equality-rigidity", ctx.eps1 + ctx.eps2, rational(0),
                       ctx.eps1 == 0 and ctx.eps2 == 0, note="tail mass is exactly 1/3")


def check_dense_tail_bound(ctx: LemmaContext) -> CheckRecord | None:
    """mu(S) >= 5/12 implies tail mass mu(S & [a/3 + 2/9, 1]) <= 1/3.

    None when mu(S) < 5/12.
    """
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


def check_sumset_min_bound(A: IntervalSet, B: IntervalSet, mA: Rational | None = None,
                           mB: Rational | None = None) -> CheckRecord:
    """mu(A+B) >= min(2 mu(A) + mu(B), mu(A) + diam(B)) with mu(A) <= mu(B).

    Operands are swapped internally if needed.  A caller that already
    holds mu(A) or mu(B) passes it as ``mA`` or ``mB``.
    """
    if A.is_empty or B.is_empty:
        raise PreconditionError("sumset bound requires nonempty operands")
    if mA is None:
        mA = A.measure()
    if mB is None:
        mB = B.measure()
    if mA > mB:
        A, B, mA, mB = B, A, mB, mA
    lhs = min(2 * mA + mB, mA + B.diameter())
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

    The set is checked by ``LemmaContext.from_set``, into the context
    every checker is given; the verdict, the context and S+S are built
    once per set across all entry points (see the module docstring).
    The records, in order: extent-bound, top-window-bound, then
    tail-bound, tail-equality-rigidity and dense-tail-bound where they
    apply, then the sumset bound on the two pairs the proof uses,
    sumset-min-bound(S,S) and, when the head R is nonempty,
    sumset-min-bound(R,A1).
    """
    ctx = LemmaContext.from_set(A, rescale)
    records = [r for r in (check_extent_bound(ctx), check_top_window_bound(ctx),
                           check_tail_bound(ctx), check_tail_equality(ctx),
                           check_dense_tail_bound(ctx)) if r is not None]
    records.append(replace(check_sumset_min_bound(ctx.S, ctx.S, ctx.measure, ctx.measure),
                           name="sumset-min-bound(S,S)"))
    if not ctx.R.is_empty:
        records.append(replace(check_sumset_min_bound(ctx.R, ctx.A1, ctx.mu_R, ctx.mu_A1),
                               name="sumset-min-bound(R,A1)"))
    return LemmaReport(A, ctx.S, ctx.rescaled, ctx, records)
