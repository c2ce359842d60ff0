"""Executable verifiers for the measure inequalities of 3-sum-free sets.

Each checker evaluates one proved inequality on a concrete interval
set, with exact rational arithmetic and no tolerance, and returns its
verdict as a ``CheckRecord``, or None when the inequality does not
apply to the set.  Every record states its inequality as lhs <= rhs and
passes exactly when that holds.  The inequalities are theorems, so a failing
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
``check_sumset_min_bound`` measures for the bound on (S, S), also when
S is the rescaled set.  ``from_set`` keeps one context on the set, so
the report and the trace of one set share it: its S always has sup 1,
and the rescale flag only decides whether a rescaled context may be
returned.  A ``rescale=False`` call on a set whose sup is not 1 is
refused and keeps the context, which a later ``rescale=True`` call
returns.

A context's quantities are ints over N = 648 * D, D the denominator of
S, and a checker compares ints: its ``CheckRecord`` keeps both sides as
ints over N and decides its verdict on them.  A ``Fraction`` is built
only when a record's side or margin, or a public field of the context,
is read.  The windows A1 and R are cut with ``IntervalSet._clip``,
measured with ``IntervalSet._mass`` and their ends read with
``IntervalSet._end``, all over N.  648 = 2^3 * 3^4 makes every division
in the checkers and in the tracer exact.  Over N an endpoint of S is a
multiple of 648 and 1/3 is 216 * D, so a and mu(S) are multiples of 648;
eps1, eps2 and mu(A1), whose ends are endpoints or 2/3, are multiples of
216 = 8 * 27, so eps1/6, 3*eps1/8 and (eps1 - 2a/3)/24 are ints; the
head's ends, endpoints or 2/9 + a/3, are multiples of 72, so r/3, 4r/9,
5r/12, (r - a)/2, (2r - a)/6 and the end 2r/9 + a/3 of the second head
R0 are ints, the latter a multiple of 8, and (2b - a)/4 is one; and 81,
54 and 36 divide 648 for the constants 8/81, 10/81, 5/54 and 5a/36, as
108 does for 7a/108.  The head (1/r) * R gets a context of its own, over
its own N.  The two conditions the proof branches on are stated once
each, on the context: ``tail_applies`` (eps1 + 2*eps2 <= 1/3) and
``dense`` (mu(S) >= 5/12).

Notation used throughout (exact rationals; a context holds each as an
int over its N):

    a    = inf A
    A1   = A & [2/3, 1]          the top window
    eps1 = inf(A1) - 2/3         slack before the top window starts
    eps2 = (1/3 - eps1) - mu(A1) mass missing from the top window
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intervals import IntervalSet, _codes_mass, _self_sumset_codes, _sumset_codes
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
]


class CheckRecord:
    """One exact inequality, stated as its two sides: lhs <= rhs.

    Both sides are held as ints over one positive denominator, so
    ``passed``, True exactly when lhs <= rhs, compares two ints and
    builds no Fraction.  ``lhs`` and ``rhs`` are Fractions built on
    their first read and kept; ``margin``, the exact rhs - lhs, is built
    from the ints on every read.  ``CheckRecord(name, lhs, rhs, note)``
    takes the sides as rationals, and ``_over`` as two ints over one
    denominator.  A record is immutable: assigning any attribute raises
    ``AttributeError``.  Two records are equal, and hash alike, when
    their names, sides and notes are equal.
    """

    # _lhs and _rhs are left unset by _over until a side is read
    __slots__ = ("name", "note", "_lhs_n", "_rhs_n", "_den", "_lhs", "_rhs")

    def __init__(self, name: str, lhs: Rational, rhs: Rational, note: str = "") -> None:
        p, q = lhs.denominator, rhs.denominator
        _fill(self, name, lhs.numerator * q, rhs.numerator * p, p * q, note)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)

    @classmethod
    def _over(cls, name: str, lhs: int, rhs: int, den: int, note: str = "") -> "CheckRecord":
        """The record lhs/den <= rhs/den of two ints over a positive den."""
        rec = object.__new__(cls)
        _fill(rec, name, lhs, rhs, den, note)
        return rec

    def __setattr__(self, name, value):
        raise AttributeError("CheckRecord is immutable")

    def __delattr__(self, name):
        raise AttributeError("CheckRecord is immutable")

    def __reduce__(self):
        # pickle and copy rebuild a record through _over, as they may not
        # set its fields
        return CheckRecord._over, (self.name, self._lhs_n, self._rhs_n, self._den, self.note)

    @property
    def lhs(self) -> Rational:
        v = getattr(self, "_lhs", None)
        if v is None:
            v = rational(self._lhs_n, self._den)
            _set_lhs(self, v)
        return v

    @property
    def rhs(self) -> Rational:
        v = getattr(self, "_rhs", None)
        if v is None:
            v = rational(self._rhs_n, self._den)
            _set_rhs(self, v)
        return v

    @property
    def passed(self) -> bool:
        return self._lhs_n <= self._rhs_n

    @property
    def margin(self) -> Rational:
        """rhs - lhs, exact; negative exactly when the record fails."""
        return rational(self._rhs_n - self._lhs_n, self._den)

    def renamed(self, name: str, note: str | None = None) -> "CheckRecord":
        """The same inequality under another name, and another note if given."""
        return CheckRecord._over(name, self._lhs_n, self._rhs_n, self._den,
                                 self.note if note is None else note)

    def _key(self) -> tuple:
        return self.name, self.lhs, self.rhs, self.note

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(name={self.name!r}, lhs={self.lhs!r}, "
                f"rhs={self.rhs!r}, note={self.note!r})")

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return f"[{mark}] {self.name}: {self.lhs} <= {self.rhs}{extra}"


# a record refuses __setattr__, so its fields are stored through the
# setters of its slots, which skip the lookup of object.__setattr__
_set_name, _set_note, _set_lhs_n, _set_rhs_n, _set_den, _set_lhs, _set_rhs = (
    vars(CheckRecord)[slot].__set__ for slot in CheckRecord.__slots__)


def _fill(rec, name: str, lhs: int, rhs: int, den: int, note: str) -> None:
    """Store the fields of a new ``CheckRecord``: lhs/den <= rhs/den."""
    _set_name(rec, name)
    _set_note(rec, note)
    _set_lhs_n(rec, lhs)
    _set_rhs_n(rec, rhs)
    _set_den(rec, den)


def _fraction(name: str) -> property:
    """The public Fraction value of the int field ``name`` over N."""
    return property(lambda self: rational(getattr(self, name), self.N),
                    doc=f"``{name} / N`` as an exact rational, built on read.")


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

    Each of these numbers is held as an int over ``N = 648 * D``, D the
    denominator of S: ``a_N`` is a * N, and so on.  The Fractions a,
    eps1, eps2, measure, mu_A1, mu_R and tail are built only when read.

    ``from_set`` keeps the one context of A on A and returns it to every
    later call; a ``rescale=False`` call on a context that is
    ``rescaled`` is refused, and the context stays.  A check that fails
    keeps nothing, so it raises again on every call.  When sup A = 1 the
    context's S is A itself, a reference cycle that the garbage
    collector frees.
    """

    S: IntervalSet
    rescaled: bool
    A1: IntervalSet
    R: IntervalSet
    N: int
    a_N: int
    eps1_N: int
    eps2_N: int
    measure_N: int
    mu_A1_N: int
    mu_R_N: int

    a = _fraction("a_N")
    eps1 = _fraction("eps1_N")
    eps2 = _fraction("eps2_N")
    measure = _fraction("measure_N")
    mu_A1 = _fraction("mu_A1_N")
    mu_R = _fraction("mu_R_N")
    tail = _fraction("tail_N")

    @property
    def tail_N(self) -> int:
        return self.measure_N - self.mu_R_N

    @property
    def tail_applies(self) -> bool:
        """eps1 + 2*eps2 <= 1/3: the tail bound and the auxiliary windows
        apply, and a head with this property takes Case1."""
        return self.eps1_N + 2 * self.eps2_N <= self.N // 3

    @property
    def dense(self) -> bool:
        """mu(S) >= 5/12: the dense tail bound applies, and the tracer
        does not exit early."""
        return self.measure_N >= 5 * self.N // 12

    @classmethod
    def from_set(cls, A: IntervalSet, rescale: bool = False) -> "LemmaContext":
        ctx = getattr(A, "_context", None)
        if ctx is None:
            if A.is_empty:
                raise PreconditionError("checker requires a nonempty set")
            if A._end(A._den, 0) < 0:
                raise PreconditionError("checker requires A inside [0, +inf)")
            ok, witness = is_k_sum_free(A, 3)
            if not ok:
                raise NotSumFreeError(witness)
            ctx = cls._of(A)
            object.__setattr__(A, "_context", ctx)
        if ctx.rescaled and not rescale:
            raise PreconditionError(
                f"checker requires sup(A) = 1, got {A.sup()} (pass rescale=True)")
        return ctx

    def head(self, R: IntervalSet) -> "LemmaContext":
        """The context of (1/sup R) * R for a nonempty subset R of S.

        R is 3-sum-free because S is, so it is not checked again.
        """
        return self._of(R)

    def _record(self, name: str, lhs: int, rhs: int, note: str = "") -> CheckRecord:
        """The record lhs <= rhs of two ints over N."""
        return CheckRecord._over(name, lhs, rhs, self.N, note)

    @classmethod
    def _of(cls, A: IntervalSet) -> "LemmaContext":
        """The quantities of a nonempty 3-sum-free set inside [0, +inf),
        scaled to sup 1.

        0 is not in such a set (0 + 0 = 3*0), so sup A > 0.  After scaling
        sup S = 1, so S has points in [2/3, 1] and A1 is nonempty.
        """
        top = A._end(A._den, -1)  # sup A is top / D
        rescaled = top != A._den
        if rescaled:
            A = A.dilate(rational(A._den, top))
        N = 648 * A._den
        A1 = A._clip(2 * N // 3, N, N)
        mu_A1 = A1._mass(N)
        eps1 = A1._end(N, 0) - 2 * N // 3
        a = A._end(N, 0)
        # A lies in [a, 1] and the head and tail windows share one point
        R = A._clip(a, 2 * N // 9 + a // 3, N)
        eps2 = N // 3 - eps1 - mu_A1
        return cls(A, rescaled, A1, R, N, a, eps1, eps2, A._mass(N), mu_A1, R._mass(N))


def check_extent_bound(ctx: LemmaContext) -> CheckRecord:
    """mu(S) <= (2 - a) / 4 for 3-sum-free S in R+ with sup 1, a = inf S.

    This is mu(A) <= (2 sup A - inf A) / 4 at sup A = 1.
    """
    return ctx._record("extent-bound", ctx.measure_N, (2 * ctx.N - ctx.a_N) // 4)


def check_top_window_bound(ctx: LemmaContext) -> CheckRecord:
    """mu(S) <= 1/3 + mu(S & [2/3,1]) / 2 for 3-sum-free S with sup = 1."""
    return ctx._record("top-window-bound", ctx.measure_N, ctx.N // 3 + ctx.mu_A1_N // 2)


def check_tail_bound(ctx: LemmaContext) -> CheckRecord | None:
    """Piecewise bound on the tail mass mu(S & [2/9 + a/3, 1]).

    Applicable when eps1 + 2*eps2 <= 1/3, else None.  The bound is
    1/3 - eps1/6 when eps1 <= 2a/3 (named "tail-bound[small-eps1]"), and
    1/3 - (eps1 - 2a/3)/24 otherwise ("tail-bound[large-eps1]").
    """
    if not ctx.tail_applies:
        return None
    N, a, e1 = ctx.N, ctx.a_N, ctx.eps1_N
    if e1 <= 2 * a // 3:
        branch, bound = "small-eps1", N // 3 - e1 // 6
    else:
        branch, bound = "large-eps1", N // 3 - (e1 - 2 * a // 3) // 24
    return ctx._record(f"tail-bound[{branch}]", ctx.tail_N, bound)


def check_tail_equality(ctx: LemmaContext) -> CheckRecord | None:
    """Tail mass exactly 1/3 forces eps1 = eps2 = 0.

    The verdict is eps1 + eps2 <= 0, which holds exactly when both are 0:
    neither is negative, because A1 lies in [2/3 + eps1, 1], so
    eps1 >= 0 and mu(A1) <= 1/3 - eps1.  None where the tail bound does
    not apply (eps1 + 2*eps2 > 1/3) and when the tail mass is not 1/3.  The
    statement needs a > 0, which every context has: 0 in S gives
    0 + 0 = 3*0, and an interval (0, e) in S gives x = y = 3z/2.

    A failing verdict would falsify the rigidity statement; the suite
    treats it as fatal.
    """
    if not ctx.tail_applies or ctx.tail_N != ctx.N // 3:
        return None
    return ctx._record("tail-equality-rigidity", ctx.eps1_N + ctx.eps2_N, 0,
                       note="tail mass is exactly 1/3")


def check_dense_tail_bound(ctx: LemmaContext) -> CheckRecord | None:
    """mu(S) >= 5/12 implies tail mass mu(S & [a/3 + 2/9, 1]) <= 1/3.

    None when mu(S) < 5/12.
    """
    if not ctx.dense:
        return None
    return ctx._record("dense-tail-bound", ctx.tail_N, ctx.N // 3, note="mu(A) >= 5/12")


def check_superadditivity(A: IntervalSet, B: IntervalSet) -> CheckRecord:
    """mu(A+B) >= mu(A) + mu(B) for nonempty bounded sets."""
    if A.is_empty or B.is_empty:
        raise PreconditionError("superadditivity requires nonempty operands")
    return CheckRecord("sumset-superadditive", A.measure() + B.measure(),
                       A.minkowski(B).measure())


def check_sumset_min_bound(A: IntervalSet, B: IntervalSet) -> CheckRecord:
    """mu(A+B) >= min(2 mu(A) + mu(B), mu(A) + diam(B)) with mu(A) <= mu(B).

    Operands are swapped internally if needed.  Every term is an int over
    the least common denominator of A and B, and no set and no Fraction
    is built: mu(A+B) is measured on the codes of A+A that A keeps (see
    ``predicates.conflicts``) when B is A, else on the sums of the two
    code lists.
    """
    if A.is_empty or B.is_empty:
        raise PreconditionError("sumset bound requires nonempty operands")
    if A is B:
        den = A._den
        sums = getattr(A, "_sums", None)
        if sums is None:
            sums = _self_sumset_codes(A._codes)
        nA = nB = A._mass(den)
    else:
        den, a, b = A._aligned(B)
        sums = _sumset_codes(a, b)
        nA, nB = A._mass(den), B._mass(den)
        if nA > nB:
            A, B, nA, nB = B, A, nB, nA
    diam = B._end(den, -1) - B._end(den, 0)
    return CheckRecord._over("sumset-min-bound", min(2 * nA + nB, nA + diam),
                             _codes_mass(sums), den)


@dataclass
class LemmaReport:
    """All lemma verdicts for one set, plus the context they used.

    ``checked`` and ``rescaled`` are read from the context: the checked
    set S and whether it is a rescaled copy of the caller's set.
    """

    context: LemmaContext
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def checked(self) -> IntervalSet:
        return self.context.S

    @property
    def rescaled(self) -> bool:
        return self.context.rescaled

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
    records.append(check_sumset_min_bound(ctx.S, ctx.S).renamed("sumset-min-bound(S,S)"))
    if not ctx.R.is_empty:
        records.append(check_sumset_min_bound(ctx.R, ctx.A1).renamed("sumset-min-bound(R,A1)"))
    return LemmaReport(ctx, records)
