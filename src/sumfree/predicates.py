"""k-sum-free predicates on interval sets.

A set A is k-sum-free when no x, y, z in A satisfy x + y = k*z (x = y
is allowed).  Set-theoretically this says (A+A) and k*A are disjoint,
or equivalently that (1/k)*(A+A) misses A, which is how the exact
predicate is evaluated here.  When a violation exists we extract an
explicit witness triple constructively, so a "not sum-free" verdict is
always checkable by plain arithmetic.

k = 2 is degenerate: x + x = 2x for every x, so any nonempty set fails
with a witness (x, x, x).  The predicate accepts k = 2 and reports
exactly that; nothing is special-cased.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import (_DIFFERENCE, _INTERSECT, IntervalSet, _scaled, _self_sumset_codes,
                        _sweep_codes)
from .rationals import Rational, rational

__all__ = [
    "Witness",
    "PreconditionError",
    "NotSumFreeError",
    "conflicts",
    "is_k_sum_free",
    "forbidden_region",
    "strip",
]


@dataclass(frozen=True)
class Witness:
    """An explicit solution x + y = k*z with all three members of the set."""

    x: Rational
    y: Rational
    z: Rational
    k: int

    def holds_in(self, A: IntervalSet) -> bool:
        return (
            self.x + self.y == self.k * self.z
            and self.x in A
            and self.y in A
            and self.z in A
        )

    def __str__(self) -> str:
        return f"x={self.x}, y={self.y}, z={self.z} with x+y = {self.k}*z"


class PreconditionError(ValueError):
    """A checker precondition does not hold for the given set."""


class NotSumFreeError(PreconditionError):
    """A precondition demanded a k-sum-free set; carries the violating triple.

    Being k-sum-free is a checker precondition like any other, so this is
    a ``PreconditionError`` (and through it a ``ValueError``): a caller
    that catches ``PreconditionError`` also catches a non-sum-free input.
    """

    def __init__(self, witness: Witness):
        self.witness = witness
        super().__init__(f"set is not {witness.k}-sum-free: {witness}")


def _conflict_codes(codes, k: int, sums) -> list:
    """The codes over kD of the z in a set with k*z in its sumset, given
    the set's codes over D and the codes ``sums`` of its sumset over D;
    empty iff the set is k-sum-free.

    The sums over D are the codes of (1/k)(A+A) over kD, so they meet the
    set's codes scaled by k directly, in one sweep.
    """
    return _sweep_codes(_scaled(codes, k), sums, _INTERSECT)


def conflicts(A: IntervalSet, k: int) -> IntervalSet:
    """The z in A with k*z in A+A; empty iff A is k-sum-free (k >= 1).

    Equal to ``A.minkowski(A).dilate(1/k).intersect(A)``.  The codes of
    A+A are kept on A, for any k, so a later ``A.minkowski(A)``, the
    sumset bound on (A, A), or either on a dilation of A, merges no sums
    again.
    """
    sums = getattr(A, "_sums", None)
    if sums is None:
        sums = _self_sumset_codes(A._codes)
        object.__setattr__(A, "_sums", sums)
    return IntervalSet._of(A._den * k, _conflict_codes(A._codes, k, sums))


def strip(A: IntervalSet) -> IntervalSet:
    """A' = A \\ (1/3)(A+A), which is 3-sum-free for every A.

    x + y = 3z in A' would put z in (1/3)(A'+A'), a subset of
    (1/3)(A+A), which A' misses.  Equal to
    ``A.difference(A.minkowski(A).dilate(1/3))``.  The sums are not
    kept on A, which is the raw sample of ``random_sum_free`` and is
    dropped after the strip.
    """
    codes = _sweep_codes(_scaled(A._codes, 3), _self_sumset_codes(A._codes), _DIFFERENCE)
    return IntervalSet._of(A._den * 3, codes)


def is_k_sum_free(A: IntervalSet, k: int):
    """Exact predicate; returns (True, None) or (False, witness).

    A must be bounded (always true for finite interval unions); k is an
    int >= 1 (a bool or a float such as 3.0 is rejected).  The verdict
    is kept on A with its k, so a repeat call on the same object with
    the same k returns it, witness included, without recomputing; a
    call with another k replaces it.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    memo = getattr(A, "_verdict", None)
    if memo is not None and memo[0] == k:
        return memo[1]
    conflict = conflicts(A, k)
    if conflict.is_empty:
        verdict = True, None
    else:
        verdict = False, _extract_witness(A, conflict, k)
    object.__setattr__(A, "_verdict", (k, verdict))
    return verdict


def _midpoint(S: IntervalSet) -> Rational:
    """The midpoint of the first component of a nonempty set, read from
    its first two codes."""
    return rational((S._codes[0] >> 1) + (S._codes[1] >> 1), 2 * S._den)


def _extract_witness(A: IntervalSet, conflict: IntervalSet, k: int) -> Witness:
    """Pick z in the first conflict component, then split k*z as x + y.

    z is that component's midpoint, so it lies in A and in (1/k)(A+A).
    The points x of A with k*z - x also in A form A & (k*z - A), which
    is nonempty because k*z lies in A+A; x is the midpoint of its first
    component.  That set is symmetric about k*z/2, so x <= y = k*z - x.
    Both midpoints are read from the sets' first two codes, so no other
    component is built as Fractions.
    """
    z = _midpoint(conflict)
    target = k * z
    x = _midpoint(A.intersect(A.reflect().translate(target)))
    w = Witness(x, target - x, z, k)
    if not w.holds_in(A):
        raise AssertionError(f"internal witness extraction failed: {w}")
    return w


def forbidden_region(A: IntervalSet) -> IntervalSet:
    """The points that cannot join A:
    F(A) = (1/3)(A+A) | (3A - A) | (3/2)A | (1/2)A | {0}.

    The region is complete: a point p not in a 3-sum-free A can join A,
    leaving it 3-sum-free, iff p is not in F(A).  A new solution of
    x + y = 3z must use p, and each part collects one way to use it: as
    z alone, p is in (1/3)(A+A); as x or y alone, p = 3z - y is in
    3A - A; as x = y, 2p = 3z puts p in (3/2)A; as x = z (or y = z),
    p + y = 3p puts p in (1/2)A; and x = y = z = p forces p = 0.  For
    the same reasons A itself is 3-sum-free iff it misses F(A).
    """
    if A.is_empty:
        raise ValueError("forbidden region of the empty set is undefined")
    return (A.minkowski(A).dilate(rational(1, 3))
            .union(A.dilate(3).minkowski(A.reflect()))
            .union(A.dilate(rational(3, 2)))
            .union(A.dilate(rational(1, 2)))
            .union(IntervalSet.point(rational(0))))
