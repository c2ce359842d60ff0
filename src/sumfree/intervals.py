"""Exact algebra of finite unions of rational intervals.

An IntervalSet is a canonical, sorted union of disjoint non-adjacent
intervals with open/closed endpoint flags tracked exactly.  All
operations are pure and exact; values are immutable and safe to share
between threads.  A set caches four values, all pure functions of its
``(D, codes)``: the component tuple, built on first read; the last
k-sum-free verdict, stored by ``predicates.is_k_sum_free`` together
with its k; the codes of A+A over D, stored by ``predicates.conflicts``,
read by ``minkowski`` and ``lemmas.check_sumset_min_bound`` when both
operands are the set and carried by ``dilate``, as
alpha(A+A) = alpha A + alpha A; and the set's
``lemmas.LemmaContext``, stored by ``LemmaContext.from_set``, one per
set whatever the rescale flag.  Each is one attribute store of a value
that is complete before the store and never changed after it (the sum
codes are a list that no code mutates), so a thread reads either
nothing or a complete value, and a verdict is read together with the k
it answers; threads that race compute and store equal values, or for a
different k replace each other's.

Endpoint topology matters here: adjoining or removing single endpoints
changes which sets are sum-free, so measure-only representations are
not enough.  Measure itself ignores endpoints (a singleton has measure
zero), and for these sets inner measure coincides with measure.

Encoding.  A set stores one common denominator ``D`` and a flat,
strictly increasing list of int *codes*, two per component.  An
endpoint ``p/D`` is coded as::

    closed lo -> 2p      open lo -> 2p+1
    closed hi -> 2p+1    open hi -> 2p

so the integer ``2p`` stands for the point ``p/D`` and ``2p+1`` for the
open gap ``(p/D, (p+1)/D)``, and every component is the half-open
integer range ``[lo, hi)``.  Invariants:

* ``c >> 1`` is a code's value ``p`` and ``c & 1`` its flag; the shift
  floors, so negative values decode right (code -3 is an open lo at
  -2/D, since -3 >> 1 == -2);
* codes strictly increase, so components are nonempty, disjoint and
  not adjacent: ranges that touch, such as [a, b) and [b, c), are one;
* ``D`` is the least common denominator of the endpoints, that is
  gcd(D, every c >> 1) == 1.

So each point set has exactly one code list, and two sets are equal if
and only if their ``(D, codes)`` are.  Boolean operations are one sweep
over the two code lists put on their least common denominator; the
sumset adds codes pairwise and sort-merges plain ints, and the sumset of
a set with itself adds only the pairs of components i <= j, since the
pair (j, i) gives the same range.  ``Fraction`` values are built only
for what a caller reads: ``components``, the extrema and ``measure``;
everything else, the proof checkers of ``lemmas`` and ``trace``
included, works on ints.  The sweep, the pairwise sums, the merge and
the scaling are module-level helpers on code lists, which
``predicates`` and ``optimize`` call directly: the codes of A+A over D
are those of (1/k)(A+A) over kD, so a set meets its own scaled sumset
in one sweep, and the optimizer closes an endpoint by rewriting one
code, with no intermediate set and no ``Fraction``.

Windows.  ``_clip(lo, hi, den)`` cuts a set to the closed window
[lo/den, hi/den], for ints lo and hi over a multiple den of D: the
window is the code range [2lo, 2hi+1) over den, and two bisections
find the codes inside it.  ``_mass(den, lo, hi)`` is the int numerator
over den of the measure of the same window's part of the set, summed
over the components with no set built; either end may be left open.
``_end(den, i)`` is the inf or sup as an int over den.  ``lemmas`` and
``trace`` read windows, masses and extrema through these three and
decode no code themselves.  ``parse`` reads each endpoint as an int
numerator and denominator and codes it over their least common
denominator, building no ``Fraction``.

Canonical text form, accepted and emitted by :meth:`IntervalSet.parse`
and ``str()``::

    {}                                     the empty set
    (8/177,4/59)|(28/177,14/59)|(2/3,1)    components joined by "|"

``(`` / ``)`` mark open endpoints, ``[`` / ``]`` closed ones.  The
parser tolerates overlaps, unreduced fractions and arbitrary order and
normalizes; the emitter always prints canonical form.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, lcm

from .rationals import Rational, rational

__all__ = [
    "Interval",
    "IntervalSet",
    "EmptySetError",
    "ParseError",
]


class EmptySetError(ValueError):
    """Raised when an extremum (inf/sup/diameter) of the empty set is asked for."""


class ParseError(ValueError):
    """Malformed set text; carries the character position of the defect."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} at position {pos}: {text!r}")


@dataclass(frozen=True)
class Interval:
    """One connected piece with rational endpoints and open/closed flags.

    A raw Interval may be degenerate (lo > hi, or lo == hi without both
    endpoints closed); an IntervalSet drops such pieces.  Every
    component of an IntervalSet satisfies lo < hi, or lo == hi with
    both ends closed (a singleton point).
    """

    lo: Rational
    hi: Rational
    lo_closed: bool = False
    hi_closed: bool = False

    def contains(self, x) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    __contains__ = contains

    def sum(self, other: "Interval") -> "Interval":
        """Pointwise sum of two pieces.

        An endpoint of the sum is attained (closed) iff both
        contributing endpoints are attained.
        """
        return Interval(
            self.lo + other.lo,
            self.hi + other.hi,
            self.lo_closed and other.lo_closed,
            self.hi_closed and other.hi_closed,
        )

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"


# truth tables of the boolean operations, indexed by
# 2 * (inside the left operand) + (inside the right operand)
_UNION, _INTERSECT, _DIFFERENCE, _XOR = 0b1110, 0b1000, 0b0100, 0b0110


def _merge(los: list, his: list) -> list:
    """Codes of the union of the half-open code ranges [los[i], his[i])."""
    out = []
    for i in sorted(range(len(los)), key=los.__getitem__):
        lo, hi = los[i], his[i]
        if out and lo <= out[-1]:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out += (lo, hi)
    return out


def _sumset_codes(a, b) -> list:
    """Codes of the sumset of two code lists over one denominator; see
    ``IntervalSet.minkowski`` for the endpoint flags."""
    los = [p + q - (p & q & 1) for p in a[::2] for q in b[::2]]
    his = [r + s - ((r | s) & 1) for r in a[1::2] for s in b[1::2]]
    return _merge(los, his)


def _self_sumset_codes(a) -> list:
    """``_sumset_codes(a, a)`` from the pairs i <= j of components only:
    the pair (j, i) adds the same range as (i, j)."""
    lo, hi = a[::2], a[1::2]
    los = [p + q - (p & q & 1) for i, p in enumerate(lo) for q in lo[i:]]
    his = [r + s - ((r | s) & 1) for i, r in enumerate(hi) for s in hi[i:]]
    return _merge(los, his)


def _codes_mass(codes) -> int:
    """The measure of the set of a code list, as an int over its denominator."""
    return sum(hi >> 1 for hi in codes[1::2]) - sum(lo >> 1 for lo in codes[::2])


def _sweep_codes(a, b, table: int) -> list:
    """Codes of the combination of two code lists over one denominator
    under a truth table, in one pass over both."""
    out = []
    i = j = state = inside = 0
    na, nb = len(a), len(b)
    while i < na or j < nb:
        x = a[i] if j == nb or (i < na and a[i] <= b[j]) else b[j]
        if i < na and a[i] == x:
            state ^= 2
            i += 1
        if j < nb and b[j] == x:
            state ^= 1
            j += 1
        keep = table >> state & 1
        if keep != inside:
            out.append(x)
            inside = keep
    return out


def _scaled(codes, k: int):
    """Codes with every value multiplied by the positive int k."""
    if k == 1:
        return codes
    return [2 * k * (c >> 1) + (c & 1) for c in codes]


# groups: left bracket, lo numerator and denominator, hi numerator and
# denominator, right bracket; a missing denominator is 1
_PIECE_RE = re.compile(
    r"\s*([(\[])\s*(-?\d+)(?:\s*/\s*(\d+))?\s*,\s*(-?\d+)(?:\s*/\s*(\d+))?\s*([)\]])\s*"
)


class IntervalSet:
    """Canonical finite union of disjoint, sorted, maximal intervals."""

    # _verdict, _sums and _context are left unset by _init: most sets are
    # intermediate results whose verdicts nobody asks for, and a read of
    # an unset slot falls back to getattr's default
    __slots__ = ("_den", "_codes", "_components", "_verdict", "_sums", "_context")

    def __init__(self, pieces=()):
        pieces = list(pieces)
        den = 1
        for p in pieces:
            den = lcm(den, p.lo.denominator, p.hi.denominator)
        los, his = [], []
        for p in pieces:
            lo = 2 * p.lo.numerator * (den // p.lo.denominator) + (not p.lo_closed)
            hi = 2 * p.hi.numerator * (den // p.hi.denominator) + p.hi_closed
            if lo < hi:
                los.append(lo)
                his.append(hi)
        self._init(den, _merge(los, his))

    def _init(self, den: int, codes) -> None:
        """Store canonical codes, dividing out any common factor of D."""
        g = den
        for c in codes:
            if g == 1:
                break
            g = gcd(g, c >> 1)
        if g > 1:
            den //= g
            codes = [2 * ((c >> 1) // g) + (c & 1) for c in codes]
        object.__setattr__(self, "_den", den)
        # a list, not a tuple, and no star-args above: the interpreter
        # keeps up to 2000 freed tuples of each small size for reuse, and
        # short-lived tuples of many sizes would fill those free lists and
        # raise peak memory
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_components", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the set from its codes; the default
        # restore of slot state would go through __setattr__ above
        return (IntervalSet._of, (self._den, self._codes))

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, den: int, codes) -> "IntervalSet":
        """Trusting constructor for increasing codes of nonempty,
        non-adjacent ranges over denominator ``den``."""
        s = object.__new__(cls)
        s._init(den, codes)
        return s

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def interval(cls, lo, hi, lo_closed=False, hi_closed=False) -> "IntervalSet":
        return cls([Interval(rational(lo), rational(hi), lo_closed, hi_closed)])

    @classmethod
    def point(cls, x) -> "IntervalSet":
        x = rational(x)
        return cls([Interval(x, x, True, True)])

    @classmethod
    def parse(cls, text: str) -> "IntervalSet":
        """Parse the canonical text form (leniently) into a set."""
        stripped = text.strip()
        if stripped == "{}":
            return cls.empty()
        if not stripped:
            raise ParseError("empty set text (use '{}' for the empty set)", text, 0)
        matches = []
        den = 1
        pos = 0
        for chunk in text.split("|"):
            m = _PIECE_RE.fullmatch(chunk)
            if m is None:
                raise ParseError("expected an interval like '(p/q,r/s)'", text, pos)
            # lcm is 0 if either denominator is
            den = lcm(den, int(m[3] or 1), int(m[5] or 1))
            if not den:
                raise ParseError("zero denominator", text, pos + m.start(2))
            matches.append(m)
            pos += len(chunk) + 1
        los, his = [], []
        for m in matches:
            lo = 2 * int(m[2]) * (den // int(m[3] or 1)) + (m[1] == "(")
            hi = 2 * int(m[4]) * (den // int(m[5] or 1)) + (m[6] == "]")
            if lo < hi:
                los.append(lo)
                his.append(hi)
        return cls._of(den, _merge(los, his))

    # -- basic queries -------------------------------------------------

    @property
    def components(self) -> tuple:
        """The components as ``Interval`` values, built on first read."""
        comps = self._components
        if comps is None:
            d, c = self._den, self._codes
            # from a list, not a generator: tuple() of a generator over-
            # allocates and shrinks, and the shrunk tuples pile up in the
            # interpreter's per-size free lists (see _init)
            comps = tuple([
                Interval(rational(lo >> 1, d), rational(hi >> 1, d), not lo & 1, bool(hi & 1))
                for lo, hi in zip(c[::2], c[1::2])
            ])
            object.__setattr__(self, "_components", comps)
        return comps

    @property
    def is_empty(self) -> bool:
        return not self._codes

    def __len__(self) -> int:
        return len(self._codes) // 2

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._den == other._den and self._codes == other._codes

    def __hash__(self) -> int:
        return hash((self._den, tuple(self._codes)))

    def __bool__(self) -> bool:
        return bool(self._codes)

    def contains(self, x) -> bool:
        """Exact membership of a rational point."""
        q, r = divmod(x.numerator * self._den, x.denominator)
        return bisect_right(self._codes, 2 * q + (r != 0)) & 1 == 1

    __contains__ = contains

    def measure(self) -> Rational:
        """Total length of the components (singletons contribute 0)."""
        return rational(_codes_mass(self._codes), self._den)

    def inf(self) -> Rational:
        if not self._codes:
            raise EmptySetError("inf of the empty set")
        return rational(self._codes[0] >> 1, self._den)

    def sup(self) -> Rational:
        if not self._codes:
            raise EmptySetError("sup of the empty set")
        return rational(self._codes[-1] >> 1, self._den)

    def diameter(self) -> Rational:
        if not self._codes:
            raise EmptySetError("diameter of the empty set")
        return self.sup() - self.inf()

    # -- geometric operations ------------------------------------------

    def dilate(self, alpha) -> "IntervalSet":
        """{ alpha*x : x in self } for alpha > 0; scales measure by alpha.

        Kept sum codes of the set are carried, as alpha(A+A) is
        alpha A + alpha A, scaled and reduced as the set's codes are.
        """
        alpha = rational(alpha)
        if alpha <= 0:
            raise ValueError(f"dilation factor must be positive, got {alpha}")
        p, den = alpha.numerator, self._den * alpha.denominator
        out = IntervalSet._of(den, _scaled(self._codes, p))
        sums = getattr(self, "_sums", None)
        if sums is not None:
            # _init divided the denominator by g, which divides every
            # scaled value of the set and so every scaled sum
            g = den // out._den
            object.__setattr__(out, "_sums", [2 * ((c >> 1) * p // g) + (c & 1) for c in sums])
        return out

    def translate(self, t) -> "IntervalSet":
        t = rational(t)
        den = lcm(self._den, t.denominator)
        shift = 2 * t.numerator * (den // t.denominator)
        return IntervalSet._of(den, [c + shift for c in _scaled(self._codes, den // self._den)])

    def reflect(self) -> "IntervalSet":
        """{ -x : x in self }; the half-open range [lo, hi) maps to [1-hi, 1-lo)."""
        return IntervalSet._of(self._den, [1 - c for c in reversed(self._codes)])

    def _aligned(self, other: "IntervalSet"):
        """``(den, codes of self, codes of other)`` over their least common denominator."""
        if self._den == other._den:
            return self._den, self._codes, other._codes
        den = lcm(self._den, other._den)
        return (den, _scaled(self._codes, den // self._den),
                _scaled(other._codes, den // other._den))

    def minkowski(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise sumset { a+b }.  Empty if either operand is empty.

        Values add; the sum's lo is open if either lo is open, its hi is
        closed only if both his are closed.  A+A is read from the codes
        the set keeps, if it keeps them (see ``predicates.conflicts``).
        """
        if self.is_empty or other.is_empty:
            return _EMPTY
        if other is self:
            sums = getattr(self, "_sums", None)
            return IntervalSet._of(self._den, _self_sumset_codes(self._codes)
                                   if sums is None else sums)
        den, a, b = self._aligned(other)
        return IntervalSet._of(den, _sumset_codes(a, b))

    __add__ = minkowski

    def _clip(self, lo: int, hi: int, den: int) -> "IntervalSet":
        """``self & [lo/den, hi/den]`` for ints lo and hi over a multiple
        ``den`` of D; empty when lo > hi.

        The closed window is the code range [2lo, 2hi+1) over den, so the
        codes of the result are those strictly inside it, with a window
        end added where it falls inside the set.
        """
        a, b = 2 * lo, 2 * hi + 1
        if a >= b or not self._codes:
            return _EMPTY
        c = _scaled(self._codes, den // self._den)
        i = bisect_right(c, a)
        j = bisect_left(c, b)
        out = c[i:j]
        if i & 1:
            out.insert(0, a)
        if j & 1:
            out.append(b)
        return IntervalSet._of(den, out)

    def _end(self, den: int, i: int) -> int:
        """inf (i = 0) or sup (i = -1) of a nonempty set as an int over a
        multiple ``den`` of D."""
        return (self._codes[i] >> 1) * (den // self._den)

    def _mass(self, den: int, lo: int | None = None, hi: int | None = None) -> int:
        """The numerator over a multiple ``den`` of D of
        mu(self & [lo/den, hi/den]), for ints lo and hi over den; a
        missing end leaves that side unbounded.  Builds no set."""
        k = den // self._den
        c = self._codes
        total = 0
        for i in range(0, len(c), 2):
            x, y = (c[i] >> 1) * k, (c[i + 1] >> 1) * k
            if lo is not None and x < lo:
                x = lo
            if hi is not None and y > hi:
                y = hi
            if y > x:
                total += y - x
        return total

    # -- boolean operations --------------------------------------------

    def _sweep(self, other: "IntervalSet", table: int) -> "IntervalSet":
        """The combination of two sets under a truth table."""
        den, a, b = self._aligned(other)
        return IntervalSet._of(den, _sweep_codes(a, b, table))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return self._sweep(other, _UNION)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty or other.is_empty:
            return _EMPTY
        return self._sweep(other, _INTERSECT)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        if self.is_empty or other.is_empty:
            return self
        return self._sweep(other, _DIFFERENCE)

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._sweep(other, _XOR)

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __xor__ = symmetric_difference

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        if not self._codes:
            return "{}"
        return "|".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"IntervalSet.parse({str(self)!r})"


_EMPTY = IntervalSet._of(1, [])
