"""Reference answers the benchmark checks the program against.

Nothing here imports ``sumfree``.  A set is a tuple of pieces
``(lo, hi, lo_closed, hi_closed)`` with ``fractions.Fraction``
endpoints, sorted and pairwise disjoint, and every test is written out
from the definitions: a wrong answer from the program cannot be
mirrored by a shared helper here.

The certify corpus is generated here too.  Its expected verdicts come
from the construction, not from running anything: every subset of one
of the extremal sets A0..A7, and every dilation of such a subset, is
3-sum-free, and adjoining z = (x + y)/3 for two members x, y breaks
that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

CEILING = F(77, 177)
DENSE_THRESHOLD = F(5, 12)

#: the three open intervals of A0
A0 = (
    (F(8, 177), F(4, 59), False, False),
    (F(28, 177), F(14, 59), False, False),
    (F(2, 3), F(1), False, False),
)
#: endpoint choices (0 = left, 1 = right, first interval in the high
#: bit) of A1..A7; 0b010 is left out because 8/177 + 2/3 = 3 * 14/59
FAMILY_BITS = tuple(b for b in range(8) if b != 0b010)

DILATIONS = (F(1), F(1), F(1), F(59, 60), F(17, 20), F(3, 4), F(2, 3), F(1, 2))


# -- point sets ----------------------------------------------------------


def extremal(i: int) -> tuple:
    """A0 for i = 0, else A0 with the endpoints of pattern FAMILY_BITS[i-1]."""
    if i == 0:
        return A0
    return with_endpoints(FAMILY_BITS[i - 1], 0b111)


def with_endpoints(bits: int, which: int) -> tuple:
    """A0 with the endpoint that ``bits`` picks added on each interval in ``which``."""
    out = []
    for j, (lo, hi, _, _) in enumerate(A0):
        shift = 2 - j
        take = (which >> shift) & 1
        right = (bits >> shift) & 1
        out.append((lo, hi, bool(take and not right), bool(take and right)))
    return tuple(out)


def contains(pieces, x) -> bool:
    for lo, hi, lc, hc in pieces:
        if (lo < x < hi) or (x == lo and lc) or (x == hi and hc):
            return True
    return False


def measure(pieces) -> F:
    return sum((hi - lo for lo, hi, _, _ in pieces), F(0))


def _meet(p, q):
    """Intersection of two pieces, possibly empty."""
    (a, b, ac, bc), (c, d, cc, dc) = p, q
    if a > c:
        lo, lc = a, ac
    elif c > a:
        lo, lc = c, cc
    else:
        lo, lc = a, ac and cc
    if b < d:
        hi, hc = b, bc
    elif d < b:
        hi, hc = d, dc
    else:
        hi, hc = b, bc and dc
    return lo, hi, lc, hc


def _nonempty(p) -> bool:
    lo, hi, lc, hc = p
    return lo < hi or (lo == hi and lc and hc)


def is_k_sum_free(pieces, k: int = 3) -> bool:
    """No x + y = k*z with x, y, z in the set, tested piece by piece.

    For pieces I, J, K a solution exists iff the interval I + J meets
    k*K; an endpoint of I + J is attained iff both summand endpoints
    are.  O(c^3) in the number of pieces.
    """
    for i, (a, b, ac, bc) in enumerate(pieces):
        for c, d, cc, dc in pieces[i:]:
            s = (a + c, b + d, ac and cc, bc and dc)
            for lo, hi, lc, hc in pieces:
                if _nonempty(_meet(s, (k * lo, k * hi, lc, hc))):
                    return False
    return True


def _piece_within(p, q) -> bool:
    (a, b, ac, bc), (c, d, cc, dc) = p, q
    left = c < a or (c == a and (cc or not ac))
    right = b < d or (b == d and (dc or not bc))
    return left and right


def is_subset(pieces, other) -> bool:
    """Pointwise inclusion; ``other`` must list maximal connected pieces."""
    return all(any(_piece_within(p, q) for q in other) for p in pieces)


def text(pieces) -> str:
    return "|".join(
        f"{'[' if lc else '('}{lo},{hi}{']' if hc else ')'}" for lo, hi, lc, hc in pieces
    )


def pieces_of(interval_set) -> tuple:
    """The program's components as reference pieces (backend-neutral)."""
    return tuple(
        (frac(c.lo), frac(c.hi), bool(c.lo_closed), bool(c.hi_closed))
        for c in interval_set.components
    )


def frac(x) -> F:
    """A program rational (any backend) as a Fraction."""
    return F(int(x.numerator), int(x.denominator))


def sorted_disjoint(pieces) -> bool:
    if not all(_nonempty(p) for p in pieces):
        return False
    return all(
        p[1] < q[0] or (p[1] == q[0] and not (p[3] and q[2]))
        for p, q in zip(pieces, pieces[1:])
    )


def witness_holds(witness, pieces, k: int = 3) -> bool:
    """x + y = k*z by plain arithmetic, and all three are members."""
    x, y, z = (frac(v) for v in (witness.x, witness.y, witness.z))
    return (
        int(witness.k) == k
        and x + y == k * z
        and all(contains(pieces, v) for v in (x, y, z))
    )


# -- integers ------------------------------------------------------------


def int_sum_free(elems, k: int) -> bool:
    s = set(elems)
    return not any(k * z - x in s for z in s for x in s)


def int_maximal(elems, n: int, k: int) -> bool:
    """No single element of 1..n can be added keeping the set k-sum-free."""
    s = set(elems)
    return all(not int_sum_free(s | {e}, k) for e in range(1, n + 1) if e not in s)


# -- certify corpus ------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One corpus set with its expected answers."""

    text: str
    pieces: tuple
    sum_free: bool
    measure: F
    sup: F
    containers: tuple

    @property
    def rescaled_measure(self) -> F:
        return self.measure / self.sup

    @property
    def dense(self) -> bool:
        return self.rescaled_measure >= DENSE_THRESHOLD

    @property
    def extremal(self) -> bool:
        return self.sum_free and self.measure == CEILING


def make_case(pieces, sum_free: bool) -> Case:
    pieces = tuple(sorted(pieces))
    mu = measure(pieces)
    containers = ()
    if sum_free and mu == CEILING:
        containers = tuple(j for j in range(1, 8) if is_subset(pieces, extremal(j)))
    return Case(text(pieces), pieces, sum_free, mu, max(p[1] for p in pieces), containers)


def corpus(seed: int, size: int = 200) -> list:
    """``size`` sets: A0..A7, four partial augmentations, then random cuts."""
    rng = random.Random(seed)
    cases = [make_case(extremal(i), True) for i in range(8)]
    for _ in range(4):
        bits = rng.choice(FAMILY_BITS)
        cases.append(make_case(with_endpoints(bits, rng.randint(1, 6)), True))
    # fixed shares, so that corpora of different seeds cost alike: 2 in 5
    # dense, 1 in 5 made non-3-sum-free (one dense, one sparse in 10);
    # the base set, dilation and number of cuts follow the slot too
    for j in range(size - len(cases)):
        cases.append(_random_case(rng, j, dense=j % 5 < 2, sum_free=j % 10 not in (1, 4)))
    rng.shuffle(cases)
    return cases


def _random_case(rng: random.Random, j: int, dense: bool, sum_free: bool) -> Case:
    pieces = _cut(rng, extremal(j % 8), dense, j)
    c = DILATIONS[j // 8 % len(DILATIONS)]
    pieces = [(c * lo, c * hi, lc, hc) for lo, hi, lc, hc in pieces]
    if not sum_free:
        pieces.append(_closing_point(rng, pieces))
    return make_case(pieces, sum_free)


def _cut(rng: random.Random, base, dense: bool, j: int) -> list:
    """A subset of ``base`` cut into pieces; slot ``j`` sets the number
    of gaps in each interval, 0 to 6 (dense) or 1 to 6 (sparse).

    Gaps sit on a grid of step 1/Q inside each interval and are narrower
    than the step, so they never overlap.  Dense cuts remove under
    1/200 of each interval, which keeps the measure above 5/12; sparse
    cuts remove wide gaps and drop whole pieces.
    """
    out = []
    for i, (lo, hi, lc, hc) in enumerate(base):
        g = (j + 3 * i) % 7 if dense else 1 + (j + 3 * i) % 6
        q = 4 * (g + 1)
        bounds = [(F(0), lc)]
        for t in sorted(rng.sample(range(1, q), g)):
            w = F(1, q * rng.randint(100, 400)) if dense else F(rng.randint(2, 9), 20 * q)
            bounds.append((F(t, q) - w, rng.random() < 0.5))
            bounds.append((F(t, q) + w, rng.random() < 0.5))
        bounds.append((F(1), hc))
        span = hi - lo
        for (u, uc), (v, vc) in zip(bounds[::2], bounds[1::2]):
            out.append((lo + span * u, lo + span * v, uc, vc))
    if not dense:  # at least 6 pieces, so at least 4 are kept
        dropped = set(rng.sample(range(len(out)), len(out) // 3))
        out = [p for i, p in enumerate(out) if i not in dropped]
    return out


def _closing_point(rng: random.Random, pieces):
    """The point z = (x + y)/3 for two members x, y, as a singleton."""
    xs = []
    for _ in range(2):
        lo, hi, _, _ = rng.choice(pieces)
        xs.append(lo + (hi - lo) * F(rng.randint(1, 9), 10))
    z = (xs[0] + xs[1]) / 3
    if contains(pieces, z):
        raise AssertionError(f"corpus set already holds {z}; it was not 3-sum-free")
    return (z, z, True, True)
