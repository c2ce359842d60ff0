"""Extremal constructions and generators of 3-sum-free sets.

The three-interval set

    A0 = (8/177, 4/59) | (28/177, 14/59) | (2/3, 1)

is 3-sum-free with measure 77/177, the maximum possible inside [0,1].
Its interval endpoints may be adjoined one per interval; of the eight
ways to pick one endpoint from each interval, exactly seven keep the
set 3-sum-free.  The failing choice is {8/177, 14/59, 2/3}, because
8/177 + 2/3 = 3 * (14/59).  The seven augmented sets A1..A7 are the
maximal extremal sets.

Enumeration order of A1..A7: the per-interval choice (0 = left
endpoint, 1 = right endpoint, intervals in ascending order) is read as
a 3-bit number, most significant bit first, and the forbidden
combination 0b010 is skipped.  So A1 = 000, A2 = 001, A3 = 011,
A4 = 100, A5 = 101, A6 = 110, A7 = 111.
"""

from __future__ import annotations

import functools
import random

from .intervals import Interval, IntervalSet
from .predicates import is_k_sum_free, strip
from .rationals import rational

__all__ = [
    "extremal_base",
    "endpoint_combination",
    "construct_extremal",
    "FORBIDDEN_COMBINATION_BITS",
    "cg_density",
    "random_sum_free",
]

#: bit pattern of the one endpoint combination that is not 3-sum-free
FORBIDDEN_COMBINATION_BITS = 0b010

_A0_TEXT = "(8/177,4/59)|(28/177,14/59)|(2/3,1)"

#: indices 1..7 mapped to their endpoint-choice bit patterns
_FAMILY_BITS = tuple(b for b in range(8) if b != FORBIDDEN_COMBINATION_BITS)


def extremal_base() -> IntervalSet:
    """The open three-interval set A0 of measure 77/177."""
    return IntervalSet.parse(_A0_TEXT)


def endpoint_combination(bits: int) -> IntervalSet:
    """A0 plus one endpoint per interval, chosen by a 3-bit pattern.

    Bit values select left (0) or right (1) endpoints, most significant
    bit = first interval.  All eight patterns are constructible; only
    pattern 0b010 yields a set that is not 3-sum-free.
    """
    if not 0 <= bits <= 7:
        raise ValueError(f"bit pattern must be in 0..7, got {bits}")
    base = extremal_base()
    points = []
    for j, comp in enumerate(base.components):
        choice = (bits >> (2 - j)) & 1
        points.append(comp.hi if choice else comp.lo)
    out = base
    for p in points:
        out = out.union(IntervalSet.point(p))
    return out


@functools.cache
def construct_extremal(i: int) -> IntervalSet:
    """The i-th extremal set: A0 for i = 0, the augmented family for 1..7.

    Every set is checked to be 3-sum-free when first built; it is then
    cached, which is safe because an ``IntervalSet`` is immutable.
    """
    if not 0 <= i <= 7:
        raise ValueError(f"extremal index must be in 0..7, got {i}")
    out = extremal_base() if i == 0 else endpoint_combination(_FAMILY_BITS[i - 1])
    ok, witness = is_k_sum_free(out, 3)
    if not ok:
        raise AssertionError(f"extremal construction {i} failed: {witness}")
    return out


def cg_density(k: int):
    """Asymptotic maximal density of k-sum-free subsets of {1..n}, k >= 4.

    Exact rational value of  (k-2)/(k^2-2) * (k + 8/(k*(k^4 - 2k^2 - 4))).
    """
    if k < 4:
        raise ValueError(f"density formula requires k >= 4, got {k}")
    k = rational(k)
    return (k - 2) / (k * k - 2) * (k + 8 / (k * (k**4 - 2 * k**2 - 4)))


_DENOMINATORS = (24, 36, 48, 60, 90, 120, 177, 236, 354, 360)


def random_sum_free(seed: int, max_components: int) -> IntervalSet:
    """A pseudorandom 3-sum-free subset of [0,1], deterministic per seed.

    Samples a random interval union S and returns ``strip(S)``.
    """
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    rng = random.Random(seed)
    ncomp = rng.randint(1, max_components)
    cuts = []
    for _ in range(2 * ncomp):
        den = rng.choice(_DENOMINATORS)
        cuts.append(rational(rng.randint(0, den), den))
    cuts.sort()
    pieces = IntervalSet(
        [
            Interval(cuts[2 * j], cuts[2 * j + 1], rng.random() < 0.5, rng.random() < 0.5)
            for j in range(ncomp)
        ]
    )
    return strip(pieces)
