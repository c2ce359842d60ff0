import random

import pytest
from hypothesis import strategies as st

from sumfree.intervals import Interval, IntervalSet
from sumfree.rationals import rational

DENOMS = (2, 3, 4, 6, 8, 12, 24, 59, 60, 90, 177, 360)


def random_rational(rng, lo=-2, hi=3):
    den = rng.choice(DENOMS)
    return rational(rng.randint(lo * den, hi * den), den)


def random_interval_set(rng, max_components=4, lo=-2, hi=3):
    """Raw, possibly overlapping pieces; the constructor normalizes."""
    pieces = []
    for _ in range(rng.randint(1, max_components)):
        a = random_rational(rng, lo, hi)
        b = random_rational(rng, lo, hi)
        if a > b:
            a, b = b, a
        pieces.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalSet(pieces)


def window(lo, hi) -> IntervalSet:
    """Closed interval [lo, hi] as a set; empty when lo > hi.

    The reference form of a window: the checkers cut their windows with
    ``IntervalSet.clip``, and ``S.clip(lo, hi)`` equals
    ``S.intersect(window(lo, hi))``.
    """
    lo, hi = rational(lo), rational(hi)
    if lo > hi:
        return IntervalSet.empty()
    return IntervalSet.interval(lo, hi, True, True)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rationals(min_value=-2, max_value=3, max_denominator=90):
    return st.fractions(
        min_value=min_value, max_value=max_value, max_denominator=max_denominator
    ).map(lambda f: rational(f.numerator, f.denominator))


@st.composite
def interval_sets(draw, max_components=4, min_value=-2, max_value=3):
    n = draw(st.integers(1, max_components))
    pieces = []
    for _ in range(n):
        a = draw(rationals(min_value, max_value))
        b = draw(rationals(min_value, max_value))
        if a > b:
            a, b = b, a
        pieces.append(
            Interval(a, b, draw(st.booleans()), draw(st.booleans()))
        )
    return IntervalSet(pieces)
