from fractions import Fraction

import pytest

from sumfree.rationals import to_decimal


@pytest.mark.parametrize("value,places,text", [
    (Fraction(1, 2), 0, "1"),
    (Fraction(-1, 2), 0, "-1"),
    (Fraction(1, 3), 3, "0.333"),
    (Fraction(-2, 3), 2, "-0.67"),
    (Fraction(77, 177), 4, "0.4350"),
])
def test_to_decimal_rounds_half_away_from_zero(value, places, text):
    assert to_decimal(value, places) == text


def test_to_decimal_rejects_negative_places():
    with pytest.raises(ValueError, match="places must be >= 0"):
        to_decimal(Fraction(1, 3), -1)
