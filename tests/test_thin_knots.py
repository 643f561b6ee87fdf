"""Whole reduced tables of two-bridge knots against KR-thinness.

Rasmussen (arXiv math/0607544): the reduced triply graded homology of a
two-bridge knot is thin.  Every entry (j, k, l) lies on one delta-line
2j + 3k + l = delta, and the total rank is the sum of the absolute values
of the coefficients of the reduced HOMFLYPT polynomial F * (1 - q^2).  A
table cut at qmax has at most that rank, so equality also shows that the
table is complete; a truncated table fails it.
"""

import pytest

from trigrad.algebra import LaurentQT
from trigrad.braid import parse_braid
from trigrad.homfly import homfly_F

ONE_MINUS_Q2 = LaurentQT({(0, 0): 1, (2, 0): -1})


def _thin_rank(word: str) -> int:
    """Sum of |coefficients| of F * (1 - q^2); for a knot F's denominator
    is 1 - q^2, so that product is F's numerator."""
    f = homfly_F(parse_braid(word))
    assert f.den == ONE_MINUS_Q2
    return sum(abs(c) for c in f.num.terms.values())


# each qmax is the top l of its table; the rank identity shows that no
# entry lies above it
@pytest.mark.parametrize(
    "word, qmax, rank, delta",
    [
        ("1 -2 1 -2", 2, 5, -4),  # 4_1
        ("1 1 1 2 -1 2", 6, 7, -2),  # 5_2
        ("1 1 1 -2 1 -2", 6, 11, -4),  # 6_2
        ("1 1 1", 5, 3, -2),  # T(2,3)
        ("1 1 1 1 1", 9, 5, -2),  # T(2,5)
        ("1 1 1 1 1 1 1", 13, 7, -2),  # T(2,7)
    ],
)
def test_two_bridge_table_is_thin_and_complete(
    reduced_table, word, qmax, rank, delta
):
    table = reduced_table(word, qmax)
    assert sum(table.values()) == _thin_rank(word) == rank
    assert {2 * j + 3 * k + l for j, k, l in table} == {delta}


def test_truncated_table_fails_the_rank_identity(reduced_table):
    # T(2,7) at q11 misses its entries at l = 12 and 13
    word = "1 1 1 1 1 1 1"
    assert sum(reduced_table(word, 11).values()) == 5 < _thin_rank(word)
