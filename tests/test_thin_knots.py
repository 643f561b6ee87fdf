"""Whole reduced tables of two-bridge knots against KR-thinness.

Rasmussen (arXiv math/0607544): the reduced triply graded homology of a
two-bridge knot is thin.  Every entry (j, k, l) lies on one delta-line
2j + 3k + l = delta, and the total rank is the sum of the absolute values
of the coefficients of the reduced HOMFLYPT polynomial F * (1 - q^2).  A
table cut at qmax has at most that rank, so equality also shows that the
table is complete; a truncated table fails it.

Every complete reduced knot table here also splits, as a multiset, into
one survivor g0 and pairs (g, g + v), for v = (0, 1, -3) and for
v = (2, -1, -1) in (j, k, l).  This is the shape that the cancelling
differentials d_1 and d_-1 leave, whose E_infinity page is one copy of Q
for a knot (Rasmussen, arXiv math/0607544; Dunfield-Gukov-Rasmussen,
arXiv math/0505662); here it is an observed pattern, pinned on the tables
the engine computes.  A truncated table can pair up too, so the pairing
says nothing about completeness; and a link's table need not pair up.
"""

import json
from pathlib import Path

import pytest

from trigrad.algebra import LaurentQT
from trigrad.braid import parse_braid
from trigrad.homfly import homfly_F

ONE_MINUS_Q2 = LaurentQT({(0, 0): 1, (2, 0): -1})
FRONTIER = Path(__file__).parent / "data" / "frontier_dims.json"
PAIRINGS = ((0, 1, -3), (2, -1, -1))


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


def _survivors(table, v) -> set:
    """The entries g0 for which table - {g0} is, as a multiset, a union of
    pairs (g, g + v): along each chain g, g + v, ... from an entry g with
    g - v absent, the pair counts p_i = c_i - p_(i-1) stay >= 0 and end
    at 0."""
    out = set()
    for g0 in table:
        rest = {g: c - (g == g0) for g, c in table.items() if c - (g == g0)}
        for g in rest:
            if tuple(map(int.__sub__, g, v)) in rest:
                continue
            p = 0
            while g in rest and p >= 0:
                p, g = rest[g] - p, tuple(map(int.__add__, g, v))
            if p:
                break
        else:
            out.add(g0)
    return out


def _frontier_table(entry_id):
    entry, = [e for e in json.loads(FRONTIER.read_text())
              if e["id"] == entry_id]
    return {tuple(r[:3]): r[3] for r in entry["dims"]}


def _check_pairing(table, survivors):
    assert [_survivors(table, v) for v in PAIRINGS] == [{g} for g in survivors]
    # negative controls: drop any entry, or move any entry that is not a
    # survivor by (0, 0, 2), and neither vector pairs the table up
    for g in table:
        dropped = {h: c for h, c in table.items() if h != g}
        assert not any(_survivors(dropped, v) for v in PAIRINGS), g
        if g in survivors:
            continue
        moved = dict(dropped)
        up = (g[0], g[1], g[2] + 2)
        moved[up] = moved.get(up, 0) + table[g]
        assert not any(_survivors(moved, v) for v in PAIRINGS), g


# survivors for v = (0, 1, -3) and for v = (2, -1, -1)
@pytest.mark.parametrize("word, qmax, survivors", [
    ("1 1 1", 5, [(-2, -1, 5), (0, -1, 1)]),  # T(2,3)
    ("1 1 1 1 1", 9, [(-4, -1, 9), (0, -1, 1)]),  # T(2,5)
    ("1 1 1 1 1 1 1", 13, [(-6, -1, 13), (0, -1, 1)]),  # T(2,7)
    ("1 -2 1 -2", 2, [(1, -2, 0), (1, -2, 0)]),  # 4_1
    ("1 1 1 2 -1 2", 6, [(-2, -1, 5), (0, -1, 1)]),  # 5_2
    ("1 1 1 -2 1 -2", 6, [(-1, -2, 4), (1, -2, 0)]),  # 6_2
])
def test_complete_knot_table_is_a_survivor_plus_pairs(
    reduced_table, word, qmax, survivors
):
    _check_pairing(reduced_table(word, qmax), survivors)


@pytest.mark.parametrize("entry_id, survivors", [
    ("1 2 1 2 1 2 1 2 q14 reduced marks 1", [(-6, -1, 13), (0, -1, 1)]),
    ("1 1 1 1 1 1 1 1 1 q17 reduced marks 1", [(-8, -1, 17), (0, -1, 1)]),
])
def test_frontier_knot_table_is_a_survivor_plus_pairs(entry_id, survivors):
    _check_pairing(_frontier_table(entry_id), survivors)


def test_pairing_does_not_show_completeness(reduced_table):
    # T(2,7) at q11 misses two entries and still pairs up
    table = reduced_table("1 1 1 1 1 1 1", 11)
    assert [_survivors(table, v) for v in PAIRINGS] == [{(-4, -1, 9)},
                                                        {(0, -1, 1)}]


def test_link_table_need_not_pair_up():
    # the Borromean rings: three components, no single survivor
    table = _frontier_table("1 -2 1 -2 1 -2 q8 reduced marks 1")
    assert not any(_survivors(table, v) for v in PAIRINGS)
