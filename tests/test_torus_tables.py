"""Whole reduced tables of the torus knots T(2, n) against the theorem.

The reduced triply graded homology of T(2, n), n odd, has rank n: one
generator in each (j, k, l) = (-2i, -1, 4i + 1) for 0 <= i <= (n - 1)/2 and
one in each (-2i, -2, 4i + 4) for 0 <= i <= (n - 3)/2.  Its top entry sits
at l = 2n - 1, so a run at qmax 2n - 1 sees the whole table; a table is
complete only when its rank reaches n.

T(3, 4) at q14 is checked whole against its entry in
`data/frontier_dims.json`: rank 11, no theorem yet.
"""

import json
from pathlib import Path

import pytest

FRONTIER = Path(__file__).parent / "data" / "frontier_dims.json"


def _theorem(n: int) -> dict[tuple[int, int, int], int]:
    table = {(-2 * i, -1, 4 * i + 1): 1 for i in range((n - 1) // 2 + 1)}
    table.update({(-2 * i, -2, 4 * i + 4): 1 for i in range((n - 3) // 2 + 1)})
    return table


def _word(n: int, sign: int = 1) -> str:
    """sigma_1^(sign * n), whose closure is T(2, sign * n)."""
    return " ".join([str(sign)] * n)


def _complete(table: dict, n: int) -> bool:
    return sum(table.values()) == n


@pytest.mark.parametrize("n", [3, 5, 7])
def test_whole_table_matches_the_theorem(reduced_table, n):
    expect = _theorem(n)
    assert sum(expect.values()) == n
    assert max(l for _, _, l in expect) == 2 * n - 1
    table = reduced_table(_word(n), 2 * n - 1)
    assert _complete(table, n)
    assert table == expect


def test_truncated_table_is_not_complete(reduced_table):
    # T(2,7) at q11 misses the entries at l = 12 and 13
    table = reduced_table(_word(7), 11)
    assert sum(table.values()) == 5
    assert not _complete(table, 7)
    assert table != _theorem(7)


@pytest.mark.parametrize("n", [3, 5])
def test_mirror_table_is_the_dual_table(reduced_table, n):
    table = reduced_table(_word(n), 12)
    mirror = reduced_table(_word(n, sign=-1), 12)
    assert _complete(table, n) and _complete(mirror, n)
    assert mirror == {
        (1 - j, -3 - k, 1 - l): d for (j, k, l), d in table.items()
    }


def test_t34_table_matches_its_frontier_entry(reduced_table):
    word = "1 2 1 2 1 2 1 2"
    entry, = [e for e in json.loads(FRONTIER.read_text())
              if e["braid"] == word and e["qmax"] == 14 and e["reduced"]]
    table = reduced_table(word, 14)
    assert sum(table.values()) == 11
    assert table == {(j, k, l): d for j, k, l, d in entry["dims"]}
