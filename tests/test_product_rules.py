"""Split unions and connected sums: the table of such a closure is the
product of its factors' tables (ROADMAP item 24 stage (a), tests only).

* Connected sum: sigma_i^{+-1} occurs once in A sigma_i^{+-1} B, with A on
  the strands up to i and B on those after it.  Then
  H_red(A sigma_i^{+-1} B) = H_red(A) (x) H_red(B) (x) t^s, with
  s = (0, 1, -1) for sigma_i and (1, 0, -2) for its inverse; an empty side
  is the 1-strand unknot, whose reduced table is t^(0, -1, 1).
* Split union: an index i in 1..n-1 does not occur, which splits the
  closure into L1, on the strands up to i (with the basepoint x1), and L2.
  Then H = H(L1) (x) H(L2) (x) (1 + t^(0, 1, -1)), with L1 in the table's
  mode and L2 unreduced.

Tables are (j, k, l) -> dim, cut at Q.  A factor is computed up to
Q - s_l - (the other factor's least l), so the cut product is exact.
Each rule is checked with its negative controls, which must fail.
"""

import pytest

from trigrad.braid import parse_braid
from trigrad.cube import braid_homology

Q = 10
UP, DOWN = (0, 1, -1), (1, 0, -2)  # s for sigma_i, sigma_i^-1
ONE_PLUS_T = {(0, 0, 0): 1, (0, 1, -1): 1}


def _table(word: str, qmax: int, reduced: bool) -> dict:
    return dict(braid_homology(parse_braid(word), qmax, reduced=reduced).dims)


def _tensor(tables: list[dict], shift: tuple[int, int, int]) -> dict:
    """The tensor product of `tables`, shifted by `shift`, cut at Q."""
    out = {shift: 1}
    for table in tables:
        acc: dict = {}
        for (j, k, l), n in out.items():
            for (j2, k2, l2), m in table.items():
                key = (j + j2, k + k2, l + l2)
                acc[key] = acc.get(key, 0) + n * m
        out = acc
    return {key: n for key, n in out.items() if key[2] <= Q}


def _factors(words: list[tuple[str, bool]], low: int) -> list[dict]:
    """The factor tables, each up to Q - low - the others' least l, where
    low is the least l of the shift and of any fixed factor."""
    least = [min(l for _, _, l in _table(w, Q, red)) for w, red in words]
    return [_table(w, Q - low - sum(least) + least[i], red)
            for i, (w, red) in enumerate(words)]


@pytest.mark.parametrize("word, a, b, shift", [
    ("1 1 1 2 3 3 3", "1 1 1", "1 1 1", UP),
    ("1 1 1 -2 3 3 3", "1 1 1", "1 1 1", DOWN),
    ("1 2 2 2", "n=1", "1 1 1", UP),
    ("-1 2 2 2", "n=1", "1 1 1", DOWN),
])
def test_connected_sum_is_the_shifted_product(word, a, b, shift):
    whole = _table(word, Q, True)
    factors = _factors([(a, True), (b, True)], shift[2])
    assert whole == _tensor(factors, shift)
    other = DOWN if shift == UP else UP
    assert whole != _tensor(_factors([(a, True), (b, True)], other[2]), other)


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("word, l1, l2", [
    ("1 1 1 3 3 3", "1 1 1", "1 1 1"),
    ("n=3 1 1 1", "1 1 1", "n=1"),
    ("n=2", "n=1", "n=1"),
])
def test_split_union_is_the_product_times_one_plus_t(word, l1, l2, reduced):
    whole = _table(word, Q, reduced)
    origin = (0, 0, 0)
    h1, h2 = _factors([(l1, reduced), (l2, False)], -1)
    assert whole == _tensor([h1, h2, ONE_PLUS_T], origin)
    assert whole != _tensor([h1, h2], origin)
    h1, h2_red = _factors([(l1, reduced), (l2, True)], -1)
    assert whole != _tensor([h1, h2_red, ONE_PLUS_T], origin)
