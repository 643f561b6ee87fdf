"""Fixtures shared by several test modules."""

from functools import cache

import pytest

from trigrad.braid import parse_braid
from trigrad.cube import braid_homology


@cache
def _reduced_dims(word: str, qmax: int) -> dict[tuple[int, int, int], int]:
    return braid_homology(parse_braid(word), qmax, reduced=True).dims


@pytest.fixture(scope="session")
def reduced_table():
    """(word, qmax) -> the reduced table of the closure of `word` cut at
    `qmax`, computed once per session however many tests ask for it."""
    return lambda word, qmax: dict(_reduced_dims(word, qmax))


def vertex_reductions(cube):
    """mask -> the `Reduction` of each vertex of `cube`, read off its edges;
    with a crossing, every vertex ends an edge."""
    out = {}
    for e in cube.edges:
        out[e.src], out[e.tgt] = e.cmap.src, e.cmap.tgt
    return dict(sorted(out.items()))
