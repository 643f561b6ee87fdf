"""The quotient by monic rows: the pick rule, integer normal forms, the
generators (S, u) of `realize`, and agreement with the linear-only path."""

from math import prod

from hypothesis import given, settings, strategies as st

from trigrad.algebra import PolyRing
from trigrad.braid import BraidWord, build_marked_diagram
from trigrad.cube import resolve
from trigrad.factor_complex import realize
from trigrad.homology import matrix_homology, reduce_closed_matrix
from trigrad.koszul import (
    KoszulMatrix,
    koszul_of_graph,
    make_row,
    monic_quotient,
    normal_form,
)

R = PolyRing(("x1", "x2"))
X1, X2 = R.var("x1"), R.var("x2")


def _matrix(*rights):
    return KoszulMatrix(R, tuple(make_row(R.zero(), b) for b in rights))


def _graph_matrix(word, mask):
    d = build_marked_diagram(BraidWord(3, tuple(word)))
    return koszul_of_graph(resolve(d, mask))


def _linear_only(m, qmax):
    return matrix_homology(reduce_closed_matrix(m), qmax, reduce=False).dims


def test_refuses_a_variable_of_an_earlier_pick():
    # x2^2 - x1*x2 is monic in x2, but x2 occurs in the first pick
    first, second = X1 * X1 - X1 * X2, X2 * X2 - X1 * X2
    q = monic_quotient(_matrix(first, second))
    assert q.relations == (("x1", first),)
    assert [r.right for r in q.rows] == [second]
    assert matrix_homology(q, 8, reduce=False) == matrix_homology(
        _matrix(first, second), 8, reduce=False
    )


def test_sparsest_normal_form_is_picked_first():
    # x2^2 has one variable, so it goes first; x1 may follow, since the
    # first pick is free of it
    m = _matrix(X1 * X1 - X1 * X2, X2 * X2)
    q = monic_quotient(m)
    assert q.relations == (("x2", X2 * X2), ("x1", X1 * X1 - X1 * X2))
    assert q.rows == () and len(realize(q).gens) == 4
    assert matrix_homology(q, 8, reduce=False) == matrix_homology(
        m, 8, reduce=False
    )


def test_row_reducing_to_zero():
    f = X1 * X1 - X1 * X2
    m = _matrix(f, f * -1)
    q = monic_quotient(m)
    assert q.relations == (("x1", f),)
    assert len(q.rows) == 1 and q.rows[0].right.is_zero()
    cx = realize(q)
    assert len(cx.gens) == 4 and not any(cx.d.values())
    assert matrix_homology(q, 8, reduce=False) == matrix_homology(
        m, 8, reduce=False
    )


def test_normal_form_and_entries_are_int():
    q = monic_quotient(reduce_closed_matrix(_graph_matrix((1, 2) * 3, 63)))
    assert q.relations
    p = q.rows[0].right * q.relations[-1][1] + q.rows[-1].right
    nf = normal_form(p * p, q.relations)
    assert nf.terms and all(type(c) is int for c in nf.terms.values())
    for y, f in q.relations:
        assert nf.degree_in(y) < f.degree_in(y)
    cx = realize(q)
    entries = [c for row in cx.d.values() for poly in row.values()
               for c in poly.terms.values()]
    assert entries and all(type(c) is int for c in entries)
    cx.verify_d_squared()


def test_generator_count():
    for word, mask in (((1, 2) * 3, 63), ((1, 1, 1, 1, 1, 2), 31),
                       ((1, 1, 2, 1, 2, 2), 55)):
        q = monic_quotient(reduce_closed_matrix(_graph_matrix(word, mask)))
        cx = realize(q)
        assert len(cx.gens) == 2 ** len(q.rows) * prod(
            f.degree_in(y) for y, f in q.relations
        )
        assert set(cx.ring.names).isdisjoint(y for y, _ in q.relations)


def test_graph_homology_matches_linear_only():
    m = _graph_matrix((1, 2) * 3, 63)
    assert matrix_homology(m, 10).dims == _linear_only(m, 10)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.lists(st.sampled_from((1, 2, -1, -2)), min_size=1, max_size=4))
def test_every_resolution_matches_linear_only(word):
    d = build_marked_diagram(BraidWord(3, tuple(word)))
    for mask in range(1 << len(word)):
        m = koszul_of_graph(resolve(d, mask))
        assert matrix_homology(m, 8).dims == _linear_only(m, 8), mask
