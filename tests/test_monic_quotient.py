"""The quotient by monic rows, taken by `exclude_all` once no linear row is
left: the pick rule, integer normal forms, the generators (S, u) of
`realize`, and agreement with a reference that takes the paper's linear
exclusions alone."""

from math import prod

from hypothesis import given, settings, strategies as st

from trigrad.algebra import PolyRing, Polynomial
from trigrad.braid import BraidWord, build_marked_diagram
from trigrad.cube import resolve
from trigrad.factor_complex import realize
from trigrad.homology import matrix_homology, reduce_closed_matrix
from trigrad.koszul import (
    KoszulMatrix,
    KoszulRow,
    aggregate_a,
    exclude_all,
    koszul_of_graph,
    make_row,
    normal_form,
    strip_a,
)

R = PolyRing(("x1", "x2"))
X1, X2 = R.var("x1"), R.var("x2")


def _matrix(*rights):
    return KoszulMatrix(R, tuple(make_row(R.zero(), b) for b in rights))


def _graph_matrix(word, mask):
    d = build_marked_diagram(BraidWord(3, tuple(word)))
    return koszul_of_graph(resolve(d, mask))


def _unit_term(b, i):
    """c when b = c·y + terms free of y with c = ±1, y the i-th variable;
    otherwise 0."""
    terms = [(e, c) for e, c in b.terms.items() if e[i]]
    if len(terms) == 1 and sum(terms[0][0]) == 1 and abs(terms[0][1]) == 1:
        return terms[0][1]
    return 0


def _substitute(p, y, mu):
    """p with mu, free of y, put for the variable y."""
    i = p.ring.index(y)
    out = p.ring.zero()
    for e, c in p.terms.items():
        term = Polynomial(p.ring, {e[:i] + (0,) + e[i + 1:]: c})
        out = out + prod([mu] * e[i], start=term)
    return out


def _linear_only(m, qmax):
    """Homology of a closed matrix after the linear exclusions alone: while
    some row is (0, c·y + rest) with c = ±1 and rest free of y, drop it and
    put y = -c·rest everywhere."""
    m = strip_a(aggregate_a(m))
    ring, rows = m.ring, list(m.rows)
    while True:
        found = [(idx, y) for idx, r in enumerate(rows)
                 for i, y in enumerate(ring.names) if _unit_term(r.right, i)]
        if not found:
            break
        idx, y = found[0]
        b = rows.pop(idx).right
        mu = ring.var(y) - b * _unit_term(b, ring.index(y))
        rows = [KoszulRow(_substitute(r.left, y, mu).drop_variable(y),
                          _substitute(r.right, y, mu).drop_variable(y), r.shift)
                for r in rows]
        ring = ring.without(y)
    m = KoszulMatrix(ring, tuple(rows), (), m.global_shift)
    return matrix_homology(m, qmax, reduce=False).dims


def test_refuses_a_variable_of_an_earlier_pick():
    # x2^2 - x1*x2 is monic in x2, but x2 occurs in the first pick
    first, second = X1 * X1 - X1 * X2, X2 * X2 - X1 * X2
    q = exclude_all(_matrix(first, second))[0]
    assert q.relations == (("x1", first),)
    assert [r.right for r in q.rows] == [second]
    assert matrix_homology(q, 8, reduce=False) == matrix_homology(
        _matrix(first, second), 8, reduce=False
    )


def test_sparsest_normal_form_is_picked_first():
    # x2^2 has one variable, so it goes first; x1 may follow, since the
    # first pick is free of it
    m = _matrix(X1 * X1 - X1 * X2, X2 * X2)
    q = exclude_all(m)[0]
    assert q.relations == (("x2", X2 * X2), ("x1", X1 * X1 - X1 * X2))
    assert q.rows == () and len(realize(q).gens) == 4
    assert matrix_homology(q, 8, reduce=False) == matrix_homology(
        m, 8, reduce=False
    )


def test_row_reducing_to_zero():
    f = X1 * X1 - X1 * X2
    m = _matrix(f, f * -1)
    q = exclude_all(m)[0]
    assert q.relations == (("x1", f),)
    assert len(q.rows) == 1 and q.rows[0].right.is_zero()
    cx = realize(q)
    assert len(cx.gens) == 4 and not any(cx.d.values())
    assert matrix_homology(q, 8, reduce=False) == matrix_homology(
        m, 8, reduce=False
    )


def test_normal_form_and_entries_are_int():
    q = reduce_closed_matrix(_graph_matrix((1, 2) * 3, 63))
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
        q = reduce_closed_matrix(_graph_matrix(word, mask))
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
