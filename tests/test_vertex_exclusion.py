"""Per-vertex reduction: each cube vertex is realized after `exclude_all`
(linear exclusions, then monic picks), over R/(relations), and edges act as
pi_tgt o psi o iota_src.

iota and pi must be chain maps with pi o iota = id, checked here generator
by generator against complexes realized from each vertex's unreduced
Koszul matrix; cube squares must anticommute on homology; and the quotient
must not change any vertex's homology.
"""

from collections import defaultdict
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import vertex_reductions
from trigrad.algebra import Polynomial
from trigrad.braid import BraidWord, parse_braid
from trigrad.cube import braid_homology, build_cube
from trigrad.factor_complex import Quotient, realize
from trigrad.homology import (
    induced_map,
    kernel_and_rank,
    matrix_homology,
    slice_basis,
    slice_homology_basis,
)


def _d(cx, x):
    """d of an element {generator: coefficient} of `cx`."""
    out = {}
    for s, p in x.items():
        for t, q in cx.d.get(s, {}).items():
            out[t] = out[t] + q * p if t in out else q * p
    return {t: p for t, p in out.items() if not p.is_zero()}


@pytest.mark.parametrize(
    "word, reduced, marks",
    [
        ("1 1 -2 1 -2", False, 1),
        ("1 1 -2 1 -2", True, 1),
        ("1 1 -2 1 -2", "x4", 2),
        ("1 1 1", False, 2),
        ("1 -2 1 -2 1 -2", True, 1),
    ],
)
def test_iota_and_pi_are_chain_maps_with_pi_iota_identity(word, reduced, marks):
    # a mark name for `reduced` is the basepoint of a reduced cube
    basepoint = reduced if isinstance(reduced, str) else None
    cube = build_cube(parse_braid(word), bool(reduced), basepoint, marks)
    reds = vertex_reductions(cube)
    excluded = picked = 0
    for mask, small in cube.vertices.items():
        red = reds[mask]
        big = realize(red.big)
        degrees = [f.degree_in(y) for y, f in red.matrix.relations]
        assert big.rank() * prod(degrees) == small.rank() << len(red.steps)
        excluded += any(step.drop for step in red.steps)
        picked += bool(degrees)
        # nonconstant coefficients check the (semi)linearity too; on the
        # unreduced side, y^m of a relation's variable checks the normal form
        names = small.ring.names
        p_small = small.ring.var(names[-1]) if names else None
        p_big = [
            prod([big.ring.var(step.var)] * step.f.degree_in(step.var),
                 start=big.ring.one())
            for step in red.steps[-1:]
        ]
        for s in range(small.rank()):
            for p in (small.ring.one(), p_small):
                if p is None:
                    continue
                x = {s: p}
                up = red.include(x)
                assert _d(big, up) == red.include(_d(small, x)), (mask, s)
                assert red.project(up) == x, (mask, s)
        for s in range(big.rank()):
            for p in [big.ring.one()] + p_big:
                x = {s: p}
                assert red.project(_d(big, x)) == _d(
                    small, red.project(x)
                ), (mask, s)
    assert excluded and picked


def _path(bases, e1, e2):
    """Chain images of the source representatives along e1 then e2."""
    src, mid, tgt = bases[e1.src], bases[e1.tgt], bases[e2.tgt]
    first = induced_map(e1.cmap, src.basis, mid.basis, src.reps)
    return induced_map(e2.cmap, mid.basis, tgt.basis, first)


def _rank_modulo(boundaries, vecs):
    """rank(B + vecs) - rank(B): the rank of vecs modulo the span of B."""
    both, _ = kernel_and_rank(list(boundaries) + list(vecs), want_kernel=False)
    alone, _ = kernel_and_rank(list(boundaries), want_kernel=False)
    return both - alone


@pytest.mark.parametrize("word", ["1 1", "1 -1", "1 1 1", "1 -2 1 -2"])
def test_squares_anticommute_on_homology(word):
    cube = build_cube(parse_braid(word))
    assert any(red.matrix.relations
               for red in vertex_reductions(cube).values())
    out = defaultdict(list)
    for e in cube.edges:
        out[e.src].append(e)
    squares = []
    for e1 in cube.edges:
        for e2 in out[e1.tgt]:
            for f1 in out[e1.src]:
                if f1.src ^ f1.tgt != e2.src ^ e2.tgt:
                    continue
                for f2 in out[f1.tgt]:
                    if f2.src ^ f2.tgt == e1.src ^ e1.tgt and f2.tgt == e2.tgt:
                        squares.append((e1, e2, f1, f2))
    assert squares
    ks = sorted({g.bidegree.k for cx in cube.vertices.values() for g in cx.gens})
    lmin = min(g.bidegree.l for cx in cube.vertices.values() for g in cx.gens)
    nonzero = 0
    for k in ks:
        for l in range(lmin, 7):
            bases = {
                mask: slice_homology_basis(cx, k, l)
                for mask, cx in cube.vertices.items()
            }
            for e1, e2, f1, f2 in squares:
                src, tgt = bases[e1.src], bases[e2.tgt]
                if not src.dim or not tgt.dim:
                    continue
                a = _path(bases, e1, e2)
                b = _path(bases, f1, f2)
                for ca, cb in zip(a, b):
                    total = {}
                    for t, v in ca.items():
                        total[t] = total.get(t, 0) + e1.sign * e2.sign * v
                    for t, v in cb.items():
                        total[t] = total.get(t, 0) + f1.sign * f2.sign * v
                    total = {t: v for t, v in total.items() if v}
                    assert not _rank_modulo(tgt.boundaries, [total]), (
                        word, k, l)
                    nonzero += _rank_modulo(tgt.boundaries, [ca])
    assert nonzero


def test_exclusion_with_mu_zero():
    # with the basepoint x3 set to 0, some vertex rows become (0, ±x7): the
    # exclusion substitutes 0, so pi_tgt sends every multiple of x7 to 0
    b = parse_braid("-1 -1 -1")
    cube = build_cube(b, reduced=True, basepoint="x3")
    assert any(
        len(step.f.terms) == 1
        for red in vertex_reductions(cube).values()
        for step in red.steps if step.drop
    )
    expect = [((1, -2, 0), 1), ((1, -1, -3), 1), ((3, -2, -4), 1)]
    h = braid_homology(b, 8, reduced=True, basepoint="x3")
    assert h.items_sorted() == expect


@pytest.mark.parametrize("word", ["1 2 1 2 1 2 1 2", "1 -2 1 -2 1 -2"])
@pytest.mark.parametrize("reduced", [True, False])
def test_every_vertex_ends_over_one_variable_per_strand(word, reduced):
    # no monic pick blocks another row: every vertex keeps n - 1 variables
    # reduced and n unreduced, n the number of strands
    b = parse_braid(word)
    cube = build_cube(b, reduced=reduced)
    assert {cx.ring.nvars for cx in cube.vertices.values()} == {
        b.strands - reduced}


def test_drop_steps_come_before_the_first_relation():
    # linear picks are taken only while no relation is held
    seen = 0
    for word in ("1 1 -2 1 -2", "1 -2 1 -2 1 -2", "1 1 2 1 2 2"):
        for reduced in (False, True):
            cube = build_cube(parse_braid(word), reduced=reduced)
            for mask, red in vertex_reductions(cube).items():
                drops = [step.drop for step in red.steps]
                assert drops == sorted(drops, reverse=True), (word, mask)
                assert all(not step.relations for step in red.steps
                           if step.drop), (word, mask)
                seen += True in drops and False in drops
    assert seen


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(st.lists(st.sampled_from((1, 2, -1, -2)), min_size=1, max_size=4))
def test_vertex_homology_over_the_quotient_matches_unreduced(word):
    cube = build_cube(BraidWord(3, tuple(word)))
    for mask, red in vertex_reductions(cube).items():
        assert matrix_homology(red.matrix, 8, reduce=False) == matrix_homology(
            red.big, 8, reduce=False
        ), (word, mask)


def _column_by_definition(f, s, e, index):
    """pi_tgt(flip(iota_src(x^e e_s))) in the slice coordinates `index`."""
    flipped = {}
    for t, q in f.src.include({s: Polynomial(f.src.ring, {e: 1})}).items():
        flipped[t] = q * (f.odd if t >> f.row & 1 else f.even)
    col = {}
    for t, p in f.tgt.project(flipped).items():
        for te, c in p.terms.items():
            pos = index.get((t, te))
            if pos is not None:
                col[pos] = col.get(pos, 0) + c
    return {pos: v for pos, v in col.items() if v}


def test_flip_columns_match_their_definition(monkeypatch):
    # every cube edge, on every element of each source vertex's two lowest
    # slices at each k; sigma(x^e) off u = 1 must occur (a product over the
    # target's quotient ring).  Only the last word has it: one of its
    # vertices keeps a variable that a monic pick could not take
    products = []
    real_product = Quotient.product

    def product(self, ui):
        products.append(ui)
        return real_product(self, ui)

    monkeypatch.setattr(Quotient, "product", product)
    checked = 0
    for word in ("1 1 -2 1 -2", "1 -2 1 -2 1 -2", "1 -2 -1 -3 -3 -2"):
        cube = build_cube(parse_braid(word), reduced=True)
        for edge in cube.edges:
            src, tgt = cube.vertices[edge.src], cube.vertices[edge.tgt]
            least = {}
            for g in src.gens:
                k, l = g.bidegree.k, g.bidegree.l
                least[k] = min(least.get(k, l), l)
            for k, l in least.items():
                for q in (l, l + 2):
                    elems = slice_basis(src, k, q).elems
                    index = slice_basis(tgt, k, q).index
                    for s, e in elems:
                        assert edge.cmap.column(s, e, index) == (
                            _column_by_definition(edge.cmap, s, e, index)
                        ), (word, edge.src, edge.tgt, s, e)
                        checked += 1
    assert checked and products
