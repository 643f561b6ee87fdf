"""Per-vertex reduction: each cube vertex is realized after `exclude_all`
(linear exclusions, then monic picks), over R/(relations), and edges act as
pi_tgt o psi o iota_src.

iota and pi must be chain maps with pi o iota = id, checked here generator
by generator against complexes realized from each vertex's unreduced
Koszul matrix; cube squares must anticommute on homology; and the quotient
must not change any vertex's homology.

The library carries elements on integer terms, with memoized quotients.
`_include` and `_project` below are a reference: the iota and pi of the
`Reduction` docstring written out in `Polynomial` arithmetic, step by step,
with no memo.  The edge images are checked against them.
"""

from collections import defaultdict
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import vertex_reductions
from trigrad.algebra import Polynomial
from trigrad.braid import BraidWord, parse_braid
from trigrad.cube import braid_homology, build_cube
from trigrad.factor_complex import FlipMap, realize
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
            _add(out, t, q * p)
    return out


def _add(x, s, p):
    q = x[s] + p if s in x else p
    if q.is_zero():
        x.pop(s, None)
    else:
        x[s] = q


def _sign(mask, k):
    return -1 if bin(mask & ((1 << k) - 1)).count("1") % 2 else 1


def _include(red, x):
    """iota of {generator: coefficient over red.ring} into realize(red.big),
    the steps undone last first: p e_S -> p e_S - sum_{k in S} sign(S, k)
    sign(S-k+i, i) H(b_k p) e_{S-k+i}, H the step's `Exclusion.quotient`."""
    nb, full = len(red.quo.monos), red.quo.full
    out = {}
    for s, p in x.items():
        u = Polynomial(full, {red.quo.exponents(full)[s % nb]: 1})
        _add(out, s // nb, u * p.map_to_ring(full))
    for st in reversed(red.steps):
        i, ring = st.row, st.f.ring
        x, out = out, {}
        for s, p in x.items():
            p = p.map_to_ring(ring)
            full = (s & ((1 << i) - 1)) | (s >> i << (i + 1))
            _add(out, full, p)
            for k, b in enumerate(st.rights):
                if k != i and full >> k & 1 and not b.is_zero():
                    t = full ^ (1 << k) | (1 << i)
                    h = st.quotient(b * p)
                    _add(out, t, h * (-_sign(full, k) * _sign(t, i)))
    return out


def _project(red, x):
    """pi of {generator: coefficient over red.big.ring}: e_S dies when S
    holds a removed row, and every step's normal form acts on the
    coefficient."""
    nb = len(red.quo.monos)
    out = {}
    for s, p in x.items():
        for st in red.steps:
            if s >> st.row & 1:
                break
            s = (s & ((1 << st.row) - 1)) | (s >> (st.row + 1) << st.row)
        else:
            for st in red.steps:
                p = st.reduce(p)
            for ui, q in red.quo.split(p):
                _add(out, s * nb + ui, q)
    return out


def _element(ring, terms):
    """{(generator, exponents): c} as {generator: coefficient over ring}."""
    out = {}
    for (s, e), c in terms.items():
        _add(out, s, Polynomial(ring, {e: c}))
    return out


def _terms(x):
    """{generator: coefficient} as {(generator, exponents): c}."""
    return {(s, e): c for s, p in x.items() for e, c in p.terms.items()}


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
    # a mark name for `reduced` is the basepoint of a reduced cube.  The
    # flat lift of each generator equals the reference iota, commutes with
    # d (iota is linear over the vertex ring) and projects back to itself
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
        one = small.ring.one()
        zero = (0,) * small.ring.nvars
        for s in range(small.rank()):
            up = _element(big.ring, red.lift(s))
            assert up == _include(red, {s: one}), (mask, s)
            down = {}
            for t, p in small.d.get(s, {}).items():
                for u, q in _element(big.ring, red.lift(t)).items():
                    _add(down, u, q * p.map_to_ring(big.ring))
            assert _d(big, up) == down, (mask, s)
            assert red.project(red.lift(s)) == {(s, zero): 1}, (mask, s)
        # on the unreduced side, y^m of a relation's variable checks the
        # normal form
        p_big = [
            prod([big.ring.var(step.var)] * step.f.degree_in(step.var),
                 start=big.ring.one())
            for step in red.steps[-1:]
        ]
        for s in range(big.rank()):
            for p in [big.ring.one()] + p_big:
                x = {s: p}
                got = _element(small.ring, red.project(_terms(_d(big, x))))
                assert got == _d(
                    small, _element(small.ring, red.project(_terms(x)))
                ), (mask, s)
                assert got == _project(red, _d(big, x)), (mask, s)
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
    """pi_tgt(flip(iota_src(x^e e_s))) in the slice coordinates `index`,
    by the reference iota and pi."""
    flipped = {}
    for t, q in _include(f.src, {s: Polynomial(f.src.ring, {e: 1})}).items():
        flipped[t] = q * (f.odd if t >> f.row & 1 else f.even)
    col = {}
    for t, p in _project(f.tgt, flipped).items():
        for te, c in p.terms.items():
            pos = index.get((t, te))
            if pos is not None:
                col[pos] = col.get(pos, 0) + c
    return {pos: v for pos, v in col.items() if v}


def test_flip_columns_match_their_definition(monkeypatch):
    # every cube edge of each reduced cube, on every element of each source
    # vertex's two lowest slices at each k: the columns of `induced_map`
    # (and the images of the generators) equal the reference.  sigma(x^e)
    # off u = 1 must occur, an image multiplied by a standard monomial
    # u != 1 of the target: only the last word has it, as one of its
    # vertices keeps a variable that a monic pick could not take
    images = []
    real_image = FlipMap.image

    def image(self, s, ui=0):
        if ui:
            images.append(ui)
        return real_image(self, s, ui)

    monkeypatch.setattr(FlipMap, "image", image)
    checked = 0
    for word in ("1 1 -2 1 -2", "1 -2 1 -2 1 -2", "1 -2 -1 -3 -3 -2"):
        images.clear()
        cube = build_cube(parse_braid(word), reduced=True)
        for edge in cube.edges:
            checked += _check_edge(word, edge, cube)
        assert bool(images) == (word == "1 -2 -1 -3 -3 -2"), word
    assert checked


def _check_edge(word, edge, cube):
    """Check one edge's generator images and slice columns against the
    reference; returns the number of columns checked."""
    f, checked = edge.cmap, 0
    src, tgt = cube.vertices[edge.src], cube.vertices[edge.tgt]
    for s in range(src.rank()):
        image = {}
        for t, e, c in f.image(s):
            image[t, e] = image.get((t, e), 0) + c
        flipped = {}
        for t, q in _include(f.src, {s: src.ring.one()}).items():
            flipped[t] = q * (f.odd if t >> f.row & 1 else f.even)
        assert image == _terms(_project(f.tgt, flipped)), (word, edge, s)
    least = {}
    for g in src.gens:
        k, l = g.bidegree.k, g.bidegree.l
        least[k] = min(least.get(k, l), l)
    for k, l in least.items():
        for q in (l, l + 2):
            sb, tb = slice_basis(src, k, q), slice_basis(tgt, k, q)
            units = [{pos: 1} for pos in range(sb.dim)]
            cols = induced_map(f, sb, tb, units)
            for (s, e), col in zip(sb.elems, cols):
                assert col == _column_by_definition(f, s, e, tb.index), (
                    word, edge.src, edge.tgt, s, e)
                checked += 1
    return checked
