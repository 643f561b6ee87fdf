import random
from fractions import Fraction

import pytest

from conftest import vertex_reductions
from trigrad.algebra import Bidegree, PolyRing, QSeries, monomials_of_degree
from trigrad.braid import BraidWord, build_marked_diagram, parse_braid
from trigrad.catalog import closed_matrix, hom_pair, open_matrix
from trigrad.cube import build_cube, resolve
from trigrad.factor_complex import ChainMap, FlipMap, realize
from trigrad.homology import (
    InconclusiveComparison,
    TriGradedDims,
    WorkLimitExceeded,
    compare_up_to_shift,
    complex_work,
    euler_characteristic,
    graph_homology,
    hom_space_dim,
    induced_map,
    kernel_and_rank,
    link_homology,
    matrix_homology,
    reduce_closed_matrix,
    slice_basis,
    slice_homology_basis,
    slice_homology_dim,
)


class TestGraphHomologyBases:
    def test_bases_match_dims(self):
        g = ResolutionGraph(
            ("x1", "x2", "x3", "x4"),
            (("x1", "x3"), ("x2", "x4")),
            (("x1", "x2", "x3", "x4"),),
        )
        # the complex matrix_homology realizes: linear exclusions, then the
        # quotient by monic rows
        cx = realize(reduce_closed_matrix(koszul_of_graph(g)))
        dims = graph_homology(g, 7)
        lmin = min(gen.bidegree.l for gen in cx.gens)
        bases = {
            (k, l): slice_homology_basis(cx, k, l)
            for k in sorted({gen.bidegree.k for gen in cx.gens})
            for l in range(lmin, 8)
        }
        assert dims.dims == {
            (0, k, l): b.dim for (k, l), b in bases.items() if b.dim
        }
        for basis in bases.values():
            for rep in basis.reps:
                assert rep  # nonzero cycle representatives
from trigrad.koszul import (
    KoszulMatrix,
    KoszulRow,
    ResolutionGraph,
    aggregate_a,
    koszul_of_graph,
)


def _images(f, src, tgt, vecs):
    """Integer images under the `ChainMap` f of vectors of the `src` slice,
    in `tgt` slice coordinates: what `induced_map` gives for a `FlipMap`."""
    out = []
    for vec in vecs:
        image = {}
        for pos, c in vec.items():
            s, e = src.elems[pos]
            for t, p in f.mat.get(s, {}).items():
                for te, v in p.terms.items():
                    te = tuple(a + b for a, b in zip(e, te))
                    tpos = tgt.index.get((t, te))
                    if tpos is not None:
                        image[tpos] = image.get(tpos, 0) + c * v
        out.append({p: v for p, v in image.items() if v})
    return out


def _rank_modulo(boundaries, vecs):
    """rank(B + vecs) - rank(B): the rank of vecs modulo the span of B."""
    both, _ = kernel_and_rank(list(boundaries) + list(vecs), want_kernel=False)
    alone, _ = kernel_and_rank(list(boundaries), want_kernel=False)
    return both - alone


def _dense_rank(cols, nrows):
    mat = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for ci, col in enumerate(cols):
        for ri, v in col.items():
            mat[ri][ci] = Fraction(v)
    rank = 0
    pr = 0
    for pc in range(len(cols)):
        piv = next((ri for ri in range(pr, nrows) if mat[ri][pc] != 0), None)
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        pv = mat[pr][pc]
        for ri in range(nrows):
            if ri != pr and mat[ri][pc] != 0:
                f = mat[ri][pc] / pv
                for cc in range(len(cols)):
                    mat[ri][cc] -= f * mat[pr][cc]
        pr += 1
        rank += 1
    return rank


class TestLinalg:
    def test_rank_matches_dense_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            cols = []
            for _ in range(ncols):
                col = {}
                for _ in range(rng.randint(0, nrows)):
                    col[rng.randrange(nrows)] = rng.randint(-5, 5)
                cols.append({r: v for r, v in col.items() if v})
            rank, kernel = kernel_and_rank(cols, want_kernel=True)
            assert rank == _dense_rank(cols, nrows)
            assert rank + len(kernel) == ncols  # rank-nullity, exact
            for rec in kernel:
                # combination of columns vanishes
                acc = {}
                for ci, c in rec.items():
                    for ri, v in cols[ci].items():
                        acc[ri] = acc.get(ri, 0) + c * v
                assert all(v == 0 for v in acc.values())
                assert rec  # nontrivial


class TestSlices:
    def test_free_rank_one_module(self):
        r = PolyRing(("x1",))
        m = KoszulMatrix(r, (), (), Bidegree(-1, 1))
        cx = realize(m)
        for i in range(4):
            assert slice_basis(cx, -1, 1 + 2 * i).dim == 1
            assert slice_homology_dim(cx, -1, 1 + 2 * i) == 1
        assert slice_basis(cx, -1, -1).dim == 0
        assert slice_basis(cx, 0, 2).dim == 0

    def test_gamma0_slice_dims_by_enumeration(self):
        # generators at (0,0), (-1,1), (-1,1), (-2,2) over Q[a,x1..x4]:
        # a slice (k,l) gets sum over generators of #monomials a^r x^alpha
        # with 2r = k - k_g, 2|alpha| = l - l_g
        from trigrad.koszul import make_row

        r = PolyRing(("a", "x1", "x2", "x3", "x4"))
        a = r.var("a")
        m = KoszulMatrix(
            r,
            (
                make_row(a, r.var("x1") - r.var("x4")),
                make_row(a, r.var("x2") - r.var("x3")),
            ),
            (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1)),
        )
        cx = realize(m)

        def comb4(e):  # monomials of degree e in 4 variables
            return (e + 1) * (e + 2) * (e + 3) // 6 if e >= 0 else 0

        shifts = [(0, 0), (-1, 1), (-1, 1), (-2, 2)]
        for k in range(-2, 3):
            for l in range(0, 6):
                expect = 0
                for (kg, lg) in shifts:
                    dk, dl = k - kg, l - lg
                    if dk >= 0 and dk % 2 == 0 and dl >= 0 and dl % 2 == 0:
                        expect += comb4(dl // 2)
                assert slice_basis(cx, k, l).dim == expect


class TestGraphHomology:
    def test_circle(self):
        g = ResolutionGraph(("x1",), (("x1", "x1"),), ())
        h = graph_homology(g, 11)
        assert h.dims == {(0, -1, 1 + 2 * i): 1 for i in range(6)}

    def test_theta(self):
        h = matrix_homology(closed_matrix("theta"), 9)
        expect = {}
        for i in range(5):
            expect[(0, -1, 1 + 2 * i)] = i + 1  # Q[x1,x2]{-1,1}
        for i in range(3):
            expect[(0, -2, 4 + 2 * i)] = i + 1  # Q[x1,x2]{-2,4}
        expect = {k: v for k, v in expect.items() if k[2] <= 9}
        assert h.dims == expect

    @pytest.mark.parametrize("name", ["circle", "theta", "upsilon-closure",
                                      "gamma1-closure"])
    def test_complex_work_counts_the_slice_elements(self, name):
        # the count from the reduced matrix equals the slices of its
        # realized complex, summed over the whole grid
        m = reduce_closed_matrix(closed_matrix(name))
        cx = realize(m)
        ks = {g.bidegree.k for g in cx.gens}
        lmin = min(g.bidegree.l for g in cx.gens)
        for qmax in (lmin, 6, 11):
            assert complex_work(m, qmax) == sum(
                slice_basis(cx, k, l).dim
                for k in ks for l in range(lmin, qmax + 1))
        with pytest.raises(WorkLimitExceeded):
            matrix_homology(closed_matrix(name), 11,
                            max_work=complex_work(m, 11) - 1)

    def test_two_circles(self):
        d = build_marked_diagram(parse_braid("", strands=2))
        g = resolve(d, 0)
        h = graph_homology(g, 7)
        expect = {}
        for i in range(4):
            expect[(0, -1, 1 + 2 * i)] = i + 1
            if 2 + 2 * i <= 7:
                expect[(0, -2, 2 + 2 * i)] = i + 1
        assert h.dims == expect

    def test_open_graph_rejected(self):
        g = ResolutionGraph(("x1", "x2"), (("x2", "x1"),), ())
        with pytest.raises(ValueError):
            graph_homology(g, 5)

    def test_multiplication_by_a_acts_as_zero(self):
        # on the unreduced closed matrix, multiplication by `a` induces the
        # zero map on homology.  The slices are two k-degrees apart and both
        # carry homology.  Control: the contraction x1^2 e_1* e_2* by two
        # rows (0, b) is a chain map of the same bidegree (2, 0), and it is
        # not zero on homology, so the check can fail.  The rows are
        # aggregated first, an isomorphism that leaves a single row (a, 0).
        m = aggregate_a(closed_matrix("gamma2-closure"))
        assert [r.left.is_zero() for r in m.rows[1:3]] == [True, True]
        assert m.rows[1].shift + m.rows[2].shift == Bidegree(-2, 4)
        cx = realize(m)
        x1 = cx.ring.var("x1")
        amap = ChainMap(
            cx, cx,
            {i: {i: cx.ring.var("a")} for i in range(cx.rank())},
            Bidegree(2, 0),
        )
        contraction = ChainMap(
            cx, cx,
            {s: {s ^ 6: x1 * x1} for s in range(cx.rank()) if s & 6 == 6},
            Bidegree(2, 0),
        )
        amap.verify_chain_map()
        contraction.verify_chain_map()
        control = 0
        for (k, l) in [(-3, 5), (-3, 7)]:
            src = slice_homology_basis(cx, k, l)
            tgt = slice_homology_basis(cx, k + 2, l)
            assert src.dim and tgt.dim, (k, l)
            cols = _images(amap, src.basis, tgt.basis, src.reps)
            assert _rank_modulo(tgt.boundaries, cols) == 0, (k, l)
            cols = _images(contraction, src.basis, tgt.basis, src.reps)
            control += _rank_modulo(tgt.boundaries, cols)
        assert control

    def test_reduce_false_agrees(self):
        d = build_marked_diagram(parse_braid("1 1"))
        for mask in (0, 1, 3):
            m = koszul_of_graph(resolve(d, mask))
            full = matrix_homology(m, 6, reduce=False, krange=(-8, 2))
            red = matrix_homology(m, 6)
            assert full == red


class TestInducedMap:
    def test_zero_map(self):
        # the flip by (0, 0) induces zero on every vertex slice
        cube = build_cube(parse_braid("1"))
        seen = 0
        for mask, red in vertex_reductions(cube).items():
            cx, zero = cube.vertices[mask], red.big.ring.zero()
            z = FlipMap(red, red, 0, zero, zero)
            for k in sorted({g.bidegree.k for g in cx.gens}):
                for l in range(-2, 7):
                    src = slice_homology_basis(cx, k, l)
                    cols = induced_map(z, src.basis, src.basis, src.reps)
                    assert cols == [{}] * src.dim, (mask, k, l)
                    seen += src.dim
        assert seen

    def test_chi_composite_induces_multiplication(self):
        # on the 0-resolution vertex of the one-crossing closure, the
        # composite chi_1 chi_0 induces multiplication by the flip factor
        b = parse_braid("1")
        cube = build_cube(b)
        v0 = cube.vertices[0]
        v1 = cube.vertices[1]
        edge = cube.edges[0]  # chi_0: subset without the flip row gets y
        ring = cube.ring
        one = ring.one()
        y = edge.cmap.even
        assert y.homogeneous_bidegree() == Bidegree(0, 2)
        assert edge.cmap.odd == one
        row = edge.cmap.row
        reds = vertex_reductions(cube)
        red0, red1 = reds[0], reds[1]
        # chi_1 back; in absolute gradings the {0,2} cone shift of the source
        # vertex moves its bidegree from (0,0) to (0,2)
        chi1 = FlipMap(red1, red0, row, y, one)
        raw0, raw1 = realize(red0.big), realize(red1.big)
        diagonal = {s: {s: y if s >> row & 1 else one} for s in range(raw1.rank())}
        ChainMap(raw1, raw0, diagonal, Bidegree(0, 2)).verify_chain_map()
        mult = FlipMap(red0, red0, row, y, y)
        for (k, l) in [(-1, 3), (-2, 4), (-1, 5)]:
            src = slice_homology_basis(v0, k, l)
            mid = slice_homology_basis(v1, k, l)
            tgt = slice_homology_basis(v0, k, l + 2)
            first = induced_map(edge.cmap, src.basis, mid.basis, src.reps)
            comp = induced_map(chi1, mid.basis, tgt.basis, first)
            direct = induced_map(mult, src.basis, tgt.basis, src.reps)
            assert src.dim and len(comp) == len(direct)
            for c, d in zip(comp, direct):
                diff = dict(c)
                for u, v in d.items():
                    diff[u] = diff.get(u, 0) - v
                diff = {u: v for u, v in diff.items() if v}
                assert _rank_modulo(tgt.boundaries, [diff]) == 0, (k, l)


class TestCompareUpToShift:
    def _dims(self, entries, qmax):
        return TriGradedDims(dict(entries), qmax)

    def test_exact_shift_found(self):
        h = self._dims({(0, -1, 1): 1, (0, -1, 3): 2, (1, 0, 5): 1}, 10)
        shifted = self._dims(
            {(1, 0, 1): 1, (1, 0, 3): 2, (2, 1, 5): 1}, 10
        )
        assert compare_up_to_shift(h, shifted) == (1, 1, 0)

    def test_no_shift_exists(self):
        from trigrad.cube import braid_homology

        unknot = braid_homology(parse_braid("", strands=1), 10)
        hopf = braid_homology(parse_braid("1 1"), 10)
        assert compare_up_to_shift(unknot, hopf) is None

    def test_inconclusive_window(self):
        h1 = self._dims({(0, 0, 0): 1, (0, 0, 2): 1}, 2)
        h2 = self._dims({(0, 0, 8): 1}, 8)
        with pytest.raises(InconclusiveComparison):
            compare_up_to_shift(h1, h2)


class TestEuler:
    def test_unknot_series(self):
        h = TriGradedDims({(0, -1, 1 + 2 * i): 1 for i in range(4)}, 7)
        s = euler_characteristic(h)
        assert s == QSeries({1 + 2 * i: {-1: 1} for i in range(4)}, 7)

    def test_empty(self):
        assert euler_characteristic(TriGradedDims({}, 5)).coeffs == {}

    def test_cone_relation_on_one_crossing(self):
        # <D sigma> = <De> - q^2 <D> for the 1-crossing 2-braid closure
        from trigrad.cube import braid_homology

        d = build_marked_diagram(parse_braid("1"))
        circles = euler_characteristic(graph_homology(resolve(d, 0), 12))
        theta = euler_characteristic(graph_homology(resolve(d, 1), 12))
        whole = euler_characteristic(braid_homology(parse_braid("1"), 10))
        rhs: dict = {}
        for series, shift, sign in ((theta, 0, 1), (circles, 2, -1)):
            for q, row in series.coeffs.items():
                acc = rhs.setdefault(q + shift, {})
                for te, c in row.items():
                    acc[te] = acc.get(te, 0) + sign * c
        assert whole == QSeries(rhs, 10)


class TestHomSpaces:
    def test_required_dimensions(self):
        cases = [
            ("gamma110", "gamma100", 1),
            ("gamma100", "gamma110", 0),
            ("s2", "s2", 1),
            ("upsilon", "gamma110", 1),
            ("gamma100", "gamma000", 1),
            ("gamma000", "gamma100", 0),
        ]
        for src, tgt, expect in cases:
            m, n = hom_pair(src, tgt)
            assert hom_space_dim(m, n) == expect, (src, tgt)

    def test_potential_mismatch_rejected(self):
        m, _ = hom_pair("s2", "s2")
        _, n = hom_pair("gamma000", "gamma000")
        with pytest.raises(ValueError):
            hom_space_dim(m, n)


class TestInducedIdentity:
    def test_identity_induces_identity_on_every_slice(self):
        # the flip by (1, 1) is the identity before reduction, and
        # pi o iota = id at each vertex
        cube = build_cube(parse_braid("1 -2"))
        for mask, red in vertex_reductions(cube).items():
            cx, one = cube.vertices[mask], red.big.ring.one()
            ident = FlipMap(red, red, 0, one, one)
            lmin = min(g.bidegree.l for g in cx.gens)
            for k in sorted({g.bidegree.k for g in cx.gens}):
                for l in range(lmin, 7):
                    basis = slice_homology_basis(cx, k, l)
                    cols = induced_map(ident, basis.basis, basis.basis,
                                       basis.reps)
                    assert cols == basis.reps, (k, l)
                    assert _rank_modulo(basis.boundaries, cols) == basis.dim


class TestCubeLevelInvariants:
    def test_first_smoothing_edge_injective_on_homology(self):
        # the edge out of the all-smoothed vertex of the two-crossing pair
        # embeds it as a direct summand, hence is injective slice by slice
        cube = build_cube(parse_braid("1 -1"))
        edge = next(e for e in cube.edges if e.src == 0 and e.tgt == 1)
        v0, v1 = cube.vertices[0], cube.vertices[1]
        for k in sorted({g.bidegree.k for g in v0.gens}):
            for l in range(-2, 8):
                src = slice_homology_basis(v0, k, l)
                if src.dim == 0:
                    continue
                tgt = slice_homology_basis(v1, k, l)
                cols = induced_map(edge.cmap, src.basis, tgt.basis, src.reps)
                assert _rank_modulo(tgt.boundaries, cols) == src.dim, (k, l)

    def test_cube_ranks_need_the_target_boundaries(self, monkeypatch):
        # negative control: with the boundary term B dropped from every cube
        # block, the figure-eight's table changes
        from dataclasses import replace

        import trigrad.homology as hom
        from trigrad.cube import braid_homology

        b = parse_braid("1 -2 1 -2")
        right = braid_homology(b, 8)
        real = hom.slice_homology_basis
        monkeypatch.setattr(
            hom, "slice_homology_basis",
            lambda cx, k, l: replace(real(cx, k, l), boundaries=[]),
        )
        assert braid_homology(b, 8) != right

    def test_euler_is_alternating_sum_over_vertices(self):
        # the cube differential drops out of Euler counts
        from trigrad.homology import slice_homology_dim

        qmax = 9
        cube = build_cube(parse_braid("1 1 1"))
        total = {}
        for mask, cx in cube.vertices.items():
            sign = -1 if cube.jdeg[mask] % 2 else 1
            lmin = min(g.bidegree.l for g in cx.gens)
            for k in sorted({g.bidegree.k for g in cx.gens}):
                for l in range(lmin, qmax + 1):
                    d = slice_homology_dim(cx, k, l)
                    if d:
                        key = (l, k)
                        total[key] = total.get(key, 0) + sign * d
        total = {key: v for key, v in total.items() if v}
        h = link_homology(cube, qmax)
        s = euler_characteristic(h)
        expect = {}
        for (l, k), v in total.items():
            expect.setdefault(l, {})[k] = v
        from trigrad.algebra import QSeries

        assert s == QSeries(expect, qmax)


def _reference_slice(cx, k, l):
    """slice_basis(cx, k, l).elems, from a walk over every generator."""
    has_a = "a" in cx.ring.names
    nx = cx.ring.nvars - has_a
    elems = []
    for gi, g in enumerate(cx.gens):
        dk, dl = k - g.bidegree.k, l - g.bidegree.l
        if dl < 0 or dl % 2 or (dk < 0 or dk % 2 if has_a else dk):
            continue
        a = (dk // 2,) if has_a else ()
        elems.extend((gi, a + mono) for mono in monomials_of_degree(nx, dl // 2))
    return elems


@pytest.mark.parametrize("name", ["gamma000", "gamma111", "upsilon"])
def test_slice_basis_visits_only_reachable_generators(name):
    # over Z[a, x] a slice holds a^r x^m e_g for g at or below its k and l;
    # over Z[x] (a graph's reduced complex) only g at its own k
    cxs = [realize(open_matrix(name)),
           _graph_complex((1, 2, 1, 1, 2, 2), 0b111011)[1]]
    for cx in cxs:
        ks = {g.bidegree.k for g in cx.gens}
        ls = {g.bidegree.l for g in cx.gens}
        for k in range(min(ks) - 1, max(ks) + 4):
            for l in range(min(ls) - 1, max(ls) + 4):
                assert slice_basis(cx, k, l).elems == _reference_slice(
                    cx, k, l), (k, l)


def _graph_complex(word, mask):
    g = resolve(build_marked_diagram(BraidWord(3, tuple(word))), mask)
    return g, realize(reduce_closed_matrix(koszul_of_graph(g)))


def _slices(cx, qmax):
    lmin = min(g.bidegree.l for g in cx.gens)
    ks = sorted({g.bidegree.k for g in cx.gens})
    return [(k, l) for k in ks for l in range(lmin, qmax + 1)]


class TestDiagonalSweep:
    """A complex keeps the block of d out of the slice it visited last and
    reuses its echelon as the boundaries of the next slice up the diagonal;
    any other order must recompute them."""

    def test_sweep_equals_cold_on_a_cube_vertex(self):
        cube = build_cube(parse_braid("1 -2 1 -2 1 -2"), reduced=True)
        cx = max(cube.vertices.values(), key=lambda c: c.rank())
        sweep = sorted(_slices(cx, 8), key=lambda kl: (kl[0] - kl[1], kl[1]))
        warm = {(k, l): slice_homology_basis(cx, k, l) for k, l in sweep}
        shuffled = list(sweep)
        random.Random(7).shuffle(shuffled)
        cold = {(k, l): slice_homology_basis(cx, k, l) for k, l in shuffled}
        assert warm == cold
        assert any(b.boundaries for b in warm.values())
        assert any(b.reps for b in warm.values())

    @pytest.mark.parametrize(
        "word, mask",
        [((1, 2, 1, 2, 1, 2), 63), ((1, 1, 2, 1, 2, 2), 31),
         ((1, 2, 2, 1, 1, 2), 62)],
    )
    def test_matrix_homology_equals_cold_slices(self, word, mask):
        g, cx = _graph_complex(word, mask)
        shuffled = _slices(cx, 14)
        random.Random(11).shuffle(shuffled)
        cold = {(0, k, l): slice_homology_dim(cx, k, l) for k, l in shuffled}
        assert graph_homology(g, 14).dims == {
            key: d for key, d in sorted(cold.items()) if d
        }


class TestEachBlockOnce:
    """Each nonempty block of d between two slices of one complex has its
    columns built once, although it is the out-block of one visited slice
    and the boundary block of the next."""

    def _spy(self, monkeypatch, hom):
        built, visited = [], []
        real_columns = hom._columns_of_map

        def columns(mat, src, tgt):
            built.append((id(mat), tuple(src.elems), tuple(tgt.elems)))
            return real_columns(mat, src, tgt)

        def visiting(real):
            def visit(cx, k, l):
                visited.append((cx, k, l))
                return real(cx, k, l)
            return visit

        monkeypatch.setattr(hom, "_columns_of_map", columns)
        for name in ("slice_homology_basis", "slice_homology_dim"):
            monkeypatch.setattr(hom, name, visiting(getattr(hom, name)))
        return built, visited

    @staticmethod
    def _blocks(visited):
        """The blocks (k, l) -> (k+1, l+1) with both slices nonempty that
        have a visited slice at one end."""
        out = set()
        for cx, k, l in visited:
            for s in ((k - 1, l - 1), (k, l)):
                src = slice_basis(cx, *s)
                tgt = slice_basis(cx, s[0] + 1, s[1] + 1)
                if src.dim and tgt.dim:
                    out.add((id(cx.d), tuple(src.elems), tuple(tgt.elems)))
        return out

    def test_graph_homology(self, monkeypatch):
        import trigrad.homology as hom

        g, _ = _graph_complex((1, 2, 1, 2, 1, 2), 63)
        built, visited = self._spy(monkeypatch, hom)
        assert hom.graph_homology(g, 14).dims
        assert len(built) == len(set(built)) == len(self._blocks(visited))
        assert set(built) == self._blocks(visited)

    def test_link_homology(self, monkeypatch):
        import trigrad.homology as hom

        cube = build_cube(parse_braid("1 1 2 1 2"))
        built, visited = self._spy(monkeypatch, hom)
        assert hom.link_homology(cube, 6).dims
        assert len(built) == len(set(built))
        assert set(built) == self._blocks(visited)

    def test_each_block_is_eliminated_once(self, monkeypatch):
        # one kernel_and_rank pass per block whose columns a vertex slice
        # built: the kernel comes from the pass that gives the rank
        import trigrad.homology as hom

        calls = {"in_vertex": 0, "columns": 0, "eliminations": 0}
        real_columns, real_rank = hom._columns_of_map, hom.kernel_and_rank

        def columns(*args):
            calls["columns"] += 1
            return real_columns(*args)

        def rank(*args, **kwargs):
            calls["eliminations"] += calls["in_vertex"] > 0
            return real_rank(*args, **kwargs)

        def visiting(real):
            def visit(*args):
                calls["in_vertex"] += 1
                try:
                    return real(*args)
                finally:
                    calls["in_vertex"] -= 1
            return visit

        monkeypatch.setattr(hom, "_columns_of_map", columns)
        monkeypatch.setattr(hom, "kernel_and_rank", rank)
        for name in ("slice_homology_basis", "slice_homology_dim"):
            monkeypatch.setattr(hom, name, visiting(getattr(hom, name)))
        cube = build_cube(parse_braid("1 1 -2 1 -2"), reduced=True)
        assert hom.link_homology(cube, 6).dims
        assert calls["columns"] and calls["eliminations"] == calls["columns"]


class TestEmptySliceSkip:
    """`_slices` reads off the generator index exactly the slices whose
    basis is nonempty, and `link_homology` builds a vertex basis only
    there."""

    CUBES = [("1 1 2 1 2 2 2", True, 6), ("1 1 2 1 2 2 2", False, 6),
             ("-1 2 1 2 -1", False, 8), ("n=1", True, 4), ("n=3 1", True, 5)]

    @staticmethod
    def _grid(cx, qmax):
        ks = [g.bidegree.k for g in cx.gens]
        ls = [g.bidegree.l for g in cx.gens]
        return {(k, l) for k in range(min(ks) - 1, max(ks) + 2)
                for l in range(min(ls) - 2, qmax + 1)}

    def _nonempty(self, cx, qmax):
        return {kl for kl in self._grid(cx, qmax) if slice_basis(cx, *kl).dim}

    @pytest.mark.parametrize("name", ["circle", "theta", "upsilon-closure",
                                      "gamma1-closure"])
    def test_graph_complexes(self, name):
        import trigrad.homology as hom

        cx = realize(reduce_closed_matrix(closed_matrix(name)))
        for qmax in (3, 8):
            assert hom._slices(cx, qmax) == self._nonempty(cx, qmax)

    @pytest.mark.parametrize("word, reduced, qmax", CUBES)
    def test_skipped_slices_are_empty(self, monkeypatch, word, reduced, qmax):
        import trigrad.homology as hom

        cube = build_cube(parse_braid(word), reduced=reduced)
        mask_of = {id(cx): mask for mask, cx in cube.vertices.items()}
        real = hom.slice_homology_basis
        visited = set()

        def visit(cx, k, l):
            visited.add((mask_of[id(cx)], k, l))
            return real(cx, k, l)

        monkeypatch.setattr(hom, "slice_homology_basis", visit)
        table = hom.link_homology(cube, qmax)
        assert table.dims
        # so `_slices` is exact at every vertex
        assert visited == {(mask, k, l) for mask, cx in cube.vertices.items()
                           for k, l in self._nonempty(cx, qmax)}
        # a full grid at every vertex adds only empty slices
        monkeypatch.setattr(hom, "_slices", self._grid)
        assert hom.link_homology(cube, qmax).dims == table.dims
