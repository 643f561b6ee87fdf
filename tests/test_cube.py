import gc
import weakref
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from conftest import vertex_reductions
from cube_end_state import mismatches
from trigrad.algebra import Bidegree
from trigrad.braid import BraidWord, build_marked_diagram, parse_braid
import trigrad.cube as cube_module
from trigrad.cube import (
    braid_homology, build_cube, reduce_mode_check, resolve, word_homology,
)
from trigrad.factor_complex import ChainMap, realize
from trigrad.homology import (
    InconclusiveComparison,
    graph_homology,
    link_homology,
    slice_homology_dim,
)
import trigrad.koszul as koszul_module
from trigrad.koszul import linear_picks


class TestResolve:
    def test_one_crossing_smoothing_is_two_circles(self):
        d = build_marked_diagram(parse_braid("1"))
        g = resolve(d, 0)
        assert g.wides == ()
        assert len(g.arcs) == 4
        assert g.external_signs() == ()

    def test_one_crossing_wide_is_theta(self):
        d = build_marked_diagram(parse_braid("1"))
        g = resolve(d, 1)
        assert len(g.wides) == 1
        assert len(g.arcs) == 2

    def test_trefoil_all_wide(self):
        d = build_marked_diagram(parse_braid("1 1 1"))
        g = resolve(d, 0b111)
        assert len(g.wides) == 3
        assert len(g.arcs) == 2

    def test_bad_mask(self):
        d = build_marked_diagram(parse_braid("1"))
        with pytest.raises(ValueError):
            resolve(d, 2)


class TestBuildCube:
    def test_unknot_single_vertex(self):
        cube = build_cube(parse_braid("", strands=1))
        assert list(cube.vertices) == [0]
        assert cube.edges == []
        h = link_homology(cube, 9)
        assert h.dims == {(0, -1, 1 + 2 * i): 1 for i in range(5)}

    def test_sigma_pair_cube_shape(self):
        cube = build_cube(parse_braid("1 -1"))
        assert len(cube.vertices) == 4
        assert len(cube.edges) == 4
        # positive crossing edges go 0 -> 1 on bit 0; negative go 1 -> 0 on bit 1
        dirs = {(e.src, e.tgt) for e in cube.edges}
        assert dirs == {(0, 1), (2, 3), (2, 0), (3, 1)}

    def test_edges_are_chain_maps_and_squares_anticommute(self):
        # psi and psi' on the unexcluded vertex complexes, realized from each
        # vertex's Koszul matrix
        for text in ["1 1", "1 -1", "1 1 1"]:
            cube = build_cube(parse_braid(text))
            raw = {mask: realize(red.big)
                   for mask, red in vertex_reductions(cube).items()}
            flips = {}
            for e in cube.edges:
                f = e.cmap
                mat = {}
                for s in range(raw[e.src].rank()):
                    factor = f.odd if s >> f.row & 1 else f.even
                    if not factor.is_zero():
                        mat[s] = {s: factor}
                flips[e.src, e.tgt] = ChainMap(raw[e.src], raw[e.tgt], mat)
                flips[e.src, e.tgt].verify_chain_map()
            out = defaultdict(list)
            for e in cube.edges:
                out[e.src].append(e)
            for e1 in cube.edges:
                for e2 in out[e1.tgt]:
                    for f1 in out[e1.src]:
                        if f1.src ^ f1.tgt != e2.src ^ e2.tgt:
                            continue
                        for f2 in out[f1.tgt]:
                            if (f2.src ^ f2.tgt != e1.src ^ e1.tgt
                                    or f2.tgt != e2.tgt):
                                continue
                            a = flips[e2.src, e2.tgt].compose(flips[e1.src, e1.tgt])
                            b = flips[f2.src, f2.tgt].compose(flips[f1.src, f1.tgt])
                            for s in range(len(a.src.gens)):
                                row = {
                                    t: p * (e1.sign * e2.sign)
                                    for t, p in a.mat.get(s, {}).items()
                                }
                                for t, p in b.mat.get(s, {}).items():
                                    row[t] = row.get(t, p.ring.zero()) + p * (
                                        f1.sign * f2.sign
                                    )
                                assert all(p.is_zero() for p in row.values())

    def test_vertices_match_graph_homology(self):
        # the shared-exclusion pipeline gives the same homology as reducing
        # each resolution independently (cone shifts removed)
        b = parse_braid("1 1")
        cube = build_cube(b)
        for mask, cx in cube.vertices.items():
            lshift = sum(
                2
                for p, s in enumerate(b.letters)
                if s > 0 and not mask >> p & 1
            ) + sum(-2 for s in b.letters if s < 0)
            hg = graph_homology(resolve(build_marked_diagram(b), mask), 8)
            ks = sorted({g.bidegree.k for g in cx.gens})
            lmin = min(g.bidegree.l for g in cx.gens)
            dims = {}
            for k in ks:
                for l in range(lmin, 9 + lshift):
                    dval = slice_homology_dim(cx, k, l)
                    if dval and l - lshift <= 8:
                        dims[(0, k, l - lshift)] = dval
            assert dims == {
                key: v for key, v in hg.dims.items() if key[2] <= 8
            }, mask

    def test_deterministic_build(self):
        a = build_cube(parse_braid("1 -2"))
        b = build_cube(parse_braid("1 -2"))
        assert a.ring == b.ring
        assert a.vertices == b.vertices
        assert a.jdeg == b.jdeg
        reds_a, reds_b = vertex_reductions(a), vertex_reductions(b)
        for mask in a.vertices:
            ra, rb = reds_a[mask], reds_b[mask]
            assert ra.steps == rb.steps
            assert ra.matrix.relations == rb.matrix.relations

        def edges(cube):
            return [(e.src, e.tgt, e.sign, e.cmap.row, e.cmap.odd, e.cmap.even)
                    for e in cube.edges]

        assert edges(a) == edges(b)

    def test_each_vertex_keeps_its_reduction(self):
        cube = build_cube(parse_braid("1 1 1"))
        reds = vertex_reductions(cube)

        def excluded(mask):
            return [st.var for st in reds[mask].steps if st.drop]

        def relations(mask):
            return [(y, str(f)) for y, f in reds[mask].matrix.relations]

        assert (cube.jdeg[0b000], excluded(0b000), relations(0b000)) == (
            -3, ["x4", "x6"], [])
        assert (cube.jdeg[0b011], excluded(0b011), relations(0b011)) == (
            -1, ["x6"], [("x4", "-x4^2 + x4*x7 + x4*x8 - x7*x8")])

    def test_open_braid_never_happens(self):
        # closures are always closed; the guard is on the shared potential
        cube = build_cube(parse_braid("2", strands=3))
        assert len(cube.vertices) == 2

    @pytest.mark.parametrize("word, reduced, basepoint, marks", [
        ("1 1 2 1 2 2 2", False, None, 1),
        ("1 1 2 1 2 2 2", True, None, 1),
        ("1 -2 1 -2 1 -2", False, None, 1),
        ("1 -2 1 -2 1 -2", True, None, 1),
        ("1 -2 -1 -3 -3 -2", True, None, 1),
        ("1 -2 3 -2", False, None, 2),
        ("1 -2 1 -2 1 -2", True, "x3", 1),
    ])
    def test_trie_walk_ends_where_exclude_all_ends(self, word, reduced,
                                                   basepoint, marks):
        # the walk takes the linear picks per trie node; every vertex must
        # still end as one exclude_all call on its unreduced matrix ends
        cube = build_cube(parse_braid(word), reduced, basepoint, marks)
        assert mismatches(cube) == []

    @pytest.mark.parametrize("word", ["1 -2 1", "1 1 2 1 2 2 2"])
    def test_linear_picks_runs_once_per_trie_child(self, word, monkeypatch):
        # one call per trie node but the root (2^(c+1) - 2 of them), one
        # for the shared reduction, and no further one at a leaf
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return linear_picks(*args, **kwargs)

        monkeypatch.setattr(cube_module, "linear_picks", spy)
        monkeypatch.setattr(koszul_module, "linear_picks", spy)
        b = parse_braid(word)
        cube = build_cube(b, True)
        c = len(b.letters)
        assert len(cube.vertices) == 2 ** c
        assert len(calls) == 2 ** (c + 1) - 1

    def test_cube_is_freed_by_reference_counting(self):
        # a reference cycle would keep every finished cube alive until the
        # cyclic collector runs
        gc.disable()
        try:
            cube = build_cube(parse_braid("1 -2 1"), True)
            ref = weakref.ref(vertex_reductions(cube)[0b101])
            del cube
            assert ref() is None
        finally:
            gc.enable()


@st.composite
def _braids(draw):
    strands = draw(st.integers(2, 4))
    letters = [s for s in range(1 - strands, strands) if s]
    return BraidWord(strands, tuple(
        draw(st.lists(st.sampled_from(letters), max_size=6))))


class TestPrunedCube:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(_braids())
    def test_lmax_keeps_exactly_the_vertices_below_it(self, b):
        # the bound is tight: a vertex is built iff its full-cube complex
        # has a generator at l <= lmax, and the table up to lmax holds
        for reduced in (False, True):
            full = build_cube(b, reduced)
            least = {mask: min(g.bidegree.l for g in cx.gens)
                     for mask, cx in full.vertices.items()}
            low = min(least.values())
            # each slice is computed on its own, so a table cut at lmax is
            # the top table's entries at l <= lmax
            top = link_homology(full, low + 4).dims
            for lmax in (low - 1, low + 2, low + 4):
                cube = build_cube(b, reduced, lmax=lmax)
                assert set(cube.vertices) == {
                    mask for mask, l in least.items() if l <= lmax}
                assert cube.lmax == lmax
                assert link_homology(cube, lmax).dims == {
                    key: d for key, d in top.items() if key[2] <= lmax}

    def test_a_vertex_with_every_neighbour_pruned_ends_no_edge(self):
        # at l <= 1 the reduced trefoil keeps only its all-ones vertex
        cube = build_cube(parse_braid("1 1 1"), True, lmax=1)
        assert (list(cube.vertices), cube.edges) == ([0b111], [])
        assert mismatches(cube) == []

    @pytest.mark.parametrize("word, reduced", [("1 1 2 1 2 2", True),
                                               ("1 -2 1 -2", False)])
    def test_vertices_hold_d_only_up_to_lmax(self, word, reduced):
        # every generator is kept, d only on those at l <= lmax, each row
        # as in the whole cube; a slice above lmax is refused, never read
        # as a zero column
        b = parse_braid(word)
        full = build_cube(b, reduced)
        low = min(g.bidegree.l for cx in full.vertices.values()
                  for g in cx.gens)
        lmax = low + 4
        cube = build_cube(b, reduced, lmax=lmax)
        assert cube.vertices
        cut = 0
        for mask, cx in cube.vertices.items():
            whole = full.vertices[mask]
            assert (cx.gens, cx.lmax, whole.lmax) == (whole.gens, lmax, None)
            assert cx.d == {s: row for s, row in whole.d.items()
                            if whole.gens[s].bidegree.l <= lmax}
            cut += len(whole.d) - len(cx.d)
            cx.verify_d_squared()
            k = cx.gens[-1].bidegree.k
            assert slice_homology_dim(cx, k, lmax) == slice_homology_dim(
                whole, k, lmax)
            with pytest.raises(ValueError,
                               match=rf"slice \({k}, {lmax + 1}\) .* {lmax}"):
                slice_homology_dim(cx, k, lmax + 1)
        assert cut

    def test_qmax_above_lmax_is_refused(self):
        b = parse_braid("1 1 1")
        with pytest.raises(ValueError, match="qmax 9 .* lmax 8"):
            link_homology(build_cube(b, True, lmax=8), 9)
        full = build_cube(b, True)
        assert full.lmax is None
        assert link_homology(full, 99).dims


class TestReduced:
    def test_reduced_unknot_one_class(self):
        h = braid_homology(parse_braid("", strands=1), 9, reduced=True)
        assert h.dims == {(0, -1, 1): 1}

    def test_reduce_mode_check_passes(self):
        assert reduce_mode_check(parse_braid("", strands=1), 10)
        assert reduce_mode_check(parse_braid("1 1"), 10)

    def test_trefoil_to_qmax_12(self):
        assert reduce_mode_check(parse_braid("1 1 1"), 12)

    def test_two_unlink_either_basepoint(self):
        b = parse_braid("", strands=2)
        assert reduce_mode_check(b, 10, basepoint="x1")
        assert reduce_mode_check(b, 10, basepoint="x2")

    def test_unknown_basepoint(self):
        with pytest.raises(ValueError):
            build_cube(parse_braid("1"), reduced=True, basepoint="zz")

    def test_cutoff_too_small_is_reported(self):
        with pytest.raises(InconclusiveComparison):
            reduce_mode_check(parse_braid("", strands=1), 0)

    @pytest.mark.parametrize("text, strands, qmax", [
        ("", 3, 10),
        ("1 1", 3, 10),
        ("1 1 1 1", None, 10),
        ("-1 -1", None, 10),
        ("1 1 -2 1 -2", None, 10),
    ], ids=["unlink3", "hopf-on-3-strands", "T(2,4)", "negative-hopf",
            "1 1 -2 1 -2"])
    def test_links_match_exactly_up_to_qmax(self, text, strands, qmax):
        assert reduce_mode_check(parse_braid(text, strands), qmax)

    def test_direct_side_builds_the_unreduced_cube(self, monkeypatch):
        real = cube_module.build_cube
        seen = []

        def spy(b, reduced=False, *args, **kwargs):
            seen.append(reduced)
            return real(b, reduced, *args, **kwargs)

        monkeypatch.setattr(cube_module, "build_cube", spy)
        assert reduce_mode_check(parse_braid("1 1"), 8)
        assert sorted(seen) == [False, True]

    def test_perturbed_direct_side_fails(self, monkeypatch):
        # one extra class in the direct unreduced table must be caught
        real_build, real_link = cube_module.build_cube, cube_module.link_homology
        direct = []

        def build(b, reduced=False, *args, **kwargs):
            cube = real_build(b, reduced, *args, **kwargs)
            if not reduced:
                direct.append(cube)
            return cube

        def link(cube, qmax, **kwargs):
            h = real_link(cube, qmax, **kwargs)
            if any(cube is c for c in direct):
                h.dims[max(h.dims)] += 1
            return h

        monkeypatch.setattr(cube_module, "build_cube", build)
        monkeypatch.setattr(cube_module, "link_homology", link)
        assert not reduce_mode_check(parse_braid("1 1"), 8)
        assert direct

    def test_class_missing_from_the_direct_side_fails(self, monkeypatch):
        # Hbar of the trefoil has no class at (0, -2, 8), so dropping it
        # from every table removes it from the direct side alone
        real_link = cube_module.link_homology

        def link(cube, qmax):
            h = real_link(cube, qmax)
            h.dims.pop((0, -2, 8), None)
            return h

        monkeypatch.setattr(cube_module, "link_homology", link)
        assert not reduce_mode_check(parse_braid("1 1 1"), 8)


class TestMarks:
    def test_mark_count_does_not_change_homology(self):
        b = parse_braid("1 -1")
        h1 = word_homology(b, 8, marks_per_segment=1)
        h2 = word_homology(b, 8, marks_per_segment=2)
        assert h1.dims == h2.dims

    def test_mark_count_does_not_change_the_direct_unreduced_cube(self):
        # braid_homology goes through the reduced cube; this checks the
        # unreduced one built directly
        b = parse_braid("1 -1")
        h1 = link_homology(build_cube(b, marks_per_segment=1), 8)
        h2 = link_homology(build_cube(b, marks_per_segment=2), 8)
        assert h1.dims == h2.dims

    @pytest.mark.parametrize("word", ["n=1", "1", "1 -2 1", "n=4 1 1 -3"])
    @pytest.mark.parametrize("marks", [1, 2, 3])
    def test_marks_are_counted_as_the_diagram_has_them(self, monkeypatch,
                                                       word, marks):
        b = parse_braid(word)
        count = len(build_marked_diagram(b, marks).var_names())
        monkeypatch.setattr(cube_module, "MAX_MARKS", count - 1)
        with pytest.raises(cube_module.TooManyMarks,
                           match=f"^{count} marks, above {count - 1}$"):
            cube_module.check_marks(b, marks)
        monkeypatch.setattr(cube_module, "MAX_MARKS", count)
        cube_module.check_marks(b, marks)

    def test_ceiling_comes_before_the_strands_are_walked(self):
        # closure_components (reduced) and build_marked_diagram would walk
        # 10^20 strands
        b = BraidWord(10**20, (1,))
        for reduced in (False, True):
            with pytest.raises(cube_module.TooManyMarks):
                braid_homology(b, 3, reduced=reduced)
        with pytest.raises(cube_module.TooManyMarks):
            build_cube(b)


class TestKnownLinks:
    def test_cancelled_pair_matches_trivial_braid(self):
        # sigma sigma^{-1} closes to the two-component unlink
        from trigrad.homology import compare_up_to_shift

        pair = word_homology(parse_braid("1 -1"), 10)
        unlink = word_homology(parse_braid("", strands=2), 10)
        assert compare_up_to_shift(unlink, pair) == (0, 0, 0)

    def test_split_component_gets_its_circle(self):
        # closure of sigma_2 in B_3: unknot plus a split circle
        from trigrad.algebra import qt_expand
        from trigrad.homfly import homfly_F
        from trigrad.homology import euler_characteristic

        b = parse_braid("2", strands=3)
        h = braid_homology(b, 9)
        assert euler_characteristic(h) == qt_expand(homfly_F(b), 9)

    def test_connected_sum_of_trefoils(self):
        # the reduced homology of a connected sum is the graded tensor
        # product (normalized by the one-dimensional unknot class); with
        # both summands the trefoil, every slice is pinned
        tre = braid_homology(parse_braid("1 1 1"), 14, reduced=True).dims
        granny = braid_homology(
            parse_braid("1 1 1 2 2 2"), 14, reduced=True
        ).dims
        unknot_class = (0, -1, 1)
        expect = {}
        for (j1, k1, l1), d1 in tre.items():
            for (j2, k2, l2), d2 in tre.items():
                key = (
                    j1 + j2 - unknot_class[0],
                    k1 + k2 - unknot_class[1],
                    l1 + l2 - unknot_class[2],
                )
                expect[key] = expect.get(key, 0) + d1 * d2
        assert granny == expect
        assert sum(granny.values()) == 9
