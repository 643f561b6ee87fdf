import itertools
import random

import pytest

from trigrad import catalog
from trigrad.algebra import Bidegree, PolyRing
from trigrad.braid import BraidWord, build_marked_diagram, parse_braid
from trigrad.cube import resolve
from trigrad.homology import matrix_homology, reduce_closed_matrix
from trigrad.koszul import (
    GradingError,
    KoszulMatrix,
    KoszulRow,
    ResolutionGraph,
    aggregate_a,
    build_upsilon,
    dualize,
    exclude_all,
    koszul_of_graph,
    make_row,
    monic_picks,
    row_op,
    strip_a,
    _monic_pick,
    _tops,
)


def local_ring():
    return PolyRing(("a", "x1", "x2", "x3", "x4", "x5"))


def gamma0(r):
    a = r.var("a")
    return KoszulMatrix(
        r,
        (
            make_row(a, r.var("x1") - r.var("x4")),
            make_row(a, r.var("x2") - r.var("x3")),
        ),
        (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1)),
    )


def gamma1(r):
    a = r.var("a")
    return KoszulMatrix(
        r,
        (
            make_row(a, r.var("x1") + r.var("x2") - r.var("x3") - r.var("x4")),
            make_row(r.zero(), r.var("x1") * r.var("x2") - r.var("x3") * r.var("x4")),
        ),
        (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1)),
    )


class TestGraphToKoszul:
    def test_single_arc(self):
        g = ResolutionGraph(("x1", "x2"), (("x2", "x1"),), ())
        m = koszul_of_graph(g)
        r = m.ring
        assert len(m.rows) == 1
        assert m.rows[0].left == r.var("a")
        assert m.rows[0].right == r.var("x1") - r.var("x2")
        assert m.rows[0].shift == Bidegree(-1, 1)
        assert dict(m.external_signs) == {"x1": 1, "x2": -1}

    def test_wide_edge(self):
        g = ResolutionGraph(
            ("x1", "x2", "x3", "x4"), (), (("x1", "x2", "x3", "x4"),)
        )
        m = koszul_of_graph(g)
        r = m.ring
        assert [row.shift for row in m.rows] == [Bidegree(-1, 1), Bidegree(-1, 3)]
        assert m.rows[1].right == r.var("x1") * r.var("x2") - r.var("x3") * r.var("x4")

    def test_circle(self):
        g = ResolutionGraph(("x1",), (("x1", "x1"),), ())
        m = koszul_of_graph(g)
        assert m.ring.names == ("a", "x1")
        assert m.rows[0].left == m.ring.var("a")
        assert m.rows[0].right.is_zero()
        assert m.is_closed()

    def test_closed_graph_zero_potential(self):
        for text, mask in [("1", 0), ("1", 1), ("1 1 1", 5), ("1 -2 1 -2", 9)]:
            d = build_marked_diagram(parse_braid(text))
            m = koszul_of_graph(resolve(d, mask))
            assert m.potential().is_zero()

    def test_middle_shift_law(self):
        for text in ["1", "1 1 1", "1 -2"]:
            d = build_marked_diagram(parse_braid(text))
            for mask in range(1 << len(d.crossings)):
                m = koszul_of_graph(resolve(d, mask))
                for row in m.rows:
                    if not row.right.is_zero():
                        assert row.shift == row.right.homogeneous_bidegree() - Bidegree(1, 1)
                    if not row.left.is_zero():
                        assert row.shift == Bidegree(1, 1) - row.left.homogeneous_bidegree()


class TestMakeRow:
    def test_each_bidegree_is_computed_once(self, monkeypatch):
        # the entry the shift comes from was once graded a second time, in
        # KoszulRow.validate: 39 calls for these 15 rows
        from trigrad.algebra import Polynomial

        calls = []
        real = Polynomial.homogeneous_bidegree

        def spy(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(Polynomial, "homogeneous_bidegree", spy)
        g = resolve(build_marked_diagram(parse_braid("1 1 2 1 2 2")), 63)
        m = koszul_of_graph(g)
        assert (len(m.rows), len(calls)) == (15, 24)

    def test_shift_from_either_entry(self):
        r = local_ring()
        a, x1, x2 = r.var("a"), r.var("x1"), r.var("x2")
        assert make_row(a, x1 - x2).shift == Bidegree(-1, 1)
        assert make_row(a, r.zero()).shift == Bidegree(-1, 1)
        assert make_row(r.zero(), x1 * x2).shift == Bidegree(-1, 3)

    def test_inconsistent_or_inhomogeneous_entries_raise(self):
        # the shift comes from the right entry, so the left one is checked
        # against it; an entry the shift is read from must be homogeneous
        r = local_ring()
        a, x1, x2 = r.var("a"), r.var("x1"), r.var("x2")
        with pytest.raises(GradingError, match="left entry a\\*x1"):
            make_row(a * x1, x1 - x2)
        with pytest.raises(GradingError, match="inhomogeneous right"):
            make_row(a, x1 + x1 * x2)
        with pytest.raises(GradingError, match="inhomogeneous left"):
            make_row(a + x1, r.zero())
        with pytest.raises(GradingError, match="cannot infer"):
            make_row(r.zero(), r.zero())
        with pytest.raises(GradingError, match="right entry"):
            KoszulRow(a, x1 * x2, Bidegree(-1, 1)).validate()


class TestRowOp:
    def test_merge_arc_rows(self):
        r = local_ring()
        m = row_op(gamma0(r), 0, 1, r.one())
        assert m.rows[0].right == (
            r.var("x1") + r.var("x2") - r.var("x3") - r.var("x4")
        )
        assert m.rows[1].left.is_zero()
        assert m.rows[1].right == r.var("x2") - r.var("x3")

    def test_factor_quadratic_row(self):
        r = local_ring()
        m = row_op(gamma1(r), 1, 0, -r.var("x2"))
        expected = (r.var("x2") - r.var("x3")) * (r.var("x4") - r.var("x2"))
        assert m.rows[1].right == expected
        assert m.rows[0] == gamma1(r).rows[0]

    def test_zero_lambda_is_identity(self):
        r = local_ring()
        m = gamma0(r)
        assert row_op(m, 0, 1, r.zero()).rows == m.rows

    def test_potential_preserved_random(self):
        rng = random.Random(17)
        r = local_ring()
        base = gamma1(r)
        for _ in range(20):
            i, j = rng.sample(range(2), 2)
            # pick a lambda of the degree that keeps row i homogeneous
            need = base.rows[i].shift - base.rows[j].shift
            if need.k:
                continue
            if need.l < 0 or need.l % 2:
                continue
            lam = r.var("x1") if need.l == 2 else (r.one() if need.l == 0 else None)
            if lam is None:
                continue
            m2 = row_op(base, i, j, lam)
            assert m2.potential() == base.potential()

    def test_grading_violation_rejected(self):
        r = local_ring()
        with pytest.raises(GradingError):
            row_op(gamma0(r), 0, 1, r.var("x1"))


class TestExclude:
    def test_mark_removal(self):
        r = local_ring()
        a = r.var("a")
        x1, x2, x3, x4, x5 = (r.var(f"x{i}") for i in range(1, 6))
        m = KoszulMatrix(
            r,
            (
                make_row(a, x1 + x2 - x3 - x4),
                make_row(r.zero(), x1 * x5 - x3 * x4),
                make_row(r.zero(), x2 - x5),
            ),
            (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1)),
        )
        out, steps = exclude_all(m)
        assert [(st.row, st.var, st.drop) for st in steps] == [(2, "x5", True)]
        r2 = out.ring
        assert r2.names == ("a", "x1", "x2", "x3", "x4")
        assert len(out.rows) == 2
        assert out.rows[1].right == (
            r2.var("x1") * r2.var("x2") - r2.var("x3") * r2.var("x4")
        )

    def test_mu_zero_is_plain_deletion(self):
        r = PolyRing(("a", "x1", "x2"))
        m = KoszulMatrix(
            r,
            (
                make_row(r.var("a"), r.var("x1") - r.var("x2")),
                KoszulRow(r.zero(), r.var("x2"), Bidegree(-1, 1)),
            ),
            (("x1", 1), ("x2", -1)),
        )
        # x2 is external here, so it is not excluded
        assert exclude_all(m) == (m, [])
        m2 = KoszulMatrix(
            r,
            (
                make_row(r.var("a"), r.var("x1") - r.var("x1")),
                KoszulRow(r.zero(), r.var("x2"), Bidegree(-1, 1)),
            ),
            (),
        )
        out, steps = exclude_all(m2)
        assert out.ring.names == ("a", "x1")
        assert len(out.rows) == 1
        assert [(st.var, st.f) for st in steps] == [("x2", r.var("x2"))]

    def test_a_left_entry_gets_linear_exclusion_only(self):
        # the closure of two wide edges, aggregated: while the row (a, 0) is
        # in, exclude_all removes the linear rows and keeps the monic ones;
        # once it is stripped, a monic row becomes a relation
        d = build_marked_diagram(parse_braid("1 1"))
        m = aggregate_a(koszul_of_graph(resolve(d, 3)))
        out, steps = exclude_all(m)
        assert [st.var for st in steps] == ["x2", "x1", "x3"]
        assert all(st.drop for st in steps) and out.relations == ()
        assert not out.rows[0].left.is_zero() and len(out.rows) == 3
        out, steps = exclude_all(strip_a(m))
        assert [st.drop for st in steps] == [True, True, True, False]
        assert [y for y, _ in out.relations] == ["x4"]

    def test_a_matrix_with_relations_is_left_as_it_is(self):
        # a matrix that holds relations takes no linear pick, and its
        # relations' variables are in no further monic pick
        d = build_marked_diagram(parse_braid("1 1 2 1 2 2"))
        m = reduce_closed_matrix(koszul_of_graph(resolve(d, 63)))
        assert [y for y, _ in m.relations] == ["x5", "x13", "x11", "x8"]
        assert len(m.rows) == 2
        assert exclude_all(m) == (m, [])

    def test_a_monic_pick_leaves_other_rows_their_variables(self):
        # y^2 - xy has the fewest variables, but taking it by y uses up x,
        # the only monic-top variable of x^2 - wz; that row holds no other
        # candidate, so it goes first and both rows become relations
        r = PolyRing(("w", "x", "y", "z"))
        w, x, y, z = (r.var(n) for n in r.names)
        rows = (make_row(r.zero(), y * y - x * y),
                make_row(r.zero(), x * x - w * z))
        assert _monic_pick([_tops(r.right, set()) for r in rows], set()) == (1, 1)
        m, steps = monic_picks(KoszulMatrix(r, rows))
        assert [st.var for st in steps] == ["x", "y"] and m.rows == ()

    def test_iia_exclusion_step(self):
        r = PolyRing(("a", "x1", "x2", "x3", "x4", "x5", "x6"))
        a = r.var("a")
        x = {i: r.var(f"x{i}") for i in range(1, 7)}
        rows = (
            make_row(a, x[1] + x[2] - x[5] - x[6]),
            make_row(r.zero(), x[2] - x[6]),
            make_row(a, x[5] + x[6] - x[3] - x[4]),
            make_row(r.zero(), (x[6] - x[4]) * (x[3] - x[6])),
        )
        ext = (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1))
        m = KoszulMatrix(r, rows, ext)
        m = row_op(m, 0, 2, r.one())
        assert m.rows[2].left.is_zero()
        # x2 is external, so row 1 goes with x6 = x2 first; then row 2
        # goes with x5, and x2 is substituted into the quadratic row
        out, steps = exclude_all(m)
        assert [(st.row, st.var) for st in steps] == [(1, "x6"), (1, "x5")]
        v = {n: steps[1].f.ring.var(n) for n in ("x2", "x3", "x4", "x5")}
        assert steps[1].f == v["x5"] + v["x2"] - v["x3"] - v["x4"]
        r2 = out.ring
        assert r2.names == ("a", "x1", "x2", "x3", "x4")
        y = {i: r2.var(f"x{i}") for i in (1, 2, 3, 4)}
        assert [row.right for row in out.rows] == [
            y[1] + y[2] - y[3] - y[4],
            (y[2] - y[4]) * (y[3] - y[2]),
        ]
        assert out.relations == ()


class TestAggregateStrip:
    def test_circle_aggregate_noop(self):
        g = ResolutionGraph(("x1",), (("x1", "x1"),), ())
        m = koszul_of_graph(g)
        assert aggregate_a(m).rows == m.rows

    def test_theta_aggregate(self):
        d = build_marked_diagram(parse_braid("1"))
        m = koszul_of_graph(resolve(d, 1))
        out = aggregate_a(m)
        r = out.ring
        a = r.var("a")
        assert out.rows[0].left == a and out.rows[0].right.is_zero()
        assert all(row.left.is_zero() for row in out.rows[1:])
        # aggregation leaves every other right entry untouched
        assert [row.right for row in out.rows[1:]] == [
            row.right for row in m.rows[1:]
        ]
        assert out.potential() == m.potential()

    def test_open_two_wide_graph_aggregates_to_boundary_sum(self):
        # braid-like graph with two wide edges and three through strands
        g = ResolutionGraph(
            ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"),
            arcs=(("x8", "x3"),),
            wides=(("x1", "x2", "x7", "x4"), ("x7", "x8", "x6", "x5")),
        )
        m = aggregate_a(koszul_of_graph(g))
        r = m.ring
        expect = (
            r.var("x1") + r.var("x2") + r.var("x3")
            - r.var("x4") - r.var("x5") - r.var("x6")
        )
        assert m.rows[0].left == r.var("a")
        assert m.rows[0].right == expect

    def test_strip_circle(self):
        g = ResolutionGraph(("x1",), (("x1", "x1"),), ())
        m = strip_a(aggregate_a(koszul_of_graph(g)))
        assert m.rows == ()
        assert m.ring.names == ("x1",)
        assert m.global_shift == Bidegree(-1, 1)

    def test_strip_requires_no_other_a(self):
        r = PolyRing(("a", "x1"))
        m = KoszulMatrix(
            r,
            (
                KoszulRow(r.var("a"), r.zero(), Bidegree(-1, 1)),
                KoszulRow(r.var("a") * r.var("x1"), r.zero(), Bidegree(-3, 1)),
            ),
            (),
        )
        with pytest.raises(ValueError):
            strip_a(m)


def _chain_aggregate(m):
    """The [1p]_1 chain that `aggregate_a` takes in one pass: `row_op` from
    the first a-row to every later one."""
    a = m.ring.var("a")
    first, *later = [i for i, r in enumerate(m.rows) if r.left == a]
    for p in later:
        m = row_op(m, first, p, m.ring.one())
    return m


def _small_resolutions():
    """The matrix of every resolution of every 2- and 3-strand word of at
    most 4 letters."""
    for n in (2, 3):
        gens = [s for g in range(1, n) for s in (g, -g)]
        for length in range(5):
            for letters in itertools.product(gens, repeat=length):
                d = build_marked_diagram(BraidWord(n, letters))
                for mask in range(1 << length):
                    yield koszul_of_graph(resolve(d, mask))


_CLOSED_NAMES = ("circle", "theta") + tuple(
    f"{name}-closure" for name in catalog.OPEN_NAMES
    if "x6" in catalog.open_matrix(name).ring.names)


class TestOnePassAggregation:
    def test_small_resolutions_match_the_chain(self):
        count = 0
        for m in _small_resolutions():
            chain, once = _chain_aggregate(m), aggregate_a(m)
            assert once.rows == chain.rows and once == chain
            assert strip_a(m) == strip_a(once)
            count += 1
        # 2^L words of L letters on 2 strands, 4^L on 3, 2^L masks each
        assert count == sum(4 ** k + 8 ** k for k in range(5))

    @pytest.mark.parametrize("name", catalog.OPEN_NAMES)
    def test_catalog_open_matrices_match_the_chain(self, name):
        m = catalog.open_matrix(name)
        assert aggregate_a(m) == _chain_aggregate(m)
        with pytest.raises(ValueError, match="closed matrix"):
            strip_a(m)

    @pytest.mark.parametrize("name", _CLOSED_NAMES)
    def test_catalog_closed_matrices_match_the_chain(self, name):
        m = catalog.closed_matrix(name)
        chain = _chain_aggregate(m)
        assert aggregate_a(m) == chain
        assert strip_a(m) == strip_a(aggregate_a(m)) == strip_a(chain)

    def test_strip_refuses_a_nonzero_a_row_sum(self):
        # closed (no external variables), but the a-rows sum to x1 - x2
        r = PolyRing(("a", "x1", "x2", "x3"))
        x1, x2, x3 = (r.var(n) for n in ("x1", "x2", "x3"))
        m = KoszulMatrix(r, (make_row(r.var("a"), x1 - x3),
                             make_row(r.var("a"), x3 - x2)))
        assert m.is_closed()
        assert aggregate_a(m).rows[0].right == x1 - x2
        with pytest.raises(ValueError, match="sum"):
            strip_a(m)


class TestDualize:
    def test_arc_row(self):
        g = ResolutionGraph(("x1", "x2"), (("x2", "x1"),), ())
        m = dualize(koszul_of_graph(g))
        r = m.ring
        assert m.rows[0].left == r.var("x1") - r.var("x2")
        assert m.rows[0].right == -r.var("a")
        assert m.rows[0].shift == Bidegree(1, -1)
        assert dict(m.external_signs) == {"x1": -1, "x2": 1}

    def test_involution_up_to_sign(self):
        g = ResolutionGraph(("x1", "x2"), (("x2", "x1"),), ())
        m = koszul_of_graph(g)
        dd = dualize(dualize(m))
        # (a, b) -> (b, -a) -> (-a, -b): the original up to rescaling rows
        assert [row.shift for row in dd.rows] == [row.shift for row in m.rows]
        assert dd.external_signs == m.external_signs
        for r1, r2 in zip(dd.rows, m.rows):
            assert r1.left == -r2.left
            assert r1.right == -r2.right

    def test_gamma110_dual_rows(self):
        from trigrad.catalog import open_matrix
        from trigrad.homology import _minimize_over_boundary

        m = _minimize_over_boundary(open_matrix("gamma110"))
        dual = dualize(m)
        r = dual.ring
        e1 = (
            r.var("x1") + r.var("x2") + r.var("x3")
            - r.var("x4") - r.var("x5") - r.var("x6")
        )
        assert dual.rows[0].left == e1
        assert dual.rows[0].right == -r.var("a")
        assert [row.shift for row in dual.rows] == [
            Bidegree(1, -1), Bidegree(1, -3), Bidegree(1, -3)
        ]


class TestDump:
    def test_row_per_line_format(self):
        g = ResolutionGraph(("x1", "x2"), (("x2", "x1"),), ())
        m = koszul_of_graph(g)
        lines = m.dump().splitlines()
        assert lines[0] == "a | x1 - x2 | {-1,1}"
        assert lines[1] == "externals: +x1 -x2"


class TestUpsilon:
    def test_rows(self):
        m = build_upsilon()
        r = m.ring
        x = {i: r.var(f"x{i}") for i in range(1, 7)}
        assert m.rows[2].right == x[1] * x[2] * x[3] - x[4] * x[5] * x[6]
        assert [row.shift for row in m.rows] == [
            Bidegree(-1, 1), Bidegree(-1, 3), Bidegree(-1, 5)
        ]

    def test_potential(self):
        m = build_upsilon()
        r = m.ring
        e1 = (
            r.var("x1") + r.var("x2") + r.var("x3")
            - r.var("x4") - r.var("x5") - r.var("x6")
        )
        assert m.potential() == r.var("a") * e1


class TestHomologyPreservation:
    def test_operations_preserve_graph_homology(self):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 3)
            length = rng.randint(1, 3)
            letters = tuple(
                rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)
            )
            b = BraidWord(n, letters)
            d = build_marked_diagram(b)
            mask = rng.randrange(1 << length)
            m = koszul_of_graph(resolve(d, mask))
            reference = matrix_homology(m, 7)
            # full reduction with an extra row operation thrown in first
            m2 = aggregate_a(m)
            lin_zero = [
                i for i, row in enumerate(m2.rows)
                if row.left.is_zero() and row.shift == Bidegree(-1, 1)
                and not row.right.is_zero()
            ]
            if len(lin_zero) >= 2:
                i, j = lin_zero[0], lin_zero[1]
                m2 = row_op(m2, i, j, m2.ring.one())
            m2 = strip_a(m2)
            m2, _ = exclude_all(m2)
            assert matrix_homology(m2, 7, reduce=False) == reference
            # and with no exclusions at all
            m3 = strip_a(aggregate_a(m))
            assert matrix_homology(m3, 7, reduce=False) == reference
            checked += 1
