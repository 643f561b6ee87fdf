import random
from fractions import Fraction

import pytest

from trigrad.algebra import Bidegree, PolyRing, Polynomial
from trigrad.braid import build_marked_diagram, parse_braid
from trigrad.cube import resolve
from trigrad.factor_complex import (
    ChainMap,
    exact_divide,
    flip_map,
    identity_map,
    realize,
    row_op_transport,
    simplify,
)
from trigrad.koszul import (
    KoszulMatrix,
    KoszulRow,
    koszul_of_graph,
    make_row,
)


def ring4():
    return PolyRing(("a", "x1", "x2", "x3", "x4"))


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


class TestRealize:
    def test_gamma0_presentation(self):
        r = ring4()
        c = realize(gamma0(r))
        a = r.var("a")
        x1, x2, x3, x4 = (r.var(f"x{i}") for i in range(1, 5))
        # even part (e_0, e_3), odd part (e_1, e_2); P0 maps even -> odd
        assert [g.bidegree for g in c.gens] == [
            Bidegree(0, 0), Bidegree(-1, 1), Bidegree(-1, 1), Bidegree(-2, 2)
        ]
        assert c.d[0] == {1: a, 2: a}
        assert c.d[3] == {1: x3 - x2, 2: x1 - x4}
        assert c.d[1] == {0: x1 - x4, 3: -a}
        assert c.d[2] == {0: x2 - x3, 3: a}
        c.verify_d_squared()

    def test_gamma1_presentation(self):
        r = ring4()
        c = realize(gamma1(r))
        a = r.var("a")
        x1, x2, x3, x4 = (r.var(f"x{i}") for i in range(1, 5))
        assert [g.bidegree for g in c.gens] == [
            Bidegree(0, 0), Bidegree(-1, 1), Bidegree(-1, 3), Bidegree(-2, 4)
        ]
        assert c.d[0] == {1: a}
        assert c.d[3] == {1: x3 * x4 - x1 * x2, 2: x1 + x2 - x3 - x4}
        assert c.d[1] == {0: x1 + x2 - x3 - x4}
        assert c.d[2] == {0: x1 * x2 - x3 * x4, 3: a}
        c.verify_d_squared()

    def test_single_arc_row(self):
        g = koszul_of_graph(
            __import__("trigrad").koszul.ResolutionGraph(
                ("x1", "x2"), (("x2", "x1"),), ()
            )
        )
        c = realize(g)
        assert c.rank() == 2
        assert c.gens[1].bidegree == Bidegree(-1, 1)
        r = g.ring
        assert c.d[0] == {1: r.var("a")}
        assert c.d[1] == {0: r.var("x1") - r.var("x2")}

    def test_d_squared_on_all_resolutions(self):
        for text in ["1", "-1", "1 1 1", "1 -2"]:
            d = build_marked_diagram(parse_braid(text))
            for mask in range(1 << len(d.crossings)):
                m = koszul_of_graph(resolve(d, mask))
                realize(m).verify_d_squared()

    def test_d_squared_open_graphs(self):
        from trigrad.catalog import open_matrix

        for name in ["gamma000", "gamma100", "gamma110", "gamma111", "upsilon"]:
            realize(open_matrix(name)).verify_d_squared()


class TestFlipAndChi:
    def setup_method(self):
        r = ring4()
        self.r = r
        self.y = r.var("x4") - r.var("x2")
        self.phi0, self.g0m = row_op_transport(gamma0(r), 0, 1, r.one())
        self.phi1, self.g1m = row_op_transport(gamma1(r), 1, 0, -r.var("x2"))
        self.phi0.verify_chain_map()
        self.phi1.verify_chain_map()

    def _chi_pair(self):
        chi0_mod, tgt = flip_map(self.g0m, 1, self.y, "psi'")
        assert tgt.rows == self.g1m.rows
        chi1_mod, tgt2 = flip_map(self.g1m, 1, self.y, "psi")
        assert tgt2.rows == self.g0m.rows
        chi0_mod.verify_chain_map()
        chi1_mod.verify_chain_map()
        phi0_inv, _ = row_op_transport(self.g0m, 0, 1, -self.r.one())
        phi1_inv, _ = row_op_transport(self.g1m, 1, 0, self.r.var("x2"))
        chi0 = phi1_inv.compose(chi0_mod.compose(self.phi0))
        chi1 = phi0_inv.compose(chi1_mod.compose(self.phi1))
        return chi0, chi1

    def test_psi_component_shape(self):
        # psi(x4-x2): (0, (x2-x3)(x4-x2)) -> (0, x2-x3), components (1, y, 1)
        chi1_mod, _ = flip_map(self.g1m, 1, self.y, "psi")
        one = self.r.one()
        assert chi1_mod.mat[0][0] == one
        assert chi1_mod.mat[1][1] == one
        assert chi1_mod.mat[2][2] == self.y
        assert chi1_mod.mat[3][3] == self.y

    def test_chi_matrices_from_flips(self):
        r = self.r
        x2, x4 = r.var("x2"), r.var("x4")
        chi0, chi1 = self._chi_pair()
        # U_0^0 on (e_0, e_3), U_0^1 on (e_1, e_2)
        assert chi0.mat[0] == {0: self.y}
        assert chi0.mat[3] == {3: r.one()}
        assert chi0.mat[1] == {1: x4, 2: -r.one()}
        assert chi0.mat[2] == {1: -x2, 2: r.one()}
        # U_1^0, U_1^1
        assert chi1.mat[0] == {0: r.one()}
        assert chi1.mat[3] == {3: self.y}
        assert chi1.mat[1] == {1: r.one(), 2: r.one()}
        assert chi1.mat[2] == {1: x2, 2: x4}

    def test_chi_bidegrees(self):
        chi0, chi1 = self._chi_pair()
        assert chi0.bidegree == Bidegree(0, 2)
        assert chi1.bidegree == Bidegree(0, 0)
        chi0.verify_chain_map()
        chi1.verify_chain_map()

    def test_chi_composites_are_multiplication(self):
        r = self.r
        chi0, chi1 = self._chi_pair()
        comp10 = chi1.compose(chi0)
        comp01 = chi0.compose(chi1)
        for comp in (comp10, comp01):
            for s in range(4):
                for t in range(4):
                    expect = self.y if s == t else r.zero()
                    assert comp.entry(s, t) == expect

    def test_flip_factorization_mismatch(self):
        with pytest.raises(ValueError):
            flip_map(self.g0m, 1, self.r.var("x1"), "psi")

    def test_unknown_flip_kind(self):
        with pytest.raises(ValueError, match="kind must be"):
            flip_map(self.g0m, 1, self.y, "chi")

    def test_flips_of_a_two_crossing_braid(self):
        # sigma sigma^{-1}: the edge maps psi'(x5-x2) on the top crossing's
        # linear row and psi(x3-x6) on the bottom crossing's quadratic row
        r = PolyRing(("a", "x1", "x2", "x3", "x4", "x5", "x6"))
        a = r.var("a")
        x = {i: r.var(f"x{i}") for i in range(1, 7)}
        top0 = KoszulMatrix(
            r,
            (
                make_row(a, x[1] + x[2] - x[5] - x[6]),
                make_row(r.zero(), x[2] - x[6]),
            ),
            (("x1", 1), ("x2", 1), ("x5", -1), ("x6", -1)),
        )
        f1, top1 = flip_map(top0, 1, x[5] - x[2], "psi'")
        f1.verify_chain_map()
        assert top1.rows[1].right == (x[2] - x[6]) * (x[5] - x[2])
        bot1 = KoszulMatrix(
            r,
            (
                make_row(a, x[5] + x[6] - x[3] - x[4]),
                make_row(r.zero(), (x[6] - x[4]) * (x[3] - x[6])),
            ),
            (("x5", 1), ("x6", 1), ("x3", -1), ("x4", -1)),
        )
        f2, bot0 = flip_map(bot1, 1, x[3] - x[6], "psi")
        f2.verify_chain_map()
        assert bot0.rows[1].right == x[6] - x[4]

    def test_row_op_transport_nonadjacent(self):
        rng = random.Random(31)
        r = self.r
        a = r.var("a")
        rows = (
            make_row(a, r.var("x1") - r.var("x4")),
            make_row(r.zero(), r.var("x1") * r.var("x2") - r.var("x3") * r.var("x4")),
            make_row(a, r.var("x2") - r.var("x3")),
        )
        m = KoszulMatrix(r, rows, (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1)))
        # [13]_1 skips the quadratic middle row: non-adjacent transport sign
        f, m2 = row_op_transport(m, 0, 2, r.one())
        f.verify_chain_map()
        g, m3 = row_op_transport(m2, 0, 2, -r.one())
        g.verify_chain_map()
        assert m3.rows == m.rows


def _dense_slice_homology(cx, k, l):
    """Independent dense-elimination oracle for one slice."""
    from trigrad.homology import slice_basis, _columns_of_map

    here = slice_basis(cx, k, l)
    if here.dim == 0:
        return 0
    above = slice_basis(cx, k + 1, l + 1)
    below = slice_basis(cx, k - 1, l - 1)

    def dense(cols, nrows):
        mat = [[Fraction(0)] * len(cols) for _ in range(nrows)]
        for ci, col in enumerate(cols):
            for ri, v in col.items():
                mat[ri][ci] = Fraction(v)
        # plain Gaussian elimination
        rank = 0
        rows = mat
        ncols = len(cols)
        pr = 0
        for pc in range(ncols):
            piv = None
            for ri in range(pr, nrows):
                if rows[ri][pc] != 0:
                    piv = ri
                    break
            if piv is None:
                continue
            rows[pr], rows[piv] = rows[piv], rows[pr]
            pv = rows[pr][pc]
            for ri in range(nrows):
                if ri != pr and rows[ri][pc] != 0:
                    f = rows[ri][pc] / pv
                    for cc in range(ncols):
                        rows[ri][cc] -= f * rows[pr][cc]
            pr += 1
            rank += 1
        return rank

    out_cols = _columns_of_map(cx.d, here, above)
    in_cols = _columns_of_map(cx.d, below, here)
    return here.dim - dense(out_cols, above.dim) - dense(in_cols, here.dim)


def _direct_sum(c1, c2):
    from trigrad.factor_complex import FactorComplex

    n1 = c1.rank()
    gens = c1.gens + c2.gens
    d = {s: dict(row) for s, row in c1.d.items()}
    for s, row in c2.d.items():
        d[n1 + s] = {n1 + t: p for t, p in row.items()}
    return FactorComplex(c1.ring, gens, d, c1.w)


def _contractible_pair(r, unit, bidegree):
    """0 -> R --unit--> R -> 0 as a 2-periodic complex with w = 0."""
    from trigrad.factor_complex import FactorComplex, Generator

    gens = (
        Generator(bidegree),
        Generator(bidegree + Bidegree(1, 1)),
    )
    return FactorComplex(r, gens, {0: {1: r.const(unit)}}, r.zero())


class TestSimplify:
    def test_zero_differential_fixed_point(self):
        r = PolyRing(("x1",))
        m = KoszulMatrix(
            r, (KoszulRow(r.zero(), r.zero(), Bidegree(-1, 1)),), ()
        )
        c = realize(m)
        small, iota, pi = simplify(c)
        assert small.rank() == 2
        assert small.d == c.d

    def test_contractible_summand_cancels(self):
        r = PolyRing(("x1", "x2"))
        base = realize(
            KoszulMatrix(
                r,
                (KoszulRow(r.zero(), r.var("x1") - r.var("x2"), Bidegree(-1, 1)),),
                (),
            )
        )
        c = _direct_sum(base, _contractible_pair(r, 3, Bidegree(0, 0)))
        small, iota, pi = simplify(c)
        assert small.rank() == 2
        iota.verify_chain_map()
        pi.verify_chain_map()
        composed = pi.compose(iota)
        assert all(
            composed.entry(s, t) == (r.one() if s == t else r.zero())
            for s in range(2)
            for t in range(2)
        )

    def test_idempotent(self):
        r = PolyRing(("x1", "x2"))
        base = realize(
            KoszulMatrix(
                r,
                (KoszulRow(r.zero(), r.var("x1") * r.var("x2"), Bidegree(-1, 3)),),
                (),
            )
        )
        c = _direct_sum(base, _contractible_pair(r, -2, Bidegree(1, 1)))
        small, _, _ = simplify(c)
        again, _, _ = simplify(small)
        assert again.rank() == small.rank() == 2
        assert again.d == small.d

    def test_random_complexes_preserve_homology(self):
        rng = random.Random(41)
        r = PolyRing(("x1", "x2"))
        x1, x2 = r.var("x1"), r.var("x2")
        row_pool = [
            KoszulRow(r.zero(), x1 - x2, Bidegree(-1, 1)),
            KoszulRow(r.zero(), x1 * x2, Bidegree(-1, 3)),
            KoszulRow(r.zero(), x1 * x1, Bidegree(-1, 3)),
        ]
        for _ in range(30):
            rows = tuple(
                rng.choice(row_pool) for _ in range(rng.randint(1, 2))
            )
            c = realize(KoszulMatrix(r, rows, ()))
            for _ in range(rng.randint(1, 2)):
                c = _direct_sum(
                    c,
                    _contractible_pair(
                        r,
                        rng.choice([1, -1, 2]),
                        Bidegree(rng.randint(-1, 1), rng.randint(-1, 1)),
                    ),
                )
            small, iota, pi = simplify(c)
            iota.verify_chain_map()
            pi.verify_chain_map()
            assert small.rank() == c.rank() - 2 * sum(
                1 for s in c.d for t, p in c.d[s].items() if p.as_constant()
            )
            for k in range(-4, 3):
                for l in range(-4, 7):
                    assert _dense_slice_homology(c, k, l) == _dense_slice_homology(
                        small, k, l
                    ), (k, l)
