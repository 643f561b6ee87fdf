"""The chain level works over Z: every vertex differential and edge map
holds Python ints, so does every vector the cube ranks are taken of, and
any step whose quotient would leave Z raises a ValueError instead of
producing a fraction."""

from fractions import Fraction

import pytest

import trigrad.homology
from conftest import vertex_reductions
from trigrad.algebra import Bidegree, PolyRing
from trigrad.braid import parse_braid
from trigrad.cube import build_cube
from trigrad.factor_complex import FactorComplex, Generator, exact_divide, simplify
from trigrad.koszul import KoszulMatrix, exclude_all, make_row


def _coefficients(mat):
    for row in mat.values():
        for poly in row.values():
            yield from poly.terms.values()


@pytest.mark.parametrize(
    "word, reduced, marks",
    [("1 1 -2 1 -2", False, 1), ("1 1 -2 1 -2", True, 1), ("1 1 1", False, 2)],
)
def test_cube_coefficients_are_ints(word, reduced, marks):
    cube = build_cube(parse_braid(word), reduced=reduced, marks_per_segment=marks)
    mats = [cx.d for cx in cube.vertices.values()]
    polys = [p for edge in cube.edges for p in (edge.cmap.odd, edge.cmap.even)]
    lifted = []
    for mask, red in vertex_reductions(cube).items():
        for step in red.steps:
            m = step.f.degree_in(step.var)
            i = step.f.ring.index(step.var)
            assert [c for e, c in step.f.terms.items() if e[i] == m] in ([1], [-1])
            polys += [step.f, *step.rights]
        # the lifts carry the quotients H(b_k p) of every step
        lifted += [c for s in range(cube.vertices[mask].rank())
                   for c in red.lift(s).values()]
    kinds = {type(c) for mat in mats for c in _coefficients(mat)}
    kinds |= {type(c) for p in polys for c in p.terms.values()}
    assert lifted and {type(c) for c in lifted} == {int}
    assert kinds == {int}


@pytest.mark.parametrize("reduced", [False, True])
def test_cube_rank_columns_are_ints(monkeypatch, reduced):
    # every chain image of a cube edge and every column handed to the
    # elimination (vertex slices and cube blocks alike) is an integer vector
    hom = trigrad.homology
    real_induced, real_rank = hom.induced_map, hom.kernel_and_rank
    real_basis = hom.slice_homology_basis
    kinds = set()
    calls = {"images": 0, "blocks": 0, "in_vertex": 0}

    def induced(*args):
        out = real_induced(*args)
        calls["images"] += len(out)
        kinds.update(type(v) for col in out for v in col.values())
        return out

    def basis(*args):
        calls["in_vertex"] += 1
        try:
            return real_basis(*args)
        finally:
            calls["in_vertex"] -= 1

    def rank(cols, *args, **kwargs):
        calls["blocks"] += not calls["in_vertex"]
        kinds.update(type(v) for col in cols for v in col.values())
        return real_rank(cols, *args, **kwargs)

    monkeypatch.setattr(hom, "induced_map", induced)
    monkeypatch.setattr(hom, "slice_homology_basis", basis)
    monkeypatch.setattr(hom, "kernel_and_rank", rank)
    cube = build_cube(parse_braid("1 1 -2 1 -2"), reduced=reduced)
    assert hom.link_homology(cube, 6).dims
    assert calls["images"] and calls["blocks"] and kinds == {int}
    assert not hasattr(hom, "Fraction")


def test_const_rejects_a_fraction():
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
        PolyRing(("x1",)).const(Fraction(1, 2))


def _matrix_with_row(r, last):
    a = r.var("a")
    x1, x2, x3, x4 = (r.var(f"x{i}") for i in range(1, 5))
    return KoszulMatrix(
        r,
        (make_row(a, x1 + x2 - x3 - x4), make_row(r.zero(), last)),
        (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1)),
    )


def test_exclude_all_never_picks_a_non_unit_leading_coefficient():
    # rows (0, b) only, so monic picks are open: 2*x5^2 - x1*x2 has no
    # lone top term ±y^m in any variable, and 2*x5 - 2*x6 no unit one
    r = PolyRing(("x1", "x2", "x5", "x6"))
    x1, x2, x5, x6 = (r.var(n) for n in r.names)
    m = KoszulMatrix(r, (make_row(r.zero(), x5 * x5 * 2 - x1 * x2),
                         make_row(r.zero(), (x5 - x6) * 2)))
    assert exclude_all(m) == (m, [])


def test_exclude_all_skips_a_non_unit_row():
    r = PolyRing(("a", "x1", "x2", "x3", "x4", "x5", "x6"))
    m = _matrix_with_row(r, (r.var("x5") - r.var("x6")) * 2)
    out, chain = exclude_all(m)
    assert chain == []
    assert out == m


def test_exact_divide_rejects_a_fractional_quotient():
    r = PolyRing(("x1",))
    x1 = r.var("x1")
    with pytest.raises(ValueError, match="does not divide"):
        exact_divide(x1, x1 * 2)
    assert exact_divide(x1 * 6, x1 * -2) == r.const(-3)


def test_simplify_rejects_a_cancellation_that_needs_one_third():
    # d(e0) = 3 e1 + x1 e2 and d(e3) = x1 e1, so d^2 = 0; cancelling the
    # entry 3 would leave -x1^2/3 on e3 -> e2
    r = PolyRing(("x1",))
    x1 = r.var("x1")
    gens = (
        Generator(Bidegree(0, 0)),
        Generator(Bidegree(1, 1)),
        Generator(Bidegree(1, -1)),
        Generator(Bidegree(0, 2)),
    )
    d = {0: {1: r.const(3), 2: x1}, 3: {1: x1}}
    c = FactorComplex(r, gens, d, r.zero())
    c.verify_d_squared()
    with pytest.raises(ValueError, match="does not divide"):
        simplify(c)
