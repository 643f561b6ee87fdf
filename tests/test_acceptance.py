"""The acceptance gate: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; assertions are equalities with zero
tolerance.  Time limits are asserted only where a criterion states one.
"""

import random
import time
from collections import defaultdict

import pytest

from trigrad.algebra import Bidegree, LaurentQT, RationalQT, qt_expand
from trigrad.braid import BraidWord, build_marked_diagram, parse_braid
from trigrad.catalog import closed_matrix, hom_pair
from trigrad.cube import (
    braid_homology, build_cube, reduce_mode_check, resolve, word_homology,
)
from trigrad.factor_complex import flip_map, realize, row_op_transport
from trigrad.homfly import (
    hecke_of_braid,
    homfly_F,
    homfly_F_tilde,
    HeckeElement,
)
from trigrad.homology import (
    compare_up_to_shift,
    euler_characteristic,
    hom_space_dim,
    matrix_homology,
)
from trigrad.koszul import KoszulMatrix, koszul_of_graph, make_row
from trigrad.algebra import PolyRing


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE PASS {name}" + (f": {detail}" if detail else ""))


_HOMOLOGY_CACHE: dict = {}


def homology_of(text: str, qmax: int = 10, strands=None):
    key = (text, qmax, strands)
    if key not in _HOMOLOGY_CACHE:
        _HOMOLOGY_CACHE[key] = word_homology(
            parse_braid(text, strands), qmax
        )
    return _HOMOLOGY_CACHE[key]


def test_criterion_1_unknot_homology():
    start = time.monotonic()
    h = braid_homology(parse_braid("", strands=1), 21)
    elapsed = time.monotonic() - start
    assert h.dims == {(0, -1, 1 + 2 * i): 1 for i in range(11)}
    assert elapsed < 1.0
    _report("1 (unknot homology)", f"{elapsed:.3f}s")


def test_criterion_2_circle_graph():
    start = time.monotonic()
    h = matrix_homology(closed_matrix("circle"), 21)
    elapsed = time.monotonic() - start
    assert h.dims == {(0, -1, 1 + 2 * i): 1 for i in range(11)}
    assert elapsed < 1.0
    _report("2 (circle graph)", f"{elapsed:.3f}s")


def test_criterion_3_symbolic_identities():
    start = time.monotonic()
    # d^2 = w Id on every resolution of the test braids
    for text in ["1", "-1", "1 1", "1 1 1", "1 -2"]:
        d = build_marked_diagram(parse_braid(text))
        for mask in range(1 << len(d.crossings)):
            cx = realize(koszul_of_graph(resolve(d, mask)))
            cx.verify_d_squared()
    # chi bidegrees and composites in the local model
    r = PolyRing(("a", "x1", "x2", "x3", "x4"))
    a = r.var("a")
    x1, x2, x3, x4 = (r.var(f"x{i}") for i in range(1, 5))
    ext = (("x1", 1), ("x2", 1), ("x3", -1), ("x4", -1))
    g0 = KoszulMatrix(r, (make_row(a, x1 - x4), make_row(a, x2 - x3)), ext)
    g1 = KoszulMatrix(
        r,
        (make_row(a, x1 + x2 - x3 - x4), make_row(r.zero(), x1 * x2 - x3 * x4)),
        ext,
    )
    y = x4 - x2
    phi0, g0m = row_op_transport(g0, 0, 1, r.one())
    phi1, g1m = row_op_transport(g1, 1, 0, -x2)
    chi0_mod, tgt = flip_map(g0m, 1, y, "psi'")
    chi1_mod, tgt2 = flip_map(g1m, 1, y, "psi")
    assert tgt.rows == g1m.rows and tgt2.rows == g0m.rows
    for f in (phi0, phi1, chi0_mod, chi1_mod):
        f.verify_chain_map()
    assert chi0_mod.bidegree == Bidegree(0, 2)
    assert chi1_mod.bidegree == Bidegree(0, 0)
    phi0_inv, _ = row_op_transport(g0m, 0, 1, -r.one())
    phi1_inv, _ = row_op_transport(g1m, 1, 0, x2)
    chi0 = phi1_inv.compose(chi0_mod.compose(phi0))
    chi1 = phi0_inv.compose(chi1_mod.compose(phi1))
    for comp, space in ((chi1.compose(chi0), 4), (chi0.compose(chi1), 4)):
        for s in range(space):
            for t in range(space):
                assert comp.entry(s, t) == (y if s == t else r.zero())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("3 (symbolic identities)", f"{elapsed:.2f}s")


@pytest.mark.parametrize(
    "text,strands",
    [
        ("", 1),
        ("1", None),
        ("-1", None),
        ("", 2),
        ("1 1", None),
        ("1 1 1", None),
        ("-1 -1 -1", None),
        ("1 -2 1 -2", None),
    ],
)
def test_criterion_4_euler_equals_F(text, strands):
    qmax = 10
    b = parse_braid(text, strands)
    h = homology_of(text, qmax, strands)
    left = euler_characteristic(h)
    right = qt_expand(homfly_F(b), qmax)
    bad = left.first_difference(right)
    assert bad is None, f"first mismatch at q^{bad}"
    _report("4 (Theorem 2 euler-check)", f"braid {text!r} qmax {qmax}")


def test_criterion_5_markov_invariance_trefoil():
    start = time.monotonic()
    tre = homology_of("1 1 1")
    conj = word_homology(parse_braid("-1 1 1 1 1"), 10)
    assert compare_up_to_shift(tre, conj) == (0, 0, 0)
    stab_p = homology_of("1 1 1 2")
    assert compare_up_to_shift(tre, stab_p) == (0, 0, 0)
    stab_n = word_homology(parse_braid("1 1 1 -2"), 10)
    assert compare_up_to_shift(tre, stab_n) == (1, -1, -1)
    rot = word_homology(parse_braid("n=3 1 2 1 1"), 10)
    assert compare_up_to_shift(stab_p, rot) == (0, 0, 0)
    braided = word_homology(parse_braid("n=3 2 1 2 1"), 10)
    assert compare_up_to_shift(rot, braided) == (0, 0, 0)
    elapsed = time.monotonic() - start
    _report("5 (Theorem 1, trefoil moves)", f"{elapsed:.1f}s")


def test_criterion_5_markov_invariance_hopf():
    start = time.monotonic()
    hopf = homology_of("1 1")
    conj = word_homology(parse_braid("n=2 -1 1 1 1"), 10)
    assert compare_up_to_shift(hopf, conj) == (0, 0, 0)
    stab_p = word_homology(parse_braid("1 1 2"), 10)
    assert compare_up_to_shift(hopf, stab_p) == (0, 0, 0)
    stab_n = word_homology(parse_braid("1 1 -2"), 10)
    assert compare_up_to_shift(hopf, stab_n) == (1, -1, -1)
    elapsed = time.monotonic() - start
    assert elapsed < 30 * 60
    _report("5 (Theorem 1, Hopf moves)", f"{elapsed:.1f}s")


def test_criterion_6_mark_independence():
    start = time.monotonic()
    h1 = word_homology(parse_braid("1 1 1"), 10, marks_per_segment=1)
    h2 = word_homology(parse_braid("1 1 1"), 10, marks_per_segment=2)
    assert h1.dims == h2.dims  # identical, not merely up to shift
    elapsed = time.monotonic() - start
    assert elapsed < 10 * 60
    _report("6 (mark independence)", f"{elapsed:.1f}s")


@pytest.mark.parametrize("text,strands", [("", 1), ("1 1 1", None), ("1 1", None)])
def test_criterion_7_reduced_tensor_identity(text, strands):
    assert reduce_mode_check(parse_braid(text, strands), 10)
    _report("7 (reduced/unreduced)", f"braid {text!r}")


def test_criterion_8_hom_space_lemmas():
    start = time.monotonic()
    m, n = hom_pair("gamma110", "gamma100")
    assert hom_space_dim(m, n) == 1
    m, n = hom_pair("gamma100", "gamma110")
    assert hom_space_dim(m, n) == 0
    m, n = hom_pair("s2", "s2")
    assert hom_space_dim(m, n) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 5 * 60
    _report("8 (hom-space lemmas)", f"{elapsed:.1f}s")


def test_criterion_9_upsilon_decomposition():
    start = time.monotonic()
    qmax = 10
    h1 = matrix_homology(closed_matrix("gamma1-closure"), qmax)
    h4 = matrix_homology(closed_matrix("gamma4-closure"), qmax)
    hu = matrix_homology(closed_matrix("upsilon-closure"), qmax)
    combined = defaultdict(int)
    for (j, k, l), d in h4.dims.items():
        if l + 2 <= qmax:
            combined[(j, k, l + 2)] += d
    for key, d in hu.dims.items():
        combined[key] += d
    assert {k: v for k, v in combined.items() if v} == h1.dims
    elapsed = time.monotonic() - start
    assert elapsed < 15 * 60
    _report("9 (wide-edge decomposition)", f"{elapsed:.1f}s")


def test_criterion_10_oracle_self_consistency():
    start = time.monotonic()
    rng = random.Random(99)
    one = RationalQT.one()
    q2 = RationalQT.term(2, 0)
    # quadratic + braid relations
    for n in range(2, 5):
        for i in range(1, n):
            sq = hecke_of_braid(BraidWord(n, (i, i)))
            assert sq == hecke_of_braid(BraidWord(n, (i,))).scaled(one - q2) + (
                HeckeElement.unit(n).scaled(q2)
            )
    assert hecke_of_braid(parse_braid("1 2 1")) == hecke_of_braid(
        parse_braid("2 1 2")
    )
    assert hecke_of_braid(parse_braid("1 3")) == hecke_of_braid(parse_braid("3 1"))
    # skein identity, 50 random braids
    q = RationalQT.term(1, 0)
    qinv = RationalQT.term(-1, 0)
    for _ in range(50):
        n = rng.randint(2, 4)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(1, 8))
        )
        b = BraidWord(n, letters)
        i = rng.randint(1, n - 1)
        fp = homfly_F(BraidWord(n, letters + (i,)))
        fm = homfly_F(BraidWord(n, letters + (-i,)))
        assert qinv * fp - q * fm == (qinv - q) * homfly_F(b)
    # Markov invariance of F~, 25 random braids
    for _ in range(25):
        n = rng.randint(2, 4)
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(1, 6))
        )
        b = BraidWord(n, letters)
        ft = homfly_F_tilde(b)
        k = rng.randint(0, len(letters))
        assert homfly_F_tilde(BraidWord(n, letters[k:] + letters[:k])) == ft
        assert homfly_F_tilde(BraidWord(n + 1, letters + (n,))) == ft
        assert homfly_F_tilde(BraidWord(n + 1, letters + (-n,))) == ft
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("10 (oracle self-consistency)", f"{elapsed:.1f}s")
