import random
from fractions import Fraction

import pytest

from trigrad.algebra import (
    Bidegree,
    ExpansionError,
    LaurentQT,
    PolyRing,
    Polynomial,
    QSeries,
    RationalQT,
    monomials_of_degree,
    qt_expand,
)


def ring5():
    return PolyRing(("a", "x1", "x2", "x3", "x4", "x5"))


def x(r, i):
    return r.var(f"x{i}")


class TestPolynomial:
    def test_monomial_bidegree(self):
        r = PolyRing(("a", "x1", "x2", "x3"))
        assert r.monomial_bidegree((2, 1, 1, 0)) == Bidegree(4, 4)
        assert r.monomial_bidegree((0, 0, 0, 0)) == Bidegree(0, 0)
        assert r.monomial_bidegree((0, 1, 1, 1)) == Bidegree(0, 6)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        r = PolyRing(("a", "x1", "x2"))

        def rand_poly():
            p = r.zero()
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                p = p + Polynomial(r, {e: rng.randint(-3, 3)})
            return p

        for _ in range(40):
            p, q, s = rand_poly(), rand_poly(), rand_poly()
            assert (p * q) * s == p * (q * s)
            assert p * (q + s) == p * q + p * s
            assert p + q == q + p

    def test_homogeneous_product_bidegrees_add(self):
        rng = random.Random(3)
        r = PolyRing(("a", "x1", "x2"))
        for _ in range(30):
            ea = rng.randint(0, 2)
            e1 = rng.randint(0, 2)
            p = Polynomial(r, {(ea, e1, 0): 2})
            q = Polynomial(r, {(0, rng.randint(0, 2), 1): -1})
            dp = p.homogeneous_bidegree()
            dq = q.homogeneous_bidegree()
            assert (p * q).homogeneous_bidegree() == dp + dq

    def test_monomials_of_degree_lex(self):
        ms = monomials_of_degree(3, 2)
        assert ms[0] == (2, 0, 0)
        assert len(ms) == 6
        assert len(set(ms)) == 6


class TestIntegerCoefficients:
    def test_laurent_rejects_a_fraction(self):
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
            LaurentQT({(0, 0): Fraction(1, 2)})
        with pytest.raises(ValueError, match=r"Fraction\(3, 1\)"):
            LaurentQT.term(1, 0, Fraction(3))

    def test_series_rejects_a_fraction(self):
        with pytest.raises(ValueError, match=r"Fraction\(1, 1\)"):
            QSeries({0: {0: 1}, 2: {-1: Fraction(1)}}, 4)

    def test_negative_lowest_denominator_term_flips_both_signs(self):
        # 3q / (q^2 - 1) is stored as -3q / (1 - q^2), over Z
        one, q = LaurentQT.one(), LaurentQT.term(1, 0)
        f = RationalQT(q * 3, q * q - one)
        assert f.den == one - q * q
        assert f.num == q * -3
        coeffs = [*f.num.terms.values(), *f.den.terms.values()]
        assert all(type(c) is int for c in coeffs)


class TestRationalQT:
    def test_cross_multiplication_equality(self):
        one = LaurentQT.one()
        q2 = LaurentQT.term(2, 0)
        # (1 - q^4) / (1 - q^2) == 1 + q^2
        f = RationalQT(one - q2 * q2, one - q2)
        g = RationalQT.from_laurent(one + q2)
        assert f == g

    def test_inverse_and_product(self):
        f = RationalQT(
            LaurentQT.term(1, -1), LaurentQT.one() - LaurentQT.term(2, 0)
        )
        assert f * f.inverse() == RationalQT.one()

    def test_equality_agrees_with_expansion(self):
        rng = random.Random(11)
        for _ in range(50):
            num1 = _random_laurent(rng)
            num2 = _random_laurent(rng)
            den = _random_expandable_denominator(rng)
            f = RationalQT(num1, den)
            g = RationalQT(num2, den)
            same_series = qt_expand(f, 12) == qt_expand(g, 12)
            # the difference is a nonzero rational function whose leading
            # q-power lies well inside the window, so the series must differ
            assert (f == g) == same_series


def _series(l: LaurentQT, qmax: int) -> QSeries:
    """l as a q-series exact up to qmax."""
    out: dict = {}
    for (qe, te), c in l.terms.items():
        out.setdefault(qe, {})[te] = c
    return QSeries(out, qmax)


def _times(s: QSeries, l: LaurentQT) -> QSeries:
    """s * l, exact up to s.qmax."""
    out: dict = {}
    for qe, row in s.coeffs.items():
        for (dq, dt), c in l.terms.items():
            acc = out.setdefault(qe + dq, {})
            for te, c2 in row.items():
                acc[te + dt] = acc.get(te + dt, 0) + c * c2
    return QSeries(out, s.qmax)


class TestQtExpand:
    def test_unknot_series(self):
        f = RationalQT(
            LaurentQT.term(0, -1),
            LaurentQT({(-1, 0): 1, (1, 0): -1}),
        )
        s = qt_expand(f, 5)
        assert s == QSeries({1: {-1: 1}, 3: {-1: 1}, 5: {-1: 1}}, 5)

    def test_trivial_quotient(self):
        den = LaurentQT.term(2, 0) - LaurentQT.one()
        f = RationalQT(den, den)
        assert qt_expand(f, 6) == _series(LaurentQT.one(), 6)

    def test_series_times_denominator_is_numerator(self):
        rng = random.Random(5)
        for _ in range(25):
            num = _random_laurent(rng)
            den = _random_expandable_denominator(rng)
            f = RationalQT(num, den)
            s = qt_expand(f, 14)
            assert _times(s, f.den) == _series(f.num, 14)

    def test_non_unit_lowest_coefficient_is_refused(self):
        den = LaurentQT({(0, 0): 2, (1, 0): 1})  # 2 + q
        with pytest.raises(ExpansionError, match=r"\b2\*t\^0 is not 1"):
            qt_expand(RationalQT(LaurentQT.one(), den), 5)

    def test_blocked_denominator_reports_coefficient(self):
        den = LaurentQT({(0, 0): 1, (0, 1): 1})  # 1 + t
        with pytest.raises(ExpansionError, match="q\\^0"):
            qt_expand(RationalQT(LaurentQT.one(), den), 5)


def _random_laurent(rng) -> LaurentQT:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(-2, 3), rng.randint(-2, 2))] = rng.randint(-4, 4) or 1
    return LaurentQT(terms)


def _random_expandable_denominator(rng) -> LaurentQT:
    # monomial * product of (1 - higher-q terms): lowest-q coefficient is a
    # t-monomial, as qt_expand requires
    out = LaurentQT.term(rng.randint(-1, 1), rng.randint(-1, 1))
    for _ in range(rng.randint(1, 2)):
        out = out * (
            LaurentQT.one()
            - LaurentQT.term(rng.randint(1, 3), rng.randint(-1, 1))
        )
    return out
