import random
import time
from itertools import product

import pytest

from trigrad.algebra import LaurentQT, QSeries, RationalQT, qt_expand
from trigrad.braid import BraidWord, parse_braid
from trigrad.cube import braid_homology
from trigrad.homfly import (
    ALPHA,
    MAX_STRANDS,
    HeckeElement,
    SqrtAlphaQT,
    TooManyStrands,
    hecke_of_braid,
    homfly_F,
    homfly_F_tilde,
    ocneanu_trace,
    perm_identity,
    solve_trace_params,
    unknot_value,
)
from trigrad.homology import euler_characteristic

Q2 = RationalQT.term(2, 0)
ONE = RationalQT.one()


def rand_braid(rng, max_strands=4, max_len=8) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(1, max_len)
    return BraidWord(
        n,
        tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)
        ),
    )


class TestHecke:
    def test_empty_word(self):
        assert hecke_of_braid(parse_braid("", strands=2)) == HeckeElement.unit(2)

    def test_single_generator(self):
        e = hecke_of_braid(parse_braid("1"))
        assert e.as_dict() == {(1, 0): ONE}

    def test_generator_squared(self):
        # the quadratic relation the skein forces: T^2 = (1-q^2) T + q^2
        e = hecke_of_braid(parse_braid("1 1"))
        assert e == hecke_of_braid(parse_braid("1")).scaled(ONE - Q2) + (
            HeckeElement.unit(2).scaled(Q2)
        )

    def test_quadratic_relation_all_generators(self):
        for n in range(2, 6):
            for i in range(1, n):
                sq = hecke_of_braid(BraidWord(n, (i, i)))
                lin = hecke_of_braid(BraidWord(n, (i,))).scaled(ONE - Q2)
                unit = HeckeElement.unit(n).scaled(Q2)
                assert sq == lin + unit, (n, i)

    def test_inverse_pair(self):
        for letters in [(1, -1), (-1, 1), (2, -2)]:
            e = hecke_of_braid(BraidWord(3, letters))
            assert e == HeckeElement.unit(3)

    def test_braid_relation(self):
        assert hecke_of_braid(parse_braid("1 2 1")) == hecke_of_braid(
            parse_braid("2 1 2")
        )

    def test_far_commutation(self):
        assert hecke_of_braid(parse_braid("1 3")) == hecke_of_braid(
            parse_braid("3 1")
        )


class TestTrace:
    def test_params(self):
        p = solve_trace_params()
        num = LaurentQT({(0, 0): 1, (1, -1): 1})
        den = LaurentQT({(0, 0): 1, (2, 0): -1})
        assert p.delta == RationalQT(num, den)
        assert p.delta * p.z == ONE

    def test_negative_stabilization_identity(self):
        p = solve_trace_params()
        qm2 = RationalQT.term(-2, 0)
        lhs = p.delta * (qm2 * p.z + ONE - qm2)
        assert lhs == RationalQT.term(-1, -1, -1)

    def test_identity_and_generator(self):
        p = solve_trace_params()
        assert ocneanu_trace(HeckeElement.unit(2)) == ONE
        assert ocneanu_trace(hecke_of_braid(parse_braid("1"))) == p.z

    def test_trivial_braids_give_delta_powers(self):
        p = solve_trace_params()
        for n in (1, 2, 3):
            b = parse_braid("", strands=n)
            assert homfly_F(b) == unknot_value() * p.delta ** (n - 1)

    def test_conjugation_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            b = rand_braid(rng, 4, 6)
            k = rng.randint(0, len(b.letters))
            rot = BraidWord(b.strands, b.letters[k:] + b.letters[:k])
            assert ocneanu_trace(hecke_of_braid(b)) == ocneanu_trace(
                hecke_of_braid(rot)
            )


class TestF:
    def test_unknot(self):
        assert homfly_F(parse_braid("", strands=1)) == unknot_value()

    def test_positive_stabilization(self):
        assert homfly_F(parse_braid("1")) == unknot_value()

    def test_negative_stabilization(self):
        expect = ALPHA * unknot_value()
        assert homfly_F(parse_braid("-1")) == expect

    def test_strand_ceiling(self):
        b = BraidWord(MAX_STRANDS + 1, ())
        for oracle in (homfly_F, hecke_of_braid):
            with pytest.raises(TooManyStrands,
                               match=f"^{MAX_STRANDS + 1} strands, above "):
                oracle(b)

    def test_destabilized_F_is_the_hecke_value(self):
        # F drops a once-occurring top letter before its Hecke product; the
        # product of the whole word through the trace is the reference
        delta = solve_trace_params().delta
        for n, longest in ((2, 6), (3, 5), (4, 3)):
            letters = [s for i in range(1, n) for s in (i, -i)]
            for length in range(longest + 1):
                for w in product(letters, repeat=length):
                    b = BraidWord(n, w)
                    assert homfly_F(b) == (unknot_value() * delta ** (n - 1)
                                           * ocneanu_trace(hecke_of_braid(b))), w

    def test_negatively_stabilized_unknot_on_600_strands(self):
        # a negative letter that raises the length splits each Hecke term in
        # two, so this word once took 2^599 terms
        b = BraidWord(600, tuple(range(-1, -600, -1)))
        start = time.perf_counter()
        f = homfly_F(b)
        assert time.perf_counter() - start < 1
        assert f == ALPHA ** 599 * unknot_value()

    def test_skein_on_random_braids(self):
        rng = random.Random(21)
        qinv = RationalQT.term(-1, 0)
        q = RationalQT.term(1, 0)
        for _ in range(50):
            b = rand_braid(rng)
            i = rng.randint(1, b.strands - 1)
            fb = homfly_F(b)
            fp = homfly_F(BraidWord(b.strands, b.letters + (i,)))
            fm = homfly_F(BraidWord(b.strands, b.letters + (-i,)))
            assert qinv * fp - q * fm == (qinv - q) * fb

    def test_sigma1_squared_matches_skein_recursion(self):
        # solve the skein for F(sigma_1^2) from F(sigma_1) and F(sigma_1 sigma_1^{-1})
        q = RationalQT.term(1, 0)
        qinv = RationalQT.term(-1, 0)
        lhs = homfly_F(parse_braid("1 1"))
        rhs = q * ((qinv - q) * homfly_F(parse_braid("1")) + q * homfly_F(
            parse_braid("1 -1")
        ))
        assert lhs == rhs
        assert qt_expand(lhs, 12) == qt_expand(rhs, 12)


class TestFForm:
    """F is one fraction over a power of (1 - q^2)."""

    def test_denominator_is_power_of_one_minus_q2(self):
        rng = random.Random(57)
        one_minus_q2 = LaurentQT({(0, 0): 1, (2, 0): -1})
        for _ in range(40):
            b = rand_braid(rng, 5, 8)
            f = homfly_F(b)
            powers = [LaurentQT.one()]
            for _ in range(b.strands):
                powers.append(powers[-1] * one_minus_q2)
            assert f.den in powers, (b, f)

    @pytest.mark.parametrize("word", ["1 1 1", "1 -2 1 -2", "1 1 1 1 1"])
    def test_reduced_euler_is_numerator(self, word):
        # for these knots F.den = 1 - q^2, so the reduced Euler
        # characteristic F * (1 - q^2) is F.num itself
        b = parse_braid(word)
        f = homfly_F(b)
        assert f.den == LaurentQT({(0, 0): 1, (2, 0): -1})
        h = braid_homology(b, 10, reduced=True)
        num: dict = {}
        for (qe, te), c in f.num.terms.items():
            num.setdefault(qe, {})[te] = c
        assert euler_characteristic(h) == QSeries(num, 10)


class TestFTilde:
    def test_unknot_normalization(self):
        ft = homfly_F_tilde(parse_braid("", strands=1))
        assert ft.odd == 0
        # alpha / (1 - q^{-2})
        expect = ALPHA * RationalQT(
            LaurentQT.one(),
            LaurentQT({(0, 0): 1, (-2, 0): -1}),
        )
        assert ft.value == expect

    def test_markov_invariance_random(self):
        rng = random.Random(33)
        for _ in range(25):
            b = rand_braid(rng, 4, 6)
            ft = homfly_F_tilde(b)
            k = rng.randint(0, len(b.letters))
            rot = BraidWord(b.strands, b.letters[k:] + b.letters[:k])
            assert homfly_F_tilde(rot) == ft
            up = BraidWord(b.strands + 1, b.letters + (b.strands,))
            down = BraidWord(b.strands + 1, b.letters + (-b.strands,))
            assert homfly_F_tilde(up) == ft
            assert homfly_F_tilde(down) == ft

    def test_homfly_skein_relation(self):
        # qA F~(D sigma^{-1}) - (qA)^{-1} F~(D sigma) = (q - q^{-1}) F~(D)
        rng = random.Random(43)
        q = RationalQT.term(1, 0)
        qinv = RationalQT.term(-1, 0)
        for _ in range(15):
            b = rand_braid(rng, 3, 5)
            i = rng.randint(1, b.strands - 1)
            fd = homfly_F_tilde(b)
            fp = homfly_F_tilde(BraidWord(b.strands, b.letters + (i,)))
            fm = homfly_F_tilde(BraidWord(b.strands, b.letters + (-i,)))
            assert fp.odd == fm.odd == 1 - fd.odd
            # both sides times A^fd.odd, with A^2 = alpha
            lhs = q * ALPHA * fm.value - qinv * fp.value
            rhs = (q - qinv) * ALPHA ** fd.odd * fd.value
            assert lhs == rhs
