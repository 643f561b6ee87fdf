"""Independent HOMFLYPT oracle through the Hecke algebra of type A and a
Markov trace.

The braid-diagram normalisation F is pinned by: conjugation and braid-move
invariance, F(D sigma_n) = F(D), F(D sigma_n^{-1}) = -t^{-1}q^{-1} F(D), the
skein relation q^{-1} F(D sigma_i) - q F(D sigma_i^{-1}) = (q^{-1}-q) F(D),
and F(unknot) = t^{-1}/(q^{-1}-q).  The skein relation forces the quadratic
relation T_i^2 = (1-q^2) T_i + q^2 on the generator images, and the Markov
axioms force the trace parameters

    delta = (1 + t^{-1} q) / (1 - q^2),       z = 1/delta,

with F(D) = (t^{-1}/(q^{-1}-q)) * delta^{n-1} * trace(rho(D)).

Everything inside is integer arithmetic.  Hecke coefficients are Laurent
polynomials in q with integer coefficients, ``{q_exp: int}``, since the
quadratic relation and T_i^{-1} = q^{-2} T_i + (1 - q^{-2}) have integer
Laurent coefficients.  The trace of a basis element T_w is a polynomial in
z over Z[q^{+-1}], ``{(z_exp, q_exp): int}``.  Writing the trace of the braid
as sum c_{m,e} q^e z^m, with m <= n-1, gives the closed form

    F = t^{-1} q * sum c_{m,e} q^e (1 + t^{-1}q)^{n-1-m} (1 - q^2)^m
        / (1 - q^2)^n,

whose numerator is an integer Laurent polynomial in (q, t).  Every factor
(1 - q^2) that divides it exactly is cancelled, so F is returned as one
fraction over (1 - q^2)^k.  Values become ``RationalQT`` only in the public
functions.

The rescaling F~ = sqrt(alpha)^{w - s + 1} F with alpha = -t^{-1}q^{-1} is
invariant under all Markov moves; the half-integer alpha powers live in a
formal square root A.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import LaurentQT, RationalQT
from .braid import BraidWord

Permutation = tuple[int, ...]
QLaurent = dict[int, int]  # {q_exp: coefficient}
ZPoly = dict[tuple[int, int], int]  # {(z_exp, q_exp): coefficient}
QTLaurent = dict[tuple[int, int], int]  # {(q_exp, t_exp): coefficient}
HeckeLaurent = dict[Permutation, QLaurent]  # {w: coefficient of T_w}


def perm_identity(n: int) -> Permutation:
    return tuple(range(n))


def perm_mul(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


@dataclass(frozen=True)
class HeckeElement:
    n: int
    coeffs: tuple[tuple[Permutation, RationalQT], ...]

    def as_dict(self) -> dict[Permutation, RationalQT]:
        return dict(self.coeffs)

    @staticmethod
    def from_dict(n: int, d: dict[Permutation, RationalQT]) -> "HeckeElement":
        items = tuple(
            (w, c) for w, c in sorted(d.items()) if not c.is_zero()
        )
        return HeckeElement(n, items)

    @staticmethod
    def unit(n: int) -> "HeckeElement":
        return HeckeElement.from_dict(n, {perm_identity(n): RationalQT.one()})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        d = self.as_dict()
        for w, c in other.coeffs:
            d[w] = d.get(w, RationalQT.zero()) + c
        return HeckeElement.from_dict(self.n, d)

    def scaled(self, c: RationalQT) -> "HeckeElement":
        return HeckeElement.from_dict(
            self.n, {w: v * c for w, v in self.coeffs}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.n != other.n:
            return False
        d1, d2 = self.as_dict(), other.as_dict()
        zero = RationalQT.zero()
        return all(
            d1.get(w, zero) == d2.get(w, zero) for w in set(d1) | set(d2)
        )


def _right_mul_gen(d: HeckeLaurent, i: int, inverse: bool) -> HeckeLaurent:
    """Right multiplication by T_{s_i}^{±1}; `i` is the 0-indexed position.

    T_w T_s = T_{ws} when the length goes up, else (1-q^2) T_w + q^2 T_{ws};
    T_w T_s^{-1} = T_{ws} when the length goes down, else
    (1-q^{-2}) T_w + q^{-2} T_{ws}.
    """
    out: HeckeLaurent = {}
    shift = -2 if inverse else 2
    for w, c in d.items():
        ws = list(w)
        ws[i], ws[i + 1] = ws[i + 1], ws[i]
        ws = tuple(ws)
        acc_ws = out.setdefault(ws, {})
        if (w[i] < w[i + 1]) != inverse:
            for e, v in c.items():
                acc_ws[e] = acc_ws.get(e, 0) + v
            continue
        acc_w = out.setdefault(w, {})
        for e, v in c.items():
            acc_w[e] = acc_w.get(e, 0) + v
            acc_w[e + shift] = acc_w.get(e + shift, 0) - v
            acc_ws[e + shift] = acc_ws.get(e + shift, 0) + v
    out = {w: {e: v for e, v in c.items() if v} for w, c in out.items()}
    return {w: c for w, c in out.items() if c}


# `_hecke_laurent` refuses more strands before it builds a permutation.  F
# on n strands holds (1 + t^{-1}q)^(n-1): `trigrad homfly 1` took 1.8 s on
# 2 000 strands and 13 s on 5 000, and 10^20 strands cannot hold a permutation
MAX_STRANDS = 2000


class TooManyStrands(ValueError):
    """A braid on more strands than `MAX_STRANDS`."""


def _check_strands(b: BraidWord) -> None:
    if b.strands > MAX_STRANDS:
        raise TooManyStrands(f"{b.strands} strands, above {MAX_STRANDS}")


def _hecke_laurent(b: BraidWord) -> HeckeLaurent:
    _check_strands(b)
    d = {perm_identity(b.strands): {0: 1}}
    for s in b.letters:
        d = _right_mul_gen(d, abs(s) - 1, s < 0)
    return d


def _q_laurent_rqt(c: QLaurent) -> RationalQT:
    return _qt_rqt({(e, 0): v for e, v in c.items()}, {(0, 0): 1})


def hecke_of_braid(b: BraidWord) -> HeckeElement:
    return HeckeElement.from_dict(
        b.strands,
        {w: _q_laurent_rqt(c) for w, c in _hecke_laurent(b).items()},
    )


@dataclass(frozen=True)
class TraceParams:
    delta: RationalQT
    z: RationalQT


def solve_trace_params() -> TraceParams:
    """delta = (1 + t^{-1}q)/(1 - q^2), z = 1/delta; the unique pair with
    delta*z = 1 and delta*(q^{-2} z + 1 - q^{-2}) = -t^{-1}q^{-1}."""
    num = LaurentQT({(0, 0): 1, (1, -1): 1})
    den = LaurentQT({(0, 0): 1, (2, 0): -1})
    delta = RationalQT(num, den)
    return TraceParams(delta, delta.inverse())


# (n, w) -> trace of T_w in H_n; shared by every caller, never mutated
_TRACE_MEMO: dict[tuple[int, Permutation], ZPoly] = {(1, (0,)): {(0, 0): 1}}


def _trace_basis(n: int, w: Permutation) -> ZPoly:
    """Compatible normalized Markov trace on the T-basis, as a polynomial
    in z over Z[q^{+-1}].  The trace in H_n combines traces in H_{n-1}
    (`_trace_step`): the walk collects the steps it needs down the strands,
    then combines them from the fewest strands up, with no recursion."""
    out = _TRACE_MEMO.get((n, w))
    if out is not None:  # most calls, once the memo is warm
        return out
    steps, todo = {}, [(n, w)]
    for key in todo:  # grows to every (m, v) the trace needs
        if key not in steps and key not in _TRACE_MEMO:
            steps[key] = _trace_step(*key)
            todo += [(key[0] - 1, u) for u in steps[key][0]]
    for key in sorted(steps, key=lambda k: k[0]):  # fewest strands first
        _TRACE_MEMO[key] = _trace_combination(key[0] - 1, *steps[key])
    return _TRACE_MEMO[n, w]


def _trace_step(n: int, w: Permutation) -> tuple[HeckeLaurent, int]:
    """(d, s) with trace(T_w) = z^s trace(d), d in H_{n-1}."""
    if w[n - 1] == n - 1:
        return {w[: n - 1]: {0: 1}}, 0
    # w = v . (s_{n-2} s_{n-3} ... s_k) with v fixing n-1; the trace rule
    # strips s_{n-2} at cost z, leaving v . (s_{n-3} ... s_k) in H_{n-1}
    k = w.index(n - 1)
    # u = s_{n-2} ... s_k : one-line [0..k-1, n-1, k, ..., n-2]
    u = tuple(list(range(k)) + [n - 1] + list(range(k, n - 1)))
    uinv = [0] * n
    for i, x in enumerate(u):
        uinv[x] = i
    v = perm_mul(w, tuple(uinv))
    assert v[n - 1] == n - 1
    d = {v[: n - 1]: {0: 1}}
    for i in range(n - 3, k - 1, -1):
        d = _right_mul_gen(d, i, False)
    return d, 1


def _trace_combination(n: int, d: HeckeLaurent, z_shift: int = 0) -> ZPoly:
    """z^z_shift * trace(sum_w c_w T_w) in H_n."""
    out: ZPoly = {}
    for w, c in d.items():
        for (m, e), v in _trace_basis(n, w).items():
            for ce, cv in c.items():
                key = (m + z_shift, e + ce)
                out[key] = out.get(key, 0) + v * cv
    return {k: v for k, v in out.items() if v}


def _z_numerator(tr: ZPoly, top: int) -> QTLaurent:
    """(1 + t^{-1}q)^top * tr with z = (1-q^2)/(1 + t^{-1}q) substituted,
    for top >= every z-exponent of tr."""
    out: QTLaurent = {}
    for (m, e), c in tr.items():
        for j in range(m + 1):
            c1 = c * comb(m, j) * (-1) ** j
            for i in range(top - m + 1):
                key = (e + 2 * j + i, -i)
                out[key] = out.get(key, 0) + c1 * comb(top - m, i)
    return {k: v for k, v in out.items() if v}


def _qt_rqt(num: QTLaurent, den: QTLaurent) -> RationalQT:
    return RationalQT(LaurentQT(num), LaurentQT(den))


def ocneanu_trace(e: HeckeElement) -> RationalQT:
    """Markov trace of e, over (1 + t^{-1}q)^m for m its top z-degree."""
    traces = {w: _trace_basis(e.n, w) for w, _ in e.coeffs}
    top = max((m for tr in traces.values() for m, _ in tr), default=0)
    num = RationalQT.zero()
    for w, c in e.coeffs:
        num = num + c * _qt_rqt(_z_numerator(traces[w], top), {(0, 0): 1})
    return num * _qt_rqt({(0, 0): 1}, _z_numerator({(0, 0): 1}, top))


def unknot_value() -> RationalQT:
    """t^{-1} / (q^{-1} - q)."""
    return RationalQT(
        LaurentQT.term(0, -1),
        LaurentQT({(-1, 0): 1, (1, 0): -1}),
    )


def _divide_one_minus_q2(num: QTLaurent) -> QTLaurent | None:
    """num / (1 - q^2) if the division is exact, else None."""
    rows: dict[int, dict[int, int]] = {}
    for (qe, te), c in num.items():
        rows.setdefault(te, {})[qe] = c
    out: QTLaurent = {}
    for te, row in rows.items():
        # quotient coefficients Q_e = num_e + Q_{e-2}, one chain per parity
        carry = [0, 0]
        for qe in range(min(row), max(row) + 1):
            c = row.get(qe, 0) + carry[qe & 1]
            carry[qe & 1] = c
            if c:
                out[(qe, te)] = c
        if carry != [0, 0]:
            return None
    return out


def homfly_F(b: BraidWord) -> RationalQT:
    """F of the closure of b over (1 - q^2)^k, k as small as exact division
    allows.  While the top generator sigma_{n-1}^{+-1} occurs once, the word
    is rotated to end in it (F is invariant under conjugation) and that
    letter and the last strand are dropped, F(D sigma_{n-1}) = F(D) and
    F(D sigma_{n-1}^{-1}) = alpha F(D), before the Hecke product is taken:
    a negative letter that raises the length splits every term in two."""
    _check_strands(b)
    n, letters, m = b.strands, b.letters, 0  # F(b) = alpha^m F(letters)
    while n > 1 and [abs(s) for s in letters].count(n - 1) == 1:
        i = [abs(s) for s in letters].index(n - 1)
        m += letters[i] < 0
        n, letters = n - 1, letters[i + 1:] + letters[:i]
    tr = _trace_combination(n, _hecke_laurent(BraidWord(n, letters)))
    num = {(qe + 1 - m, te - 1 - m): (-1) ** m * c
           for (qe, te), c in _z_numerator(tr, n - 1).items()}
    k = n
    while k and (quotient := _divide_one_minus_q2(num)) is not None:
        num, k = quotient, k - 1
    den = {(2 * j, 0): comb(k, j) * (-1) ** j for j in range(k + 1)}
    return _qt_rqt(num, den)


ALPHA = RationalQT.term(-1, -1, -1)  # -t^{-1} q^{-1}


@dataclass(frozen=True)
class SqrtAlphaQT:
    """value * A^odd with A^2 = alpha = -t^{-1}q^{-1}."""

    odd: int
    value: RationalQT

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqrtAlphaQT):
            return NotImplemented
        if self.value.is_zero() and other.value.is_zero():
            return True
        return self.odd == other.odd and self.value == other.value


def homfly_F_tilde(b: BraidWord) -> SqrtAlphaQT:
    return tilde_of_F(b, homfly_F(b))


def tilde_of_F(b: BraidWord, f: RationalQT) -> SqrtAlphaQT:
    """F~ of the closure of b from f = `homfly_F(b)`."""
    e = b.positive_count() - b.negative_count() - b.strands + 1
    m, r = divmod(e, 2)
    return SqrtAlphaQT(r, f * ALPHA ** m)
