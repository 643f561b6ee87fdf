"""Exact arithmetic layers shared by every other module.

Three rings appear throughout:

* ``Z[a, x_1, ..., x_m]`` -- multivariate integer polynomials with the
  bigrading deg(a) = (2,0), deg(x_i) = (0,2), and exact division over Z
  (`exact_divide`).  Koszul matrices and differentials live here.
* Laurent polynomials over Z in ``(q, t)``, and fractions of two of them --
  the target of the HOMFLYPT oracle and of Euler characteristics.
* q-power series with coefficients in ``Z[t, t^-1]`` -- the common ground on
  which the two are compared, up to an explicit cutoff ``qmax``.

Every coefficient in all three is an ``int``, which their constructors
check (`_integer`); no rational or float appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class ExpansionError(ValueError):
    """Raised when a RationalQT cannot be expanded as a q-power series."""


@dataclass(frozen=True)
class Bidegree:
    """A point (k, l) of the (a-direction, q-direction) grading lattice."""

    k: int
    l: int

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.k + other.k, self.l + other.l)

    def __sub__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.k - other.k, self.l - other.l)

    def __neg__(self) -> "Bidegree":
        return Bidegree(-self.k, -self.l)

    def __repr__(self) -> str:
        return "{%d,%d}" % (self.k, self.l)


BIDEG_ZERO = Bidegree(0, 0)
BIDEG_D = Bidegree(1, 1)  # bidegree of every differential


@dataclass(frozen=True)
class PolyRing:
    """An ordered list of variable names; 'a' is the distinguished one."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in ring {self.names}")

    def monomial_bidegree(self, exps: tuple[int, ...]) -> Bidegree:
        k = l = 0
        for name, e in zip(self.names, exps):
            if e < 0:
                raise ValueError("negative exponent")
            if name == "a":
                k += 2 * e
            else:
                l += 2 * e
        return Bidegree(k, l)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: _integer(c)})

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    @lru_cache(maxsize=None)
    def without(self, name: str) -> "PolyRing":
        return PolyRing(tuple(n for n in self.names if n != name))


def _integer(c) -> int:
    if not isinstance(c, int):
        raise ValueError(f"coefficient {c!r} is not an integer")
    return c


class Polynomial:
    """Sparse multivariate polynomial over Z; terms map exponent tuples to
    nonzero ints.  Instances are treated as immutable; the hash is cached."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], int]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- basic ring operations ------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring.names != other.ring.names:
            raise ValueError(
                f"ring mismatch: {self.ring.names} vs {other.ring.names}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial(self.ring, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return Polynomial(self.ring, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _integer(other)
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.names == other.ring.names and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.ring.names, tuple(sorted(self.terms.items()))))
            return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading --------------------------------------------------------------

    def homogeneous_bidegree(self) -> Bidegree | None:
        """The common bidegree of all terms, or None if inhomogeneous or 0."""
        deg = None
        for e in self.terms:
            d = self.ring.monomial_bidegree(e)
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return deg

    # -- structure queries ----------------------------------------------------

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        return max((e[i] for e in self.terms), default=0)

    def contains(self, name: str) -> bool:
        return self.degree_in(name) > 0

    def as_constant(self) -> int | None:
        """The value if this polynomial is a constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if all(x == 0 for x in e):
                return c
        return None

    # -- change of ring -------------------------------------------------------

    def drop_variable(self, name: str) -> "Polynomial":
        """Re-express over the ring without `name` (which must not occur)."""
        if self.contains(name):
            raise ValueError(f"{name!r} still occurs")
        i = self.ring.index(name)
        newring = self.ring.without(name)
        terms = {e[:i] + e[i + 1 :]: c for e, c in self.terms.items()}
        return Polynomial(newring, terms)

    def map_to_ring(self, newring: PolyRing) -> "Polynomial":
        """Reinterpret over a ring containing all used variables."""
        idx = [newring.index(n) for n in self.ring.names]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * newring.nvars
            for j, x in enumerate(e):
                ne[idx[j]] = x
            terms[tuple(ne)] = c
        return Polynomial(newring, terms)

    # -- printing -------------------------------------------------------------

    def __repr__(self) -> str:
        return _format_terms(
            (self.terms[e], zip(self.ring.names, e))
            for e in sorted(self.terms, reverse=True)
        )


def _format_terms(terms) -> str:
    """Sign-joined 'c*x^e*...' for each (c, [(x, e), ...]) pair in order,
    leaving out zero exponents; '0' when there are no terms."""
    out = ""
    for c, powers in terms:
        body = "*".join(x if e == 1 else f"{x}^{e}" for x, e in powers if e)
        if not body:
            s = str(c)
        elif c in (1, -1):
            s = body if c == 1 else "-" + body
        else:
            s = f"{c}*{body}"
        if out:
            s = " - " + s[1:] if s.startswith("-") else " + " + s
        out += s
    return out or "0"


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly over Z (lex long division);
    raises ValueError naming f and g otherwise."""
    ring = f.ring
    if g.is_zero():
        raise ZeroDivisionError
    q = ring.zero()
    rem = f
    gl = max(g.terms)
    gc = g.terms[gl]
    while not rem.is_zero():
        fl = max(rem.terms)
        if any(a < b for a, b in zip(fl, gl)):
            raise ValueError(f"{g} does not divide {f}")
        e = tuple(a - b for a, b in zip(fl, gl))
        c, r = divmod(rem.terms[fl], gc)
        if r:
            raise ValueError(f"{g} does not divide {f} over the integers")
        mono = Polynomial(ring, {e: c})
        q = q + mono
        rem = rem - mono * g
    return q


def monomials_of_degree(nvars: int, total: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographically."""
    return _monomials_cached(nvars, total)


@lru_cache(maxsize=None)
def _monomials_cached(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 0:
        return [()] if total == 0 else []
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _monomials_cached(nvars - 1, total - first):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials and rational functions in (q, t)
# ---------------------------------------------------------------------------


class LaurentQT:
    """Laurent polynomial in q and t over Z: {(q_exp, t_exp): int}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        # _integer raises on a non-int and returns c, so zeros drop out
        self.terms = {e: c for e, c in (terms or {}).items() if _integer(c)}

    @staticmethod
    def term(qe: int, te: int, c: int = 1) -> "LaurentQT":
        return LaurentQT({(qe, te): c})

    @staticmethod
    def zero() -> "LaurentQT":
        return LaurentQT({})

    @staticmethod
    def one() -> "LaurentQT":
        return LaurentQT.term(0, 0, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentQT") -> "LaurentQT":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return LaurentQT(t)

    def __sub__(self, other: "LaurentQT") -> "LaurentQT":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) - c
        return LaurentQT(t)

    def __neg__(self) -> "LaurentQT":
        return LaurentQT({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentQT({e: c * other for e, c in self.terms.items()})
        t: dict[tuple[int, int], int] = {}
        for (q1, t1), c1 in self.terms.items():
            for (q2, t2), c2 in other.terms.items():
                e = (q1 + q2, t1 + t2)
                t[e] = t.get(e, 0) + c1 * c2
        return LaurentQT(t)

    __rmul__ = __mul__

    def shifted(self, dq: int, dt: int) -> "LaurentQT":
        return LaurentQT({(q + dq, t + dt): c for (q, t), c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentQT):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def min_exponents(self) -> tuple[int, int]:
        if not self.terms:
            raise ValueError("zero Laurent polynomial")
        return (min(q for q, _ in self.terms), min(t for _, t in self.terms))

    def __repr__(self) -> str:
        return _format_terms(
            (c, (("q", qe), ("t", te))) for (qe, te), c in sorted(self.terms.items())
        )


class RationalQT:
    """Exact rational function in (q, t), stored as numerator/denominator.

    Normalisation: the denominator's lowest q- and t-exponents are shifted to
    zero (the monomial content moves into the numerator), and both parts are
    negated if the denominator's lexicographically smallest term is
    negative.  Nothing is divided, so both parts stay over Z.  Equality is
    by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentQT, den: LaurentQT):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = LaurentQT.zero()
            self.den = LaurentQT.one()
            return
        mq, mt = den.min_exponents()
        den = den.shifted(-mq, -mt)
        num = num.shifted(-mq, -mt)
        if den.terms[min(den.terms)] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @staticmethod
    def from_laurent(l: LaurentQT) -> "RationalQT":
        return RationalQT(l, LaurentQT.one())

    @staticmethod
    def term(qe: int, te: int, c: int = 1) -> "RationalQT":
        return RationalQT.from_laurent(LaurentQT.term(qe, te, c))

    @staticmethod
    def zero() -> "RationalQT":
        return RationalQT.from_laurent(LaurentQT.zero())

    @staticmethod
    def one() -> "RationalQT":
        return RationalQT.from_laurent(LaurentQT.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalQT") -> "RationalQT":
        return RationalQT(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalQT") -> "RationalQT":
        return RationalQT(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalQT":
        return RationalQT(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, RationalQT):
            return RationalQT(self.num * other.num, self.den * other.den)
        return RationalQT(self.num * other, self.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalQT":
        return RationalQT(self.den, self.num)

    def __pow__(self, n: int) -> "RationalQT":
        out = RationalQT.one()
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalQT):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self) -> str:
        if self.den == LaurentQT.one():
            return f"({self.num})"
        return f"({self.num})/({self.den})"


class QSeries:
    """Power series in q, coefficients Laurent polynomials in t over Z,
    exact up to (and including) q-degree qmax."""

    __slots__ = ("coeffs", "qmax")

    def __init__(self, coeffs: dict[int, dict[int, int]], qmax: int):
        self.qmax = qmax
        self.coeffs: dict[int, dict[int, int]] = {}
        for qe, tpoly in coeffs.items():
            tp = {te: c for te, c in tpoly.items() if _integer(c)}
            if tp and qe <= qmax:
                self.coeffs[qe] = tp

    def coefficient(self, qe: int) -> dict[int, int]:
        return dict(self.coeffs.get(qe, {}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.first_difference(other) is None

    def first_difference(self, other: "QSeries") -> int | None:
        """Smallest q-exponent at which the two series differ, else None."""
        lim = min(self.qmax, other.qmax)
        qs = sorted(
            {q for q in self.coeffs if q <= lim}
            | {q for q in other.coeffs if q <= lim}
        )
        for q in qs:
            if self.coeffs.get(q, {}) != other.coeffs.get(q, {}):
                return q
        return None

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"O(q^{self.qmax + 1})"
        parts = []
        for qe in sorted(self.coeffs):
            tp = LaurentQT({(0, te): c for te, c in self.coeffs[qe].items()})
            parts.append(f"({tp})*q^{qe}")
        return " + ".join(parts) + f" + O(q^{self.qmax + 1})"


def _by_q(l: LaurentQT) -> dict[int, dict[int, int]]:
    """{q_exp: {t_exp: coefficient}}."""
    out: dict[int, dict[int, int]] = {}
    for (qe, te), c in l.terms.items():
        out.setdefault(qe, {})[te] = c
    return out


def qt_expand(f: RationalQT, qmax: int) -> QSeries:
    """Expand ``f`` as a q-power series, exactly, up to q-degree qmax.

    Requires the lowest-q coefficient of the (normalised) denominator to be a
    single t-monomial with coefficient 1: otherwise no Laurent-series
    expansion with t-Laurent coefficients over Z exists, and an
    ExpansionError reports the offending coefficient.
    """
    if f.is_zero():
        return QSeries({}, qmax)
    den_by_q = _by_q(f.den)
    d0 = min(den_by_q)  # = 0 after normalisation
    lead = den_by_q[d0]
    if len(lead) != 1:
        raise ExpansionError(
            "denominator's lowest q-degree coefficient is not a t-monomial: "
            f"q^{d0} coefficient has t-terms {sorted(lead)}"
        )
    (lead_t, lead_c), = lead.items()
    if lead_c != 1:
        raise ExpansionError(
            f"denominator's lowest q-degree coefficient {lead_c}*t^{lead_t} "
            "is not 1, so the expansion leaves the integers"
        )
    num_by_q = _by_q(f.num)
    # series starts at q^(n0 - d0); S_r solved from S*den = num
    series: dict[int, dict[int, int]] = {}
    for r in range(min(num_by_q) - d0, qmax + 1):
        acc = dict(num_by_q.get(r + d0, {}))
        for i, di in den_by_q.items():
            s_prev = series.get(r - (i - d0)) if i != d0 else None
            if not s_prev:
                continue
            for te1, c1 in di.items():
                for te2, c2 in s_prev.items():
                    te = te1 + te2
                    acc[te] = acc.get(te, 0) - c1 * c2
        coeff = {te - lead_t: c for te, c in acc.items() if c != 0}
        if coeff:
            series[r] = coeff
    return QSeries(series, qmax)
