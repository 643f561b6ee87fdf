"""Explicit chain-level objects over Z[a, x]: graded free modules with a
2-periodic differential d (realized from Koszul matrices with Koszul signs,
over R/(relations) when the matrix carries monic relations, on generators
(row subset S, standard monomial u)), flip morphisms, Gaussian cancellation
of unit entries, and the maps across a vertex's reduction (`Reduction`):
the inclusion iota and projection pi between the complex of a matrix and
that of the matrix after `koszul.exclude_all`, whose linear exclusions and
monic picks are steps of one kind (row (0, f), f monic of degree m in its
variable; m = 1 for an exclusion).  `FlipMap` is a flip carried across the
reductions at both ends as pi_tgt o flip o iota_src.  Every division is
exact in Z (`algebra.exact_divide`, or division by a monic f); no rational
lies between Koszul rows and homology ranks.

Sign conventions (fixed once, verified against the rank-4 presentations of
the two local resolutions):

* basis e_S of a realized n-row matrix indexed by subsets S of rows;
  d_k e_S = (-1)^{#{r in S : r < k}} (a_k e_{S+k} if k not in S, else b_k e_{S-k})
* the elementary transformation [ij]_lambda corresponds to the basis change
  e_S -> e_S - lambda (-1)^{#{r in S strictly between i,j}} e_{S-i+j} for
  i in S, j not in S.
* removing row i = (0, f): iota and pi as in `Reduction`, with the same
  sign (-1)^{#{r in S : r < k}}.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import product

from .algebra import BIDEG_ZERO, Bidegree, PolyRing, Polynomial, exact_divide
from .koszul import Exclusion, KoszulMatrix, KoszulRow, normal_form, row_op

Matrix = dict[int, dict[int, Polynomial]]  # source index -> {target index: entry}
Terms = dict[tuple[int, tuple[int, ...]], int]  # (generator or subset, e) -> c


@dataclass(frozen=True)
class Generator:
    bidegree: Bidegree


@dataclass(frozen=True)
class FactorComplex:
    """A realized complex: `gens`, and d as `d` (source index -> {target
    index: entry}).  d has bidegree (1, 1), and every entry has l >= 0, so
    d out of a generator at l lands at l + 1 or below.  With `lmax` (None:
    the whole complex), `d` holds the rows of the generators at l <= lmax
    only, which is all that the (k, l) slices at l <= lmax read
    (`homology._slice_ranks`): the rows out of (k-1, l-1) and (k, l), and
    the generators of (k+1, l+1) as coordinates only.  A slice above lmax
    is refused there, so a missing row never reads as a zero column."""

    ring: PolyRing
    gens: tuple[Generator, ...]
    d: Matrix
    w: Polynomial  # d^2 = w * Id
    lmax: int | None = None
    # cache: {(k, l): (slice (k+1, l+1), echelon of d out of (k, l))}
    _out_block: dict = field(default_factory=dict, init=False, compare=False)
    # cache: k -> [(generator index, k, l)], for `homology.slice_basis`
    _by_k: dict = field(default_factory=dict, init=False, compare=False)

    def rank(self) -> int:
        return len(self.gens)

    def verify_d_squared(self) -> None:
        """d^2 = w on every generator whose d^2 is held: with `lmax`, those
        below lmax, whose d lands at l <= lmax."""
        n = len(self.gens)
        for s in range(n):
            if self.lmax is not None and self.gens[s].bidegree.l >= self.lmax:
                continue
            acc: dict[int, Polynomial] = {}
            for mid, p in self.d.get(s, {}).items():
                for tgt, q in self.d.get(mid, {}).items():
                    cur = acc.get(tgt, self.ring.zero()) + q * p
                    acc[tgt] = cur
            for tgt, p in acc.items():
                expect = self.w if tgt == s else self.ring.zero()
                if p != expect:
                    raise AssertionError(
                        f"d^2 fails at {s}->{tgt}: got {p}, want {expect}"
                    )


def realize(m: KoszulMatrix, quo: Quotient | None = None,
            lmax: int | None = None) -> FactorComplex:
    """Tensor product of the rows over R/(m.relations): generators (S, u)
    for row subsets S and standard monomials u (degree below m_i in each
    relation's variable y_i), in bidegree shift(S) + bidegree(u), over R
    without the y_i, at index S |monos| + u (which `Reduction` and
    `FlipMap` read).  The d entry from (S, u) to (S ± k, u') is the
    coefficient of u' in the normal form of a_k u or b_k u.  Without
    relations u = 1 only: 2^n generators indexed by row subsets.  `quo`,
    if given, is the `Quotient` of m's ring and relations.

    With `lmax`, `gens` is still whole, but d gets a row only at a
    generator at l <= lmax (`FactorComplex`), and only the normal forms
    those rows use are computed: the slices up to lmax read no other."""
    n = len(m.rows)
    if quo is None:
        quo = Quotient(m)
    nb = len(quo.monos)
    uls = [2 * sum(u) for u in quo.monos]  # l of each u
    top = math.inf if lmax is None else lmax
    made: dict[tuple[int, int], Generator] = {}  # one per distinct bidegree
    # shift(S) -> the generators (S, u), and the u of those at l <= lmax
    blocks: dict[tuple[int, int], tuple[list[Generator], list[int]]] = {}
    gens: list[Generator] = []
    d: Matrix = {}
    # per row and side: sign -> the products of that entry with each u
    tables = [(quo.products(row.left), quo.products(row.right))
              for row in m.rows]
    for mask in range(1 << n):
        k, l = m.global_shift.k, m.global_shift.l
        for r in range(n):
            if mask >> r & 1:
                k, l = k + m.rows[r].shift.k, l + m.rows[r].shift.l
        block = blocks.get((k, l))
        if block is None:
            for ul in uls:
                if (k, l + ul) not in made:
                    made[k, l + ul] = Generator(Bidegree(k, l + ul))
            block = blocks[k, l] = (
                [made[k, l + ul] for ul in uls],
                [ui for ui, ul in enumerate(uls) if l + ul <= top])
        gens.extend(block[0])
        if not block[1]:
            continue
        # per row r: the index of S ± r, and sign(S, r) NF(a_r u) or NF(b_r u)
        out = [((mask ^ (1 << r)) * nb, tables[r][mask >> r & 1][_sign(mask, r)])
               for r in range(n)]
        for ui in block[1]:
            drow: dict[int, Polynomial] = {}
            for base, products in out:
                for uj, p in products[ui]:
                    drow[base + uj] = p
            d[mask * nb + ui] = drow
    w = quo.products(m.potential())[1][0]
    if any(ui for ui, _ in w):
        raise ValueError("the potential is not a scalar over the quotient")
    return FactorComplex(quo.ring, tuple(gens), d,
                         w[0][1] if w else quo.ring.zero(), lmax)


class Quotient:
    """R/(m.relations) as a free module over `ring`, R without the
    relations' variables, on the standard monomials u (`monos`, exponents of
    those variables, u = 1 first).  It depends on m's ring and relations
    only, so `cube.build_cube` builds one per distinct pair and shares it
    between the vertices' `realize` and `Reduction`s.  The normal forms
    NF(p u) that `realize` reads (`products`), and each u's exponents over
    a ring that reads them (`exponents`), are made on first use and
    memoized on it, for as long as the cube lives."""

    def __init__(self, m: KoszulMatrix):
        self.full, self.relations = m.ring, m.relations
        names = m.ring.names
        self.ypos = [names.index(y) for y, _ in m.relations]
        self.rest = [i for i in range(len(names)) if i not in self.ypos]
        self.ring = (PolyRing(tuple(names[i] for i in self.rest))
                     if m.relations else m.ring)
        self.monos = list(product(*(range(f.degree_in(y))
                                    for y, f in m.relations)))
        self._where = {u: ui for ui, u in enumerate(self.monos)}
        self._products: dict[Polynomial, dict[int, _Products]] = {}
        self._exponents: dict[tuple[str, ...], list[tuple[int, ...]]] = {}

    def split(self, p: Polynomial) -> list[tuple[int, Polynomial]]:
        """p, in normal form, as [(index of u, coefficient over `ring`)]."""
        if not self.relations:
            return [] if p.is_zero() else [(0, p)]
        parts: dict[int, dict[tuple[int, ...], int]] = {}
        for e, c in p.terms.items():
            ui = self._where[tuple(e[i] for i in self.ypos)]
            parts.setdefault(ui, {})[tuple(e[i] for i in self.rest)] = c
        return [(ui, Polynomial(self.ring, t)) for ui, t in sorted(parts.items())]

    def exponents(self, ring: PolyRing) -> list[tuple[int, ...]]:
        """The standard monomials as exponents over `ring` (`full`, or a
        ring that holds the relations' variables); made once per ring."""
        if ring.names not in self._exponents:
            pos = [ring.index(y) for y, _ in self.relations]
            table = self._exponents[ring.names] = []
            for u in self.monos:
                at = dict(zip(pos, u))
                table.append(tuple(at.get(i, 0) for i in range(ring.nvars)))
        return self._exponents[ring.names]

    def products(self, p: Polynomial) -> dict[int, _Products]:
        """sign -> (u index -> sign NF(p u), split), each product made on
        first use; memoized per p."""
        table = self._products.get(p)
        if table is None:
            plus = _Products(self, p)
            table = self._products[p] = {1: plus, -1: _Products(self, p, plus)}
        return table


class _Products(dict):
    """u index -> NF(p u), split, or with `plus` (this table of p) its
    negative; each made on its first lookup."""

    def __init__(self, quo: Quotient, p: Polynomial,
                 plus: _Products | None = None):
        super().__init__()
        self.quo, self.p, self.plus = quo, p, plus

    def __missing__(self, ui: int) -> list[tuple[int, Polynomial]]:
        quo, p = self.quo, self.p
        if self.plus is not None:
            out = [(uj, -q) for uj, q in self.plus[ui]]
        elif p.is_zero():
            out = []
        elif quo.relations:
            u = Polynomial(quo.full, {quo.exponents(quo.full)[ui]: 1})
            out = quo.split(normal_form(u * p, quo.relations))
        else:
            out = [(0, p)]
        self[ui] = out
        return out


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainMap:
    src: FactorComplex
    tgt: FactorComplex
    mat: Matrix
    bidegree: Bidegree = BIDEG_ZERO

    def entry(self, s: int, t: int) -> Polynomial:
        return self.mat.get(s, {}).get(t, self.src.ring.zero())

    def verify_chain_map(self) -> None:
        """f d_src = d_tgt f, and homogeneity of the declared bidegree."""
        ring = self.src.ring
        for s in range(len(self.src.gens)):
            acc: dict[int, Polynomial] = {}
            for mid, p in self.src.d.get(s, {}).items():
                for t, q in self.mat.get(mid, {}).items():
                    acc[t] = acc.get(t, ring.zero()) + q * p
            for mid, p in self.mat.get(s, {}).items():
                for t, q in self.tgt.d.get(mid, {}).items():
                    acc[t] = acc.get(t, ring.zero()) - q * p
            for t, p in acc.items():
                if not p.is_zero():
                    raise AssertionError(f"not a chain map at {s}->{t}: {p}")
        for s, row in self.mat.items():
            for t, p in row.items():
                if p.is_zero():
                    continue
                d = p.homogeneous_bidegree()
                if d is None:
                    raise AssertionError(f"inhomogeneous entry at {s}->{t}")
                got = self.tgt.gens[t].bidegree + d - self.src.gens[s].bidegree
                if got != self.bidegree:
                    raise AssertionError(
                        f"entry {s}->{t} has bidegree {got}, declared {self.bidegree}"
                    )

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self o first (apply `first`, then `self`)."""
        if first.tgt is not self.src and first.tgt.gens != self.src.gens:
            raise ValueError("composition mismatch")
        ring = self.tgt.ring
        mat: Matrix = {}
        for s, row in first.mat.items():
            acc: dict[int, Polynomial] = {}
            for mid, p in row.items():
                for t, q in self.mat.get(mid, {}).items():
                    acc[t] = acc.get(t, ring.zero()) + q * p
            acc = {t: p for t, p in acc.items() if not p.is_zero()}
            if acc:
                mat[s] = acc
        return ChainMap(first.src, self.tgt, mat, self.bidegree + first.bidegree)


def identity_map(c: FactorComplex) -> ChainMap:
    return ChainMap(c, c, {i: {i: c.ring.one()} for i in range(len(c.gens))})


def flip_map(
    m: KoszulMatrix, row_index: int, y: Polynomial, kind: str
) -> tuple[ChainMap, KoszulMatrix]:
    """The flip morphism on one row, tensored with the identity elsewhere.

    kind "psi":  (x, y*z) -> (x*y, z), components (1, y, 1);
    kind "psi'": (x*y, z) -> (x, y*z), components (y, 1, y).

    Returns the chain map together with the target Koszul matrix.  The map
    is the `FlipMap` between the two unreduced complexes, tabulated.
    """
    row = m.rows[row_index]
    ydeg = y.homogeneous_bidegree()
    if ydeg is None:
        raise ValueError("flip factor must be homogeneous")
    if kind == "psi":
        odd, even, bidegree = y, y.ring.one(), BIDEG_ZERO
        new_row = KoszulRow(row.left * y, exact_divide(row.right, y),
                            row.shift - ydeg)
    elif kind == "psi'":
        odd, even, bidegree = y.ring.one(), y, ydeg
        x = exact_divide(row.left, y) if not row.left.is_zero() else m.ring.zero()
        new_row = KoszulRow(x, row.right * y, row.shift + ydeg)
    else:
        raise ValueError("kind must be 'psi' or 'psi''")
    new_row.validate()
    rows = list(m.rows)
    rows[row_index] = new_row
    m2 = replace(m, rows=tuple(rows))
    src, tgt = realize(m), realize(m2)
    f = FlipMap(Reduction(m, (), m, Quotient(m)),
                Reduction(m2, (), m2, Quotient(m2)), row_index, odd, even)
    mat: Matrix = {}
    for s in range(src.rank()):
        for t, e, c in f.image(s):
            mat.setdefault(s, {}).setdefault(t, {})[e] = c
    mat = {s: {t: Polynomial(m.ring, terms) for t, terms in row.items()}
           for s, row in mat.items()}
    return ChainMap(src, tgt, mat, bidegree), m2


def row_op_transport(
    m: KoszulMatrix, i: int, j: int, lam: Polynomial
) -> tuple[ChainMap, KoszulMatrix]:
    """The basis-change isomorphism realize(m) -> realize(row_op(m, i, j, lam))."""
    m2 = row_op(m, i, j, lam)
    src = realize(m)
    tgt = realize(m2)
    lo, hi = min(i, j), max(i, j)
    between = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    mat: Matrix = {}
    one = m.ring.one()
    for mask in range(1 << len(m.rows)):
        row = {mask: one}
        if mask >> i & 1 and not mask >> j & 1:
            sgn = -1 if bin(mask & between).count("1") % 2 == 0 else 1
            other = mask ^ (1 << i) ^ (1 << j)
            row[other] = lam * sgn
        mat[mask] = {t: p for t, p in row.items() if not p.is_zero()}
    return ChainMap(src, tgt, mat), m2


# ---------------------------------------------------------------------------
# Carrying elements across a vertex's reduction
# ---------------------------------------------------------------------------

def _sign(mask: int, k: int) -> int:
    return -1 if bin(mask & ((1 << k) - 1)).count("1") % 2 else 1


class Reduction:
    """How a cube vertex, realized after its reduction, sits in the complex
    of its unreduced matrix `big`, realize(big) over big.ring.  The `steps`
    are those of `exclude_all` on big, the linear exclusions first and then
    the monic picks; they lead from big to `matrix`.

    A step removes row i = (0, f), f = ±y^m + terms of lower y-degree, from
    a Koszul complex K over A = R/(earlier relations); the earlier relations
    are free of y, so A = B[y] with B free of y.  Every q in A is
    q = NF(q) + H(q) f for one NF(q) of y-degree below m (`Exclusion.reduce`)
    and one H(q) (`Exclusion.quotient`), and H is B-linear.  Then, with
    sign(S, k) = (-1)^#{r in S : r < k} as in `realize`:

        pi:    e_S -> 0 for i in S;  p e_S -> NF(p) e_S otherwise
        iota:  p e_S -> p e_S - sum_{k in S} sign(S, k) sign(S-k+i, i) H(b_k p) e_{S-k+i}

    where b_k is row k at that step and S, p are read in the larger complex.
    d iota = iota d': the e_{S-k} coefficients agree because
    b_k p = NF(b_k p) + H(b_k p) f; in the e_{S-k-l+i} coefficients,
    H(b_l NF(b_k p)) = H(b_l b_k p) - b_l H(b_k p) (uniqueness of NF), and the
    symmetric part cancels between k and l.  pi o iota = id, since
    NF(p) = p and every correction holds i.  There is no second-order term,
    because e_i ^ e_i = 0.  Division by a monic f is exact over Z.  The
    linear step is m = 1, f = c (y - mu): NF(p) = p|_{y=mu}, and
    H(b_k p) = c g_k p with g_k = (b_k - b_k|_{y=mu}) / (y - mu).

    Elements are carried as `Terms`, with no `Polynomial` per term.  H is
    Z-linear (division by the monic f, then a normal form, each unique), so
    H(b_k p) = sum_e c_e H(b_k x^e), tabulated per monomial x^e.  An entry
    is fixed by the step's var, f (with its ring) and relations, the row
    b_k and e, so the tables are keyed by those in `memo`, which
    `cube.build_cube` keeps for the life of the cube: vertices below one
    trie node share their path steps and so their entries.  For a linear
    step, where p is free of y, it reduces to H(b_k p) = H(b_k) p.

    pi of all steps kills e_S when S holds a removed row and applies the
    ring homomorphism sigma (every step's NF) to the coefficient; it is
    semilinear over sigma, and iota linear over `ring`, the ring of
    realize(matrix).  sigma(u) = u for each standard monomial u
    (`Quotient.exponents`): u's variables are relation variables, each
    below its degree, and the relations are triangular.  So u pi(x) =
    pi(u x).  The lifts iota(e_(S,u)) and sigma of each monomial are cached
    here, so every cube edge at this vertex shares them.  `quo` is the
    `Quotient` of matrix's ring and relations."""

    def __init__(self, big: KoszulMatrix, steps: Sequence[Exclusion],
                 matrix: KoszulMatrix, quo: Quotient, memo: dict | None = None):
        self.big, self.steps, self.matrix = big, tuple(steps), matrix
        self.quo, self.ring = quo, quo.ring
        self._memo = {} if memo is None else memo
        self._tables: list[tuple[dict, dict]] | None = None
        self._lifts: dict[int, Terms] = {}
        self._sigma: dict[tuple[str, ...], dict] = {}

    def lift(self, s: int) -> Terms:
        """iota(e_s) over big.ring, keyed by row subsets of big, the steps
        undone last first; cached."""
        if s in self._lifts:
            return self._lifts[s]
        if self._tables is None:  # per step: its memo, and k -> e -> H(b_k x^e)
            self._tables = [(self._memo.setdefault((st.var, st.f, st.relations), {}),
                             {}) for st in self.steps]
        nb = len(self.quo.monos)
        terms = {(s // nb, self.quo.exponents(self.quo.full)[s % nb]): 1}
        for st, (memo, tables) in zip(reversed(self.steps), reversed(self._tables)):
            i, ring = st.row, st.f.ring
            low, yi = (1 << i) - 1, ring.index(st.var)
            out: Terms = {}
            for (sub, e), c in terms.items():
                if st.drop:
                    e = e[:yi] + (0,) + e[yi:]
                full = (sub & low) | (sub >> i << (i + 1))
                out[full, e] = out.get((full, e), 0) + c
                for k, b in enumerate(st.rights):
                    if k == i or not full >> k & 1:
                        continue
                    table = tables.get(k)
                    if table is None:
                        table = tables[k] = memo.setdefault(b, {})
                    h = table.get(e)
                    if h is None:
                        h = table[e] = list(st.quotient(
                            b * Polynomial(ring, {e: 1})).terms.items())
                    if h:
                        t = full ^ (1 << k) | (1 << i)
                        ct = -c * _sign(full, k) * _sign(t, i)
                        for he, hc in h:
                            out[t, he] = out.get((t, he), 0) + ct * hc
            terms = {key: c for key, c in out.items() if c}
        self._lifts[s] = terms
        return terms

    def project(self, x: Terms) -> Terms:
        """pi of x over big.ring, keyed by row subsets of big, as terms
        over `ring` keyed by generators."""
        nb, out = len(self.quo.monos), {}
        for (s, e), c in x.items():
            for st in self.steps:
                if s >> st.row & 1:
                    break
                s = (s & ((1 << st.row) - 1)) | (s >> (st.row + 1) << st.row)
            else:
                for ui, q in self.sigma(self.big.ring, e):
                    for qe, qc in q:
                        out[s * nb + ui, qe] = out.get((s * nb + ui, qe), 0) + c * qc
        return {key: c for key, c in out.items() if c}

    def sigma(self, ring: PolyRing, e: tuple[int, ...]) -> list:
        """sigma(x^e) for x^e over `ring` (big.ring or a ring of some of its
        variables), as [(index of u, terms over `ring`)]; cached."""
        cache = self._sigma.setdefault(ring.names, {})
        image = cache.get(e)
        if image is None:
            mono = Polynomial(ring, {e: 1}).map_to_ring(self.big.ring)
            for st in self.steps:
                mono = st.reduce(mono)
            image = cache[e] = [(ui, list(q.terms.items()))
                                for ui, q in self.quo.split(mono)]
        return image


@dataclass(frozen=True)
class FlipMap:
    """A flip map between two reduced vertex complexes.  Before reduction
    it is diagonal in the subset basis over one shared ring: `odd` on the
    subsets holding row `row`, `even` on the others.  It acts as
    pi_tgt o flip o iota_src, a chain map, semilinear over the ring
    homomorphism sigma of pi_tgt: x^e e_s goes to sigma(x^e) image(e_s).
    sigma(u) = u for a standard monomial u of the target (`Reduction`), so
    u pi_tgt(x) = pi_tgt(u x), and `image` takes one path for every u."""

    src: Reduction
    tgt: Reduction
    row: int
    odd: Polynomial
    even: Polynomial
    # cache: (generator, index of u) -> u image(e_s) as terms
    _images: dict = field(default_factory=dict, init=False, compare=False)

    def image(self, s: int, ui: int = 0) -> list[tuple[int, tuple[int, ...], int]]:
        """pi_tgt(u flip(iota_src(e_s))), u the ui-th standard monomial of
        the target, as (target generator, exponents, coefficient) terms;
        cached.  The lift's terms are multiplied by u odd or u even, and
        copied through a factor that is the constant 1."""
        if (s, ui) in self._images:
            return self._images[s, ui]
        u = self.tgt.quo.exponents(self.tgt.big.ring)[ui]
        factors = [None if not ui and p == p.ring.one() else
                   [(tuple(map(int.__add__, u, fe)), fc) for fe, fc in p.terms.items()]
                   for p in (self.even, self.odd)]
        out: Terms = {}
        for (t, e), c in self.src.lift(s).items():
            factor = factors[t >> self.row & 1]
            if factor is None:
                out[t, e] = c
                continue
            for fe, fc in factor:
                k = (t, tuple(map(int.__add__, e, fe)))
                out[k] = out.get(k, 0) + c * fc
        image = self._images[s, ui] = [
            (t, e, c) for (t, e), c in self.tgt.project(out).items()]
        return image


# ---------------------------------------------------------------------------
# Gaussian cancellation of unit entries
# ---------------------------------------------------------------------------


def _find_unit(c: FactorComplex) -> tuple[int, int, Polynomial] | None:
    for s in sorted(c.d):
        for t in sorted(c.d[s]):
            if t == s:
                continue
            u = c.d[s][t]
            if u.as_constant():
                return s, t, u
    return None


def simplify(c: FactorComplex) -> tuple[FactorComplex, ChainMap, ChainMap]:
    """Cancel constant entries u of d until none remain, dividing exactly.

    Returns (simplified, iota, pi) with iota: simplified -> c and
    pi: c -> simplified exact chain maps, pi o iota = id, both homotopy
    equivalences.
    """
    ring = c.ring
    total_iota = identity_map(c)
    total_pi = identity_map(c)
    cur = c
    while True:
        hit = _find_unit(cur)
        if hit is None:
            break
        jsrc, itgt, u = hit
        keep = [k for k in range(len(cur.gens)) if k not in (jsrc, itgt)]
        reindex = {old: new for new, old in enumerate(keep)}
        gens = tuple(cur.gens[k] for k in keep)
        # d' = A - C u^{-1} B, where C = d(e_j)|V', B_l = coeff of e_i in d(e_l)
        C = {t: p for t, p in cur.d.get(jsrc, {}).items() if t in reindex}
        newd: Matrix = {}
        for l in keep:
            row: dict[int, Polynomial] = {}
            for t, p in cur.d.get(l, {}).items():
                if t in reindex:
                    row[t] = row.get(t, ring.zero()) + p
            bl = cur.d.get(l, {}).get(itgt)
            if bl is not None and not bl.is_zero():
                for t, p in C.items():
                    row[t] = row.get(t, ring.zero()) - exact_divide(p * bl, u)
            row2 = {
                reindex[t]: p for t, p in row.items() if not p.is_zero()
            }
            if row2:
                newd[reindex[l]] = row2
        small = FactorComplex(ring, gens, newd, cur.w)
        # iota: e_l -> e_l - u^{-1} B_l e_j
        imat: Matrix = {}
        for l in keep:
            row = {l: ring.one()}
            bl = cur.d.get(l, {}).get(itgt)
            if bl is not None and not bl.is_zero():
                row[jsrc] = -exact_divide(bl, u)
            imat[reindex[l]] = row
        step_iota = ChainMap(small, cur, imat)
        # pi: e_m -> e_m, e_j -> 0, e_i -> -u^{-1} C
        pmat: Matrix = {}
        for l in keep:
            pmat[l] = {reindex[l]: ring.one()}
        pirow = {
            reindex[t]: -exact_divide(p, u)
            for t, p in C.items() if not p.is_zero()
        }
        if pirow:
            pmat[itgt] = pirow
        step_pi = ChainMap(cur, small, pmat)
        total_iota = total_iota.compose(step_iota)
        total_pi = step_pi.compose(total_pi)
        cur = small
    return cur, total_iota, total_pi

