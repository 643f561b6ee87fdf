"""Explicit chain-level objects over Z[a, x]: graded free modules with a
2-periodic differential d (realized from Koszul matrices with Koszul signs,
over R/(relations) when the matrix carries monic relations),
flip morphisms, crossing cones, tensor products, Gaussian cancellation of
unit entries, and the maps across variable exclusion: the inclusion iota and
projection pi between a complex and its excluded form, and `FlipMap`, a flip
carried across the exclusions at both ends as pi_tgt o flip o iota_src.
Every division is `algebra.exact_divide`, which stays in Z; rationals appear
only in homology coordinates.

Sign conventions (fixed once, verified against the rank-4 presentations of
the two local resolutions):

* basis e_S of a realized n-row matrix indexed by subsets S of rows;
  d_k e_S = (-1)^{#{r in S : r < k}} (a_k e_{S+k} if k not in S, else b_k e_{S-k})
* the elementary transformation [ij]_lambda corresponds to the basis change
  e_S -> e_S - lambda (-1)^{#{r in S strictly between i,j}} e_{S-i+j} for
  i in S, j not in S.
* excluding row i = (0, c(y - mu)) with quotients g_k: iota and pi as in
  `include` and `project`, with the same sign (-1)^{#{r in S : r < k}}.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import product

from .algebra import BIDEG_ZERO, Bidegree, PolyRing, Polynomial, exact_divide
from .koszul import Exclusion, KoszulMatrix, KoszulRow, normal_form, row_op

Matrix = dict[int, dict[int, Polynomial]]  # source index -> {target index: entry}
Element = dict[int, Polynomial]  # generator index -> coefficient


@dataclass(frozen=True)
class Generator:
    parity: int
    bidegree: Bidegree
    j: int = 0
    label: tuple = ()


@dataclass(frozen=True)
class FactorComplex:
    ring: PolyRing
    gens: tuple[Generator, ...]
    d: Matrix
    w: Polynomial  # d^2 = w * Id
    cube_d: Matrix | None = None

    def rank(self) -> int:
        return len(self.gens)

    def verify_d_squared(self) -> None:
        n = len(self.gens)
        for s in range(n):
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

    def verify_cube(self) -> None:
        """cube_d anticommutes with d and squares to zero."""
        if self.cube_d is None:
            return
        n = len(self.gens)
        for s in range(n):
            acc: dict[int, Polynomial] = {}
            for mid, p in self.cube_d.get(s, {}).items():
                for tgt, q in self.cube_d.get(mid, {}).items():
                    acc[tgt] = acc.get(tgt, self.ring.zero()) + q * p
            for tgt, p in acc.items():
                if not p.is_zero():
                    raise AssertionError(f"cube_d^2 fails at {s}->{tgt}")
            acc = {}
            for mid, p in self.d.get(s, {}).items():
                for tgt, q in self.cube_d.get(mid, {}).items():
                    acc[tgt] = acc.get(tgt, self.ring.zero()) + q * p
            for mid, p in self.cube_d.get(s, {}).items():
                for tgt, q in self.d.get(mid, {}).items():
                    acc[tgt] = acc.get(tgt, self.ring.zero()) + q * p
            for tgt, p in acc.items():
                if not p.is_zero():
                    raise AssertionError(f"d cube_d + cube_d d fails at {s}->{tgt}")

    def dump(self) -> str:
        lines = []
        for i, g in enumerate(self.gens):
            lines.append(f"gen {i}: parity {g.parity} {g.bidegree} j={g.j}")
        for s in sorted(self.d):
            for t in sorted(self.d[s]):
                lines.append(f"d: {s} -> {t}: {self.d[s][t]}")
        if self.cube_d:
            for s in sorted(self.cube_d):
                for t in sorted(self.cube_d[s]):
                    lines.append(f"del: {s} -> {t}: {self.cube_d[s][t]}")
        return "\n".join(lines)


def _popcount_below(mask: int, k: int) -> int:
    return bin(mask & ((1 << k) - 1)).count("1")


def realize(m: KoszulMatrix, j: int = 0) -> FactorComplex:
    """Tensor product of the rows over R/(m.relations): generators (S, u)
    for row subsets S and standard monomials u (degree below m_i in each
    relation's variable y_i), in bidegree shift(S) + bidegree(u), over R
    without the y_i.  The d entry from (S, u) to (S ± k, u') is the
    coefficient of u' in the normal form of a_k u or b_k u.  Without
    relations u = 1 only: 2^n generators indexed by row subsets."""
    n = len(m.rows)
    ring, monos, times = _quotient(m)
    nb = len(monos)
    ubid = [Bidegree(0, 2 * sum(u)) for u in monos]
    gens = []
    for mask in range(1 << n):
        bid = m.global_shift
        for r in range(n):
            if mask >> r & 1:
                bid = bid + m.rows[r].shift
        parity = (bin(mask).count("1") + m.global_parity) % 2
        for u, ub in zip(monos, ubid):
            gens.append(Generator(parity, bid + ub, j, ("S", mask) + u))
    table = [(times(r.left), times(r.right)) for r in m.rows]
    d: Matrix = {}
    for mask in range(1 << n):
        rows: list[dict[int, Polynomial]] = [{} for _ in monos]
        for r in range(n):
            sign = _sign(mask, r)
            base = (mask ^ (1 << r)) * nb
            for row, products in zip(rows, table[r][mask >> r & 1]):
                for uj, p in products:
                    row[base + uj] = p * sign
        for ui, row in enumerate(rows):
            d[mask * nb + ui] = row
    w = times(m.potential())[0]
    if any(ui for ui, _ in w):
        raise ValueError("the potential is not a scalar over the quotient")
    return FactorComplex(ring, tuple(gens), d, w[0][1] if w else ring.zero())


def _quotient(m: KoszulMatrix):
    """The ring of realize(m), its standard monomials u (exponents of the
    relations' variables), and times(p): for each u, the normal form of
    p u as [(index of u', coefficient over the ring)]."""
    if not m.relations:
        return m.ring, [()], lambda p: [[] if p.is_zero() else [(0, p)]]
    names = m.ring.names
    ypos = [names.index(y) for y, _ in m.relations]
    rest = [i for i in range(len(names)) if i not in ypos]
    ring = PolyRing(tuple(names[i] for i in rest))
    monos = list(product(*(range(f.degree_in(y)) for y, f in m.relations)))
    where = {u: ui for ui, u in enumerate(monos)}

    def times(p: Polynomial) -> list[list[tuple[int, Polynomial]]]:
        out = []
        for u in monos:
            mono = [0] * len(names)
            for pos, x in zip(ypos, u):
                mono[pos] = x
            nf = normal_form(p * Polynomial(m.ring, {tuple(mono): 1}),
                             m.relations)
            split: dict[int, dict[tuple[int, ...], int]] = {}
            for e, c in nf.terms.items():
                ui = where[tuple(e[i] for i in ypos)]
                split.setdefault(ui, {})[tuple(e[i] for i in rest)] = c
            out.append([(ui, Polynomial(ring, t))
                        for ui, t in sorted(split.items())])
        return out

    return ring, monos, times


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

    def apply(self, x: Element) -> Element:
        out: Element = {}
        for s, p in x.items():
            for t, q in self.mat.get(s, {}).items():
                _add_to(out, t, q * p)
        return out

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

    Returns the chain map together with the target Koszul matrix.
    """
    row = m.rows[row_index]
    ydeg = y.homogeneous_bidegree()
    if ydeg is None:
        raise ValueError("flip factor must be homogeneous")
    if kind == "psi":
        z = exact_divide(row.right, y)
        new_row = KoszulRow(row.left * y, z, row.shift - ydeg)
        odd_factor, even_factor = y, m.ring.one()
        bidegree = BIDEG_ZERO
    elif kind == "psi'":
        x = exact_divide(row.left, y) if not row.left.is_zero() else m.ring.zero()
        new_row = KoszulRow(x, row.right * y, row.shift + ydeg)
        odd_factor, even_factor = m.ring.one(), y
        bidegree = ydeg
    else:
        raise ValueError("kind must be 'psi' or 'psi''")
    new_row.validate()
    rows = list(m.rows)
    rows[row_index] = new_row
    m2 = replace(m, rows=tuple(rows))
    src = realize(m)
    tgt = realize(m2)
    mat: Matrix = {}
    for mask in range(1 << len(m.rows)):
        factor = odd_factor if mask >> row_index & 1 else even_factor
        if not factor.is_zero():
            mat[mask] = {mask: factor}
    f = ChainMap(src, tgt, mat, bidegree)
    return f, m2


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
# Carrying elements across exclusions
# ---------------------------------------------------------------------------

def _add_to(x: Element, s: int, p: Polynomial) -> None:
    q = x[s] + p if s in x else p
    if q.is_zero():
        x.pop(s, None)
    else:
        x[s] = q


def _sign(mask: int, k: int) -> int:
    return -1 if _popcount_below(mask, k) % 2 else 1


def include(x: Element, exclusions: Sequence[Exclusion]) -> Element:
    """iota: realize(m') -> realize(m), where m' is m after `exclusions`
    and every left entry is zero.  The steps are undone last first.  A step
    removing row i = (0, c(y - mu)), with quotients g_k, sends

        p e_S  ->  p e_S - sum_{k in S} sign(S, k) sign(S-k+i, i) c g_k p e_{S-k+i}

    (S and p read in the larger matrix and ring; sign(S, k) =
    (-1)^#{r in S : r < k} as in `realize`).  There is no second-order term
    because e_i ^ e_i = 0.  pi o iota = id, and iota o pi is homotopic to
    the identity."""
    for ex in reversed(exclusions):
        ring, i = ex.mu.ring, ex.row
        low = (1 << i) - 1
        out: Element = {}
        for s, p in x.items():
            p = p.map_to_ring(ring)
            full = (s & low) | (s >> i << (i + 1))
            _add_to(out, full, p)
            for k, g in enumerate(ex.quotients):
                if full >> k & 1 and not g.is_zero():
                    t = full ^ (1 << k) | (1 << i)
                    c = -ex.unit * _sign(full, k) * _sign(t, i)
                    _add_to(out, t, g * p * c)
        x = out
    return x


def project(x: Element, exclusions: Sequence[Exclusion]) -> Element:
    """pi: realize(m) -> realize(m'), the steps in order.  A step removing
    row i kills every e_S with i in S and sends p e_S to p|_{y=mu} e_S,
    re-indexed over the remaining rows."""
    for ex in exclusions:
        i = ex.row
        low = (1 << i) - 1
        out: Element = {}
        for s, p in x.items():
            if not s >> i & 1:
                p = p.substitute(ex.var, ex.mu).drop_variable(ex.var)
                _add_to(out, (s & low) | (s >> (i + 1) << i), p)
        x = out
    return x


@dataclass(frozen=True)
class FlipMap:
    """A flip map between two complexes realized after exclusion.  Before
    exclusion it is diagonal in the subset basis over one shared ring:
    `odd` on the subsets holding row `row`, `even` on the others.  It acts
    as pi_tgt o flip o iota_src, a chain map (semilinear over the
    substitutions of pi_tgt)."""

    src: FactorComplex
    tgt: FactorComplex
    row: int
    odd: Polynomial
    even: Polynomial
    src_exclusions: tuple[Exclusion, ...] = ()
    tgt_exclusions: tuple[Exclusion, ...] = ()
    # caches: generator -> image of e_S; source exponents -> sigma(x^e)
    _images: dict = field(default_factory=dict, init=False, compare=False)
    _sigma: dict = field(default_factory=dict, init=False, compare=False)

    def apply(self, x: Element) -> Element:
        """pi_tgt(flip(iota_src(x))).  iota_src is linear over the source
        ring and pi_tgt over the substitution sigma it makes, so p e_S goes
        to sigma(p) times the image of e_S; both parts are cached."""
        out: Element = {}
        for s, p in x.items():
            image = self._images.get(s)
            if image is None:
                image = self._images[s] = self._transport(s)
            q = self._substitute(p)
            for t, r in image.items():
                _add_to(out, t, q * r)
        return out

    def _transport(self, s: int) -> Element:
        flipped: Element = {}
        lifted = include({s: self.src.ring.one()}, self.src_exclusions)
        for t, p in lifted.items():
            factor = self.odd if t >> self.row & 1 else self.even
            _add_to(flipped, t, p * factor)
        return project(flipped, self.tgt_exclusions)

    def _substitute(self, p: Polynomial) -> Polynomial:
        """sigma(p): p read in the shared ring, then the target's exclusions
        (pi_tgt on the coefficient of e_{}, which no exclusion re-indexes)."""
        terms: dict[tuple[int, ...], int] = {}
        for e, c in p.terms.items():
            image = self._sigma.get(e)
            if image is None:
                mono = Polynomial(self.src.ring, {e: 1})
                mono = mono.map_to_ring(self.odd.ring)
                image = project({0: mono}, self.tgt_exclusions)  # 0 if mu = 0
                image = self._sigma[e] = image[0].terms if image else {}
            for te, tc in image.items():
                terms[te] = terms.get(te, 0) + c * tc
        return Polynomial(self.tgt.ring, terms)


# ---------------------------------------------------------------------------
# Cones and tensor products
# ---------------------------------------------------------------------------


def shift_complex(c: FactorComplex, db: Bidegree, dj: int = 0) -> FactorComplex:
    gens = tuple(
        Generator(g.parity, g.bidegree + db, g.j + dj, g.label) for g in c.gens
    )
    return replace(c, gens=gens)


def cone(f: ChainMap, crossing_sign: int) -> FactorComplex:
    """The two-term complex a crossing contributes.

    positive: C(Gamma^0){0,2} in cube degree -1 --chi_0--> C(Gamma^1) in 0;
    negative: C(Gamma^1){0,-2} in cube degree 0 --chi_1--> C(Gamma^0){0,-2} in 1.
    """
    if crossing_sign > 0:
        if f.bidegree != Bidegree(0, 2):
            raise ValueError("positive crossing needs the bidegree-(0,2) map")
        src = shift_complex(f.src, Bidegree(0, 2), -1)
        tgt = shift_complex(f.tgt, BIDEG_ZERO, 0)
    else:
        if f.bidegree != BIDEG_ZERO:
            raise ValueError("negative crossing needs the bidegree-(0,0) map")
        src = shift_complex(f.src, Bidegree(0, -2), 0)
        tgt = shift_complex(f.tgt, Bidegree(0, -2), 1)
    ns = len(src.gens)
    gens = src.gens + tgt.gens
    d: Matrix = {}
    for s, row in src.d.items():
        d[s] = dict(row)
    for s, row in tgt.d.items():
        d[ns + s] = {ns + t: p for t, p in row.items()}
    # the cube differential must anticommute with d: twist the chain map by
    # the parity of the source generator
    cube: Matrix = {}
    for s, row in f.mat.items():
        sgn = -1 if src.gens[s].parity else 1
        cube[s] = {ns + t: p * sgn for t, p in row.items()}
    return FactorComplex(src.ring, gens, d, src.w, cube)


def tensor(c1: FactorComplex, c2: FactorComplex) -> FactorComplex:
    """Tensor product with the super sign rule on the total degree
    (parity + cube degree) of the first factor."""
    if c1.ring.names != c2.ring.names:
        raise ValueError("tensor needs a common ring")
    ring = c1.ring
    n2 = len(c2.gens)
    gens = []
    for g1 in c1.gens:
        for g2 in c2.gens:
            gens.append(
                Generator(
                    (g1.parity + g2.parity) % 2,
                    g1.bidegree + g2.bidegree,
                    g1.j + g2.j,
                    (g1.label, g2.label),
                )
            )

    def idx(i1: int, i2: int) -> int:
        return i1 * n2 + i2

    def build(part1: Matrix, part2: Matrix) -> Matrix:
        out: Matrix = {}
        for i1, g1 in enumerate(c1.gens):
            sgn = -1 if (g1.parity + g1.j) % 2 else 1
            for i2 in range(n2):
                row: dict[int, Polynomial] = {}
                for t1, p in part1.get(i1, {}).items():
                    k = idx(t1, i2)
                    row[k] = row.get(k, ring.zero()) + p
                for t2, p in part2.get(i2, {}).items():
                    k = idx(i1, t2)
                    row[k] = row.get(k, ring.zero()) + p * sgn
                row = {t: p for t, p in row.items() if not p.is_zero()}
                if row:
                    out[idx(i1, i2)] = row
        return out

    d = build(c1.d, c2.d)
    cube = None
    if c1.cube_d is not None or c2.cube_d is not None:
        cube = build(c1.cube_d or {}, c2.cube_d or {})
    return FactorComplex(ring, tuple(gens), d, c1.w + c2.w, cube)


def free_euler(c: FactorComplex):
    """Graded Euler characteristic of the underlying free module:
    sum over generators of (-1)^(parity+j) t^k q^l."""
    from .algebra import LaurentQT

    out = LaurentQT.zero()
    for g in c.gens:
        sgn = -1 if (g.parity + g.j) % 2 else 1
        out = out + LaurentQT.term(g.bidegree.l, g.bidegree.k, sgn)
    return out


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
    equivalences; cube differentials are transported as pi o cube_d o iota.
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
        small = FactorComplex(ring, gens, newd, cur.w, None)
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
    if c.cube_d is not None:
        # transport: pi o cube_d o iota
        transported = _matmul(
            total_pi.mat, _matmul(c.cube_d, total_iota.mat, ring), ring
        )
        cur = replace(cur, cube_d=transported)
        total_iota = ChainMap(cur, c, total_iota.mat, total_iota.bidegree)
        total_pi = ChainMap(c, cur, total_pi.mat, total_pi.bidegree)
    return cur, total_iota, total_pi


def _matmul(second: Matrix, first: Matrix, ring: PolyRing) -> Matrix:
    out: Matrix = {}
    for s, row in first.items():
        acc: dict[int, Polynomial] = {}
        for mid, p in row.items():
            for t, q in second.get(mid, {}).items():
                acc[t] = acc.get(t, ring.zero()) + q * p
        acc = {t: p for t, p in acc.items() if not p.is_zero()}
        if acc:
            out[s] = acc
    return out
