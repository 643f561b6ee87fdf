"""Koszul matrices: rows (a_i, b_i) of graded polynomials in Z[a, x], and
the calculus of elementary row transformations, a-aggregation and
stripping, dualization, and the Upsilon factorization.  A closed matrix
sheds `a` in one pass (`strip_a`): the [1p]_1 chain that gathers the
a-rows has a known result (`aggregate_a`), so no row operation runs.  One
routine, `exclude_all`, removes rows (0, f) with f monic in one variable:
the paper's exclusion of linear rows (0, ±(y - mu)) together with y,
then, when every row is (0, b), the quotient by a triangular set of monic
rows (0, ±y^m + ...), whose other rows are realized over R/(relations).
Its steps keep one kind of record (`Exclusion`), whose divisions are
exact in Z, so no rational lies between Koszul rows and homology ranks.

Grading convention: the generator of R{n1,n2} sits in bidegree (n1,n2); a row
with middle shift s realizes R --left--> R{s} --right--> R, so the
differential has bidegree (1,1) exactly when

    s = bidegree(right) - (1,1) = (1,1) - bidegree(left)

(both constraints when both entries are nonzero; left*right must then be
homogeneous of bidegree (2,2)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import (
    BIDEG_D,
    BIDEG_ZERO,
    Bidegree,
    PolyRing,
    Polynomial,
)


class GradingError(ValueError):
    """A row or operation that violates the middle-shift law."""


@dataclass(frozen=True)
class KoszulRow:
    left: Polynomial
    right: Polynomial
    shift: Bidegree

    def validate(self):
        self.check("right")
        self.check("left")

    def check(self, side: str) -> None:
        """The middle-shift law on one entry ("left" or "right"): a nonzero
        right entry has bidegree shift + (1, 1), a left one (1, 1) - shift."""
        entry = getattr(self, side)
        if entry.is_zero():
            return
        want = self.shift + BIDEG_D if side == "right" else BIDEG_D - self.shift
        if entry.homogeneous_bidegree() != want:
            raise GradingError(
                f"{side} entry {entry} incompatible with shift {self.shift}")


def make_row(left: Polynomial, right: Polynomial) -> KoszulRow:
    """Build a row, inferring the shift from whichever entry is nonzero,
    the right one first; only the other entry is then checked."""
    if not right.is_zero():
        d = right.homogeneous_bidegree()
        if d is None:
            raise GradingError(f"inhomogeneous right entry {right}")
        row = KoszulRow(left, right, d - BIDEG_D)
        row.check("left")
        return row
    if not left.is_zero():
        d = left.homogeneous_bidegree()
        if d is None:
            raise GradingError(f"inhomogeneous left entry {left}")
        return KoszulRow(left, right, BIDEG_D - d)
    raise GradingError("cannot infer the shift of a (0, 0) row")


@dataclass(frozen=True)
class KoszulMatrix:
    ring: PolyRing
    rows: tuple[KoszulRow, ...]
    external_signs: tuple[tuple[str, int], ...] = ()
    global_shift: Bidegree = BIDEG_ZERO
    # (y, f): the rows live over R/(f, ...), see `exclude_all`
    relations: tuple[tuple[str, Polynomial], ...] = ()

    def potential(self) -> Polynomial:
        w = self.ring.zero()
        for r in self.rows:
            w = w + r.left * r.right
        return w

    def expected_potential(self) -> Polynomial:
        w = self.ring.zero()
        a = self.ring.var("a")
        for name, sign in self.external_signs:
            w = w + a * self.ring.var(name) * sign
        return w

    def is_closed(self) -> bool:
        return not self.external_signs

    def validate(self):
        """The potential only: `make_row` validates each row it builds."""
        if self.potential() != self.expected_potential():
            raise GradingError("potential does not match external variables")

    def dump(self) -> str:
        """Debug format: one row per line, 'left | right | shift'."""
        lines = [f"{r.left} | {r.right} | {r.shift}" for r in self.rows]
        if self.external_signs:
            ext = " ".join(
                f"{'+' if s > 0 else '-'}{n}" for n, s in self.external_signs
            )
            lines.append(f"externals: {ext}")
        if self.global_shift != BIDEG_ZERO:
            lines.append(f"global: {self.global_shift}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Graphs -> Koszul matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionGraph:
    """Arcs and wide edges over named marks.  Arcs are (tail, head): the arc
    is oriented tail -> head and contributes the row (a, head - tail).  Wide
    edges list (x1, x2, x3, x4) with x1, x2 outgoing and x3, x4 incoming.
    External marks have exactly one incidence; their sign is +1 where the
    diagram flows out (arc heads, wide-edge outgoing), -1 where it flows in.
    """

    var_names: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...] = ()
    wides: tuple[tuple[str, str, str, str], ...] = ()

    def incidences(self) -> dict[str, list[int]]:
        """name -> list of +1 (flows out of the graph piece at that mark,
        i.e. the mark receives the flow) / -1 entries."""
        inc: dict[str, list[int]] = {n: [] for n in self.var_names}
        for tail, head in self.arcs:
            inc[tail].append(-1)
            inc[head].append(+1)
        for x1, x2, x3, x4 in self.wides:
            inc[x1].append(+1)
            inc[x2].append(+1)
            inc[x3].append(-1)
            inc[x4].append(-1)
        return inc

    def external_signs(self) -> tuple[tuple[str, int], ...]:
        out = []
        for name, signs in self.incidences().items():
            if len(signs) == 1:
                out.append((name, signs[0]))
            elif len(signs) == 2:
                if sum(signs) != 0:
                    raise ValueError(f"mark {name} is not a through-point")
            elif len(signs) != 0:
                raise ValueError(f"mark {name} has {len(signs)} incidences")
        return tuple(out)


def koszul_of_graph(g: ResolutionGraph) -> KoszulMatrix:
    ring = PolyRing(("a",) + g.var_names)
    a = ring.var("a")
    rows = []
    for tail, head in g.arcs:
        rows.append(make_row(a, ring.var(head) - ring.var(tail)))
    for x1, x2, x3, x4 in g.wides:
        v1, v2, v3, v4 = (ring.var(n) for n in (x1, x2, x3, x4))
        rows.append(make_row(a, v1 + v2 - v3 - v4))
        rows.append(make_row(ring.zero(), v1 * v2 - v3 * v4))
    m = KoszulMatrix(ring, tuple(rows), g.external_signs())
    m.validate()
    return m


def build_upsilon() -> KoszulMatrix:
    """The three-row factorization with elementary-symmetric entries."""
    r = PolyRing(("a", "x1", "x2", "x3", "x4", "x5", "x6"))
    x = {i: r.var(f"x{i}") for i in range(1, 7)}
    e1 = x[1] + x[2] + x[3] - x[4] - x[5] - x[6]
    e2 = (
        x[1] * x[2] + x[1] * x[3] + x[2] * x[3]
        - x[4] * x[5] - x[4] * x[6] - x[5] * x[6]
    )
    e3 = x[1] * x[2] * x[3] - x[4] * x[5] * x[6]
    rows = (
        make_row(r.var("a"), e1),
        make_row(r.zero(), e2),
        make_row(r.zero(), e3),
    )
    ext = tuple((f"x{i}", 1) for i in (1, 2, 3)) + tuple(
        (f"x{i}", -1) for i in (4, 5, 6)
    )
    m = KoszulMatrix(r, rows, ext)
    m.validate()
    return m


# ---------------------------------------------------------------------------
# Row operations
# ---------------------------------------------------------------------------


def row_op(m: KoszulMatrix, i: int, j: int, lam: Polynomial) -> KoszulMatrix:
    """[ij]_lambda: (a_i, b_i; a_j, b_j) -> (a_i, b_i + λ b_j; a_j - λ a_i, b_j).

    An isomorphism of factorizations.  The potential is unchanged, since
    a_i (b_i + λ b_j) + (a_j - λ a_i) b_j = a_i b_i + a_j b_j.
    """
    if i == j:
        raise ValueError("row indices must differ")
    ri, rj = m.rows[i], m.rows[j]
    new_bi = ri.right + lam * rj.right
    new_aj = rj.left - lam * ri.left
    new_ri = KoszulRow(ri.left, new_bi, ri.shift)
    new_rj = KoszulRow(new_aj, rj.right, rj.shift)
    new_ri.validate()
    new_rj.validate()
    rows = list(m.rows)
    rows[i], rows[j] = new_ri, new_rj
    return replace(m, rows=tuple(rows))


def aggregate_a(m: KoszulMatrix) -> KoszulMatrix:
    """The chain of [1p]_1 operations (`row_op`) from the first a-row to
    every later one, in one pass: the first a-row becomes (a, sum of the
    a-rows' b), the signed sum of external variables (0 for a closed
    matrix), and every other a-row becomes (0, b).  Only the new first row
    is validated: the others keep a valid b and shift.  Requires every row
    to be (a, ·) or (0, ·)."""
    a = m.ring.var("a")
    rows, pivot, total = list(m.rows), None, {}
    for idx, r in enumerate(m.rows):
        if r.left.is_zero():
            continue
        if r.left != a:
            raise ValueError(f"row {idx} has left entry {r.left}, not a or 0")
        for e, c in r.right.terms.items():
            total[e] = total.get(e, 0) + c
        if pivot is None:
            pivot = idx
        else:
            rows[idx] = KoszulRow(m.ring.zero(), r.right, r.shift)
    if pivot is None:
        return m
    rows[pivot] = KoszulRow(a, Polynomial(m.ring, total), rows[pivot].shift)
    rows[pivot].validate()
    return replace(m, rows=tuple(rows))


def strip_a(m: KoszulMatrix) -> KoszulMatrix:
    """Aggregate (`aggregate_a`), then remove the first a-row, now (a, 0),
    together with the variable a.  Only valid for closed matrices whose
    a-rows sum to 0 and where a occurs in no other row (`drop_variable`
    refuses it).  The surviving generator of that row sits in its middle
    shift, so the global shift gains it."""
    if not m.is_closed():
        raise ValueError("strip_a needs a closed matrix")
    m = aggregate_a(m)
    a = m.ring.var("a")
    pivot = next((idx for idx, r in enumerate(m.rows) if r.left == a), None)
    if pivot is None or not m.rows[pivot].right.is_zero():
        raise ValueError("the a-rows do not sum to a row (a, 0)")
    rows = tuple(
        KoszulRow(r.left.drop_variable("a"), r.right.drop_variable("a"),
                  r.shift)
        for idx, r in enumerate(m.rows) if idx != pivot
    )
    return replace(m, ring=m.ring.without("a"), rows=rows,
                   global_shift=m.global_shift + m.rows[pivot].shift)


def dualize(m: KoszulMatrix) -> KoszulMatrix:
    """Row (a_i, b_i){s} -> (b_i, -a_i){-s}; the potential changes sign.
    The dual of a valid row is valid, so no row is validated again."""
    rows = tuple(KoszulRow(r.right, -r.left, -r.shift) for r in m.rows)
    ext = tuple((n, -s) for n, s in m.external_signs)
    return replace(m, rows=rows, external_signs=ext,
                   global_shift=-m.global_shift)


def matrix_to_ring(m: KoszulMatrix, ring: PolyRing) -> KoszulMatrix:
    """Reinterpret all entries over a larger ring (same variable names plus
    possibly new ones)."""
    rows = tuple(
        KoszulRow(r.left.map_to_ring(ring), r.right.map_to_ring(ring), r.shift)
        for r in m.rows
    )
    return replace(m, ring=ring, rows=rows)


def tensor_matrices(m1: KoszulMatrix, m2: KoszulMatrix) -> KoszulMatrix:
    """Concatenate rows over a common ring; potentials and shifts add."""
    if m1.ring.names != m2.ring.names:
        raise ValueError("tensor_matrices needs a common ring")
    ext: dict[str, int] = {}
    for n, s in m1.external_signs + m2.external_signs:
        ext[n] = ext.get(n, 0) + s
    return KoszulMatrix(
        m1.ring,
        m1.rows + m2.rows,
        tuple((n, s) for n, s in ext.items() if s != 0),
        m1.global_shift + m2.global_shift,
    )


# ---------------------------------------------------------------------------
# Exclusion: removing rows (0, f), f monic in one variable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exclusion:
    """One step of `exclude_all`: row `row` = (0, f) of a matrix over
    R/(relations), whose right entries were `rights`, is removed, and the
    other rows are read over R/(relations, f).  f = ±var^m + terms of
    lower var-degree is in normal form modulo `relations`, and free of the
    variables of later steps (`normal_form`).

    A linear step (m = 1, f = ±(var - mu), taken while no relation is held)
    substitutes mu for var and drops var from the ring (`drop`); a monic
    step keeps var in the ring as a relation.  `factor_complex.Reduction`
    carries elements across both kinds with `reduce` and `quotient`."""

    row: int
    var: str
    f: Polynomial
    rights: tuple[Polynomial, ...]
    relations: tuple[tuple[str, Polynomial], ...]
    drop: bool

    def reduce(self, p: Polynomial) -> Polynomial:
        """p, in normal form modulo `relations`, over R/(relations, f): its
        normal form, over the ring without var when the step drops it (the
        normal form modulo ±(var - mu) is p with mu substituted for var)."""
        if p.contains(self.var):
            p = normal_form(p, self.relations + ((self.var, self.f),))
        return p.drop_variable(self.var) if self.drop else p

    def quotient(self, q: Polynomial) -> Polynomial:
        """h with q = reduce(q) + h·f over R/(relations), in normal form.
        Division by f in var is exact over Z since f is monic, and the
        quotient is well defined on classes: the earlier relations are free
        of var, so a multiple of one divides into a multiple of it."""
        terms = dict(q.terms)
        quot = monic_divide(terms, self.f, q.ring.index(self.var))
        return normal_form(Polynomial(q.ring, quot), self.relations)


def exclude_all(m: KoszulMatrix) -> tuple[KoszulMatrix, list[Exclusion]]:
    """Remove rows (0, f), f monic in one variable y, one step at a time:
    `linear_picks` while m holds no relation, then `monic_picks`.  Returns
    the reduced matrix and one record per step (`Exclusion`), over the
    ring, rows and relations current at that step.  `cube.build_cube`
    takes the same steps crossing by crossing (its module docstring)."""
    steps: list[Exclusion] = []
    if not m.relations:
        ring, rows, steps = linear_picks(m.ring, list(m.rows), m.potential())
        m = replace(m, ring=ring, rows=tuple(rows))
    m, tail = monic_picks(m)
    return m, steps + tail


def linear_picks(ring: PolyRing, rows: list[KoszulRow], w: Polynomial,
                 start: int = 0
                 ) -> tuple[PolyRing, list[KoszulRow], list[Exclusion]]:
    """The linear picks of `exclude_all` on `rows` over `ring`, with
    potential w and no relation held: the first row (0, ±(y - mu)) with mu
    free of y, and the first such y in ring order that is absent from w.
    mu is substituted for y and y leaves the ring: the paper's exclusion
    lemma.  w is taken once, as a step only removes a variable absent from
    it; mu has the bidegree of y, so every row stays homogeneous.  Returns
    the ring and rows after the picks, and their steps.  The first pick is
    looked for in rows[start:] only, for a caller that knows the rows
    before `start` hold none; after a pick every row is scanned again."""
    steps = []
    while (pick := _linear_pick(rows, w, start)) is not None:
        idx, i = pick
        st = Exclusion(idx, ring.names[i], rows[idx].right,
                       tuple(r.right for r in rows), (), True)
        steps.append(st)
        ring, w = ring.without(st.var), w.drop_variable(st.var)
        rows, start = _apply(st, ring, rows), 0
    return ring, rows, steps


def monic_picks(m: KoszulMatrix) -> tuple[KoszulMatrix, list[Exclusion]]:
    """The monic picks of `exclude_all`, taken after its linear picks and
    only if every row is (0, b); so a matrix with left entries gets linear
    exclusion only.  A pair (row, y) qualifies when y occurs in no pick so
    far, the relations of m included, and the only term of top y-degree d
    of the row, kept in normal form modulo the picks, is ±y^d.  The
    candidates are the variables of the qualifying pairs.  A pick uses up
    every variable of its row, so the pair whose row holds the fewest other
    candidates goes first: it takes the fewest variables that other rows
    could be picked by.  Ties go to the row with the fewest variables, then
    the lowest d, the first row and the first y in ring order.  Then every
    vertex of the cubes of T(3,4), T(3,5) and the Borromean rings ends over
    n variables for n strands, n - 1 reduced; a vertex of
    `1 -2 -1 -3 -3 -2` still ends over one more.  The row becomes a
    relation (y stays in the ring), and the rows left are realized over
    R/(relations) by `factor_complex.realize`.  The key orders the picks
    only: which pairs qualify does not change, nor does the argument below.

    Why the picks are sound: in lex order with later picks above earlier
    ones and both above the other variables, pick i has leading term
    ±y_i^d_i (it is free of later picks' variables, and its only top
    y_i-term is ±y_i^d_i).  Pure powers of distinct variables are coprime,
    so the picks are a Groebner basis over Z and a regular sequence, and
    Z[x]/(picks) is free over the remaining variables on the monomials
    prod y_i^e_i, e_i < d_i.  Each pick is its row minus a combination of
    earlier picks, i.e. a row operation (`row_op`, left entries being 0).
    The Koszul complex of a regular sequence resolves the quotient, so the
    complex of all rows is quasi-isomorphic to the Koszul complex of the
    other rows over R/(picks).  A linear pick is the case d = 1 with the
    quotient R/(y - mu) read as the ring without y."""
    if any(not r.left.is_zero() for r in m.rows):
        return m, []
    rows, relations = list(m.rows), list(m.relations)
    used = set().union(*(_occurs(f) for _, f in relations))
    tops = [_tops(r.right, used) for r in rows]
    steps = []
    while (pick := _monic_pick(tops, used)) is not None:
        idx, i = pick
        st = Exclusion(idx, m.ring.names[i], rows[idx].right,
                       tuple(r.right for r in rows), tuple(relations), False)
        steps.append(st)
        relations.append((st.var, st.f))
        used |= tops[idx][0]
        rows = _apply(st, m.ring, rows)
        # only the rows that held the picked variable change
        del tops[idx]
        tops = [_tops(r.right, used) if i in top[0] else top
                for r, top in zip(rows, tops)]
    return replace(m, rows=tuple(rows), relations=tuple(relations)), steps


def _apply(st: Exclusion, ring: PolyRing,
           rows: list[KoszulRow]) -> list[KoszulRow]:
    """The rows other than st.row after the step, over `ring`, the ring
    after it; a zero left entry becomes the zero of `ring`.  Only the rows
    that contain st.var change, as the earlier picks are free of it."""
    zero = ring.zero()
    return [KoszulRow(zero if r.left.is_zero() else st.reduce(r.left),
                      st.reduce(r.right), r.shift)
            for k, r in enumerate(rows) if k != st.row]


def _linear_pick(rows: list[KoszulRow], w: Polynomial,
                 start: int) -> tuple[int, int] | None:
    """(row index, variable position) of the first linear pick in
    rows[start:] (`linear_picks`).  Rows with a left entry are skipped."""
    in_w = _occurs(w)
    for idx, r in enumerate(rows[start:], start):
        if r.left.is_zero():
            ys = [i for i in _occurs(r.right) - in_w
                  if _monic_top(r.right, i) == 1]
            if ys:
                return idx, min(ys)
    return None


def _monic_pick(tops: list[tuple[set[int], dict[int, int]]],
                used: set[int]) -> tuple[int, int] | None:
    """(row index, variable position) of the best monic pick, by the key
    of `monic_picks`: (other candidates in the row, variables in the row,
    d, row, y), the candidates being the unused variables that are
    monic-top in some row.  `tops` holds `_tops` of each row."""
    pairs = [(idx, i, d, occurs) for idx, (occurs, top) in enumerate(tops)
             for i, d in top.items() if i not in used]
    cand = {i for _, i, _, _ in pairs}
    keys = [(len(occurs & cand) - 1, len(occurs), d, idx, i)
            for idx, i, d, occurs in pairs]
    return min(keys)[3:] if keys else None


def _tops(b: Polynomial, used: set[int]) -> tuple[set[int], dict[int, int]]:
    """The variables of b, and {i: m} for the unused ones where
    `_monic_top` is m."""
    occurs = _occurs(b)
    return occurs, {i: d for i in occurs - used if (d := _monic_top(b, i))}


def _occurs(p: Polynomial) -> set[int]:
    """The positions of the variables that occur in p."""
    return {i for e in p.terms for i, x in enumerate(e) if x}


def _monic_top(b: Polynomial, i: int) -> int:
    """m when the only term of b of top degree m >= 1 in variable i is
    ±(that variable)^m; otherwise 0."""
    m = max((e[i] for e in b.terms), default=0)
    top = [(e, c) for e, c in b.terms.items() if e[i] == m]
    if m == 0 or len(top) != 1:
        return 0
    (e, c), = top
    return m if abs(c) == 1 and sum(e) == m else 0


def normal_form(p: Polynomial, relations) -> Polynomial:
    """p modulo `relations`, with degree below m_i in each y_i.  Relation i
    is (y_i, f_i), f_i = ±y_i^m_i + terms of lower y_i-degree, free of every
    later y_j; so reducing by the last relation first never brings back a
    variable already reduced."""
    terms = dict(p.terms)
    for var, f in reversed(relations):
        monic_divide(terms, f, p.ring.index(var))
    return Polynomial(p.ring, terms)


def monic_divide(
    terms: dict[tuple[int, ...], int], f: Polynomial, i: int
) -> dict[tuple[int, ...], int]:
    """Divide the polynomial with `terms` by f = ±y^m + terms of lower
    y-degree, y the variable at position i: `terms` becomes the remainder,
    of y-degree below m, in place; the quotient's terms are returned."""
    m = max(e[i] for e in f.terms)
    top = max((e[i] for e in terms), default=0)
    if top < m:  # nothing to divide: most relations of a normal form
        return {}
    lead = next(c for e, c in f.terms.items() if e[i] == m)
    # y^m = lead * (f - tail), since lead = ±1
    tail = [(e, -lead * c) for e, c in f.terms.items() if e[i] < m]
    quot: dict[tuple[int, ...], int] = {}
    for deg in range(top, m - 1, -1):
        for e in [e for e in terms if e[i] == deg]:
            c = terms.pop(e)
            base = e[:i] + (deg - m,) + e[i + 1:]
            quot[base] = quot.get(base, 0) + lead * c
            for te, tc in tail:
                ne = tuple(map(int.__add__, base, te))
                v = terms.get(ne, 0) + c * tc
                if v:
                    terms[ne] = v
                else:
                    terms.pop(ne, None)
    return quot
