"""Assembling the full complex of a braid closure: resolve crossings, build
per-vertex Koszul matrices in the modified (flip-friendly) form, reduce by
the exclusions shared across all resolutions, reduce each vertex further
crossing by crossing, realize the vertex complexes, and attach signed flip
edges.

Per crossing p with marks x1 (top-left), x2 (top-right), x3 (bottom-right),
x4 (bottom-left), every vertex carries the common row (a, x1+x2-x3-x4) and a
second row that depends on the resolution:

    0-smoothing:  (0, x2-x3)                middle shift {-1,1}
    wide edge:    (0, (x2-x3)(x4-x2))       middle shift {-1,3}

The reduced complex sets one mark x_b to zero: its shared rows begin with
the row (0, x_b), which the shared `exclude_all` takes as its first linear
pick (mu = 0) and removes together with x_b.

After the shared reduction each vertex is reduced further, with the steps
`exclude_all` would take on its whole matrix.  Its linear picks remove the
rows (0, x2-x3) of the 0-smoothings (and any other linear row) together
with one variable each.  Its monic picks then move a triangular set of the
rows left, each monic of degree m in its own variable y (a wide edge's row
is, up to sign, monic of degree 2 in x2), into relations, and the vertex is
realized over R/(relations): generators (row subset, standard monomial),
over the variables that are neither excluded nor picked.  The steps of a
vertex make its `Reduction`, which every edge at that vertex shares.  The
vertices with the same ring and relations share one `Quotient`, and with
it the normal forms that `realize` and the `Reduction`s compute over it.

The vertices are the leaves of a binary trie over the crossings, walked
depth first with an explicit stack (a recursive closure would be a
reference cycle that keeps every finished cube alive until the cyclic
collector runs).  A node at depth q holds its ring, the rows of crossings
0..q-1 after the linear picks on its path, and the two candidate rows of
each later crossing, reduced by those picks.  A child adds crossing q's row
and takes its linear picks with `koszul.linear_picks`, by `exclude_all`'s
own rule, once for all the vertices below: a row that is not linear stays
so under a linear step, as every row is homogeneous, so taking each row's
picks as it arrives gives the picks of one call.  A leaf has no linear
pick left, so it takes only `koszul.monic_picks`.  A path step records
only the rows present at its node, so the leaf completes its `rights` with
the later rows as the step saw them; the vertex's steps are then exactly
those of one `exclude_all` call on its whole matrix.

With `lmax`, the walk builds only the vertices with a generator at
l <= lmax.  A generator (S, u) sits at l = global l + sum of the l-shifts of
the rows in S + 2 deg u.  A crossing row shifts l by 1 or 3, so the least l
of a vertex is exact: the global l, plus its l-shift (+2 for each positive
crossing smoothed to 0, -2 for each negative crossing), plus the negative
l-shifts of the leftover rows.  A node knows this for the bits on its path,
later bits can only raise it, and a node above lmax is skipped with all
its vertices and their edges.  At l <= lmax every slice of a skipped
vertex is empty, and `link_homology` builds no basis and crosses no edge
at an empty slice, so the table up to lmax does not change.  A vertex
that is built keeps all its generators, but gets d rows, and their normal
forms, only at those at l <= lmax: the (k, l) slices up to lmax read no
other row (`FactorComplex`), and the edges read no d at all (they go
through the `Reduction`s).  With `max_work`, the walk sums each vertex's
`complex_work`, counted from its reduced matrix before it is realized,
and stops at the first vertex that takes the sum over the budget.

The edge maps are psi'(x4-x2) (positive crossings, 0 -> 1, the map chi_0) and
psi(x4-x2) (negative crossings, 1 -> 0, the map chi_1).  Both are diagonal in
the subset basis of the unreduced vertex matrices over the shared ring, so
an edge keeps just the two diagonal factors, read off its crossing's sign,
and the Koszul sign of its bit (`_sign`, as in `realize`).  It acts on the
realized vertex complexes as pi_tgt o psi o iota_src (`FlipMap`), through
the inclusion and projection of the two ends' reductions.  These are
homotopy equivalences, so the induced maps on vertex homology are those of
psi up to vertex isomorphisms, and cube squares anticommute on homology.
Lifts are carried on integer terms; the quotient H(b x^e) of each step is
Z-linear in x^e, so the `Reduction`s share one exact table per distinct
step and row (`memo`, like `quotients`), and it dies with the cube.

`braid_homology` first rewrites the word by the moves that leave the table
unchanged (`braid.cheapest_word`), then `word_homology` builds the reduced
cube (one mark set to zero, one variable fewer at every vertex) with
lmax = qmax; the unreduced table is Hbar (x) Q[x].  Only
`reduce_mode_check` builds the unreduced cube, to test that identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .algebra import Bidegree, PolyRing, Polynomial
from .braid import (
    BraidWord, MarkedDiagram, build_marked_diagram, cheapest_word,
    closure_components,
)
from .factor_complex import (
    FactorComplex, FlipMap, Quotient, Reduction, _sign, realize,
)
# perfbench/spans.py HOOKS wraps trigrad.cube.simplify; nothing here calls it
from .factor_complex import simplify  # noqa: F401
from .homology import (
    InconclusiveComparison, TriGradedDims, WorkLimitExceeded, complex_work,
    link_homology,
)
from .koszul import (
    KoszulMatrix,
    KoszulRow,
    ResolutionGraph,
    exclude_all,
    linear_picks,
    make_row,
    monic_picks,
    strip_a,
)


# the shared reduction runs before any cube size is known: on the trefoil's
# 400 marks it took 3-4 s at 374 MB, on 800 about 18 s at 2.75 GB
MAX_MARKS = 400


class TooManyMarks(ValueError):
    """A diagram has more marks than `MAX_MARKS`."""


def check_marks(b: BraidWord, marks_per_segment: int = 1) -> None:
    """Raise `TooManyMarks` when b's diagram would have more than
    `MAX_MARKS` marks, counted from the word: m per strand, 2m per letter."""
    marks = marks_per_segment * (b.strands + 2 * len(b.letters))
    if marks > MAX_MARKS:
        raise TooManyMarks(f"{marks} marks, above {MAX_MARKS}")


def resolve(d: MarkedDiagram, mask: int) -> ResolutionGraph:
    """The planar graph obtained by 0-smoothing (oriented resolution) or
    1-resolving (wide edge) each crossing according to the mask bits."""
    if mask < 0 or mask >= 1 << len(d.crossings):
        raise ValueError("mask has the wrong number of bits")
    names = d.var_names()
    arcs = [(names[t], names[h]) for t, h in d.arcs]
    wides = []
    for idx, c in enumerate(d.crossings):
        if mask >> idx & 1:
            wides.append((names[c.x1], names[c.x2], names[c.x3], names[c.x4]))
        else:
            arcs.append((names[c.x4], names[c.x1]))
            arcs.append((names[c.x3], names[c.x2]))
    return ResolutionGraph(names, tuple(arcs), tuple(wides))


@dataclass(frozen=True)
class CubeEdge:
    src: int
    tgt: int  # differs from src in the bit of its crossing
    sign: int
    cmap: FlipMap


@dataclass
class CubeComplex:
    ring: PolyRing
    vertices: dict[int, FactorComplex]  # realized after the reduction
    jdeg: dict[int, int]
    edges: list[CubeEdge]
    lmax: int | None = None  # else only vertices with a gen at l <= lmax


def build_cube(
    b: BraidWord,
    reduced: bool = False,
    basepoint: str | None = None,
    marks_per_segment: int = 1,
    lmax: int | None = None,
    max_work: int | None = None,
) -> CubeComplex:
    """The cube of the closure of b.  With `lmax`, only the vertices with a
    generator at l <= lmax are built, and the edges between them: the
    others have an empty slice at every l <= lmax; each vertex gets d only
    on its generators at l <= lmax (`realize`).  A diagram with more
    than `MAX_MARKS` marks raises `TooManyMarks` before it is built.  With
    `max_work` (which needs `lmax`), the walk sums `complex_work` up to
    lmax over the vertices, each counted before it is realized, and raises
    `WorkLimitExceeded` with the sum at the first vertex that takes it
    above max_work."""
    if max_work is not None and lmax is None:
        raise ValueError("max_work needs lmax")
    check_marks(b, marks_per_segment)
    d = build_marked_diagram(b, marks_per_segment)
    names = d.var_names()
    full = PolyRing(("a",) + names)

    def var(i: int) -> Polynomial:
        return full.var(names[i])

    a = full.var("a")
    shared_rows = []
    if reduced:
        # the first linear pick of `exclude_all` removes (0, x_b) with x_b
        basepoint = basepoint or names[0]
        if basepoint not in names:
            raise ValueError(f"unknown basepoint {basepoint!r}")
        shared_rows.append(make_row(full.zero(), full.var(basepoint)))
    for c in d.crossings:
        shared_rows.append(
            make_row(a, var(c.x1) + var(c.x2) - var(c.x3) - var(c.x4))
        )
    for t, h in d.arcs:
        shared_rows.append(make_row(a, var(h) - var(t)))

    shared = strip_a(KoszulMatrix(full, tuple(shared_rows)))
    shared, chain = exclude_all(shared)
    ring = shared.ring
    leftover = shared.rows  # only (0,0) rows can remain (circles etc.)

    def resolve_poly(p: Polynomial) -> Polynomial:
        p = p.drop_variable("a")
        for ex in chain:
            p = ex.reduce(p)
        return p

    # the chain is linear, so resolving is a ring homomorphism
    lin = [resolve_poly(var(c.x2) - var(c.x3)) for c in d.crossings]
    flip = [resolve_poly(var(c.x4) - var(c.x2)) for c in d.crossings]
    quad = [f * g for f, g in zip(lin, flip)]

    nc = len(d.crossings)
    signs = [c.sign for c in d.crossings]
    shifts = (Bidegree(-1, 1), Bidegree(-1, 3))
    vertices: dict[int, FactorComplex] = {}
    jdeg: dict[int, int] = {}
    reductions: dict[int, Reduction] = {}
    # one Quotient per (ring, relations), one H table per step and row
    quotients: dict[tuple, Quotient] = {}
    memo: dict[tuple, dict] = {}
    work = 0  # complex_work of the vertices so far, against max_work
    # depth-first over the trie of masks: (depth q, mask bits 0..q-1, the
    # least l-shift below the node, ring, rows, the later crossings' (lin,
    # quad) rows, and the linear steps on the path, each with the later rows
    # it saw); a vertex's least l is floor + its l-shift
    pairs = list(zip(lin, quad))
    floor = shared.global_shift.l + sum(min(0, r.shift.l) for r in leftover)
    top = math.inf if lmax is None else lmax
    lshift = -2 * signs.count(-1)
    stack = [(0, 0, lshift, ring, list(leftover), pairs, ())]
    if floor + lshift > top:
        stack = []
    while stack:
        q, mask, lshift, node_ring, rows, later, path = stack.pop()
        if q < nc:
            for bit in (1, 0):
                child_lshift = lshift + 2 * (signs[q] > 0 and not bit)
                if floor + child_lshift > top:
                    continue
                row = KoszulRow(node_ring.zero(), later[0][bit], shifts[bit])
                child_ring, child_rows, steps = linear_picks(
                    node_ring, rows + [row], node_ring.zero(), len(rows))
                child_later, child_path = later[1:], path
                for st in steps:
                    child_path += ((st, q + 1, child_later),)
                    child_later = [(st.reduce(f), st.reduce(g))
                                   for f, g in child_later]
                stack.append((q + 1, mask | bit << q, child_lshift,
                              child_ring, child_rows, child_later, child_path))
            continue
        j = 0
        for p in range(nc):
            bit = mask >> p & 1
            j += bit - 1 if signs[p] > 0 else 1 - bit
        shift = shared.global_shift + Bidegree(0, lshift)
        big = KoszulMatrix(ring, tuple(leftover) + tuple(
            KoszulRow(ring.zero(), pair[mask >> p & 1], shifts[mask >> p & 1])
            for p, pair in enumerate(pairs)), (), shift)
        small, tail = monic_picks(
            KoszulMatrix(node_ring, tuple(rows), (), shift))
        # a path step saw the rows of crossings p >= first as they were then
        steps = [replace(st, rights=st.rights + tuple(
            pair[mask >> p & 1] for p, pair in enumerate(seen, first)))
            for st, first, seen in path]
        if max_work is not None:
            work += complex_work(small, lmax)
            if work > max_work:
                raise WorkLimitExceeded(work)
        key = (small.ring.names, small.relations)
        if key not in quotients:
            quotients[key] = Quotient(small)
        vertices[mask] = realize(small, quotients[key], lmax)
        reductions[mask] = Reduction(big, steps + tail, small, quotients[key],
                                    memo)
        jdeg[mask] = j
    vertices = dict(sorted(vertices.items()))
    jdeg = dict(sorted(jdeg.items()))

    noff, one = len(leftover), ring.one()
    edges: list[CubeEdge] = []
    for mask in vertices:
        for p in range(nc):
            tgt = mask ^ (1 << p)
            if mask >> p & 1 != (signs[p] < 0) or tgt not in reductions:
                continue
            odd, even = (one, flip[p]) if signs[p] > 0 else (flip[p], one)
            cmap = FlipMap(reductions[mask], reductions[tgt], noff + p, odd,
                           even)
            edges.append(CubeEdge(mask, tgt, _sign(mask, p), cmap))
    return CubeComplex(ring, vertices, jdeg, edges, lmax)


def word_homology(
    b: BraidWord,
    qmax: int,
    reduced: bool = False,
    basepoint: str | None = None,
    marks_per_segment: int = 1,
    max_work: int | None = None,
) -> TriGradedDims:
    """Homology of the closure of b up to q-degree qmax, from the cube of
    b itself: the reduced cube (mark `basepoint`, default x1, set to zero)
    built with lmax = qmax, so without the vertices that are empty up to
    qmax.  The unreduced table is H = Hbar (x) Q[x] with x in (0, 0, 2)
    (Rasmussen, math/0607544): H at l sums Hbar at l, l-2, ..., so it is
    exact up to qmax.  The direct unreduced cube is built only by
    `reduce_mode_check`.  With `max_work`, a cube whose `complex_work` up
    to qmax, summed over its vertices, is above it raises
    `WorkLimitExceeded` during the build (`build_cube`), before any slice
    is built.

    The checks that compare two words (`reduce_mode_check`, the CLI's
    `invariance`) call this, so that each word's own cube is built."""
    cube = build_cube(b, True, basepoint, marks_per_segment, lmax=qmax,
                      max_work=max_work)
    red = link_homology(cube, qmax)
    if reduced:
        return red
    dims: dict[tuple[int, int, int], int] = {}
    for (j, k, l), d in red.dims.items():
        for ll in range(l, qmax + 1, 2):
            dims[j, k, ll] = dims.get((j, k, ll), 0) + d
    return TriGradedDims(dims, qmax)


def braid_homology(
    b: BraidWord,
    qmax: int,
    reduced: bool = False,
    basepoint: str | None = None,
    marks_per_segment: int = 1,
    max_work: int | None = None,
) -> TriGradedDims:
    """`word_homology` of `braid.cheapest_word(b)`, which the shift-free
    moves reach from b: the table is a link invariant, so it is b's.  A
    named basepoint names a mark of b's own diagram, and a reduced link
    table depends on the component of the basepoint, which a rotation can
    move, so in both cases b itself is built.  A word with more than
    `MAX_MARKS` marks raises `TooManyMarks` before its strands are walked."""
    check_marks(b, marks_per_segment)
    if basepoint is None and not (reduced and closure_components(b) > 1):
        b = cheapest_word(b)[0]
    return word_homology(b, qmax, reduced, basepoint, marks_per_segment,
                         max_work)


def reduce_mode_check(
    b: BraidWord, qmax: int, basepoint: str | None = None
) -> bool:
    """Does H = Hbar (x) Q[x] hold up to qmax, with H from the direct
    unreduced cube?  Both cubes are built from b with lmax = qmax, so both
    tables are exact up to qmax, and they are compared whole."""
    unred = link_homology(build_cube(b, lmax=qmax), qmax)
    via_reduced = word_homology(b, qmax, basepoint=basepoint)
    if not unred.dims and not via_reduced.dims:
        raise InconclusiveComparison(f"both tables empty up to q^{qmax}")
    return unred == via_reduced
