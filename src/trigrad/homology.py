"""The exact linear-algebra kernel: per-bidegree slices of graded free
modules over Z[a, x], kernels/ranks over Q, homology of vertex
factorizations with explicit bases, induced maps on homology, cohomology of
the resolution cube, hom-space dimensions, Euler characteristics, and
comparison up to an overall shift.

Slice columns are integer vectors read straight off the polynomial entries.
All elimination is integer fraction-free (content reduced), with
deterministic pivot choice: unit entries first, then smallest magnitude,
then smallest row index.  It runs in one loop, `Echelon._reduce`.  A pivot
may carry a record, a sparse vector on which the same row operations act:
`kernel_and_rank` gives column ci the record {ci: 1}, so a column that
reduces to zero leaves a kernel vector, and `express` reads its coefficients
from a record over pivot indices (a pivot without a record stands for the
unit vector on its own index).

Slice homology has one routine, `slice_homology_basis`: it takes the ranks
first, sharing the columns and the boundary echelon, and runs the kernel
pass only on slices that are not exact.  `slice_homology_dim` stops after
the ranks.

Closed graphs (`matrix_homology`, `graph_homology`) and cube vertices
alike: after the linear exclusions, `koszul.monic_quotient` moves a
triangular set of monic rows into relations, and `realize` builds the
Koszul complex of the other rows over R/(relations), free over the
remaining variables on (row subset, standard monomial) pairs.  The slices
are then taken over those few variables, with the same slice code.

Induced maps: cube vertices are realized after their own reductions, and
an edge is a `FlipMap`.  `induced_map` sends each slice basis element that
a source representative uses through iota_src (back into the unreduced
source complex), the flip psi or psi', and pi_tgt (into the target's
reduced complex), and expresses the image in the target solver.  iota and
pi are homotopy inverse, so this is H(psi) up to vertex isomorphisms, and
squares anticommute on homology, which is all the cube needs.

Rationals appear only in homology coordinates: `Echelon.express` returns
them, `induced_map` passes them on, and each cube block clears them once per
column with `scale_to_int`.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import (
    Bidegree,
    PolyRing,
    Polynomial,
    QSeries,
    monomials_of_degree,
)
from .factor_complex import ChainMap, FactorComplex, FlipMap, Matrix, realize
from .koszul import (
    KoszulMatrix,
    ResolutionGraph,
    aggregate_a,
    dualize,
    exclude_all,
    koszul_of_graph,
    monic_quotient,
    strip_a,
    tensor_matrices,
)


class InconclusiveComparison(ValueError):
    """compare_up_to_shift could not decide within the reliable window."""


# ---------------------------------------------------------------------------
# Sparse exact elimination
# ---------------------------------------------------------------------------


def _content_reduce(vec: dict[int, int], extra: dict | None = None) -> None:
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    if extra:
        for v in extra.values():
            g = gcd(g, v)
    if g > 1:
        for k in vec:
            vec[k] //= g
        if extra:
            for k in extra:
                extra[k] //= g


class Echelon:
    """Sparse integer semi-echelon form.

    Pivot vectors are reduced against all earlier pivots at insertion time,
    so reduction of any vector subtracts each pivot at most once (pivots are
    consumed in insertion order).  A pivot is (row, vector, tag, record).
    Tagged pivots form a basis of a complement of the untagged span;
    `express` writes a vector in that basis modulo the untagged span.
    """

    def __init__(self):
        self.pivots: list[tuple[int, dict[int, int], object, dict | None]] = []
        self.pivot_of_row: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict[int, int], rec: dict | None) -> int:
        """Clear all pivot rows from vec in place and return the multiplier
        m of the original: m * original = vec + a combination of pivots.
        The same row operations act on `rec` (if given), with each pivot's
        record, or the unit vector on the pivot's index for a pivot without
        one.  Pivots are consumed in insertion order (a subtraction only
        introduces rows of later pivots), so each fires at most once."""
        mult = 1
        pivots, pivot_of_row = self.pivots, self.pivot_of_row
        heap = [pivot_of_row[r] for r in vec if r in pivot_of_row]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            pi = heapq.heappop(heap)
            prow, pvec, _tag, prec = pivots[pi]
            v = vec.get(prow, 0)
            if v == 0:
                continue
            p = pvec[prow]
            g = gcd(v, p)
            sv, sp = p // g, v // g
            if sv != 1:
                mult *= sv
                for k in vec:
                    vec[k] *= sv
                if rec is not None:
                    for k in rec:
                        rec[k] *= sv
            for k, pv in pvec.items():
                nv = vec.get(k, 0) - sp * pv
                if nv:
                    vec[k] = nv
                    npi = pivot_of_row.get(k)
                    if npi is not None and npi not in seen:
                        seen.add(npi)
                        heapq.heappush(heap, npi)
                else:
                    vec.pop(k, None)
            if rec is not None:
                for k, pv in prec.items() if prec is not None else ((pi, 1),):
                    nv = rec.get(k, 0) - sp * pv
                    if nv:
                        rec[k] = nv
                    else:
                        rec.pop(k, None)
        return mult

    def insert(
        self, vec: dict[int, int], tag: object = None, rec: dict | None = None
    ) -> bool:
        """Reduce a copy of vec and, if nonzero, store it as a new pivot with
        `tag` and record `rec` (reduced alongside, in place).  Returns True
        if a pivot was added."""
        vec = dict(vec)
        self._reduce(vec, rec)
        if not vec:
            return False
        _content_reduce(vec, rec)
        pivot_row = None
        best = None
        for r, v in vec.items():
            key = (abs(v) != 1, abs(v), r)
            if best is None or key < best:
                best = key
                pivot_row = r
        self.pivots.append((pivot_row, vec, tag, rec))
        self.pivot_of_row[pivot_row] = len(self.pivots) - 1
        return True

    def express(self, vec: dict[int, int]) -> dict[object, Fraction]:
        """Write vec as a rational combination of pivots, which must carry
        no records; the residual must be zero.  Returns coefficients on the
        *tagged* pivots only."""
        vec, rec = dict(vec), {}
        mult = self._reduce(vec, rec)
        if vec:
            raise AssertionError("vector not in the span of the echelon")
        pivots = self.pivots
        return {
            pivots[pi][2]: Fraction(-c, mult)
            for pi, c in rec.items()
            if pivots[pi][2] is not None
        }


def scale_to_int(col: dict[int, Fraction]) -> dict[int, int]:
    m = 1
    for v in col.values():
        m = m * v.denominator // gcd(m, v.denominator)
    return {k: int(v * m) for k, v in col.items() if v != 0}


def kernel_and_rank(
    cols: list[dict[int, int]], want_kernel: bool = True
) -> tuple[int, list[dict[int, int]]]:
    """Rank of the column span and (optionally) an integer kernel basis,
    as combinations of the given columns.  Columns are consumed sparsest
    first (a deterministic fill-reducing order; the span is unaffected and
    any kernel basis is as good as any other).  Column ci carries the record
    {ci: 1}; the record of a column that reduces to zero is a kernel vector."""
    ech = Echelon()
    kernel: list[dict[int, int]] = []
    for ci in sorted(range(len(cols)), key=lambda ci: (len(cols[ci]), ci)):
        rec = {ci: 1} if want_kernel else None
        if not ech.insert(cols[ci], rec=rec) and want_kernel:
            _content_reduce(rec)
            kernel.append(rec)
    return ech.rank, kernel


# ---------------------------------------------------------------------------
# Graded slices
# ---------------------------------------------------------------------------


@dataclass
class SliceBasis:
    """Finite Q-basis of one (k, l) slice (optionally with a cube degree)."""

    k: int
    l: int
    elems: list[tuple[int, tuple[int, ...]]]  # (generator index, exponents)
    index: dict[tuple[int, tuple[int, ...]], int]

    @property
    def dim(self) -> int:
        return len(self.elems)


def slice_basis(cx: FactorComplex, k: int, l: int) -> SliceBasis:
    ring = cx.ring
    has_a = "a" in ring.names
    if has_a and ring.names[0] != "a":
        raise ValueError("'a' must be the first ring variable")
    nx = ring.nvars - (1 if has_a else 0)
    elems: list[tuple[int, tuple[int, ...]]] = []
    for gi, g in enumerate(cx.gens):
        dk = k - g.bidegree.k
        dl = l - g.bidegree.l
        if dl < 0 or dl % 2:
            continue
        if has_a:
            if dk < 0 or dk % 2:
                continue
            r = dk // 2
            for mono in monomials_of_degree(nx, dl // 2):
                elems.append((gi, (r,) + mono))
        else:
            if dk != 0:
                continue
            for mono in monomials_of_degree(nx, dl // 2):
                elems.append((gi, mono))
    return SliceBasis(k, l, elems, {e: i for i, e in enumerate(elems)})


def _columns_of_map(
    mat: Matrix, src: SliceBasis, tgt: SliceBasis
) -> list[dict[int, int]]:
    """Integer columns of a matrix of polynomials between two slices."""
    cols: list[dict[int, int]] = []
    terms_of: dict[int, list] = {}
    for gi, _ in src.elems:
        if gi not in terms_of:
            terms_of[gi] = [
                (tgt_gen, e, c)
                for tgt_gen, poly in mat.get(gi, {}).items()
                for e, c in poly.terms.items()
            ]
    index_get = tgt.index.get
    for gi, mono in src.elems:
        col: dict[int, int] = {}
        for tgt_gen, e, c in terms_of[gi]:
            pos = index_get((tgt_gen, tuple(map(int.__add__, mono, e))))
            if pos is None:
                continue
            col[pos] = col.get(pos, 0) + c
        cols.append({p: v for p, v in col.items() if v})
    return cols


@dataclass
class HomologyBasis:
    """Cycle representatives spanning one homology slice, plus a solver that
    expresses any cycle in that basis (modulo boundaries)."""

    basis: SliceBasis
    reps: list[dict[int, int]]  # vectors in slice coordinates
    solver: Echelon

    @property
    def dim(self) -> int:
        return len(self.reps)


def _slice_ranks(
    cx: FactorComplex, k: int, l: int
) -> tuple[SliceBasis, list[dict[int, int]], int, Echelon]:
    """The (k, l) slice, the integer columns of d out of it, the rank of
    those columns, and the echelon of the boundaries into the slice."""
    here = slice_basis(cx, k, l)
    if here.dim == 0:
        return here, [], 0, Echelon()
    above = slice_basis(cx, k + 1, l + 1)
    below = slice_basis(cx, k - 1, l - 1)
    out_cols = _columns_of_map(cx.d, here, above)
    rank_out, _ = kernel_and_rank(out_cols, want_kernel=False)
    solver = Echelon()
    for col in sorted(_columns_of_map(cx.d, below, here), key=len):
        solver.insert(col)
    return here, out_cols, rank_out, solver


def slice_homology_basis(cx: FactorComplex, k: int, l: int) -> HomologyBasis:
    """Cycle representatives of the (k, l) homology slice and a solver for
    them.  Ranks come first; the kernel pass runs only on a slice that is
    not exact."""
    here, out_cols, rank_out, solver = _slice_ranks(cx, k, l)
    reps: list[dict[int, int]] = []
    if here.dim - rank_out - solver.rank:
        _, kernel_recs = kernel_and_rank(out_cols, want_kernel=True)
        for vec in kernel_recs:
            if solver.insert(vec, tag=len(reps)):
                reps.append(solver.pivots[-1][1])
    return HomologyBasis(here, reps, solver)


# perfbench/spans.py HOOKS wraps this name; that is its only reason to exist
_gated_homology_basis = slice_homology_basis


def slice_homology_dim(cx: FactorComplex, k: int, l: int) -> int:
    """dim of the (k, l) homology slice, from the ranks alone."""
    here, _, rank_out, solver = _slice_ranks(cx, k, l)
    return here.dim - rank_out - solver.rank


def induced_map(
    f: ChainMap | FlipMap, src: HomologyBasis, tgt: HomologyBasis
) -> list[dict[int, Fraction]]:
    """Matrix of the induced map on homology slices: column per source
    representative, entries over target representatives.  Each slice basis
    element that a representative uses goes through `f.apply` once (for a
    cube edge: iota_src, the flip, pi_tgt).  Raises if some image fails to
    be a cycle in the target span (a broken chain map)."""
    ring = f.src.ring
    index = tgt.basis.index
    columns: dict[int, dict[int, int]] = {}  # slice position -> its image
    out = []
    for rep in src.reps:
        image: dict[int, int] = {}
        for pos, c in rep.items():
            col = columns.get(pos)
            if col is None:
                gi, mono = src.basis.elems[pos]
                col = columns[pos] = {}
                moved = f.apply({gi: Polynomial(ring, {mono: 1})})
                for tgt_gen, poly in moved.items():
                    for e, v in poly.terms.items():
                        tpos = index.get((tgt_gen, e))
                        if tpos is not None:
                            col[tpos] = col.get(tpos, 0) + v
            for tpos, v in col.items():
                image[tpos] = image.get(tpos, 0) + c * v
        out.append(tgt.solver.express({p: v for p, v in image.items() if v}))
    return out


# ---------------------------------------------------------------------------
# Trigraded dimensions
# ---------------------------------------------------------------------------


@dataclass
class TriGradedDims:
    dims: dict[tuple[int, int, int], int]
    qmax: int
    note: str = ""

    def __post_init__(self):
        self.dims = {
            key: d for key, d in self.dims.items() if d != 0 and key[2] <= self.qmax
        }

    def items_sorted(self) -> list[tuple[tuple[int, int, int], int]]:
        return sorted(self.dims.items())

    def support(self):
        return set(self.dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriGradedDims):
            return NotImplemented
        lim = min(self.qmax, other.qmax)
        a = {k: v for k, v in self.dims.items() if k[2] <= lim}
        b = {k: v for k, v in other.dims.items() if k[2] <= lim}
        return a == b


def euler_characteristic(h: TriGradedDims) -> QSeries:
    """sum over (j,k,l) of (-1)^j t^k q^l dim, as a q-series."""
    coeffs: dict[int, dict[int, int]] = {}
    for (j, k, l), d in h.dims.items():
        row = coeffs.setdefault(l, {})
        row[k] = row.get(k, 0) + (-1 if j % 2 else 1) * d
    return QSeries(coeffs, h.qmax)


def compare_up_to_shift(
    h1: TriGradedDims, h2: TriGradedDims, min_window: int = 4
) -> tuple[int, int, int] | None:
    """The unique (dj, dk, dl) with h2 = h1 shifted, decided on the window
    where both cutoffs are reliable; None if no shift works; raises
    InconclusiveComparison if the overlap window is too small to decide."""
    s1, s2 = h1.support(), h2.support()
    if not s1 and not s2:
        return (0, 0, 0)
    if not s1 or not s2:
        raise InconclusiveComparison("one side has empty support")
    low1 = min((l, k, j) for (j, k, l) in s1)
    low2 = min((l, k, j) for (j, k, l) in s2)
    dl = low2[0] - low1[0]
    dk = low2[1] - low1[1]
    dj = low2[2] - low1[2]
    window_hi = min(h2.qmax, h1.qmax + dl)
    window_lo = max(low2[0], low1[0] + dl)
    if window_hi - window_lo < min_window:
        raise InconclusiveComparison(
            f"overlap window [{window_lo}, {window_hi}] too small"
        )
    for (j, k, l), d in h1.dims.items():
        if l + dl <= window_hi:
            if h2.dims.get((j + dj, k + dk, l + dl), 0) != d:
                return None
    for (j, k, l), d in h2.dims.items():
        if l <= window_hi:
            if h1.dims.get((j - dj, k - dk, l - dl), 0) != d:
                return None
    return (dj, dk, dl)


# ---------------------------------------------------------------------------
# Homology of closed Koszul matrices / graphs
# ---------------------------------------------------------------------------


def reduce_closed_matrix(m: KoszulMatrix) -> KoszulMatrix:
    """aggregate -> strip a -> greedy exclusions; for closed matrices."""
    if not m.is_closed():
        raise ValueError("closed matrix required")
    m = aggregate_a(m)
    m = strip_a(m)
    m, _chain = exclude_all(m)
    return m


def matrix_homology(
    m: KoszulMatrix,
    qmax: int,
    reduce: bool = True,
    krange: tuple[int, int] | None = None,
) -> TriGradedDims:
    """Bigraded homology dims of a closed Koszul matrix, reported at j = 0.
    With `reduce`, the complex is realized over R/(monic rows) after the
    linear exclusions (`monic_quotient`)."""
    if reduce:
        m = monic_quotient(reduce_closed_matrix(m))
    cx = realize(m)
    if "a" in cx.ring.names and krange is None:
        raise ValueError("matrices containing `a` need an explicit krange")
    if krange is None:
        ks = sorted({g.bidegree.k for g in cx.gens})
    else:
        ks = range(krange[0], krange[1] + 1)
    lmin = min((g.bidegree.l for g in cx.gens), default=0)
    dims: dict[tuple[int, int, int], int] = {}
    for k in ks:
        for l in range(lmin, qmax + 1):
            d = slice_homology_dim(cx, k, l)
            if d:
                dims[(0, k, l)] = d
    return TriGradedDims(dims, qmax)


def graph_homology(g: ResolutionGraph, qmax: int) -> TriGradedDims:
    """Bigraded homology dims of a closed graph (at cube degree 0)."""
    m = koszul_of_graph(g)
    if not m.is_closed():
        raise ValueError("graph homology needs a closed graph")
    return matrix_homology(m, qmax)


# ---------------------------------------------------------------------------
# Hom-space (EXT) dimensions
# ---------------------------------------------------------------------------


def _minimize_over_boundary(m: KoszulMatrix) -> KoszulMatrix:
    """Exclude internal variables so the factorization has finite rank over
    the ring of a and the boundary variables (required before dualizing)."""
    a = m.ring.var("a")
    zero = m.ring.zero()
    if all(r.left == a or r.left == zero for r in m.rows):
        m = aggregate_a(m)
    m, _ = exclude_all(m)
    return m


def hom_space_dim(
    m_src: KoszulMatrix, n_tgt: KoszulMatrix, bidegree: Bidegree = Bidegree(0, 0)
) -> int:
    """dim of the bidegree slice of H(N (x) dual(M)); Hom_{hmf} at (0,0).

    M and N must have equal potentials (shared boundary variables); internal
    marks are excluded before M is dualized, since the relevant dual is over
    the boundary ring.
    """
    from .koszul import matrix_to_ring

    m_src = _minimize_over_boundary(m_src)
    n_tgt = _minimize_over_boundary(n_tgt)
    union = tuple(
        dict.fromkeys(
            ("a",)
            + tuple(
                nm
                for nm in m_src.ring.names + n_tgt.ring.names
                if nm != "a"
            )
        )
    )
    ring = PolyRing(union)
    m_src = matrix_to_ring(m_src, ring)
    n_tgt = matrix_to_ring(n_tgt, ring)
    if m_src.potential() != n_tgt.potential():
        raise ValueError("potential mismatch")
    k = tensor_matrices(n_tgt, dualize(m_src))
    k = KoszulMatrix(
        k.ring, k.rows, (), k.global_shift, k.global_parity
    )
    if not k.potential().is_zero():
        raise AssertionError("tensor with the dual must kill the potential")
    k, _ = exclude_all(k)
    cx = realize(k)
    return slice_homology_dim(cx, bidegree.k, bidegree.l)


# ---------------------------------------------------------------------------
# Cube cohomology
# ---------------------------------------------------------------------------


_WORK_CUBE = None


def _slice_task(args):
    k, l = args
    return (k, l), _link_homology_slice(_WORK_CUBE, k, l)


def _init_worker(cube):
    global _WORK_CUBE
    _WORK_CUBE = cube


def _link_homology_slice(cube, k: int, l: int) -> dict[int, int]:
    """Cohomology dims over the cube degree j at one (k, l)."""
    bases: dict[int, HomologyBasis] = {}
    for mask, cx in cube.vertices.items():
        bases[mask] = slice_homology_basis(cx, k, l)
    # group homology coordinates by cube degree
    offset: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for mask, cx in cube.vertices.items():
        j = cube.jdeg[mask]
        offset[mask] = sizes.get(j, 0)
        sizes[j] = sizes.get(j, 0) + bases[mask].dim
    # columns of the differential out of each j
    cols_by_j: dict[int, dict[int, dict[int, Fraction]]] = {
        j: {} for j in sizes
    }
    for edge in cube.edges:
        sb, tb = bases[edge.src], bases[edge.tgt]
        if sb.dim == 0 or tb.dim == 0:
            continue
        mat = induced_map(edge.cmap, sb, tb)
        j = cube.jdeg[edge.src]
        block = cols_by_j[j]
        for ci, col in enumerate(mat):
            dst = block.setdefault(offset[edge.src] + ci, {})
            for ti, v in col.items():
                key = offset[edge.tgt] + ti
                dst[key] = dst.get(key, Fraction(0)) + edge.sign * v
    out: dict[int, int] = {}
    ranks: dict[int, int] = {}
    for j, block in cols_by_j.items():
        cols = [scale_to_int(block.get(i, {})) for i in range(sizes[j])]
        ranks[j], _ = kernel_and_rank(cols, want_kernel=False)
    for j, size in sizes.items():
        d = size - ranks.get(j, 0) - ranks.get(j - 1, 0)
        if d:
            out[j] = d
    return out


def link_homology(cube, qmax: int, workers: int = 1) -> TriGradedDims:
    ks = set()
    lmins = []
    lpar = set()
    for cx in cube.vertices.values():
        for g in cx.gens:
            ks.add(g.bidegree.k)
            lmins.append(g.bidegree.l)
            lpar.add(g.bidegree.l % 2)
    if not ks:
        return TriGradedDims({}, qmax)
    lmin = min(lmins)
    tasks = [
        (k, l)
        for k in sorted(ks)
        for l in range(lmin, qmax + 1)
        if (l % 2) in lpar
    ]
    results: dict[tuple[int, int], dict[int, int]] = {}
    if workers > 1:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=(cube,)
        ) as pool:
            for key, val in pool.map(_slice_task, tasks):
                results[key] = val
    else:
        for k, l in tasks:
            results[(k, l)] = _link_homology_slice(cube, k, l)
    dims: dict[tuple[int, int, int], int] = {}
    for (k, l) in sorted(results):
        for j, d in sorted(results[(k, l)].items()):
            dims[(j, k, l)] = d
    return TriGradedDims(dims, qmax)


def default_workers() -> int:
    """Worker count from TRIGRAD_WORKERS (1 when unset or empty); raises
    ValueError naming the variable when it is not an integer >= 1."""
    env = os.environ.get("TRIGRAD_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"TRIGRAD_WORKERS={env!r} must be an integer >= 1")
    return workers
