"""The exact linear-algebra kernel: per-bidegree slices of graded free
modules over Z[a, x], kernels/ranks over Q, homology of vertex
factorizations with explicit cycle representatives, chain images of cube
edges, cohomology of the resolution cube, hom-space dimensions, Euler
characteristics, and comparison up to an overall shift.

Slice columns are integer vectors read straight off the polynomial entries.
All elimination is integer fraction-free (content reduced), with
deterministic pivot choice: unit entries first, then smallest magnitude,
then smallest row index.  It runs in one loop, `Echelon._reduce`.  A pivot
may carry a record, a sparse vector on which the same row operations act:
`kernel_and_rank` gives column ci the record {ci: 1}, so a column that
reduces to zero leaves a kernel vector.

Slice homology has one routine, `_slice_ranks`: one pass over the block of
d out of (k, l) gives its rank and, for `slice_homology_basis`, the kernel
vectors that represent homology modulo the boundaries.  Callers sweep each
diagonal k - l = c with l rising, and the echelon of d out of (k, l) is the
boundary echelon of (k+1, l+1), so each block of d is eliminated once.

A cube vertex is realized up to lmax (`FactorComplex.lmax`): d only at
its generators at l <= lmax.  The (k, l) slice holds (g, x^m) with
g.k = k and g.l + 2|m| = l, and `_slice_ranks` reads the d rows of
(k-1, l-1) and (k, l) and uses (k+1, l+1) only as target coordinates, so
every slice up to lmax is exact; one above lmax raises `ValueError`.

Closed graphs (`matrix_homology`, `graph_homology`) and cube vertices
alike: `koszul.exclude_all` removes the linear rows with their variables
and moves a triangular set of monic rows into relations, and `realize`
builds the Koszul complex of the other rows over R/(relations), free over
the remaining variables on (row subset, standard monomial) pairs.  The slices
are then taken over those few variables, with the same slice code.

Cube ranks: cube vertices are realized after their own reductions, and an
edge is a `FlipMap`: iota_src (back into the unreduced source complex),
the flip psi or psi', then pi_tgt (into the target's reduced complex).
`induced_map` reads the integer image of each slice element a source
representative uses straight into target slice coordinates.  pi_tgt is
semilinear over its ring map sigma, and sigma(u) = u for a standard
monomial u of the target, because u's variables are relation variables,
each below its degree, and the relations are triangular: so u pi_tgt(x) =
pi_tgt(u x), one path for every u (`FlipMap.image`).  iota and pi are
homotopy inverse, so this is H(psi) up to vertex isomorphisms, and
squares anticommute on homology, which is all the cube needs.
`_link_homology_slice` ranks each cube block at chain level modulo the
target boundaries, so every vector from the Koszul rows to the ranks is an
integer one; it builds a basis only at the vertices that hold a generator
in the slice (`_slices`, read off the complex's generator index).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb, gcd
from typing import TYPE_CHECKING

from .algebra import (
    Bidegree,
    PolyRing,
    QSeries,
    monomials_of_degree,
)
from .factor_complex import FactorComplex, FlipMap, Matrix, realize
from .koszul import (
    KoszulMatrix,
    ResolutionGraph,
    aggregate_a,
    dualize,
    exclude_all,
    koszul_of_graph,
    strip_a,
    tensor_matrices,
)

if TYPE_CHECKING:
    from .cube import CubeComplex


class InconclusiveComparison(ValueError):
    """compare_up_to_shift could not decide within the reliable window."""


class WorkLimitExceeded(ValueError):
    """A table's predicted slice elements are above the budget."""


class PotentialMismatch(ValueError):
    """Two factorizations have different potentials: their boundaries differ."""


def complex_work(m: KoszulMatrix, qmax: int) -> int:
    """The slice elements that the (k, l) slices of realize(m) up to qmax
    hold, at each generator's own k, counted before it is realized: over
    n = nvars - len(relations) variables (without `a`), a generator (S, u)
    at l = global l + sum of the l-shifts of S + 2 deg u, times the
    C((qmax - l) // 2 + n, n) monomials of degree up to (qmax - l) / 2.
    The generators are counted per l, one row (a shift of 0 or its l-shift)
    and one relation (u's exponent in it) at a time: no subset is visited."""
    counts = {m.global_shift.l: 1}  # l -> the generators at l
    for step in ([(0, row.shift.l) for row in m.rows]
                 + [range(0, 2 * f.degree_in(y), 2) for y, f in m.relations]):
        out: dict[int, int] = {}
        for l, c in counts.items():
            for dl in step:
                out[l + dl] = out.get(l + dl, 0) + c
        counts = out
    n = m.ring.nvars - len(m.relations)
    return sum(c * comb((qmax - l) // 2 + n, n)
               for l, c in counts.items() if l <= qmax)


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
    consumed in insertion order).  A pivot is (row, vector, record).
    """

    def __init__(self):
        self.pivots: list[tuple[int, dict[int, int], dict | None]] = []
        self.pivot_of_row: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict[int, int], rec: dict | None) -> None:
        """Clear all pivot rows from vec in place: afterwards, vec is a
        nonzero multiple of the original plus a combination of pivots.  The
        same row operations act on `rec` (if given) with each pivot's record.
        Pivots are consumed in insertion order (a subtraction only
        introduces rows of later pivots), so each fires at most once."""
        pivots, pivot_of_row = self.pivots, self.pivot_of_row
        heap = [pivot_of_row[r] for r in vec if r in pivot_of_row]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            pi = heapq.heappop(heap)
            prow, pvec, prec = pivots[pi]
            v = vec.get(prow, 0)
            if v == 0:
                continue
            p = pvec[prow]
            g = gcd(v, p)
            sv, sp = p // g, v // g
            if sv != 1:
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
                for k, pv in prec.items():
                    nv = rec.get(k, 0) - sp * pv
                    if nv:
                        rec[k] = nv
                    else:
                        rec.pop(k, None)

    def insert(self, vec: dict[int, int], rec: dict | None = None) -> bool:
        """Reduce a copy of vec and, if nonzero, store it as a new pivot with
        record `rec` (reduced alongside, in place).  Returns True if a pivot
        was added."""
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
        self.pivots.append((pivot_row, vec, rec))
        self.pivot_of_row[pivot_row] = len(self.pivots) - 1
        return True


def kernel_and_rank(
    cols: list[dict[int, int]], want_kernel: bool = True, ech: Echelon | None = None
) -> tuple[int, list[dict[int, int]]]:
    """Rank of the column span and an integer basis of the kernel, as
    combinations of the given columns ([] without `want_kernel`); the pivots
    go into `ech`, a fresh `Echelon` by default.  Columns are consumed
    sparsest first (a deterministic fill-reducing order; the span is
    unaffected and any kernel basis is as good as any other).  Column ci
    carries the record {ci: 1}; one that reduces to zero leaves its record."""
    ech = Echelon() if ech is None else ech
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
    """Finite Q-basis of one (k, l) slice."""

    elems: list[tuple[int, tuple[int, ...]]]  # (generator index, exponents)
    index: dict[tuple[int, tuple[int, ...]], int]

    @property
    def dim(self) -> int:
        return len(self.elems)


def _gens_by_k(cx: FactorComplex) -> dict[int, list[tuple[int, int, int]]]:
    """k -> [(generator index, k, l)] of cx, in index order; made on first
    use and kept on cx."""
    if not cx._by_k:
        for gi, g in enumerate(cx.gens):
            cx._by_k.setdefault(g.bidegree.k, []).append(
                (gi, g.bidegree.k, g.bidegree.l))
    return cx._by_k


def _slice_gens(cx: FactorComplex, k: int, l: int) -> tuple[bool, int, list]:
    """Whether cx's ring has `a`, its nx other variables, and (index,
    a-degree, x-degree) of the generators g with elements in the (k, l)
    slice, in generator order: l - g.l even and >= 0 and, over a ring with
    `a`, k - g.k even and >= 0, else g.k = k.  Only the generators at those
    k are visited (`_gens_by_k`)."""
    has_a = "a" in cx.ring.names
    if has_a and cx.ring.names[0] != "a":
        raise ValueError("'a' must be the first ring variable")
    by_k = _gens_by_k(cx)
    at = (sorted(g for gk, gs in by_k.items() if gk <= k and not (k - gk) % 2
                 for g in gs) if has_a else by_k.get(k, ()))
    return has_a, cx.ring.nvars - has_a, [
        (gi, (k - gk) // 2, (l - gl) // 2) for gi, gk, gl in at
        if l >= gl and not (l - gl) % 2]


def slice_basis(cx: FactorComplex, k: int, l: int) -> SliceBasis:
    """The (k, l) slice: x^m e_g, in generator order, for the generators g
    of `_slice_gens` (a^((k - g.k) / 2) x^m e_g over a ring with `a`)."""
    has_a, nx, at = _slice_gens(cx, k, l)
    elems = [(gi, (da,) + mono if has_a else mono)
             for gi, da, dx in at for mono in monomials_of_degree(nx, dx)]
    return SliceBasis(elems, {e: i for i, e in enumerate(elems)})


def _slice_dim(cx: FactorComplex, k: int, l: int) -> int:
    """slice_basis(cx, k, l).dim, with no monomial enumerated."""
    _, nx, at = _slice_gens(cx, k, l)
    return sum(comb(dx + nx - 1, dx) if nx else int(dx == 0) for _, _, dx in at)


def _slices(cx: FactorComplex, qmax: int) -> set[tuple[int, int]]:
    """The (k, l) slices up to qmax that hold a generator of cx, by
    `slice_basis`'s rule for a ring without `a`: (g.k, g.l + 2i) for each
    generator g and i >= 0, or i = 0 only over a ring with no variable."""
    out: set[tuple[int, int]] = set()
    for k, gs in _gens_by_k(cx).items():
        for l in {gl for _, _, gl in gs if gl <= qmax}:
            top = qmax if cx.ring.nvars else l
            out.update((k, ll) for ll in range(l, top + 1, 2))
    return out


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
    """Cycle representatives spanning one homology slice modulo the
    boundaries into it (both in slice coordinates)."""

    basis: SliceBasis
    reps: list[dict[int, int]]
    boundaries: list[dict[int, int]]  # a basis of the boundary span

    @property
    def dim(self) -> int:
        return len(self.reps)


def _eliminate_block(
    d: Matrix, src: SliceBasis, tgt: SliceBasis, want_kernel: bool = False
) -> tuple[list[dict[int, int]], Echelon]:
    """The kernel of d from slice `src` to slice `tgt` ([] without
    `want_kernel`) and the echelon of its image.  A block with an empty side
    builds no columns: its kernel is the unit vectors of `src`."""
    ech = Echelon()
    if not (src.dim and tgt.dim):
        return [{i: 1} for i in range(src.dim)] if want_kernel else [], ech
    return kernel_and_rank(_columns_of_map(d, src, tgt), want_kernel, ech)[1], ech


def _slice_ranks(
    cx: FactorComplex, k: int, l: int, want_kernel: bool
) -> tuple[SliceBasis, list[dict[int, int]], int, Echelon | None]:
    """The (k, l) slice, the kernel of d out of it ([] without
    `want_kernel`), the dimension of its homology, and the echelon of the
    boundaries into it (None for an empty slice or without `want_kernel`).

    The echelon of the block out of (k, l) is the boundary echelon of
    (k+1, l+1): the same columns, inserted in the same order.  `cx` keeps
    the out-block of the slice it visited last, so a sweep up a diagonal
    eliminates each block once; any other call starts afresh.  It reads
    the d rows of (k-1, l-1) and (k, l), so a complex realized up to
    `lmax` refuses a slice above it."""
    if cx.lmax is not None and l > cx.lmax:
        raise ValueError(f"slice ({k}, {l}) is above the complex's lmax "
                         f"{cx.lmax}")
    here, bounds = cx._out_block.pop((k - 1, l - 1), (None, None))
    cx._out_block.clear()
    if here is None:
        here = slice_basis(cx, k, l)
    if here.dim == 0:
        return here, [], 0, None
    if bounds is None:
        bounds = _eliminate_block(cx.d, slice_basis(cx, k - 1, l - 1), here)[1]
    # the ranks alone need only the number of boundaries: free them first
    dim, bounds = here.dim - bounds.rank, (bounds if want_kernel else None)
    above = slice_basis(cx, k + 1, l + 1)
    kernel, out = _eliminate_block(cx.d, here, above, want_kernel)
    cx._out_block[(k, l)] = (above, out)
    return here, kernel, dim - out.rank, bounds


def _along_diagonals(slices) -> list[tuple[int, int]]:
    """Diagonal by diagonal (k - l), l rising: the order that reuses blocks."""
    return sorted(slices, key=lambda kl: (kl[0] - kl[1], kl[1]))


def slice_homology_basis(cx: FactorComplex, k: int, l: int) -> HomologyBasis:
    """Cycle representatives of the (k, l) homology slice and the boundary
    vectors they are taken modulo: the kernel vectors of d out of the slice
    that stay independent of the boundary echelon."""
    here, kernel, dim, bounds = _slice_ranks(cx, k, l, True)
    if bounds is None:
        return HomologyBasis(here, [], [])
    boundaries = [vec for _, vec, _ in bounds.pivots]
    for vec in boundaries:  # a pass with records may leave a multiple
        _content_reduce(vec)
    if dim:
        for vec in kernel:
            bounds.insert(vec)
    reps = [vec for _, vec, _ in bounds.pivots[len(boundaries):]]
    return HomologyBasis(here, reps, boundaries)


# perfbench/spans.py HOOKS wraps this name; that is its only reason to exist
_gated_homology_basis = slice_homology_basis


def slice_homology_dim(cx: FactorComplex, k: int, l: int) -> int:
    """dim of the (k, l) homology slice, from the ranks alone."""
    return _slice_ranks(cx, k, l, False)[2]


def induced_map(
    f: FlipMap,
    src: SliceBasis,
    tgt: SliceBasis,
    vecs: list[dict[int, int]],
) -> list[dict[int, int]]:
    """Integer images under `f` of vectors of the `src` slice, in `tgt`
    slice coordinates.  Each slice basis element x^e e_s that a vector uses
    is one column, sigma(x^e) image(e_s) read off the memos of the target
    vertex and the edge, computed once.  A chain map sends cycles to cycles
    and boundaries to boundaries, so the images of cycle representatives
    give the induced map on homology."""
    ring, index_get = f.src.ring, tgt.index.get
    columns: dict[int, dict[int, int]] = {}  # slice position -> its image
    out = []
    for vec in vecs:
        image: dict[int, int] = {}
        for pos, c in vec.items():
            col = columns.get(pos)
            if col is None:
                s, e = src.elems[pos]
                col = columns[pos] = {}
                for ui, q in f.tgt.sigma(ring, e):
                    terms = f.image(s, ui)
                    for qe, qc in q:
                        for t, te, tc in terms:
                            tpos = index_get((t, tuple(map(int.__add__, qe, te))))
                            if tpos is not None:
                                col[tpos] = col.get(tpos, 0) + qc * tc
            for tpos, v in col.items():
                image[tpos] = image.get(tpos, 0) + c * v
        out.append({p: v for p, v in image.items() if v})
    return out


# ---------------------------------------------------------------------------
# Trigraded dimensions
# ---------------------------------------------------------------------------


@dataclass
class TriGradedDims:
    dims: dict[tuple[int, int, int], int]
    qmax: int

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


MIN_WINDOW = 4  # the least q-width of a window that decides a shift


def compare_up_to_shift(h1: TriGradedDims,
                        h2: TriGradedDims) -> tuple[int, int, int] | None:
    """The unique (dj, dk, dl) with h2 = h1 shifted, decided on the window
    where both cutoffs are reliable; None if no shift works; raises
    InconclusiveComparison if the window is narrower than MIN_WINDOW."""
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
    if window_hi - window_lo < MIN_WINDOW:
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
    """`strip_a`, which refuses an open matrix, then `exclude_all` (linear
    exclusions, then the monic picks)."""
    return exclude_all(strip_a(m))[0]


def matrix_homology(
    m: KoszulMatrix,
    qmax: int,
    reduce: bool = True,
    krange: tuple[int, int] | None = None,
    max_work: int | None = None,
) -> TriGradedDims:
    """Bigraded homology dims of a closed Koszul matrix, reported at j = 0.
    With `reduce`, the complex is realized over R/(monic rows) after the
    linear exclusions (`reduce_closed_matrix`).  With `max_work`, a complex
    whose `complex_work` is above it raises `WorkLimitExceeded` before it
    is realized."""
    if reduce:
        m = reduce_closed_matrix(m)
    if "a" in m.ring.names and krange is None:
        raise ValueError("matrices containing `a` need an explicit krange")
    if max_work is not None and (work := complex_work(m, qmax)) > max_work:
        raise WorkLimitExceeded(work)
    cx = realize(m)
    if krange is None:
        slices = _slices(cx, qmax)
    else:
        lmin = min((g.bidegree.l for g in cx.gens), default=0)
        slices = [(k, l) for k in range(krange[0], krange[1] + 1)
                  for l in range(lmin, qmax + 1)]
    dims: dict[tuple[int, int, int], int] = {}
    for k, l in _along_diagonals(slices):
        d = slice_homology_dim(cx, k, l)
        if d:
            dims[(0, k, l)] = d
    return TriGradedDims(dict(sorted(dims.items())), qmax)


def graph_homology(g: ResolutionGraph, qmax: int) -> TriGradedDims:
    """Bigraded homology dims of a closed graph (at cube degree 0)."""
    return matrix_homology(koszul_of_graph(g), qmax)


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
    m_src: KoszulMatrix, n_tgt: KoszulMatrix, bidegree: Bidegree = Bidegree(0, 0),
    max_work: int | None = None,
) -> int:
    """dim of the bidegree slice of H(N (x) dual(M)); Hom_{hmf} at (0,0).

    M and N must have equal potentials (shared boundary variables); internal
    marks are excluded before M is dualized, since the relevant dual is over
    the boundary ring.  With `max_work`, more elements than that in the
    slices it reads, (k±1, l±1) and (k, l), raise `WorkLimitExceeded`.
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
        raise PotentialMismatch("potential mismatch")
    # equal potentials: the externals cancel, and the potential is 0
    k, _ = exclude_all(tensor_matrices(n_tgt, dualize(m_src)))
    cx = realize(k)
    if max_work is not None and (work := sum(_slice_dim(
            cx, bidegree.k + i, bidegree.l + i) for i in (-1, 0, 1))) > max_work:
        raise WorkLimitExceeded(work)
    return slice_homology_dim(cx, bidegree.k, bidegree.l)


# ---------------------------------------------------------------------------
# Cube cohomology
# ---------------------------------------------------------------------------


def _link_homology_slice(cube: CubeComplex, k: int, l: int,
                         masks: list[int]) -> dict[int, int]:
    """Cohomology dims over the cube degree j at one (k, l).

    Edge maps are chain maps, so the rank of the cube differential on
    homology out of degree j is rank(B + D.reps) - rank(B) at chain level:
    D.rep is the signed sum of a representative's images along its
    out-edges, and B holds the boundary vectors of each target slice, in
    that target's own coordinate range.  An edge into a zero homology slice
    is skipped: its images are boundaries there.  Only the vertices in
    `masks`, those with a generator in the slice, get a basis built."""
    bases: dict[int, HomologyBasis] = {
        mask: slice_homology_basis(cube.vertices[mask], k, l) for mask in masks
    }
    sizes: dict[int, int] = {}
    for mask, basis in bases.items():
        j = cube.jdeg[mask]
        sizes[j] = sizes.get(j, 0) + basis.dim
    blocks: dict[int, list[dict[int, int]]] = {}  # j -> B and D.reps
    rank_b: dict[int, int] = {}
    offset: dict[int, int] = {}  # target vertex -> its first coordinate
    nrows = 0
    images: dict[int, list[dict[int, int]]] = {}  # source vertex -> D.reps
    for edge in cube.edges:
        sb, tb = bases.get(edge.src), bases.get(edge.tgt)
        if sb is None or tb is None or sb.dim == 0 or tb.dim == 0:
            continue
        j = cube.jdeg[edge.src]
        block = blocks.setdefault(j, [])
        if edge.tgt not in offset:
            offset[edge.tgt] = nrows
            block.extend(
                {nrows + p: v for p, v in vec.items()} for vec in tb.boundaries
            )
            rank_b[j] = rank_b.get(j, 0) + len(tb.boundaries)
            nrows += tb.basis.dim
        if edge.src not in images:
            images[edge.src] = [{} for _ in sb.reps]
            block.extend(images[edge.src])
        off = offset[edge.tgt]
        mat = induced_map(edge.cmap, sb.basis, tb.basis, sb.reps)
        for dst, col in zip(images[edge.src], mat):
            for p, v in col.items():
                dst[off + p] = dst.get(off + p, 0) + edge.sign * v
    ranks = {
        j: kernel_and_rank(
            [{p: v for p, v in col.items() if v} for col in cols],
            want_kernel=False,
        )[0] - rank_b[j]
        for j, cols in blocks.items()
    }
    out: dict[int, int] = {}
    for j, size in sizes.items():
        d = size - ranks.get(j, 0) - ranks.get(j - 1, 0)
        if d:
            out[j] = d
    return out


def link_homology(cube: CubeComplex, qmax: int) -> TriGradedDims:
    """The table of the cube up to q-degree qmax.  A cube built with `lmax`
    lacks vertices whose slices are empty up to lmax only, so it needs
    qmax <= lmax."""
    if cube.lmax is not None and qmax > cube.lmax:
        raise ValueError(f"qmax {qmax} is above the cube's lmax {cube.lmax}")
    holders: dict[tuple[int, int], list[int]] = {}  # slice -> its vertices
    for mask, cx in cube.vertices.items():
        for kl in _slices(cx, qmax):
            holders.setdefault(kl, []).append(mask)
    results = {(k, l): _link_homology_slice(cube, k, l, holders[k, l])
               for k, l in _along_diagonals(holders)}
    dims: dict[tuple[int, int, int], int] = {}
    for (k, l) in sorted(results):
        for j, d in sorted(results[(k, l)].items()):
            dims[(j, k, l)] = d
    return TriGradedDims(dims, qmax)

