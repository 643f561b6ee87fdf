"""The four benchmark workloads: seeded input generators, the timed job, and
the exact check run after the job's timer stops.

Inputs are drawn by stratified sampling.  Each workload's input space is
split into fixed strata, and one *round* takes one unused input from every
stratum, so every seed gets different inputs with the same cost profile.
For `positive` and `graphs` the strata are orbits under cyclic rotation of
the word, swapping sigma_1 and sigma_2, and reversing the word, which keep
the closure and, for these families, the work.  For `mixed` and `oracle`
the inputs are ranked by an exact measure of their work (strata.py).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import trigrad.algebra as algebra
import trigrad.braid as braid
import trigrad.cube as cube
import trigrad.factor_complex as factor_complex
import trigrad.homfly as homfly
import trigrad.homology as homology
import trigrad.koszul as koszul


def _orbit_key(word, bits):
    """Smallest image of a positive 3-strand word, with a tuple of
    per-letter bits carried along, under rotation, generator swap and
    reversal."""
    forms = []
    for rot in range(len(word)):
        w, m = word[rot:] + word[:rot], bits[rot:] + bits[:rot]
        for ws in (w, tuple(3 - x for x in w)):
            forms.append((ws, m))
            forms.append((ws[::-1], m[::-1]))
    return min(forms)


def _orbits(items, key):
    out: dict = {}
    for it in items:
        out.setdefault(key(it), []).append(it)
    return [out[k] for k in sorted(out)]


def draw(rng: random.Random, strata: list[list], rounds: int) -> list:
    """`rounds` passes over the strata, each taking one not yet used input
    from every stratum that has one left; job order is then shuffled."""
    pools = [sorted(s) for s in strata]
    for pool in pools:
        rng.shuffle(pool)
    picked = []
    for r in range(rounds):
        picked.extend(pool[r] for pool in pools if r < len(pool))
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# Braid homology: `mixed` and `positive`
# ---------------------------------------------------------------------------


@dataclass
class BraidHomologyResult:
    braid: braid.BraidWord
    dims: homology.TriGradedDims


def _euler_matches(res: BraidHomologyResult) -> bool:
    chi = homology.euler_characteristic(res.dims)
    return chi == algebra.qt_expand(homfly.homfly_F(res.braid), res.dims.qmax)


def _bump_one_dim(res: BraidHomologyResult) -> BraidHomologyResult:
    dims = dict(res.dims.dims)
    key = min(dims) if dims else (0, 0, res.dims.qmax)
    dims[key] = dims.get(key, 0) + 1
    return BraidHomologyResult(
        res.braid, homology.TriGradedDims(dims, res.dims.qmax)
    )


def mixed_words() -> list[tuple[int, ...]]:
    """3-strand words of 5 letters, exactly 2 negative, both generators."""
    return [
        tuple(-g if i in neg else g for i, g in enumerate(gens))
        for gens in itertools.product((1, 2), repeat=5)
        if len(set(gens)) == 2
        for neg in itertools.combinations(range(5), 2)
    ]


def _ranked_strata(cost: dict, nstrata: int) -> list[list]:
    """The keys of `cost` ranked by cost and cut into nstrata near-equal
    consecutive strata."""
    ranked = sorted(cost, key=lambda k: (cost[k], k))
    bounds = [len(ranked) * i // nstrata for i in range(nstrata + 1)]
    return [ranked[a:b] for a, b in zip(bounds, bounds[1:])]


class Mixed:
    """3-strand words, 5 crossings, exactly 2 negative, both generators;
    unreduced braid homology at qmax 8.

    The cost of these jobs varies by 30 % within an orbit (where the marks
    fall changes the reduced complexes), so the 300 words are ranked by
    the function calls their job makes (MIXED_CALLS in strata.py, an exact
    measure of its work) and cut into 9 strata."""

    name = "mixed"
    qmax = 8
    round_seconds = 21.0

    def strata(self) -> list[list]:
        from strata import MIXED_CALLS

        if sorted(MIXED_CALLS) != sorted(mixed_words()):
            raise RuntimeError("strata.py does not match mixed_words()")
        return _ranked_strata(MIXED_CALLS, 9)

    def prepare(self, word):
        return braid.BraidWord(3, tuple(word))

    def run(self, b):
        return BraidHomologyResult(b, cube.braid_homology(b, self.qmax))

    def check(self, b, res) -> bool:
        return _euler_matches(res)

    def perturb(self, b, res):
        return _bump_one_dim(res)

    def describe(self, b) -> tuple[int, int]:
        return len(b.letters), len(braid.build_marked_diagram(b).var_names())


class Positive(Mixed):
    """Positive 3-strand words, 7 crossings, both generators; braid homology
    at qmax 6."""

    name = "positive"
    qmax = 6
    round_seconds = 20.0

    def strata(self) -> list[list]:
        words = [
            w for w in itertools.product((1, 2), repeat=7) if len(set(w)) == 2
        ]
        return _orbits(words, lambda w: _orbit_key(w, (0,) * len(w)))


# ---------------------------------------------------------------------------
# Closed graphs: `graphs`
# ---------------------------------------------------------------------------


@dataclass
class GraphInput:
    word: tuple
    graph: koszul.ResolutionGraph


def _graph_diagonals(cx, qmax: int):
    """Diagonals k - l = c along which every slice has l <= qmax, with the
    k-values met on them."""
    ks = sorted({g.bidegree.k for g in cx.gens})
    if not ks:
        return ks, []
    lmin = min(g.bidegree.l for g in cx.gens)
    return ks, list(range(ks[-1] - qmax, ks[-1] - lmin + 1))


class Graphs:
    """Closed graphs resolve(build_marked_diagram(b), mask) for positive
    3-strand 6-crossing words b and masks with at least 5 wide edges;
    graph homology at qmax 14."""

    name = "graphs"
    qmax = 14
    round_seconds = 11.0

    def strata(self) -> list[list]:
        words = [
            w for w in itertools.product((1, 2), repeat=6) if len(set(w)) == 2
        ]
        masks = [m for m in range(64) if bin(m).count("1") >= 5]
        pairs = [(w, m) for w in words for m in masks]

        def key(p):
            w, m = p
            return _orbit_key(w, tuple(m >> i & 1 for i in range(6)))

        return _orbits(pairs, key)

    def prepare(self, inp):
        word, mask = inp
        d = braid.build_marked_diagram(braid.BraidWord(3, tuple(word)))
        return GraphInput(tuple(word), cube.resolve(d, mask))

    def run(self, gi):
        return homology.graph_homology(gi.graph, self.qmax)

    def _complex(self, gi):
        m = homology.reduce_closed_matrix(koszul.koszul_of_graph(gi.graph))
        return factor_complex.realize(m)

    def check(self, gi, h) -> bool:
        """Euler characteristic of the homology along each complete (k - l)
        diagonal equals that of the chain groups (slice_basis dimensions)."""
        cx = self._complex(gi)
        ks, diagonals = _graph_diagonals(cx, self.qmax)
        if not diagonals:
            return not h.dims
        for c in diagonals:
            chain = sum(
                (-1) ** k * homology.slice_basis(cx, k, k - c).dim for k in ks
            )
            hom = sum((-1) ** k * h.dims.get((0, k, k - c), 0) for k in ks)
            if chain != hom:
                return False
        return True

    def perturb(self, gi, h):
        ks, diagonals = _graph_diagonals(self._complex(gi), self.qmax)
        dims = dict(h.dims)
        key = (0, ks[0], ks[0] - diagonals[0])
        dims[key] = dims.get(key, 0) + 1
        return homology.TriGradedDims(dims, h.qmax)

    def describe(self, gi) -> tuple[int, int]:
        return len(gi.word), len(gi.graph.var_names)


# ---------------------------------------------------------------------------
# HOMFLYPT oracle: `oracle`
# ---------------------------------------------------------------------------


ORACLE_LETTERS = (1, 2, 3, 4, 1, 2, 3, 4, 1, 2)


def oracle_triple(code: int) -> tuple[braid.BraidWord, ...]:
    """The skein triple of the 10-letter word whose first nine signs are the
    bits of `code`: last letter positive, negative, removed."""
    prefix = [
        -g if code >> i & 1 else g for i, g in enumerate(ORACLE_LETTERS[:-1])
    ]
    last = ORACLE_LETTERS[-1]
    return tuple(
        braid.BraidWord(5, tuple(prefix + tail))
        for tail in ([last], [-last], [])
    )


def skein_holds(sp, sm, s0, top: int) -> bool:
    """q^-1 F+ - q F- = (q^-1 - q) F0, compared on q-degrees <= top."""
    acc: dict[tuple[int, int], Fraction] = {}
    for series, shift, sign in ((sp, -1, 1), (sm, 1, -1), (s0, -1, -1),
                                (s0, 1, 1)):
        for qe, row in series.coeffs.items():
            if qe + shift > top:
                continue
            for te, c in row.items():
                k = (qe + shift, te)
                acc[k] = acc.get(k, 0) + sign * c
    return not any(acc.values())


class Oracle:
    """5-strand 10-letter words with letters cycling sigma_1..sigma_4 and
    seeded signs, run as skein triples; homfly_F then qt_expand at qmax 12.

    The inputs are the 128 sign prefixes whose triples have the fewest
    denominator terms in F (ORACLE_CALLS in strata.py), ranked by the
    function calls their job makes, an exact measure of its work, and cut
    into 32 strata of four."""

    name = "oracle"
    qmax = 12
    round_seconds = 20.0

    def strata(self) -> list[list]:
        from strata import ORACLE_CALLS

        return _ranked_strata(ORACLE_CALLS, 32)

    def prepare(self, code):
        return oracle_triple(code)

    def run(self, triple):
        return tuple(
            algebra.qt_expand(homfly.homfly_F(b), self.qmax) for b in triple
        )

    def check(self, triple, series) -> bool:
        return skein_holds(*series, top=self.qmax - 1)

    def perturb(self, triple, series):
        sp, sm, s0 = series
        coeffs = {qe: dict(row) for qe, row in s0.coeffs.items()}
        qe = min(coeffs) if coeffs else 0
        row = coeffs.setdefault(qe, {})
        row[0] = row.get(0, 0) + 1
        return sp, sm, algebra.QSeries(coeffs, s0.qmax)

    def describe(self, triple) -> tuple[int, int]:
        return (
            sum(len(b.letters) for b in triple),
            sum(len(braid.build_marked_diagram(b).var_names())
                for b in triple),
        )


WORKLOADS = {w.name: w for w in (Mixed(), Positive(), Oracle(), Graphs())}
