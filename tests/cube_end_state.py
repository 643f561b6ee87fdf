"""Every cube vertex ends where one `exclude_all` call on its matrix ends.

`build_cube` takes each vertex's linear picks once per node of its
crossing trie and only the monic picks at the leaf (`monic_picks`).  Its
`Reduction`s must still be what `exclude_all(red.big)` gives in one call:
the same ring, rows and relations, and the same steps, field for field
(row, var, f, rights, relations, drop).

    PYTHONPATH=src python tests/cube_end_state.py

checks this on the braid set below, reduced and unreduced, and exits 1
naming each braid with a vertex that differs.  Each cube is checked twice:
whole, and pruned to the vertices with a generator at most two above the
least l of the cube (`build_cube(..., lmax=...)`).  Each pruned vertex
must also hold every generator of its whole-cube vertex, and exactly the
d rows of those at l <= lmax, each equal to the whole cube's.  The set is
every 7th word of the 2-strand words of length 3 and of the 3-strand words
of length 4 (letters in the order 1, -1, 2, -2), plus T(2,5), T(2,7),
T(2,9), the mirror of T(2,5), T(3,4), T(3,5), the Borromean rings and four
more braids.  T(3,5) has 1 024 vertices per mode, whose leaves take the most
varied monic picks of the set.

The summary line ends with a SHA-256 prefix of every cube built, whole
and pruned (`digest`): two versions of the code that print the same one
built the same vertices, edges and reductions.
"""

import hashlib
import sys
from itertools import product

from trigrad.braid import parse_braid
from trigrad.cube import build_cube
from trigrad.koszul import exclude_all

BRAIDS = (
    [" ".join(map(str, w)) for w in product((1, -1), repeat=3)][::7]
    + [" ".join(map(str, w)) for w in product((1, -1, 2, -2), repeat=4)][::7]
    + ["1 1 1 1 1", "1 1 1 1 1 1 1", "1 1 1 1 1 1 1 1 1", "-1 -1 -1 -1 -1",
       "1 2 1 2 1 2 1 2", "1 -2 1 -2 1 -2", "1 1 2 1 2 2 2", "-1 2 1 2 -1",
       "1 2 3 1 2 3", "1 -2 3 -2", "1 2 1 2 1 2 1 2 1 2"]
)


def mismatches(cube) -> list[int]:
    """The masks of the vertices whose `Reduction` is not what
    `exclude_all` makes of its unreduced matrix.  In a whole cube with a
    crossing every vertex ends an edge, so the edges reach every
    `Reduction`; in a pruned one, a vertex ends no edge only if every
    neighbour of it is pruned."""
    reds = {}
    for e in cube.edges:
        reds[e.src], reds[e.tgt] = e.cmap.src, e.cmap.tgt
    if cube.lmax is None:
        assert len(reds) == len(cube.vertices)
    for mask in cube.vertices.keys() - reds.keys():
        assert not any(bin(mask ^ other).count("1") == 1
                       for other in cube.vertices), mask
    return sorted(mask for mask, red in reds.items()
                  if exclude_all(red.big) != (red.matrix, list(red.steps)))


def cut_mismatches(whole, pruned) -> list[int]:
    """The masks of the pruned vertices whose generators are not the whole
    cube's, or whose d is not the whole cube's rows at l <= lmax."""
    bad = []
    for mask, cx in pruned.vertices.items():
        full = whole.vertices[mask]
        rows = {s: row for s, row in full.d.items()
                if full.gens[s].bidegree.l <= pruned.lmax}
        if cx.gens != full.gens or cx.d != rows:
            bad.append(mask)
    return bad


def _poly(p) -> tuple:
    return p.ring.names, sorted(p.terms.items())


def digest(h, cube) -> None:
    """Feed h each vertex (mask, jdeg, gens, d) and each edge (src, tgt,
    sign, row, odd, even, the source's reduction steps), term order aside."""
    for mask, cx in cube.vertices.items():
        h.update(repr((mask, cube.jdeg[mask],
                       [(g.bidegree.k, g.bidegree.l) for g in cx.gens],
                       sorted((s, sorted((t, _poly(p)) for t, p in row.items()))
                              for s, row in cx.d.items()))).encode())
    for e in cube.edges:
        f = e.cmap
        steps = [(st.row, st.var, _poly(st.f), [_poly(b) for b in st.rights],
                  [(y, _poly(g)) for y, g in st.relations], st.drop)
                 for st in f.src.steps]
        h.update(repr((e.src, e.tgt, e.sign, f.row, _poly(f.odd),
                       _poly(f.even), steps)).encode())


def main() -> int:
    failed = vertices = kept = 0
    h = hashlib.sha256()
    for word in BRAIDS:
        for reduced in (False, True):
            b = parse_braid(word)
            cube = build_cube(b, reduced)
            low = min(g.bidegree.l for cx in cube.vertices.values()
                      for g in cx.gens)
            pruned = build_cube(b, reduced, lmax=low + 2)
            digest(h, cube)
            digest(h, pruned)
            vertices += len(cube.vertices)
            kept += len(pruned.vertices)
            checks = (("whole", mismatches(cube)),
                      ("pruned", mismatches(pruned)),
                      ("pruned d", cut_mismatches(cube, pruned)))
            for name, bad in checks:
                if bad:
                    failed += 1
                    print(f"FAIL {word!r} reduced={reduced} {name}: "
                          f"masks {bad}")
    print(f"{len(BRAIDS)} braids, {vertices} vertices, {kept} kept at "
          "lmax = least l + 2: "
          + ("PASS" if not failed else f"{failed} cubes differ")
          + f", digest {h.hexdigest()[:16]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
