"""Every cube vertex ends where one `exclude_all` call on its matrix ends.

`build_cube` takes each vertex's linear picks once per node of its
crossing trie and only the monic picks at the leaf (`monic_picks`).  Its
`Reduction`s must still be what `exclude_all(red.big)` gives in one call:
the same ring, rows and relations, and the same steps, field for field
(row, var, f, rights, relations, drop).

    PYTHONPATH=src python tests/cube_end_state.py

checks this on the braid set below, reduced and unreduced, and exits 1
naming each braid with a vertex that differs.  The set is every 7th word
of the 2-strand words of length 3 and of the 3-strand words of length 4
(letters in the order 1, -1, 2, -2), plus T(2,5), T(2,7), T(2,9), the
mirror of T(2,5), T(3,4), T(3,5), the Borromean rings and four more
braids.  T(3,5) has 1 024 vertices per mode, whose leaves take the most
varied monic picks of the set.
"""

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
    `exclude_all` makes of its unreduced matrix; with a crossing, every
    vertex ends an edge, so the edges reach every `Reduction`."""
    reds = {}
    for e in cube.edges:
        reds[e.src], reds[e.tgt] = e.cmap.src, e.cmap.tgt
    assert len(reds) == len(cube.vertices)
    return sorted(mask for mask, red in reds.items()
                  if exclude_all(red.big) != (red.matrix, list(red.steps)))


def main() -> int:
    failed = vertices = 0
    for word in BRAIDS:
        for reduced in (False, True):
            cube = build_cube(parse_braid(word), reduced)
            vertices += len(cube.vertices)
            bad = mismatches(cube)
            if bad:
                failed += 1
                print(f"FAIL {word!r} reduced={reduced}: masks {bad}")
    print(f"{len(BRAIDS)} braids, {vertices} vertices: "
          + ("PASS" if not failed else f"{failed} cubes differ"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
