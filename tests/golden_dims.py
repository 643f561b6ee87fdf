"""Golden trigraded tables: exact (j, k, l) -> dim for a fixed set of inputs.

    python tests/golden_dims.py            # write tests/data/golden_dims.json
    python tests/golden_dims.py --check    # recompute and compare, exit 1 on a mismatch
    python tests/golden_dims.py --frontier [--check]   # the same for frontier_dims.json

The table pins results that the Euler identity cannot see (generators that
cancel in pairs).  It was written once from a trusted revision; a change that
alters an entry must say which entries changed and why, and is not a reason
to rewrite the file.

Inputs: T(2,5), T(2,7), the figure-eight and 1 1 -2 1 -2 in both modes;
--marks 2 on two braids; the cheapest word of each of the nine `mixed`
benchmark strata; five closed graphs of the `graphs` benchmark family
(two of them the all-wide resolutions of 1 2 1 2 1 2 and 2 1 2 1 2 1 at
q14, where monic elimination picks the fewest rows);
the Borromean rings reduced at q4, three words of the `positive` benchmark
family at q6, and two `mixed` words at q8.  The qmax values keep the whole
table to about 20 seconds.

Frontier inputs, too slow for the unit tests (about 20 seconds): the
Borromean rings at q8 in both modes, T(3,4) reduced at q14, T(2,9)
reduced at q17, T(3,5) as 1 2 1 2 1 2 1 2 1 2 reduced at q12, and the
4-strand 2-component link 1 -2 -1 -3 -3 -2 reduced at q8.  The T(3,5) row
was appended once from that word's own cube (`word_homology`, 14.5 s), so
`--check` compares it with the table of the cheapest word that
`braid_homology` builds.  The 1 -2 -1 -3 -3 -2 row, a reduced link that
`braid_homology` builds as given, pins the edge images multiplied by a
standard monomial u != 1 of the target: one of its vertices keeps a
variable that a monic pick could not take.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from trigrad.braid import BraidWord, build_marked_diagram, parse_braid  # noqa: E402
from trigrad.cube import braid_homology, resolve  # noqa: E402
from trigrad.homology import graph_homology  # noqa: E402

PATH = os.path.join(os.path.dirname(__file__), "data", "golden_dims.json")
FRONTIER_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "frontier_dims.json")

MIXED_WORDS = [
    "1 1 1 -2 -2", "-2 2 -2 2 1", "-2 1 1 -1 1", "-2 -1 1 1 1",
    "-2 2 2 -1 2", "-2 1 -2 2 2", "-1 2 1 1 -2", "-1 2 1 2 -2",
    "-1 2 1 2 -1",
]

POSITIVE_WORDS = ["1 1 1 2 2 2 1", "1 2 1 2 1 2 1", "1 1 2 1 1 2 2"]


def _braid(word, qmax, reduced=False, marks=1):
    return {"kind": "braid", "braid": word, "qmax": qmax,
            "reduced": reduced, "marks": marks}


def _graph(word, mask, qmax):
    return {"kind": "graph", "braid": word, "mask": mask, "qmax": qmax}


CASES = (
    [
        _braid(word, qmax, reduced)
        for word, qmax in (("1 1 1 1 1", 8), ("1 1 1 1 1 1 1", 8),
                           ("1 -2 1 -2", 6), ("1 1 -2 1 -2", 4))
        for reduced in (False, True)
    ]
    + [_braid("1 1 1", 6, True, 2), _braid("1 -2 1 -2", 6, True, 2)]
    + [_braid(word, 2) for word in MIXED_WORDS]
    + [_graph("1 1 1 1 1 2", 31, 14), _graph("1 1 2 1 2 2", 55, 14),
       _graph("1 2 1 2 1 2", 63, 10), _graph("1 2 1 2 1 2", 63, 14),
       _graph("2 1 2 1 2 1", 63, 14)]
    + [_braid("1 -2 1 -2 1 -2", 4, True)]
    + [_braid(word, 6) for word in POSITIVE_WORDS]
    + [_braid(word, 8) for word in ("-1 2 1 2 -1", "1 1 1 -2 -2")]
)

FRONTIER = [_braid("1 -2 1 -2 1 -2", 8, True), _braid("1 -2 1 -2 1 -2", 8),
            _braid("1 2 1 2 1 2 1 2", 14, True),
            _braid("1 1 1 1 1 1 1 1 1", 17, True),
            _braid("1 2 1 2 1 2 1 2 1 2", 12, True),
            _braid("1 -2 -1 -3 -3 -2", 8, True)]


def case_id(case: dict) -> str:
    if case["kind"] == "graph":
        return f"graph {case['braid']} mask {case['mask']} q{case['qmax']}"
    mode = "reduced" if case["reduced"] else "unreduced"
    return f"{case['braid']} q{case['qmax']} {mode} marks {case['marks']}"


def compute(case: dict) -> dict[tuple[int, int, int], int]:
    word = parse_braid(case["braid"])
    if case["kind"] == "graph":
        graph = resolve(build_marked_diagram(word), case["mask"])
        return graph_homology(graph, case["qmax"]).dims
    return braid_homology(
        word, case["qmax"], reduced=case["reduced"],
        marks_per_segment=case["marks"],
    ).dims


def load(path: str = PATH) -> dict[str, dict[tuple[int, int, int], int]]:
    with open(path) as fh:
        rows = json.load(fh)
    return {
        row["id"]: {(j, k, l): d for j, k, l, d in row["dims"]} for row in rows
    }


def write(cases: list[dict], path: str) -> None:
    rows = [
        {"id": case_id(c), **c,
         "dims": [[j, k, l, d] for (j, k, l), d in sorted(compute(c).items())]}
        for c in cases
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


def check(cases: list[dict], path: str) -> int:
    golden = load(path)
    bad = [case_id(c) for c in cases if compute(c) != golden[case_id(c)]]
    for name in bad:
        print(f"mismatch: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--frontier" in args:
        args.remove("--frontier")
        cases, path = FRONTIER, FRONTIER_PATH
    else:
        cases, path = CASES, PATH
    if args == ["--check"]:
        sys.exit(check(cases, path))
    if args:
        sys.exit(f"usage: {sys.argv[0]} [--frontier] [--check]")
    write(cases, path)
