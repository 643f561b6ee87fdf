"""Named graphs and factorizations used by the hom-space and graph-homology
entry points: the eight resolutions of the three-crossing tangle (gamma000
.. gamma111), the Upsilon factorization, trivial-braid factorizations s2/s3,
and the closed diagrams circle, theta, and the closures of Upsilon and of
gamma1..gamma4.

Open diagrams share the boundary x1, x2, x3 (top, outgoing) and x4, x5, x6
(bottom, incoming), so they all live in the category with potential
a(x1+x2+x3-x4-x5-x6) (or the two-strand analogue for s2).
"""

from __future__ import annotations

from .koszul import (
    KoszulMatrix,
    ResolutionGraph,
    build_upsilon,
    koszul_of_graph,
    matrix_to_ring,
    tensor_matrices,
)

_X6 = tuple(f"x{i}" for i in range(1, 7))


def _graph(arcs=(), wides=(), extra_vars=()) -> ResolutionGraph:
    used = set(extra_vars)
    for t, h in arcs:
        used.update((t, h))
    for w in wides:
        used.update(w)
    names = tuple(
        n for n in (_X6 + tuple(f"x{i}" for i in range(7, 12))) if n in used
    )
    return ResolutionGraph(names, tuple(arcs), tuple(wides))


OPEN_GRAPHS: dict[str, ResolutionGraph] = {
    "gamma000": _graph(arcs=[("x4", "x1"), ("x5", "x2"), ("x6", "x3")]),
    "gamma100": _graph(arcs=[("x6", "x3")], wides=[("x1", "x2", "x5", "x4")]),
    "gamma010": _graph(arcs=[("x4", "x1")], wides=[("x2", "x3", "x6", "x5")]),
    "gamma001": _graph(arcs=[("x6", "x3")], wides=[("x1", "x2", "x5", "x4")]),
    "gamma110": _graph(
        wides=[("x1", "x2", "x7", "x4"), ("x7", "x3", "x6", "x5")]
    ),
    "gamma011": _graph(
        wides=[("x1", "x7", "x5", "x4"), ("x2", "x3", "x6", "x7")]
    ),
    "gamma101": _graph(
        arcs=[("x6", "x3")],
        wides=[("x1", "x2", "x8", "x7"), ("x7", "x8", "x5", "x4")],
    ),
    "gamma111": _graph(
        arcs=[("x10", "x3")],
        wides=[
            ("x7", "x8", "x5", "x4"),
            ("x9", "x10", "x6", "x8"),
            ("x1", "x2", "x9", "x7"),
        ],
    ),
    # the four diagrams of the wide-edge triangle decomposition
    "gamma1": _graph(
        wides=[
            ("x1", "x2", "x7", "x8"),
            ("x7", "x3", "x6", "x9"),
            ("x8", "x9", "x5", "x4"),
        ]
    ),
    "gamma2": _graph(arcs=[("x4", "x1")], wides=[("x2", "x3", "x6", "x5")]),
    "gamma3": _graph(
        arcs=[("x9", "x1")],
        wides=[
            ("x7", "x8", "x6", "x5"),
            ("x9", "x10", "x7", "x4"),
            ("x2", "x3", "x8", "x10"),
        ],
    ),
    "gamma4": _graph(arcs=[("x6", "x3")], wides=[("x1", "x2", "x5", "x4")]),
    "s3": _graph(arcs=[("x4", "x1"), ("x5", "x2"), ("x6", "x3")]),
    "s2": ResolutionGraph(
        ("x1", "x2", "x3", "x4"), (("x3", "x1"), ("x4", "x2")), ()
    ),
}


def open_matrix(name: str) -> KoszulMatrix:
    if name == "upsilon":
        return build_upsilon()
    if name not in OPEN_GRAPHS:
        raise KeyError(f"unknown graph {name!r}")
    return koszul_of_graph(OPEN_GRAPHS[name])


def hom_pair(name_src: str, name_tgt: str) -> tuple[KoszulMatrix, KoszulMatrix]:
    """The two named factorizations (hom_space_dim unifies their rings)."""
    return open_matrix(name_src), open_matrix(name_tgt)


def _closure_matrix(m: KoszulMatrix, pairs) -> KoszulMatrix:
    """Glue boundary pairs (top, bottom) with arcs top -> bottom; the
    result is checked closed where it is used (`koszul.strip_a`)."""
    g = ResolutionGraph(tuple(n for n in m.ring.names if n != "a"),
                        tuple(pairs))
    return tensor_matrices(m, matrix_to_ring(koszul_of_graph(g), m.ring))


def closed_matrix(name: str) -> KoszulMatrix:
    if name == "circle":
        return koszul_of_graph(
            ResolutionGraph(("x1",), (("x1", "x1"),), ())
        )
    if name == "theta":
        return koszul_of_graph(
            ResolutionGraph(
                ("x1", "x2", "x3", "x4"),
                (("x1", "x3"), ("x2", "x4")),
                (("x1", "x2", "x3", "x4"),),
            )
        )
    base = name.removesuffix("-closure")
    if base != name and base in OPEN_NAMES:
        m = open_matrix(base)
        if "x6" in m.ring.names:  # glue x1..x3 to x4..x6
            return _closure_matrix(m, [("x1", "x4"), ("x2", "x5"), ("x3", "x6")])
    raise KeyError(f"unknown closed graph {name!r}")


OPEN_NAMES = tuple(sorted(OPEN_GRAPHS)) + ("upsilon",)
