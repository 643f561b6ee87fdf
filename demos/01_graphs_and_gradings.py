"""A first walk through the graded machinery: closed planar graphs, their
Koszul matrices, and bigraded homology.

Run:  python3 demos/01_graphs_and_gradings.py
"""

from trigrad import (
    ResolutionGraph,
    aggregate_a,
    graph_homology,
    koszul_of_graph,
    strip_a,
)

# The simplest closed graph: one circle carrying a single mark x1.
circle = ResolutionGraph(("x1",), arcs=(("x1", "x1"),))
m = koszul_of_graph(circle)
print("circle Koszul matrix:")
print(m.dump())

# Its homology is a free polynomial module shifted into bidegree (-1, 1):
# one dimension in each slice (k, l) = (-1, 1 + 2i).
h = graph_homology(circle, 9)
print("\ncircle homology dims (k, l) -> dim:")
for (j, k, l), d in h.items_sorted():
    print(f"  ({k:3d},{l:3d}) -> {d}")

# The theta graph: a wide edge closed up by two arcs.  Aggregation collects
# the variable `a` into a single (a, 0) row in one pass, which strip_a
# removes together with `a` itself, at the cost of a global {-1,1} shift.
# strip_a aggregates on its own, so strip_a(m) is the same matrix.
theta = ResolutionGraph(
    ("x1", "x2", "x3", "x4"),
    arcs=(("x1", "x3"), ("x2", "x4")),
    wides=(("x1", "x2", "x3", "x4"),),
)
m = koszul_of_graph(theta)
print("\ntheta before aggregation:")
print(m.dump())
stripped = strip_a(aggregate_a(m))
print("\ntheta after aggregate + strip:")
print(stripped.dump())

print("\ntheta homology dims:")
for (j, k, l), d in graph_homology(theta, 9).items_sorted():
    print(f"  ({k:3d},{l:3d}) -> {d}")
