"""Structural facts that the Euler identity cannot see, on seeded random
braids of at most 3 strands and 4 letters: reduced homology does not depend
on the basepoint within a component, homology does not depend on the
number of marks per segment, and the reduced homology of a knot's mirror
is its dual."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigrad.braid import BraidWord, build_marked_diagram, closure_components
from trigrad.cube import braid_homology

SETTINGS = settings(
    max_examples=6, deadline=None, derandomize=True, database=None
)


@st.composite
def braids(draw):
    strands = draw(st.integers(2, 3))
    alphabet = [s for s in range(1 - strands, strands) if s]
    letters = draw(st.lists(st.sampled_from(alphabet), max_size=4))
    return BraidWord(strands, tuple(letters))


def _component_marks(b: BraidWord) -> list[str]:
    """The marks on the component of the first mark, in name order."""
    d = build_marked_diagram(b)
    parent = list(range(d.nvars))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    links = list(d.arcs)
    for c in d.crossings:
        links += [(c.x4, c.x2), (c.x3, c.x1)]
    for u, v in links:
        parent[find(u)] = find(v)
    names = d.var_names()
    return [names[i] for i in range(d.nvars) if find(i) == find(0)]


@SETTINGS
@given(braids())
def test_reduced_dims_do_not_depend_on_the_basepoint(b):
    marks = _component_marks(b)
    assume(len(marks) > 1)
    first = braid_homology(b, 6, reduced=True, basepoint=marks[0])
    last = braid_homology(b, 6, reduced=True, basepoint=marks[-1])
    assert first.dims == last.dims


@SETTINGS
@given(braids())
def test_dims_do_not_depend_on_marks_per_segment(b):
    one = braid_homology(b, 5, marks_per_segment=1)
    two = braid_homology(b, 5, marks_per_segment=2)
    assert one.dims == two.dims


@SETTINGS
@given(braids())
def test_mirror_knot_has_the_dual_reduced_homology(b):
    # on n strands the mirror's table is the table under
    # (j, k, l) -> (n - 1 - j, -1 - n - k, 3 - n - l), an involution;
    # an entry counts only where the cutoff keeps its image too
    assume(closure_components(b) == 1)
    n, qmax = b.strands, 6
    mirror = BraidWord(n, tuple(-s for s in b.letters))
    tables = (braid_homology(b, qmax, reduced=True),
              braid_homology(mirror, qmax, reduced=True))
    compared = 0
    for one, other in (tables, tables[::-1]):
        for (j, k, l), d in one.dims.items():
            image = (n - 1 - j, -1 - n - k, 3 - n - l)
            if image[2] <= qmax:
                assert other.dims.get(image, 0) == d, ((j, k, l), image)
                compared += 1
    assert compared
