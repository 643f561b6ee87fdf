"""Structural facts that the Euler identity cannot see, on seeded random
braids of at most 3 strands and 4 letters: reduced homology does not depend
on the basepoint within a component, homology does not depend on the
number of marks per segment, the reduced homology of a knot's mirror is its
dual, and each braid relation or Markov move shifts the table by a fixed
trigrading."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigrad.braid import (
    BraidWord,
    MarkovMove,
    apply_markov,
    build_marked_diagram,
    closure_components,
)
from trigrad.cube import word_homology

SETTINGS = settings(
    max_examples=6, deadline=None, derandomize=True, database=None
)


def _alphabet(strands):
    return [s for s in range(1 - strands, strands) if s]


@st.composite
def braids(draw, min_size=0, max_size=4):
    strands = draw(st.integers(2, 3))
    letters = draw(st.lists(st.sampled_from(_alphabet(strands)),
                            min_size=min_size, max_size=max_size))
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
    first = word_homology(b, 6, reduced=True, basepoint=marks[0])
    last = word_homology(b, 6, reduced=True, basepoint=marks[-1])
    assert first.dims == last.dims


@SETTINGS
@given(braids())
def test_dims_do_not_depend_on_marks_per_segment(b):
    one = word_homology(b, 5, marks_per_segment=1)
    two = word_homology(b, 5, marks_per_segment=2)
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
    tables = (word_homology(b, qmax, reduced=True),
              word_homology(mirror, qmax, reduced=True))
    compared = 0
    for one, other in (tables, tables[::-1]):
        for (j, k, l), d in one.dims.items():
            image = (n - 1 - j, -1 - n - k, 3 - n - l)
            if image[2] <= qmax:
                assert other.dims.get(image, 0) == d, ((j, k, l), image)
                compared += 1
    assert compared


# (dj, dk, dl) with moved[(j + dj, k + dk, l + dl)] = table[(j, k, l)], in
# both modes; negative stabilisation was measured on reduced and unreduced
# tables at q8
SHIFTS = {
    "braid-relation": (0, 0, 0),
    "far-commute": (0, 0, 0),
    "cancel-pair": (0, 0, 0),
    "conjugate": (0, 0, 0),
    "stabilize-positive": (0, 0, 0),
    "stabilize-negative": (1, -1, -1),
}


@st.composite
def moved_braids(draw, kind):
    """(word, moved word) for one move of `kind`, each of at most 4
    letters before a stabilisation; far commutation runs on 4 strands."""
    if kind == "braid-relation":
        i, j = draw(st.sampled_from([(1, 2), (2, 1)]))
        extra = draw(st.lists(st.sampled_from(_alphabet(3)), max_size=1))
        pos = draw(st.integers(0, len(extra)))
        b = BraidWord(3, tuple(extra[:pos] + [i, j, i] + extra[pos:]))
    elif kind == "far-commute":
        pair = [draw(st.sampled_from([1, -1])), draw(st.sampled_from([3, -3]))]
        extra = draw(st.lists(st.sampled_from(_alphabet(4)), max_size=2))
        pos = draw(st.integers(0, len(extra)))
        b = BraidWord(4, tuple(extra[:pos] + draw(st.permutations(pair))
                               + extra[pos:]))
    elif kind == "cancel-pair":
        # σσ⁻¹ inserted into a short word, then deleted again
        short = draw(braids(max_size=2))
        pos = draw(st.integers(0, len(short.letters)))
        letter = draw(st.sampled_from(_alphabet(short.strands)))
        b = apply_markov(short, MarkovMove(kind, pos, letter))
        assert apply_markov(b, MarkovMove(kind, pos)) == short
        return b, short
    elif kind == "conjugate":
        b = draw(braids(min_size=2))
        pos = draw(st.integers(1, len(b.letters) - 1))
    else:
        b, pos = draw(braids()), 0
    return b, apply_markov(b, MarkovMove(kind, pos))


@pytest.mark.parametrize("kind", sorted(SHIFTS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data(), reduced=st.booleans(), marks=st.sampled_from([1, 2]))
def test_moves_shift_the_table_by_a_fixed_trigrading(kind, data, reduced,
                                                     marks):
    b, moved = data.draw(moved_braids(kind))
    # a rotation can carry the basepoint to another component of a link
    assume(not (reduced and kind == "conjugate" and closure_components(b) > 1))
    qmax = 6
    dj, dk, dl = SHIFTS[kind]
    table = word_homology(b, qmax, reduced=reduced, marks_per_segment=marks)
    other = word_homology(moved, qmax, reduced=reduced,
                           marks_per_segment=marks)
    # compare on the window both cutoffs cover
    image = {(j + dj, k + dk, l + dl): d for (j, k, l), d in table.dims.items()
             if l + dl <= qmax}
    window = {key: d for key, d in other.dims.items() if key[2] - dl <= qmax}
    assert image == window
    assert image
