"""`braid_homology` builds the cube of `braid.cheapest_word`, a word that
moves with shift (0, 0, 0) reach from the given one.  The rewrite must
leave every table exactly as the given word's own cube (`word_homology`)
gives it, and it must be a chain of checked `apply_markov` moves."""

from hypothesis import given, settings
from hypothesis import strategies as st

import trigrad.braid as braid
import trigrad.cube as cube
from trigrad.braid import (
    SEARCH_CAP,
    BraidWord,
    MarkovMove,
    apply_markov,
    cheapest_word,
    closure_components,
    parse_braid,
)
from trigrad.cube import braid_homology, word_homology

SHIFT_FREE = {"cancel-pair", "destabilize", "braid-relation", "far-commute",
              "conjugate"}


@st.composite
def braids(draw, max_size=6):
    strands = draw(st.integers(2, 3))
    alphabet = [s for s in range(1 - strands, strands) if s]
    letters = draw(st.lists(st.sampled_from(alphabet), max_size=max_size))
    return BraidWord(strands, tuple(letters))


@settings(max_examples=35, deadline=None, derandomize=True, database=None)
@given(braids(), st.booleans(), st.sampled_from([1, 2]))
def test_the_rewritten_table_is_the_raw_table(b, reduced, marks):
    qmax = 6
    assert (braid_homology(b, qmax, reduced, marks_per_segment=marks).dims
            == word_homology(b, qmax, reduced, marks_per_segment=marks).dims)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(braids(max_size=8))
def test_the_rewrite_is_a_chain_of_shift_free_moves(b):
    best, moves = cheapest_word(b)
    word = b
    for mv in moves:
        assert mv.kind in SHIFT_FREE and mv.letter is None
        if mv.kind == "destabilize":
            assert word.letters[-1] > 0
        moved = apply_markov(word, mv)
        assert len(moved.letters) <= len(word.letters)
        word = moved
    assert word == best
    assert braid._cost(best) <= braid._cost(b)


def test_the_search_shrinks_and_stops_at_its_cap(monkeypatch):
    # σ1⁻¹σ1 cancels and σ2 destabilises; the rest is the trefoil
    assert cheapest_word(parse_braid("-1 1 1 1 1 2"))[0] == parse_braid("1 1 1")
    # T(3,5) as (σ1σ2)^5 reaches more positive words than the cap
    start, reached = parse_braid("1 2 1 2 1 2 1 2 1 2"), []
    real = braid.apply_markov
    monkeypatch.setattr(braid, "apply_markov",
                        lambda b, mv: reached.append(real(b, mv)) or reached[-1])
    cheapest_word(start)
    assert len({start, *reached}) == SEARCH_CAP


def test_a_shifting_move_fails_the_comparison(monkeypatch):
    # negative control: dropping a negative last letter shifts the table by
    # (1, -1, -1), so a search that also takes that move must be caught
    real = braid._shift_free_moves

    def also_negative(b):
        w, n = b.letters, b.strands
        if w and w[-1] == 1 - n and all(abs(s) != n - 1 for s in w[:-1]):
            return real(b) + [MarkovMove("destabilize")]
        return real(b)

    monkeypatch.setattr(braid, "_shift_free_moves", also_negative)
    b = parse_braid("1 1 -2")
    assert cheapest_word(b)[0] == parse_braid("1 1")
    assert braid_homology(b, 6).dims != word_homology(b, 6).dims


def test_a_reduced_link_and_a_named_basepoint_keep_the_word(monkeypatch):
    built = []
    real = cube.word_homology
    monkeypatch.setattr(cube, "word_homology",
                        lambda b, *args: built.append(b) or real(b, *args))
    link, knot = parse_braid("1 -1 1 1"), parse_braid("-1 1 1 1 1")
    assert closure_components(link) == 2 and closure_components(knot) == 1
    braid_homology(link, 4, reduced=True)
    braid_homology(link, 4)
    braid_homology(knot, 4, reduced=True)
    braid_homology(knot, 4, reduced=True, basepoint="x2")
    assert built == [link, parse_braid("1 1"), parse_braid("1 1 1"), knot]
