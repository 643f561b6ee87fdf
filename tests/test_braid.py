import random

import pytest

from trigrad.braid import (
    BraidWord,
    InvalidMoveError,
    MarkovMove,
    apply_markov,
    braid_permutation,
    build_marked_diagram,
    closure_components,
    conjugate_by,
    parse_braid,
    render_braid,
)


class TestParse:
    def test_direct(self):
        b = parse_braid("1 1 1")
        assert b == BraidWord(2, (1, 1, 1))

    def test_figure_eight_presentation(self):
        b = parse_braid("1 -2 1 -2")
        assert b == BraidWord(3, (1, -2, 1, -2))

    def test_trivial_one_strand(self):
        b = parse_braid("", strands=1)
        assert b == BraidWord(1, ())

    def test_prefix_strand_count(self):
        assert parse_braid("n=4 1 2") == BraidWord(4, (1, 2))

    def test_prefix_and_argument_must_agree(self):
        assert parse_braid("n=3 1", strands=3) == BraidWord(3, (1,))
        with pytest.raises(ValueError, match=r"n=3.*strands=5"):
            parse_braid("n=3 1", strands=5)

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            parse_braid("1 0 2")

    def test_letter_too_large(self):
        with pytest.raises(ValueError):
            parse_braid("3", strands=2)

    def test_roundtrip(self):
        for text in ["1 1 1", "n=3 1 1", "1 -2 1 -2", "n=1"]:
            b = parse_braid(text)
            assert parse_braid(render_braid(b)) == b


class TestClosure:
    def test_trefoil_one_component(self):
        assert closure_components(parse_braid("1 1 1")) == 1

    def test_hopf_square_two_components(self):
        assert closure_components(parse_braid("1 1")) == 2

    def test_figure_eight_by_explicit_composition(self):
        # compose the four transpositions by hand and count cycles
        perm = list(range(3))

        def swap(i):
            perm[i - 1], perm[i] = perm[i], perm[i - 1]

        for s in (1, -2, 1, -2):
            swap(abs(s))
        # perm as position map; cycles of start -> end
        end = {perm[p]: p for p in range(3)}
        seen, cycles = set(), 0
        for i in range(3):
            if i in seen:
                continue
            cycles += 1
            j = i
            while j not in seen:
                seen.add(j)
                j = end[j]
        assert cycles == 1
        assert closure_components(parse_braid("1 -2 1 -2")) == cycles


class TestMarkov:
    def test_stabilize_positive(self):
        b = apply_markov(parse_braid("1 1 1"), MarkovMove("stabilize-positive"))
        assert b == BraidWord(3, (1, 1, 1, 2))

    def test_conjugate_rotation_fixes_power(self):
        b = apply_markov(parse_braid("1 1 1"), MarkovMove("conjugate", pos=1))
        assert b == BraidWord(2, (1, 1, 1))

    def test_braid_relation(self):
        b = apply_markov(parse_braid("1 2 1"), MarkovMove("braid-relation", pos=0))
        assert b == BraidWord(3, (2, 1, 2))

    def test_braid_relation_invalid_position(self):
        with pytest.raises(InvalidMoveError):
            apply_markov(parse_braid("1 1 1"), MarkovMove("braid-relation", pos=0))

    def test_far_commute(self):
        b = apply_markov(parse_braid("1 3 2"), MarkovMove("far-commute", pos=0))
        assert b == BraidWord(4, (3, 1, 2))
        with pytest.raises(InvalidMoveError):
            apply_markov(parse_braid("1 2"), MarkovMove("far-commute", pos=0))

    def test_cancel_pair(self):
        b = apply_markov(parse_braid("1 -1 2"), MarkovMove("cancel-pair", pos=0))
        assert b == BraidWord(3, (2,))
        b2 = apply_markov(b, MarkovMove("cancel-pair", pos=1, letter=1))
        assert b2 == BraidWord(3, (2, 1, -1))

    def test_destabilize(self):
        b = apply_markov(parse_braid("1 1 1 2"), MarkovMove("destabilize"))
        assert b == BraidWord(2, (1, 1, 1))
        with pytest.raises(InvalidMoveError):
            apply_markov(parse_braid("1 2 1"), MarkovMove("destabilize"))

    def test_conjugate_by_letter(self):
        b = conjugate_by(parse_braid("1 1 1"), 1)
        assert b == BraidWord(2, (-1, 1, 1, 1, 1))

    def test_moves_preserve_components(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 4)
            letters = tuple(
                rng.choice([1, -1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, 6))
            )
            b = BraidWord(n, letters)
            c = closure_components(b)
            rot = apply_markov(b, MarkovMove("conjugate", pos=rng.randint(0, len(letters))))
            assert closure_components(rot) == c
            stab = apply_markov(b, MarkovMove("stabilize-positive"))
            assert closure_components(stab) == c
            stabn = apply_markov(b, MarkovMove("stabilize-negative"))
            assert closure_components(stabn) == c


class TestMarkedDiagram:
    def test_single_circle(self):
        d = build_marked_diagram(parse_braid("", strands=1))
        assert d.nvars == 1
        assert d.crossings == ()
        assert d.arcs == ((0, 0),)

    def test_one_crossing_counts(self):
        d = build_marked_diagram(parse_braid("1"))
        # two bottom marks plus two outgoing marks at the crossing
        assert d.nvars == 4
        assert len(d.crossings) == 1
        c = d.crossings[0]
        assert (c.x4, c.x3) == (0, 1)  # incoming = bottom marks
        assert (c.x1, c.x2) == (2, 3)
        assert len(d.arcs) == 2

    def test_extra_marks_add_arcs(self):
        d1 = build_marked_diagram(parse_braid("1"), marks_per_segment=1)
        d2 = build_marked_diagram(parse_braid("1"), marks_per_segment=2)
        assert d2.nvars == d1.nvars + 4  # one extra per segment
        assert len(d2.arcs) == len(d1.arcs) + 4

    def test_permutation_matches_letters(self):
        b = parse_braid("1 -2 1 -2")
        perm = braid_permutation(b)
        assert sorted(perm) == [0, 1, 2]
