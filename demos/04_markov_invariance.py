"""Link invariance in action: different braid presentations of the same
link have the same homology up to one overall (j, k, l) shift.  Each table
comes from its own word's cube (`word_homology`): `braid_homology` would
first rewrite every presentation to the cheapest word it can reach.

Run:  python3 demos/04_markov_invariance.py
"""

from trigrad import (
    MarkovMove,
    apply_markov,
    compare_up_to_shift,
    parse_braid,
    render_braid,
    word_homology,
)

qmax = 10
tre = parse_braid("1 1 1")
h = word_homology(tre, qmax)

presentations = {
    "positive stabilization": apply_markov(tre, MarkovMove("stabilize-positive")),
    "negative stabilization": apply_markov(tre, MarkovMove("stabilize-negative")),
    "rotated stabilization": apply_markov(
        apply_markov(tre, MarkovMove("stabilize-positive")),
        MarkovMove("conjugate", pos=2),
    ),
}
# one more: rewrite 1 2 1 1 by the braid relation to 2 1 2 1
rot = apply_markov(
    apply_markov(tre, MarkovMove("stabilize-positive")),
    MarkovMove("conjugate", pos=2),
)
presentations["braid relation"] = apply_markov(rot, MarkovMove("braid-relation", pos=0))

for label, b2 in presentations.items():
    h2 = word_homology(b2, qmax)
    shift = compare_up_to_shift(h, h2)
    print(f"{label:24} {render_braid(b2):16} shift (dj,dk,dl) = {shift}")

# A presentation of a *different* link admits no shift at all.
hopf = word_homology(parse_braid("1 1"), qmax)
print("\ntrefoil vs hopf:", compare_up_to_shift(h, hopf))
