"""Braid words, Markov moves, and marked closure diagrams.

Conventions: strands run upward, the closure is clockwise.  The letter ``i``
(resp. ``-i``) is a positive (negative) crossing of the strands at positions
``i-1`` and ``i`` (0-indexed).  At every crossing the four adjacent marks are
recorded as x1 (top-left), x2 (top-right), x3 (bottom-right), x4 (bottom-left),
so the oriented smoothing joins x4->x1 and x3->x2, matching the local potential
``a(x1+x2-x3-x4)``.
"""

from __future__ import annotations

from dataclasses import dataclass


class InvalidMoveError(ValueError):
    """A Markov move that is not applicable at its stated position."""


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strands must be >= 1")
        for s in self.letters:
            if s == 0 or abs(s) >= self.strands:
                raise ValueError(f"letter {s} invalid for {self.strands} strands")

    def positive_count(self) -> int:
        return sum(1 for s in self.letters if s > 0)

    def negative_count(self) -> int:
        return sum(1 for s in self.letters if s < 0)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed integers; a leading ``n=<count>``
    token or the `strands` argument (equal if both) fixes the strand count."""
    tokens = text.split()
    if tokens and tokens[0].startswith("n="):
        if strands not in (None, int(tokens[0][2:])):
            raise ValueError(f"{tokens[0]} prefix disagrees with strands={strands}")
        strands, tokens = int(tokens[0][2:]), tokens[1:]
    letters = []
    for tok in tokens:
        s = int(tok)
        if s == 0:
            raise ValueError("0 is not a braid letter")
        letters.append(s)
    if strands is None:
        strands = max((abs(s) for s in letters), default=0) + 1
    for s in letters:
        if abs(s) >= strands:
            raise ValueError(f"letter {s} needs more than {strands} strands")
    return BraidWord(strands, tuple(letters))


def render_braid(b: BraidWord) -> str:
    inferred = max((abs(s) for s in b.letters), default=0) + 1
    body = " ".join(str(s) for s in b.letters)
    if b.strands != inferred:
        return f"n={b.strands} {body}".strip()
    return body


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """perm[p] = top position reached by the strand entering at bottom
    position p."""
    pos = list(range(b.strands))  # pos[i] = strand currently at position i
    for s in b.letters:
        i = abs(s)
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    perm = [0] * b.strands
    for position, strand in enumerate(pos):
        perm[strand] = position
    return tuple(perm)


def closure_components(b: BraidWord) -> int:
    perm = braid_permutation(b)
    seen = [False] * b.strands
    cycles = 0
    for i in range(b.strands):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


# ---------------------------------------------------------------------------
# Markov moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovMove:
    """One Markov/braid-presentation move.

    kind/parameters:
      * "conjugate": rotate the word left by `pos` letters (DD' <-> D'D)
      * "far-commute": swap letters at `pos`, `pos+1` (|i|, |j| differ by >1)
      * "cancel-pair": delete letters at `pos`, `pos+1` if mutually inverse;
        with `letter` given, insert [letter, -letter] at `pos` instead
      * "braid-relation": rewrite [i, i±1, i] at `pos` to [i±1, i, i±1]
      * "stabilize-positive"/"stabilize-negative": append sigma_n^{±1}
      * "destabilize": remove a trailing ±(n-1) whose index occurs only there
    """

    kind: str
    pos: int = 0
    letter: int | None = None


def conjugate_by(b: BraidWord, letter: int) -> BraidWord:
    """g^{-1} w g for a single generator g; convenience for the invariance
    harness (rotations of short words are often trivial)."""
    if letter == 0 or abs(letter) >= b.strands:
        raise InvalidMoveError(f"letter {letter} invalid for {b.strands} strands")
    return BraidWord(b.strands, (-letter,) + b.letters + (letter,))


def apply_markov(b: BraidWord, mv: MarkovMove) -> BraidWord:
    w = list(b.letters)
    n = b.strands
    k = mv.kind
    if k == "conjugate":
        if not 0 <= mv.pos <= len(w):
            raise InvalidMoveError(f"rotation {mv.pos} out of range")
        return BraidWord(n, tuple(w[mv.pos :] + w[: mv.pos]))
    if k == "far-commute":
        p = mv.pos
        if not 0 <= p < len(w) - 1:
            raise InvalidMoveError("position out of range")
        if abs(abs(w[p]) - abs(w[p + 1])) <= 1:
            raise InvalidMoveError("letters are not far apart")
        w[p], w[p + 1] = w[p + 1], w[p]
        return BraidWord(n, tuple(w))
    if k == "cancel-pair":
        p = mv.pos
        if mv.letter is not None:
            if not 0 <= p <= len(w):
                raise InvalidMoveError("position out of range")
            if mv.letter == 0 or abs(mv.letter) >= n:
                raise InvalidMoveError("invalid letter")
            return BraidWord(n, tuple(w[:p] + [mv.letter, -mv.letter] + w[p:]))
        if not 0 <= p < len(w) - 1:
            raise InvalidMoveError("position out of range")
        if w[p] != -w[p + 1]:
            raise InvalidMoveError("letters are not an inverse pair")
        return BraidWord(n, tuple(w[:p] + w[p + 2 :]))
    if k == "braid-relation":
        p = mv.pos
        if not 0 <= p < len(w) - 2:
            raise InvalidMoveError("position out of range")
        a, c, e = w[p], w[p + 1], w[p + 2]
        if a != e or a <= 0 or c <= 0 or abs(a - c) != 1:
            raise InvalidMoveError("no braid relation at this position")
        w[p : p + 3] = [c, a, c]
        return BraidWord(n, tuple(w))
    if k == "stabilize-positive":
        return BraidWord(n + 1, b.letters + (n,))
    if k == "stabilize-negative":
        return BraidWord(n + 1, b.letters + (-n,))
    if k == "destabilize":
        if not w or abs(w[-1]) != n - 1:
            raise InvalidMoveError("last letter is not sigma_{n-1}^{±1}")
        if any(abs(s) == n - 1 for s in w[:-1]):
            raise InvalidMoveError("sigma_{n-1} occurs elsewhere")
        return BraidWord(n - 1, tuple(w[:-1]))
    raise InvalidMoveError(f"unknown move kind {k!r}")


# the words `cheapest_word` visits at most
SEARCH_CAP = 200


def _shift_free_moves(b: BraidWord) -> list[MarkovMove]:
    """The moves of `cheapest_word` that apply to b.  Each leaves the table
    unchanged, with shift (0, 0, 0), and none lengthens the word."""
    w, n = b.letters, b.strands
    moves = [MarkovMove("cancel-pair", p)
             for p in range(len(w) - 1) if w[p] == -w[p + 1]]
    if w and w[-1] == n - 1 and all(abs(s) != n - 1 for s in w[:-1]):
        moves.append(MarkovMove("destabilize"))
    moves += [MarkovMove("braid-relation", p) for p in range(len(w) - 2)
              if w[p] == w[p + 2] > 0 and w[p + 1] > 0
              and abs(w[p] - w[p + 1]) == 1]
    moves += [MarkovMove("far-commute", p) for p in range(len(w) - 1)
              if abs(abs(w[p]) - abs(w[p + 1])) > 1]
    moves += [MarkovMove("conjugate", p) for p in range(1, len(w))]
    return moves


def _cost(b: BraidWord) -> tuple[int, int, int]:
    """(letters, cyclic runs of equal letters, strands): fewer letters make
    a smaller cube, and fewer runs make longer twist regions."""
    w = b.letters
    runs = sum(w[p] != w[p - 1] for p in range(len(w))) or min(len(w), 1)
    return len(w), runs, b.strands


def cheapest_word(b: BraidWord) -> tuple[BraidWord, list[MarkovMove]]:
    """The cheapest word by `_cost` among the first SEARCH_CAP words that a
    breadth-first search reaches from b through `_shift_free_moves`, the
    first found on a tie, and the moves that lead to it from b."""
    came_from: dict[BraidWord, tuple[BraidWord, MarkovMove] | None] = {b: None}
    queue, best, least = [b], b, _cost(b)
    for word in queue:
        for mv in _shift_free_moves(word):
            if len(came_from) == SEARCH_CAP:
                break
            nxt = apply_markov(word, mv)
            if nxt not in came_from:
                came_from[nxt] = (word, mv)
                queue.append(nxt)
                if (cost := _cost(nxt)) < least:
                    best, least = nxt, cost
        if len(came_from) == SEARCH_CAP:
            break
    moves, word = [], best
    while came_from[word] is not None:
        word, mv = came_from[word]
        moves.append(mv)
    return best, moves[::-1]


# ---------------------------------------------------------------------------
# Marked closure diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    sign: int
    x1: int  # outgoing, left
    x2: int  # outgoing, right
    x3: int  # incoming, right
    x4: int  # incoming, left


@dataclass(frozen=True)
class MarkedDiagram:
    """A braid closure with one variable per mark.

    `arcs` are the non-crossing pieces: (tail, head) contributes the Koszul
    row (a, x_head - x_tail); tail == head is a circle with one mark.
    """

    nvars: int
    crossings: tuple[Crossing, ...]
    arcs: tuple[tuple[int, int], ...]

    def var_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.nvars))


def build_marked_diagram(b: BraidWord, marks_per_segment: int = 1) -> MarkedDiagram:
    if marks_per_segment < 1:
        raise ValueError("marks_per_segment must be >= 1")
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    bottom = [fresh() for _ in range(b.strands)]
    cur = list(bottom)
    arcs: list[tuple[int, int]] = []
    crossings: list[Crossing] = []

    def pad(pos: int, extra: int):
        nonlocal cur
        for _ in range(extra):
            u = fresh()
            arcs.append((cur[pos], u))
            cur[pos] = u

    for s in b.letters:
        i = abs(s)
        left, right = i - 1, i
        pad(left, marks_per_segment - 1)
        pad(right, marks_per_segment - 1)
        x4, x3 = cur[left], cur[right]
        x1, x2 = fresh(), fresh()
        crossings.append(Crossing(1 if s > 0 else -1, x1, x2, x3, x4))
        cur[left], cur[right] = x1, x2
    for pos in range(b.strands):
        pad(pos, marks_per_segment - 1)
        arcs.append((cur[pos], bottom[pos]))
    return MarkedDiagram(counter, tuple(crossings), tuple(arcs))
