"""Command-line entry point.

Subcommands: homology, homfly, euler-check, invariance, hom-dim,
graph-homology.  Exit codes: 0 success / check passed; 1 check failed;
2 braid parse error; 3 configuration violation or usage error;
4 inconclusive comparison window.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from . import catalog
from .algebra import Bidegree, LaurentQT, QSeries, RationalQT, qt_expand
from .braid import (
    BraidWord,
    InvalidMoveError,
    MarkovMove,
    apply_markov,
    build_marked_diagram,
    closure_components,
    conjugate_by,
    parse_braid,
    render_braid,
)
from .cube import TooManyMarks, braid_homology, check_marks, word_homology
from .homfly import TooManyStrands, homfly_F, tilde_of_F
from .homology import (
    InconclusiveComparison,
    PotentialMismatch,
    TriGradedDims,
    WorkLimitExceeded,
    compare_up_to_shift,
    euler_characteristic,
    hom_space_dim,
    matrix_homology,
)

EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_INCONCLUSIVE = 4
# slice elements (`complex_work` summed over the cube): 20x T(2,9) reduced
# at q17
MAX_WORK = 10**6


def _parse(text: str, strands: int | None) -> BraidWord:
    try:
        return parse_braid(text, strands)
    except ValueError as exc:
        click.echo(f"braid parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _config_error(message: str) -> NoReturn:
    click.echo(f"config violation: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def _check_config(qmax: int, marks: int = 1, max_work: int = 1) -> None:
    for flag, value in (("--qmax", qmax), ("--marks", marks),
                        ("--max-work", max_work)):
        if value < 1:
            _config_error(f"{flag} {value} must be >= 1")


def _homology(b: BraidWord, qmax: int, reduced: bool, basepoint: str | None,
              marks: int, max_work: int, raw: bool = False) -> TriGradedDims:
    """`braid_homology`, or with `raw` `word_homology` (b's own cube); exit
    3 when its predicted work is above max_work."""
    homology = word_homology if raw else braid_homology
    try:
        return homology(b, qmax, reduced=reduced, basepoint=basepoint,
                        marks_per_segment=marks, max_work=max_work)
    except WorkLimitExceeded as exc:
        _config_error(f"{render_braid(b)!r} up to --qmax {qmax} predicts "
                      f"{exc.args[0]} slice elements, above --max-work "
                      f"{max_work}")


def _check_diagram(
    b: BraidWord, reduced: bool, basepoint: str | None, marks: int
) -> None:
    """Exit 3 when b has too many marks (`cube.check_marks`, from the word
    alone, before any step walks its strands), or on a bad --basepoint."""
    try:
        check_marks(b, marks)
    except TooManyMarks as exc:
        _config_error(f"{render_braid(b)!r} at --marks {marks} has {exc}")
    if basepoint is None:
        return
    if not reduced:
        _config_error(f"--basepoint {basepoint} needs --reduced")
    names = build_marked_diagram(b, marks).var_names()
    if basepoint not in names:
        _config_error(
            f"--basepoint {basepoint} is not a mark of {render_braid(b)!r} "
            f"(marks x1..x{len(names)})"
        )


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _config_error(f"--out {out}: {exc.strerror or exc}")
    else:
        click.echo(text)


def dims_to_json(h: TriGradedDims) -> list:
    return [[j, k, l, d] for (j, k, l), d in h.items_sorted()]


def series_to_json(s: QSeries) -> list:
    return [
        [qe, [[te, str(c)] for te, c in sorted(s.coeffs[qe].items())]]
        for qe in sorted(s.coeffs)
    ]


def emit_result(
    braid: BraidWord, reduced: bool, h: TriGradedDims
) -> str:
    payload = {
        "braid": render_braid(braid),
        "reduced": reduced,
        "qmax": h.qmax,
        "dims": dims_to_json(h),
        "euler": series_to_json(euler_characteristic(h)),
    }
    return json.dumps(payload, separators=(",", ":"))


def poincare_text(h: TriGradedDims) -> str:
    """sum of dim * t^k q^l s^j, s marking the cube degree."""
    if not h.dims:
        return "0"
    parts = []
    for (j, k, l), d in h.items_sorted():
        factors = []
        if d != 1:
            factors.append(str(d))
        for sym, e in (("t", k), ("q", l), ("s", j)):
            if e == 1:
                factors.append(sym)
            elif e != 0:
                factors.append(f"{sym}^{e}")
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts)


class _Cli(click.Group):
    """Click's usage errors (unknown options, bad option values, missing
    arguments) exit 3 with click's one-line message: click's own code 2 is
    the braid parse error's here."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _usage_error(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _usage_error(exc)


class _BraidCommand(click.Command):
    """A command whose BRAID may start with "-" ("-1 2"): click lets
    unknown options through as arguments, so that such a braid parses, and
    a word that starts with "--" and is no option's value is refused here
    as the unknown option it is, before click would call it an extra
    argument."""

    ignore_unknown_options = True

    def parse_args(self, ctx, args):
        options = [p for p in self.get_params(ctx)
                   if isinstance(p, click.Option)]
        takes = {name: 0 if p.is_flag else p.nargs
                 for p in options for name in p.opts + p.secondary_opts}
        skip = 0
        for arg in args:
            if skip:
                skip -= 1
            elif arg == "--":
                break
            elif (name := arg.split("=", 1)[0]) in takes:
                skip = 0 if "=" in arg else takes[name]
            elif arg.startswith("--"):
                raise click.NoSuchOption(name, ctx=ctx)
        return super().parse_args(ctx, args)


def _usage_error(exc: click.UsageError) -> NoReturn:
    click.echo(f"usage error: {exc.format_message()}", err=True)
    sys.exit(EXIT_CONFIG)


@click.group(cls=_Cli, no_args_is_help=False)
def main():
    """Triply-graded link homology of braid closures, exactly."""


_common = [
    click.option("--strands", type=int, default=None, help="strand count override"),
    click.option("--qmax", type=int, default=12, show_default=True),
    click.option("--reduced", is_flag=True, default=False),
    click.option("--basepoint", type=str, default=None),
    click.option("--marks", type=int, default=1, show_default=True,
                 help="marks per strand segment"),
    click.option("--out", type=str, default=None),
    click.option("--max-work", type=int, default=MAX_WORK, show_default=True,
                 help="refuse a table predicted to need more slice elements"),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command(cls=_BraidCommand)
@click.argument("braid")
@common_options
@click.option("--json", "as_json", is_flag=True, default=False)
def homology(braid, strands, qmax, reduced, basepoint, marks, as_json, out,
             max_work):
    """Trigraded homology dims of the closure of BRAID."""
    _check_config(qmax, marks, max_work)
    b = _parse(braid, strands)
    _check_diagram(b, reduced, basepoint, marks)
    h = _homology(b, qmax, reduced, basepoint, marks, max_work)
    if as_json:
        _emit(emit_result(b, reduced, h), out)
        return
    lines = [
        f"braid: {render_braid(b)}  (strands {b.strands}, "
        f"components {closure_components(b)}, qmax {qmax}"
        + (", reduced" if reduced else "")
        + ")"
    ]
    lines.append(" j   k   l  dim")
    for (j, k, l), d in h.items_sorted():
        lines.append(f"{j:2d} {k:3d} {l:3d}  {d}")
    lines.append("poincare: " + poincare_text(h))
    _emit("\n".join(lines), out)


@main.command(cls=_BraidCommand)
@click.argument("braid")
@click.option("--strands", type=int, default=None)
@click.option("--qmax", type=int, default=12, show_default=True,
              help="cutoff for the q-series form")
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def homfly(braid, strands, qmax, as_json, out):
    """The oracle values F and F-tilde of the closure of BRAID."""
    _check_config(qmax)
    b = _parse(braid, strands)
    try:
        f = homfly_F(b)
    except TooManyStrands as exc:
        _config_error(f"{render_braid(b)!r} has {exc}")
    ft = tilde_of_F(b, f)
    ft_desc = f"({ft.value})" + (" * A" if ft.odd else "")
    if as_json:
        payload = {
            "braid": render_braid(b),
            "F": str(f),
            "F_series": series_to_json(qt_expand(f, qmax)),
            "F_tilde": ft_desc,
        }
        _emit(json.dumps(payload, separators=(",", ":")), out)
        return
    _emit(
        f"F = {f}\nF as q-series: {qt_expand(f, qmax)}\nF~ = {ft_desc}",
        out,
    )


@main.command("euler-check", cls=_BraidCommand)
@click.argument("braid")
@common_options
def euler_check(braid, strands, qmax, reduced, basepoint, marks, out, max_work):
    """Compare the homology Euler characteristic against the trace oracle.

    The homology comes from the reduced cube either way: without --reduced
    it is Hbar (x) Q[x] and the oracle side is F; with --reduced it is Hbar
    and the oracle side is F * (1 - q^2)."""
    _check_config(qmax, marks, max_work)
    b = _parse(braid, strands)
    _check_diagram(b, reduced, basepoint, marks)
    h = _homology(b, qmax, reduced, basepoint, marks, max_work)
    left = euler_characteristic(h)
    f, oracle = homfly_F(b), "F(D)"
    if reduced:
        f = f * RationalQT.from_laurent(LaurentQT({(0, 0): 1, (2, 0): -1}))
        oracle = "F(D)*(1 - q^2)"
    right = qt_expand(f, qmax)
    bad = left.first_difference(right)
    if bad is None:
        _emit(f"euler-check PASS: <D> = {oracle} for {render_braid(b)!r} "
              f"up to q^{qmax}", out)
        return
    lines = [
        f"euler-check FAIL at q^{bad}:",
        f"  homology: {sorted(left.coefficient(bad).items())}",
        f"  oracle:   {sorted(right.coefficient(bad).items())}",
    ]
    _emit("\n".join(lines), out)
    sys.exit(EXIT_FAIL)


# move name -> (MarkovMove kind, number of integer arguments); conjlet
# conjugates by one generator instead
_MOVES = {
    "conj": ("conjugate", 1),
    "conjlet": (None, 1),
    "far": ("far-commute", 1),
    "cancel": ("cancel-pair", 1),
    "insert": ("cancel-pair", 2),
    "braid": ("braid-relation", 1),
    "stab+": ("stabilize-positive", 0),
    "stab-": ("stabilize-negative", 0),
    "destab": ("destabilize", 0),
}


def parse_move(text: str) -> tuple[str, list]:
    head, *raw = text.split(":")
    if head not in _MOVES:
        _config_error(f"unknown move {text!r}")
    arity = _MOVES[head][1]
    if len(raw) != arity:
        _config_error(f"move {text!r} takes {arity} integer argument(s)")
    try:
        return head, [int(x) for x in raw]
    except ValueError:
        _config_error(f"move {text!r} has a non-integer argument")


def apply_move_text(b: BraidWord, text: str) -> BraidWord:
    head, args = parse_move(text)
    kind = _MOVES[head][0]
    try:
        if kind is None:
            return conjugate_by(b, args[0])
        return apply_markov(b, MarkovMove(kind, *args))
    except InvalidMoveError as exc:
        _config_error(f"invalid move {text!r}: {exc}")


@main.command(cls=_BraidCommand)
@click.argument("braid")
@click.option("--move", "moves", multiple=True, required=True,
              help="conj:K | conjlet:G | far:P | cancel:P | insert:P:G | "
                   "braid:P | stab+ | stab- | destab")
@common_options
def invariance(braid, moves, strands, qmax, reduced, basepoint, marks, out,
               max_work):
    """Compare homology before/after Markov moves, up to an overall shift.

    Each word's table comes from its own cube, not from the cheapest word
    that `homology` builds."""
    _check_config(qmax, marks, max_work)
    b = _parse(braid, strands)
    b2 = b
    for mv in moves:
        b2 = apply_move_text(b2, mv)
    for word in (b, b2):
        _check_diagram(word, reduced, basepoint, marks)
    h1, h2 = (_homology(word, qmax, reduced, basepoint, marks, max_work, True)
              for word in (b, b2))
    try:
        shift = compare_up_to_shift(h1, h2)
    except InconclusiveComparison as exc:
        _emit(f"invariance INCONCLUSIVE: {exc}", out)
        sys.exit(EXIT_INCONCLUSIVE)
    if shift is None:
        _emit(
            f"invariance FAIL: {render_braid(b)!r} vs {render_braid(b2)!r}",
            out,
        )
        sys.exit(EXIT_FAIL)
    _emit(
        f"invariance PASS: {render_braid(b)!r} -> {render_braid(b2)!r} "
        f"with shift (dj,dk,dl) = {shift}",
        out,
    )


@main.command("hom-dim")
@click.argument("src")
@click.argument("tgt")
@click.option("--bidegree", nargs=2, type=int, default=(0, 0), show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def hom_dim(src, tgt, bidegree, as_json, out):
    """dim Hom(SRC, TGT) among the named factorizations.

    Names: gamma000..gamma111, gamma1..gamma4, upsilon, s2, s3.
    """
    try:
        m, n = catalog.hom_pair(src, tgt)
    except KeyError as exc:
        _config_error(exc.args[0])
    try:
        d = hom_space_dim(m, n, Bidegree(*bidegree))
    except PotentialMismatch as exc:
        _config_error(f"{src!r} and {tgt!r} have different boundaries ({exc})")
    if as_json:
        _emit(json.dumps({"src": src, "tgt": tgt,
                          "bidegree": list(bidegree), "dim": d}), out)
    else:
        _emit(f"dim Hom({src}, {tgt}) at {tuple(bidegree)} = {d}", out)


@main.command("graph-homology")
@click.argument("name")
@click.option("--qmax", type=int, default=12, show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--out", type=str, default=None)
def graph_homology_cmd(name, qmax, as_json, out):
    """Bigraded homology of a named closed graph.

    Names: circle, theta, upsilon-closure, gamma1-closure..gamma4-closure.
    """
    _check_config(qmax)
    try:
        m = catalog.closed_matrix(name)
    except KeyError as exc:
        _config_error(exc.args[0])
    try:
        h = matrix_homology(m, qmax, max_work=MAX_WORK)
    except WorkLimitExceeded as exc:
        _config_error(f"{name!r} up to --qmax {qmax} predicts {exc.args[0]} "
                      f"slice elements, above {MAX_WORK}")
    if as_json:
        payload = {"graph": name, "qmax": qmax, "dims": dims_to_json(h)}
        _emit(json.dumps(payload, separators=(",", ":")), out)
        return
    lines = [f"graph: {name} (qmax {qmax})", " k   l  dim"]
    for (_, k, l), d in h.items_sorted():
        lines.append(f"{k:3d} {l:3d}  {d}")
    _emit("\n".join(lines), out)


if __name__ == "__main__":
    main()
