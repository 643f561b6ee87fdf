"""Regenerate strata.py, the tables that fix how the `mixed` and `oracle`
workloads draw their inputs.

The work of a job is measured as the number of Python and builtin function
calls it makes, counted with sys.setprofile from a fixed cache state (the
monomial cache empty, the trace memo full).  The count is exact and repeats
on any machine and under any hash seed; within these two families it tracks
the job's time far better than any size of the input does.

- mixed: the call count of every word.
- oracle: for each of the 512 sign prefixes, the total number of
  denominator terms of F over its skein triple; the ORACLE_KEEP prefixes
  with the fewest terms form the workload (the rest carry a tail of triples
  up to 34 s long that no run of a few dozen jobs averages out), and for
  those the call count of the triple.

The tables are part of the benchmark's definition: regenerating them after
trigrad changes would change the workloads, so do that only in a change
that redefines the benchmark.  Takes about 90 minutes on one core:

    python3 perfbench/make_strata.py
"""

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import trigrad.algebra as algebra  # noqa: E402
import trigrad.homfly as homfly  # noqa: E402

from workloads import Mixed, Oracle, mixed_words, oracle_triple  # noqa: E402

ORACLE_KEEP = 128


def call_count(run, prepared) -> int:
    """Function calls made by run(prepared), from an empty monomial cache."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    algebra._monomials_cached.cache_clear()
    sys.setprofile(profile)
    try:
        run(prepared)
    finally:
        sys.setprofile(None)
    return calls


def write_tables(mixed_calls, den_terms, oracle_calls) -> None:
    lines = [
        '"""Generated by make_strata.py.',
        "",
        "MIXED_CALLS[word]: function calls made by the `mixed` job on word.",
        "ORACLE_DEN_TERMS[code]: denominator terms of F over the skein",
        "triple of the oracle prefix `code`.  ORACLE_CALLS[code]: function",
        "calls made by the `oracle` job on that triple, for the kept",
        'prefixes."""',
        "",
        "MIXED_CALLS = {",
    ]
    lines += [f"    {w}: {n}," for w, n in sorted(mixed_calls.items())]
    lines += ["}", "", "ORACLE_DEN_TERMS = ["]
    for i in range(0, len(den_terms), 8):
        lines.append(
            "    " + ", ".join(str(t) for t in den_terms[i:i + 8]) + ","
        )
    lines += ["]", "", "ORACLE_CALLS = {"]
    lines += [f"    {c}: {n}," for c, n in sorted(oracle_calls.items())]
    lines.append("}")
    with open(os.path.join(HERE, "strata.py"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> None:
    mixed, oracle = Mixed(), Oracle()
    mixed_calls = {}
    for word in mixed_words():
        mixed_calls[word] = call_count(mixed.run, mixed.prepare(word))
        print("mixed", word, mixed_calls[word], file=sys.stderr, flush=True)
    den_terms = [
        sum(len(homfly.homfly_F(b).den.terms) for b in oracle_triple(code))
        for code in range(512)
    ]
    for w in itertools.permutations(range(5)):
        homfly._trace_basis(5, w)
    keep = sorted(range(512), key=lambda c: (den_terms[c], c))[:ORACLE_KEEP]
    oracle_calls = {}
    for code in keep:
        oracle_calls[code] = call_count(oracle.run, oracle.prepare(code))
        print("oracle", code, oracle_calls[code], file=sys.stderr, flush=True)
    write_tables(mixed_calls, den_terms, oracle_calls)


if __name__ == "__main__":
    main()
