"""The oracle's stdout, byte for byte, against tests/data/oracle_stdout.txt.

Each case is one `trigrad` invocation; the golden file holds, for each,
a ``$ trigrad ...`` header line and then the command's output.  Rewrite
the file with ``python tests/test_oracle_stdout.py`` only when a change
of output is intended, and say why.
"""

import os
import shlex

from click.testing import CliRunner

from trigrad import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "oracle_stdout.txt")

BRAIDS = [["", "--strands", "1"]] + [
    [w] for w in ("-1", "1 1", "1 1 1", "1 -2 1 -2", "-1 -1 -1",
                  "1 -2 1 -2 1 -2")
]
CASES = [["homfly"] + b + tail for b in BRAIDS for tail in ([], ["--json"])]
CASES.append(["euler-check", "1 1", "--reduced"])


def render() -> str:
    runner = CliRunner()
    out = []
    for argv in CASES:
        res = runner.invoke(cli.main, argv)
        assert res.exit_code == 0, (argv, res.output)
        out.append(f"$ trigrad {shlex.join(argv)}\n{res.output}")
    return "".join(out)


def test_oracle_stdout_is_unchanged():
    with open(GOLDEN) as fh:
        assert render() == fh.read()


if __name__ == "__main__":
    print(render(), end="")
