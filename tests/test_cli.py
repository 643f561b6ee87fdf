import json
import os
import resource
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from trigrad import cli
from trigrad.homology import TriGradedDims


@pytest.fixture
def runner():
    return CliRunner()


def _bounded_cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a child process, bounded in time and address space, for
    inputs that would exhaust memory if their guard were lost."""
    def bound():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-m", "trigrad.cli", *args],
        capture_output=True, text=True, timeout=60, preexec_fn=bound,
        env=dict(os.environ, PYTHONPATH=src),
    )


class TestHomologyCommand:
    def test_unknot_table(self, runner):
        res = runner.invoke(cli.main, ["homology", "", "--strands", "1",
                                       "--qmax", "7"])
        assert res.exit_code == 0
        assert " 0  -1   1  1" in res.output
        assert "poincare: t^-1*q + t^-1*q^3 + t^-1*q^5 + t^-1*q^7" in res.output

    def test_json_roundtrip(self, runner):
        res = runner.invoke(
            cli.main, ["homology", "1 1", "--qmax", "6", "--json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["braid"] == "1 1"
        assert payload["qmax"] == 6
        assert payload["reduced"] is False
        # emit(parse(emit(x))) is stable
        h = TriGradedDims(
            {(j, k, l): d for j, k, l, d in payload["dims"]}, payload["qmax"]
        )
        from trigrad.braid import parse_braid

        again = cli.emit_result(parse_braid("1 1"), False, h)
        assert json.loads(again) == json.loads(res.output)

    def test_parse_error_exit_code(self, runner):
        res = runner.invoke(cli.main, ["homology", "1 0"])
        assert res.exit_code == cli.EXIT_PARSE

    def test_strands_disagreeing_with_the_prefix_is_a_parse_error(self, runner):
        res = runner.invoke(cli.main, ["homology", "n=3 1", "--strands", "5"])
        assert res.exit_code == cli.EXIT_PARSE
        errors = [ln for ln in res.output.splitlines() if ln]
        assert errors == ["braid parse error: n=3 prefix disagrees with strands=5"]

    def test_config_violation_exit_code(self, runner):
        res = runner.invoke(cli.main, ["homology", "1", "--qmax", "0"])
        assert res.exit_code == cli.EXIT_CONFIG

    def test_zero_marks_or_workers_exit_code(self, runner):
        res = runner.invoke(cli.main, ["homology", "1 1 1", "--marks", "0"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == "config violation: --marks 0 must be >= 1\n"

    def test_workers_option_is_a_usage_error(self, runner):
        res = runner.invoke(cli.main, ["homology", "1 1 1", "--workers", "2"])
        assert res.exit_code == cli.EXIT_CONFIG
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")

    def test_unknown_option_exit_code(self, runner):
        res = runner.invoke(cli.main, ["homology", "1 1 1", "--bogus"])
        assert res.exit_code == cli.EXIT_CONFIG
        line, = res.output.strip().splitlines()
        assert line.startswith("usage error: No such option")
        assert "--bogus" in line

    @pytest.mark.parametrize("args, name", [
        (["homology", "--bogus", "1 1 1"], "--bogus"),
        (["homology", "1 1 1", "--qmax=4", "--bogus=2"], "--bogus"),
        (["euler-check", "1", "--json"], "--json"),
        (["invariance", "1", "--move", "stab+", "--json"], "--json"),
        (["homfly", "1", "--reduced"], "--reduced"),
    ])
    def test_unknown_option_is_named_as_an_option(self, runner, args, name):
        # it was "Got unexpected extra argument (--json)"
        res = runner.invoke(cli.main, args)
        assert res.exit_code == cli.EXIT_CONFIG
        line, = res.output.strip().splitlines()
        assert line.startswith("usage error: No such option")
        assert name in line

    @pytest.mark.parametrize("args", [
        ["homology", "-1 2", "--qmax", "4"],
        ["homology", "--qmax", "4", "-1 2"],
        ["homology", "--out", "-", "-1 2", "--qmax", "4"],
    ])
    def test_braid_starting_with_a_minus_still_parses(self, runner, args,
                                                      tmp_path, monkeypatch):
        # "-" after --out is the option's value, a file name, not a braid
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0, res.output
        out = res.output or (tmp_path / "-").read_text()
        assert out.startswith("braid: -1 2  (strands 3")

    def test_bad_option_value_exit_code(self, runner):
        res = runner.invoke(cli.main, ["homology", "1 1 1", "--qmax", "abc"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert len(res.output.strip().splitlines()) == 1
        assert "'--qmax'" in res.output and "'abc'" in res.output

    def test_unknown_basepoint_exit_code(self, runner):
        res = runner.invoke(cli.main, ["homology", "1 1 1", "--reduced",
                                       "--basepoint", "x99"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert "x99" in res.output
        res = runner.invoke(cli.main, ["homology", "1 1 1",
                                       "--basepoint", "x1"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert "needs --reduced" in res.output

    def test_out_file(self, runner, tmp_path):
        path = tmp_path / "result.json"
        res = runner.invoke(
            cli.main,
            ["homology", "", "--strands", "1", "--qmax", "3", "--json",
             "--out", str(path)],
        )
        assert res.exit_code == 0
        assert json.loads(path.read_text())["dims"] == [[0, -1, 1, 1], [0, -1, 3, 1]]

    def test_unwritable_out_is_a_config_violation(self, runner, tmp_path):
        path = tmp_path / "missing" / "result.json"
        res = runner.invoke(cli.main, ["homology", "1", "--qmax", "3",
                                       "--out", str(path)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == (
            f"config violation: --out {path}: No such file or directory\n"
        )

    def test_work_guard_refuses_a_huge_qmax(self):
        # the whole (k, l) task list of this table once exhausted memory;
        # the guard refuses it before any slice is built
        res = _bounded_cli("homology", "1 1 1", "--reduced", "--qmax",
                           "99999999999999999999")
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        line, = res.stderr.splitlines()
        assert line.startswith("config violation: '1 1 1' up to --qmax "
                               "99999999999999999999 predicts ")
        assert line.endswith(" slice elements, above --max-work 1000000")

    def test_work_guard_stops_the_cube_walk(self):
        # T(2,14) at q27: the budget was once checked only after the whole
        # cube was built, which died with MemoryError under this bound
        start = time.monotonic()
        res = _bounded_cli("homology", " ".join(["1"] * 14), "--reduced",
                           "--qmax", "27")
        assert time.monotonic() - start < 10
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        line, = res.stderr.splitlines()
        assert line.startswith("config violation: ")
        assert line.endswith(" slice elements, above --max-work 1000000")

    @pytest.mark.parametrize("repeat", [1, 2])
    def test_work_guard_counts_a_vertex_before_it_is_realized(self, repeat):
        # the negatively stabilized unknot on 25 strands: the first vertex
        # has 2^24 row subsets, and realizing it before counting it hung
        word = " ".join([" ".join(str(-i) for i in range(1, 25))] * repeat)
        start = time.monotonic()
        res = _bounded_cli("homology", word, "--qmax", "4")
        assert time.monotonic() - start < 2
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        line, = res.stderr.splitlines()
        assert line.startswith("config violation: ")

    @pytest.mark.parametrize("marks, count", [("200", 1600), ("51", 408)])
    def test_marks_ceiling_refuses_a_large_diagram(self, marks, count):
        # 1 600 marks once ran out of memory in the shared reduction, before
        # any cube size was known; above 400 marks the diagram is refused
        res = _bounded_cli("homology", "1 1 1", "--qmax", "4", "--marks",
                           marks)
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        assert res.stderr == (f"config violation: '1 1 1' at --marks {marks} "
                              f"has {count} marks, above 400\n")

    @pytest.mark.parametrize("args, word, marks", [
        (("99999999999999999999", "--qmax", "3"), "99999999999999999999",
         10**20 + 2),
        (("1", "--strands", str(10**20)), f"n={10**20} 1", 10**20 + 2),
        (("1", "--strands", str(10**20), "--reduced"), f"n={10**20} 1",
         10**20 + 2),
        (("99999999999999999999", "--reduced", "--basepoint", "x1"),
         "99999999999999999999", 10**20 + 2),
        (("1", "--strands", "10000000"), "n=10000000 1", 10**7 + 2),
    ])
    def test_marks_are_counted_from_the_word(self, args, word, marks):
        # these once walked 10^20 strands (MemoryError, OverflowError) or
        # built 10^7 marks (10 s) before the ceiling was checked
        start = time.monotonic()
        res = _bounded_cli("homology", *args)
        assert time.monotonic() - start < 5
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        assert res.stderr == (f"config violation: {word!r} at --marks 1 has "
                              f"{marks} marks, above 400\n")

    @pytest.mark.parametrize("command", ["homology", "euler-check"])
    def test_max_work_sets_the_budget(self, runner, command):
        # the reduced trefoil at q14 predicts 139 slice elements
        args = [command, "1 1 1", "--qmax", "14", "--reduced", "--max-work"]
        res = runner.invoke(cli.main, args + ["138"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == (
            "config violation: '1 1 1' up to --qmax 14 predicts 139 slice "
            "elements, above --max-work 138\n")
        assert runner.invoke(cli.main, args + ["139"]).exit_code == 0
        res = runner.invoke(cli.main, args + ["0"])
        assert res.output == "config violation: --max-work 0 must be >= 1\n"

    def test_max_work_counts_the_cube_that_is_built(self, runner):
        # -1 1 1 1 1 is built as 1 1 1, so the trefoil's budget of 139
        # holds, and the refusal names the word as given
        args = ["homology", "-1 1 1 1 1", "--qmax", "14", "--reduced",
                "--max-work"]
        assert runner.invoke(cli.main, args + ["139"]).exit_code == 0
        res = runner.invoke(cli.main, args + ["138"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == (
            "config violation: '-1 1 1 1 1' up to --qmax 14 predicts 139 "
            "slice elements, above --max-work 138\n")

    def test_invariance_guards_both_words(self, runner):
        # 1 1 1 alone predicts 139 at q14; stab- adds a strand and a crossing
        res = runner.invoke(cli.main, ["invariance", "1 1 1", "--move",
                                       "stab-", "--qmax", "14",
                                       "--max-work", "139"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output.startswith("config violation: '1 1 1 -2' up to")

    def test_workers_env_var_is_ignored(self, runner, monkeypatch):
        args = ["homology", "1 1", "--qmax", "6", "--json"]
        plain = runner.invoke(cli.main, args)
        monkeypatch.setenv("TRIGRAD_WORKERS", "abc")
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0
        assert res.output == plain.output


class TestHomflyCommand:
    def test_unknot_value(self, runner):
        res = runner.invoke(cli.main, ["homfly", "", "--strands", "1"])
        assert res.exit_code == 0
        assert "F = (q*t^-1)/(1 - q^2)" in res.output

    def test_stabilizations_match_axioms(self, runner):
        plain = runner.invoke(cli.main, ["homfly", "", "--strands", "1",
                                         "--qmax", "9"])
        plus = runner.invoke(cli.main, ["homfly", "1", "--qmax", "9"])
        line = [l for l in plain.output.splitlines() if "q-series" in l]
        line_plus = [l for l in plus.output.splitlines() if "q-series" in l]
        assert line == line_plus
        minus = runner.invoke(cli.main, ["homfly", "-1", "--json"])
        payload = json.loads(minus.output)
        neg = payload["F_series"]
        # -t^{-1}q^{-1} * unknot = -t^{-2} (1 + q^2 + ...)
        assert neg[0] == [0, [[-2, "-1"]]]

    def test_unwritable_out_is_a_config_violation(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["homfly", "1 1 1", "--out",
                                       str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output.startswith(f"config violation: --out {tmp_path}: ")

    def test_wide_unknot(self, runner):
        # sigma_1 ... sigma_499: the trace walks down 500 strands, which
        # once took one recursion each and raised RecursionError
        res = runner.invoke(cli.main, ["homfly",
                                       " ".join(map(str, range(1, 500)))])
        assert res.exit_code == 0
        assert "F = (q*t^-1)/(1 - q^2)\n" in res.output

    def test_strand_ceiling(self):
        res = _bounded_cli("homfly", "99999999999999999999")
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        assert res.stderr == ("config violation: '99999999999999999999' has "
                              "100000000000000000000 strands, above 2000\n")

    def test_F_is_computed_once(self, runner, monkeypatch):
        # F~ is derived from F, which was once computed a second time
        from trigrad import homfly as homfly_mod

        calls = []
        real = homfly_mod.homfly_F

        def spy(b):
            calls.append(b)
            return real(b)

        monkeypatch.setattr(homfly_mod, "homfly_F", spy)
        monkeypatch.setattr(cli, "homfly_F", spy)
        res = runner.invoke(cli.main, ["homfly", "1 1 1"])
        assert res.exit_code == 0
        assert len(calls) == 1

    def test_trefoil_single_fraction(self, runner):
        res = runner.invoke(cli.main, ["homfly", "1 1 1"])
        assert res.exit_code == 0
        assert (
            "F = (q*t^-1 + q^4*t^-2 + q^5*t^-1)/(1 - q^2)\n" in res.output
        )


class TestEulerCheckCommand:
    def test_pass(self, runner):
        res = runner.invoke(cli.main, ["euler-check", "1 1 1", "--qmax", "8"])
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_negative_control(self, runner, monkeypatch):
        # corrupt the oracle deliberately: the check must fail loudly
        from trigrad import cli as climod
        from trigrad.algebra import RationalQT

        real = climod.homfly_F
        monkeypatch.setattr(
            climod, "homfly_F", lambda b: real(b) * RationalQT.term(0, 1)
        )
        res = runner.invoke(cli.main, ["euler-check", "1", "--qmax", "6"])
        assert res.exit_code == cli.EXIT_FAIL
        assert "FAIL at q^" in res.output

    def test_reduced_pass(self, runner):
        res = runner.invoke(cli.main, ["euler-check", "1 -2 1 -2", "--qmax",
                                       "8", "--reduced", "--basepoint", "x3"])
        assert res.exit_code == 0
        assert "PASS: <D> = F(D)*(1 - q^2)" in res.output

    def test_reduced_negative_control(self, runner, monkeypatch):
        # the unreduced oracle value must not pass the reduced check
        from trigrad import cli as climod
        from trigrad.algebra import LaurentQT, RationalQT

        real = climod.homfly_F
        one_minus_q2 = RationalQT.from_laurent(
            LaurentQT({(0, 0): 1, (2, 0): -1})
        )
        monkeypatch.setattr(
            climod, "homfly_F", lambda b: real(b) * one_minus_q2.inverse()
        )
        res = runner.invoke(cli.main, ["euler-check", "1 1 1", "--qmax", "6",
                                       "--reduced"])
        assert res.exit_code == cli.EXIT_FAIL
        assert "FAIL at q^" in res.output

    def test_json_rejected(self, runner):
        res = runner.invoke(cli.main, ["euler-check", "1", "--json"])
        assert res.exit_code == cli.EXIT_CONFIG


class TestInvarianceCommand:
    def test_conjugation_pass(self, runner):
        res = runner.invoke(
            cli.main,
            ["invariance", "1 1 1 2", "--move", "conj:2", "--qmax", "8"],
        )
        assert res.exit_code == 0
        assert "shift (dj,dk,dl) = (0, 0, 0)" in res.output

    def test_stabilization_chain(self, runner):
        res = runner.invoke(
            cli.main,
            ["invariance", "1 1", "--move", "stab-", "--qmax", "10"],
        )
        assert res.exit_code == 0
        assert "(1, -1, -1)" in res.output

    def test_inconclusive_window_exit_code(self, runner):
        res = runner.invoke(
            cli.main,
            ["invariance", "1 1 1", "--move", "stab-", "--qmax", "2"],
        )
        assert res.exit_code == cli.EXIT_INCONCLUSIVE

    def test_invalid_move_position(self, runner):
        res = runner.invoke(
            cli.main, ["invariance", "1 1 1", "--move", "braid:0"]
        )
        assert res.exit_code == cli.EXIT_CONFIG

    def test_non_integer_move_argument(self, runner):
        res = runner.invoke(
            cli.main, ["invariance", "1 1 1", "--move", "conj:x"]
        )
        assert res.exit_code == cli.EXIT_CONFIG
        assert "conj:x" in res.output

    def test_json_rejected(self, runner):
        res = runner.invoke(
            cli.main, ["invariance", "1 1", "--move", "conj:1", "--json"]
        )
        assert res.exit_code == cli.EXIT_CONFIG

    def test_reduced_and_basepoint_reach_homology(self, runner, monkeypatch):
        from trigrad import cli as climod
        from trigrad.cube import word_homology as real

        seen = []

        def spy(b, qmax, **kw):
            seen.append((kw["reduced"], kw["basepoint"]))
            return real(b, qmax, **kw)

        monkeypatch.setattr(climod, "word_homology", spy)
        res = runner.invoke(
            cli.main, ["invariance", "1 1 1", "--move", "stab-", "--qmax",
                       "8", "--reduced", "--basepoint", "x2"]
        )
        assert res.exit_code == 0
        assert "shift (dj,dk,dl) = (1, -1, -1)" in res.output
        assert seen == [(True, "x2"), (True, "x2")]

    def test_mismatch_exit_code(self, runner, monkeypatch):
        from trigrad import cli as climod
        from trigrad.braid import parse_braid as pb
        from trigrad.cube import word_homology as real

        def fake(b, qmax, **kw):
            if len(b.letters) > 2:
                return real(pb("1"), qmax, **kw)  # wrong link on purpose
            return real(b, qmax, **kw)

        monkeypatch.setattr(climod, "word_homology", fake)
        res = runner.invoke(
            cli.main, ["invariance", "1 1", "--move", "insert:0:1",
                       "--qmax", "10"]
        )
        assert res.exit_code == cli.EXIT_FAIL


class TestHomDimCommand:
    def test_known_pairs(self, runner):
        res = runner.invoke(cli.main, ["hom-dim", "gamma110", "gamma100"])
        assert res.exit_code == 0
        assert "= 1" in res.output
        res = runner.invoke(cli.main, ["hom-dim", "gamma100", "gamma110",
                                       "--json"])
        assert json.loads(res.output)["dim"] == 0

    def test_unknown_name(self, runner):
        res = runner.invoke(cli.main, ["hom-dim", "nope", "s2"])
        assert res.exit_code == cli.EXIT_CONFIG

    def test_unknown_name_message(self, runner):
        res = runner.invoke(cli.main, ["hom-dim", "upsilon", "nope"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == "config violation: unknown graph 'nope'\n"

    @pytest.mark.parametrize("src, tgt", [("s2", "gamma000"),
                                          ("upsilon", "s2")])
    def test_different_boundaries_are_a_config_violation(self, runner, src,
                                                         tgt):
        # s2 has four boundary marks, the others six: the potentials differ
        res = runner.invoke(cli.main, ["hom-dim", src, tgt])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == (f"config violation: {src!r} and {tgt!r} have "
                              "different boundaries (potential mismatch)\n")


class TestGraphHomologyCommand:
    def test_circle(self, runner):
        res = runner.invoke(
            cli.main, ["graph-homology", "circle", "--qmax", "5"]
        )
        assert res.exit_code == 0
        assert " -1   1  1" in res.output
        assert " -1   5  1" in res.output

    def test_unknown_graph(self, runner):
        res = runner.invoke(cli.main, ["graph-homology", "nope"])
        assert res.exit_code == cli.EXIT_CONFIG

    def test_unknown_graph_message(self, runner):
        res = runner.invoke(cli.main, ["graph-homology", "nope"])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == "config violation: unknown closed graph 'nope'\n"

    @pytest.mark.parametrize("name", ["s2-closure", "nope-closure"])
    def test_closure_without_six_marks_is_unknown(self, runner, name):
        # a closure glues x1..x3 to x4..x6: s2 has four marks
        res = runner.invoke(cli.main, ["graph-homology", name])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.output == f"config violation: unknown closed graph {name!r}\n"

    def test_work_guard_refuses_a_huge_qmax(self):
        # the (k, l) list of this table once exhausted memory (MemoryError,
        # exit 1); the closed-form count refuses it before any slice
        res = _bounded_cli("graph-homology", "circle", "--qmax",
                           "99999999999999999999")
        assert res.returncode == cli.EXIT_CONFIG
        assert res.stdout == ""
        assert res.stderr == (
            "config violation: 'circle' up to --qmax 99999999999999999999 "
            "predicts 50000000000000000000 slice elements, above 1000000\n")

    def test_upsilon_closure_json(self, runner):
        res = runner.invoke(
            cli.main, ["graph-homology", "upsilon-closure", "--qmax", "6",
                       "--json"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["graph"] == "upsilon-closure"
        assert all(len(row) == 4 for row in payload["dims"])
