"""End-to-end command-line behavior, including exit codes."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rblie import cli
from rblie.algebras import Report
from rblie.cli import KINDS, build_parser, main
from rblie.verify import PROPERTIES

ONE_DIM = "demos/algebras/one_dim.alg"
SO3 = "demos/algebras/so3_post.alg"
PATH_GRAPH = "demos/graphs/path.graph"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasis:
    def test_ls_words_descending(self, capsys):
        code, out, err = run(capsys, "basis", "--kind", "ls",
                             "--alphabet", "a,b", "--max-deg", "3")
        assert code == 0 and err == ""
        assert out == "a\n[a,[a,b]]\n[a,b]\n[[a,b],b]\nb\n"

    def test_env_counts(self, capsys):
        code, out, err = run(capsys, "basis", "--algebra", ONE_DIM,
                             "--max-deg", "2", "--max-rdeg", "2", "--counts")
        assert code == 0
        assert out == "(1, 0): 1\n(1, 1): 1\n(1, 2): 1\n(2, 2): 1\n"

    def test_env_tsv(self, capsys):
        code, out, err = run(capsys, "basis", "--algebra", ONE_DIM,
                             "--max-deg", "2", "--max-rdeg", "2", "--tsv")
        assert code == 0
        assert out == "1\t0\t1\n1\t1\t1\n1\t2\t1\n2\t2\t1\n"

    def test_counts_and_tsv_are_alternatives(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["basis", "--algebra", ONE_DIM, "--max-deg", "2", "--counts", "--tsv"])
        assert raised.value.code == 2
        assert capsys.readouterr().out == ""

    def test_free_rb_box(self, capsys):
        code, out, err = run(capsys, "basis", "--kind", "free-rb",
                             "--alphabet", "a", "--max-deg", "2", "--max-rdeg", "1")
        assert code == 0
        assert out == "R(a)\n[R(a),a]\na\n"

    def test_rdeg_rejected_without_operator(self, capsys):
        code, out, err = run(capsys, "basis", "--kind", "ls",
                             "--alphabet", "a,b", "--max-deg", "2", "--max-rdeg", "1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("bounds", [("--max-deg", "-1"),
                                        ("--max-deg", "2", "--max-rdeg", "-1")])
    def test_negative_bounds_are_refused(self, capsys, bounds):
        code, out, err = run(capsys, "basis", "--kind", "free-rb", "--alphabet", "a,b",
                             *bounds)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestMul:
    def test_free_rb_weight_zero(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "free-rb",
                             "--alphabet", "a,b", "R(a)", "R(b)")
        assert code == 0
        assert out == "R([R(a),b]) - R([R(b),a])\n"

    def test_free_rb_weight_one(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "free-rb",
                             "--alphabet", "a,b", "--weight", "1", "R(a)", "R(b)")
        assert code == 0
        assert out == "R([R(a),b]) - R([R(b),a]) + R([a,b])\n"

    def test_pcls_zero_product(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "pcls",
                             "--alphabet", "a,b,c", "--graph", PATH_GRAPH,
                             "a", "b")
        assert code == 0
        assert out == "0\n"

    def test_expressions_are_reduced_first(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "ls",
                             "--alphabet", "a,b", "[a,[a,b]]", "b")
        assert code == 0
        assert out == "[a,[[a,b],b]]\n"

    def test_unknown_generator(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "ls",
                             "--alphabet", "a,b", "[a,z]", "b")
        assert code == 2
        assert "offset 3" in err

    def test_non_decimal_digit_is_a_syntax_error(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "ls",
                             "--alphabet", "a,b", "\u00b2*a", "b")
        assert code == 2 and out == ""
        assert err == "error: unexpected character '\u00b2' at offset 0\n"

    def test_syntax_error_offset(self, capsys):
        code, out, err = run(capsys, "reduce", "--kind", "ls",
                             "--alphabet", "a,b", "[a,")
        assert code == 2
        assert "offset 3" in err


class TestReduce:
    def test_env_examples(self, capsys):
        code, out, err = run(capsys, "reduce", "--algebra", ONE_DIM, "[R(e),e]")
        assert code == 0 and out == "e\n"
        code, out, err = run(capsys, "reduce", "--algebra", ONE_DIM, "R([R(e),e])")
        assert code == 0 and out == "R(e)\n"

    def test_combination_input(self, capsys):
        code, out, err = run(capsys, "reduce", "--algebra", ONE_DIM,
                             "2*[R(e),e] - e")
        assert code == 0 and out == "e\n"

    def test_post_bracket_reduces_through_table(self, capsys):
        code, out, err = run(capsys, "reduce", "--kind", "env-post",
                             "--algebra", SO3, "[a,b]")
        assert code == 0 and out == "c\n"

    def test_deep_input_is_an_input_error(self, capsys):
        deep = "R(" * 1200 + "a" + ")" * 1200
        code, out, err = run(capsys, "reduce", "--kind", "free-rb", "--alphabet", "a,b", deep)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestVerify:
    def test_jacobi_pass(self, capsys):
        code, out, err = run(capsys, "verify", "--kind", "free-rb",
                             "--alphabet", "a,b", "--property", "jacobi",
                             "--samples", "50", "--seed", "3")
        assert code == 0
        assert out == "PASS jacobi checked=50\n"

    def test_corrupt_rule_fails_with_witness(self, capsys):
        code, out, err = run(capsys, "verify", "--kind", "free-rb",
                             "--alphabet", "a,b", "--property", "jacobi",
                             "--samples", "50", "--seed", "3", "--corrupt-rule")
        assert code == 1
        assert out.startswith("FAIL jacobi checked=")
        assert "witness=(" in out

    def test_enum_oracles_needs_no_context(self, capsys):
        code, out, err = run(capsys, "verify", "--property", "enum-oracles")
        assert code == 0
        assert out == "PASS enum-oracles checked=8\n"

    def test_pbw_prints_the_table(self, capsys):
        code, out, err = run(capsys, "verify", "--algebra", SO3,
                             "--property", "pbw", "--max-deg", "3", "--max-rdeg", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS pbw")
        assert lines[1:] == [
            "(1, 0): 3", "(1, 1): 3", "(1, 2): 3", "(2, 2): 9", "(3, 2): 18",
        ]

    @pytest.mark.parametrize("flag", [("--samples", "7"), ("--seed", "5")], ids=lambda f: f[0])
    def test_pbw_takes_no_sampling_flag(self, capsys, flag):
        # pbw counts every basis word within the bounds and draws none
        code, out, err = run(capsys, "verify", "--algebra", SO3, "--property", "pbw",
                             "--max-deg", "2", *flag)
        assert code == 2 and out == ""
        assert err == "error: pbw does not take %s\n" % flag[0]

    def test_rb_both_weights(self, capsys):
        for weight in ("0", "1"):
            code, out, err = run(capsys, "verify", "--kind", "free-rb",
                                 "--alphabet", "a,b", "--weight", weight,
                                 "--property", "rb", "--samples", "40")
            assert code == 0
            assert out.startswith("PASS rb weight %s" % weight)

    @pytest.mark.parametrize("bound", ["--max-deg", "--max-rdeg"])
    def test_negative_bounds_are_refused(self, capsys, bound):
        # pbw over a negative bound would print PASS with checked=0
        code, out, err = run(capsys, "verify", "--algebra", SO3, "--property", "pbw",
                             bound, "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_are_refused(self, capsys, samples):
        # a check over no samples would print PASS having checked nothing
        code, out, err = run(capsys, "verify", "--kind", "ls", "--alphabet", "a,b",
                             "--property", "anticomm", "--samples", samples)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_a_check_of_nothing_is_refused(self, capsys):
        # no bidegree fits under --max-deg 0, so pbw would pass counting none
        code, out, err = run(capsys, "verify", "--algebra", SO3, "--property", "pbw",
                             "--max-deg", "0")
        assert code == 2 and out == ""
        assert err == "error: pbw deg<=0 rdeg<=2 checked nothing; widen the bounds\n"

    def test_derived_gating(self, capsys):
        code, out, err = run(capsys, "verify", "--kind", "free-rb",
                             "--alphabet", "a,b", "--property", "derived-post")
        assert code == 2
        assert "weight 1" in err


class TestCheckAlgebra:
    def test_demo_files_pass(self, capsys):
        for path in (ONE_DIM, SO3, "demos/algebras/two_dim.alg",
                     "demos/algebras/pre_as_post.alg",
                     "demos/algebras/deriv_1_2.alg"):
            code, out, err = run(capsys, "check-algebra", path)
            assert code == 0, path
            assert out.startswith("PASS ")

    def test_corrupt_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("kind pre\nbasis u t\ndot u u = u\ndot u t = t\ndot t u = u\n")
        code, out, err = run(capsys, "check-algebra", str(bad))
        assert code == 1
        assert out.startswith("FAIL ")

    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("basis u t\ndot u = u\n")
        code, out, err = run(capsys, "check-algebra", str(bad))
        assert code == 2
        assert "line 2" in err


class TestFlagValidation:
    def test_kind_required_without_algebra(self, capsys):
        code, out, err = run(capsys, "basis", "--alphabet", "a,b", "--max-deg", "2")
        assert code == 2

    def test_env_kind_must_match_file(self, capsys):
        code, out, err = run(capsys, "basis", "--kind", "env-pre",
                             "--algebra", SO3, "--max-deg", "2")
        assert code == 2
        assert "post" in err

    def test_env_rejects_alphabet_flag(self, capsys):
        code, out, err = run(capsys, "basis", "--algebra", ONE_DIM,
                             "--alphabet", "a", "--max-deg", "2")
        assert code == 2

    def test_ls_rejects_graph(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "ls", "--alphabet", "a,b",
                             "--graph", PATH_GRAPH, "a", "b")
        assert code == 2

    def test_pcls_rejects_weight(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "pcls", "--alphabet", "a,b",
                             "--weight", "1", "a", "b")
        assert code == 2

    def test_missing_graph_file(self, capsys):
        code, out, err = run(capsys, "basis", "--kind", "pcls", "--alphabet", "a,b",
                             "--graph", "no/such/file.graph", "--max-deg", "2")
        assert code == 2

    @pytest.mark.parametrize("flag", [("--kind", "ls"), ("--alphabet", "zz"),
                                      ("--graph", PATH_GRAPH), ("--algebra", SO3),
                                      ("--weight", "0"), ("--fuel", "5"),
                                      ("--max-deg", "9"), ("--max-rdeg", "4"),
                                      ("--samples", "3"), ("--seed", "5")],
                             ids=lambda f: f[0])
    def test_enum_oracles_takes_no_context_flag(self, capsys, flag):
        # enum-oracles builds its own contexts and bounds, so any of these
        # flags would be ignored
        code, out, err = run(capsys, "verify", "--property", "enum-oracles", *flag)
        assert code == 2 and out == ""
        assert err == "error: enum-oracles does not take %s\n" % flag[0]

    def test_enum_oracles_ignores_corrupt_rule(self, capsys):
        code, out, err = run(capsys, "verify", "--property", "enum-oracles", "--corrupt-rule")
        assert code == 0 and out == "PASS enum-oracles checked=8\n"

    @pytest.mark.parametrize("spec", ["a,,b", "a,b,"])
    def test_empty_generator_name_is_refused(self, capsys, spec):
        code, out, err = run(capsys, "basis", "--kind", "ls", "--alphabet", spec,
                             "--max-deg", "2")
        assert code == 2 and out == ""
        assert err == "error: bad generator name ''\n"

    def test_verify_refuses_rdeg_without_operator(self, capsys):
        argv = ("verify", "--kind", "ls", "--alphabet", "a,b", "--property", "jacobi",
                "--samples", "5")
        code, out, err = run(capsys, *argv, "--max-rdeg", "5")
        assert code == 2 and out == ""
        assert err == "error: --max-rdeg applies to operator kinds only\n"
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == "PASS jacobi checked=5\n"

    def test_bad_property_choice_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["verify", "--kind", "ls", "--alphabet", "a", "--property", "nope"])


def _parser_flags():
    """(command, option, argv) for each optional flag of each subcommand,
    read from the parser; argv gives the flag a value it accepts."""
    values = {"--kind": "env-post", "--alphabet": "a", "--graph": PATH_GRAPH,
              "--algebra": SO3, "--weight": "0"}
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for command, sub in subs.choices.items():
        for action in sub._actions:
            option = action.option_strings[-1] if action.option_strings else None
            # --property picks the reader and --corrupt-rule is a test switch
            if option in (None, "--help", "--property", "--corrupt-rule"):
                continue
            yield command, option, [option] + ([] if action.nargs == 0 else
                                               [values.get(option, "1")])


# every reader of flags: a command, or a verify property under its own name
READERS = {"basis": ["basis", "--max-deg", "1"], "mul": ["mul", "a", "b"],
           "reduce": ["reduce", "a"]}
READERS.update((prop, ["verify", "--property", prop]) for prop in PROPERTIES)


class TestFlagRule:
    """Each command reads a flag it is given or refuses it: no flag is
    accepted and then ignored."""

    @pytest.fixture(autouse=True)
    def no_checks(self, monkeypatch):
        # the flags are read or refused before a property runs
        monkeypatch.setattr(cli, "run_property",
                            lambda prop, ctx, **bounds: Report.over(prop, [()], lambda: []))

    def _reader_argv(self, capsys, reader):
        # a reader that takes the envelope of so3 gets it, any other none
        argv = READERS[reader] + ["--algebra", SO3]
        code, out, err = run(capsys, *argv)
        if err.endswith("does not take --algebra\n"):
            return READERS[reader]
        assert code == 0, err
        return argv

    def test_every_flag_is_read_or_refused(self, capsys):
        readers_of = {}
        for reader, head in READERS.items():
            base = self._reader_argv(capsys, reader)
            reads = cli.READS[reader] + (KINDS["env-post"] if base != head else ())
            for command, option, flag in _parser_flags():
                if command != head[0]:
                    continue
                code, out, err = run(capsys, *base, *flag)
                refused = err.endswith(" does not take %s\n" % option)
                if refused:
                    assert code == 2 and out == "", (reader, option)
                else:
                    readers_of.setdefault(option, []).append(reader)
                assert refused != (option[2:].replace("-", "_") in reads), (reader, option, err)
        every = {option for _, option, _ in _parser_flags()}
        # a source flag is read by the kinds that take it (the README table)
        sources = {"--" + flag for source in KINDS.values() for flag in source}
        assert every - sources <= set(readers_of), every - sources - set(readers_of)

    @pytest.mark.parametrize("argv", [
        ("basis", "--kind", "ls", "--alphabet", "a,b", "--max-deg", "2"),
        ("verify", "--algebra", SO3, "--property", "pbw", "--max-deg", "2"),
        ("verify", "--property", "enum-oracles"),
    ], ids=["basis", "pbw", "enum-oracles"])
    def test_fuel_is_refused_where_no_product_is_made(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--fuel", "1")
        owner = argv[argv.index("--property") + 1] if "--property" in argv else argv[0]
        assert code == 2 and out == ""
        assert err == "error: %s does not take --fuel\n" % owner


@pytest.mark.parametrize("argv", [
    ("mul", "--kind", "ls", "--alphabet", "a,b", "b", "a"),  # b*a and the a*b it reads
    ("verify", "--kind", "ls", "--alphabet", "a,b", "--property", "jacobi"),
], ids=["mul", "jacobi"])
def test_fuel_one_runs_out_where_a_product_is_made(capsys, argv):
    code, out, err = run(capsys, *argv, "--fuel", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: straightening fuel exhausted") and err.count("\n") == 1


@pytest.mark.parametrize("argv, text", [
    (("mul", "--kind", "ls", "--alphabet", "a,b", "--fuel", "0", "a", "b"),
     "--fuel must be at least 1"),
    (("verify", "--kind", "ls", "--alphabet", "a,b", "--property", "anticomm",
      "--samples", "0"), "--samples must be at least 1"),
    (("basis", "--kind", "ls", "--alphabet", "a,b", "--max-deg", "-1"),
     "--max-deg must be at least 0"),
    (("basis", "--kind", "free-rb", "--alphabet", "a", "--max-deg", "1", "--max-rdeg", "-1"),
     "--max-rdeg must be at least 0"),
], ids=["fuel", "samples", "max-deg", "max-rdeg"])
def test_a_number_below_its_least_value_is_refused(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % text


def test_pbw_rows_are_the_basis_counts(capsys):
    bounds = ("--algebra", SO3, "--max-deg", "3", "--max-rdeg", "2")
    code, out, err = run(capsys, "verify", "--property", "pbw", *bounds)
    assert code == 0
    rows = out.splitlines()[1:]
    code, out, err = run(capsys, "basis", "--counts", *bounds)
    assert code == 0 and rows == out.splitlines() and rows


def test_readme_kinds_table_matches_the_cli():
    # each row: | `kind` | context | required flag | optional flags |
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and re.fullmatch(r"`[a-z-]+`", cells[0]):
            flags = re.findall(r"`--([a-z]+)`", cells[2] + " " + cells[3])
            rows[cells[0].strip("`")] = tuple(flags)
    assert rows == KINDS


class TestFuel:
    def test_exhaustion_exit_code(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "free-rb",
                             "--alphabet", "a,b", "--fuel", "2", "R(a)", "R(b)")
        assert code == 3
        assert "fuel" in err

    def test_reduce_spends_one_budget_on_the_whole_expression(self, capsys):
        # neither bracket node is a basis word (its halves are in the wrong
        # order), and each alone fits in 3 steps; the two together do not
        argv = ("reduce", "--kind", "free-rb", "--alphabet", "a,b", "--fuel", "3")
        for node in ("[a,R(b)]", "[b,R(a)]"):
            assert run(capsys, *argv, node)[0] == 0
        code, out, err = run(capsys, *argv, "[a,R(b)] + [b,R(a)]")
        assert code == 3
        assert "fuel" in err

    def test_reduce_hom_spends_the_budget_on_its_free_products(self, capsys):
        # the enveloping side of these 20 pairs fits in 40 steps; some of
        # their products in the free operator algebra do not
        code, out, err = run(capsys, "verify", "--algebra", SO3, "--property", "reduce-hom",
                             "--fuel", "40", "--samples", "20", "--max-deg", "3",
                             "--max-rdeg", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: straightening fuel exhausted") and err.count("\n") == 1

    def test_nonpositive_fuel_rejected(self, capsys):
        code, out, err = run(capsys, "mul", "--kind", "free-rb",
                             "--alphabet", "a,b", "--fuel", "0", "a", "b")
        assert code == 2


class TestDeepInput:
    def test_recursion_error_exits_2_with_one_line(self, capsys, monkeypatch):
        def too_deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_reduce", too_deep)
        assert run(capsys, "reduce", "--kind", "ls", "--alphabet", "a,b", "a") == (
            2, "", "error: input nested too deeply\n")

    @pytest.mark.parametrize("argv", [
        ("reduce", "R(" * 5000 + "a" + ")" * 5000),
        ("mul", "R(" * 400 + "a" + ")" * 400, "R(" * 400 + "b" + ")" * 400),
    ], ids=["reduce-tower-5000", "mul-towers-400"])
    def test_a_deep_tower_exits_2_in_a_fresh_interpreter(self, argv):
        command, *texts = argv
        done = subprocess.run(
            [sys.executable, "-m", "rblie.cli", command, "--kind", "free-rb",
             "--alphabet", "a,b", *texts],
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: input nested too deeply\n")


class TestDeterminism:
    def _invoke(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "rblie.cli", *argv],
            capture_output=True, text=True,
        )

    def test_repeated_runs_are_byte_identical(self):
        argv = ("basis", "--kind", "free-rb", "--alphabet", "a,b",
                "--max-deg", "3", "--max-rdeg", "2")
        one = self._invoke(*argv)
        two = self._invoke(*argv)
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout and one.stdout

    def test_verify_replay(self):
        argv = ("verify", "--algebra", ONE_DIM, "--property", "reduce-hom",
                "--samples", "60", "--seed", "9")
        one = self._invoke(*argv)
        two = self._invoke(*argv)
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout == "PASS reduce-hom checked=60\n"
