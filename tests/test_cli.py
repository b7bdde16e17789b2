"""Command-line interface: exit codes, formats, determinism."""

import contextlib
import hashlib
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cgm import cli, core, metalang
from cgm.cli import main
from cgm.indexcat import FreeCategory, WPath
from cgm.instances import LockPrims, instance_names, list_sort_homomorphism

REPO = Path(__file__).resolve().parent.parent

LOCK_GP = """
instance concst
start free
store int[0..7]

do {
  lock;
  x <- get;
  put(x + 1);
  unlock
}
"""

TWO_SAMPLERS = """
var x : int[0..9]
var y : int[0..9]

conclude 1/5 : true => (x != 0) && (y != 0)

seq {
  rand x 0 9 : 1/10 : true => (x != 0);
  rand y 0 9 : 1/10 : (x != 0) => (x != 0) && (y != 0)
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_laws_ok(capsys):
    code, out = run_cli(capsys, "laws", "glist", "--samples", "40")
    assert code == 0
    assert "failures: 0" in out


def test_laws_failure_exit_1(capsys):
    code, out = run_cli(capsys, "laws", "broken-glist", "--samples", "40")
    assert code == 1
    assert "FAIL" in out and "lhs:" in out


def test_laws_unknown_instance_exit_2(capsys):
    code, out = run_cli(capsys, "laws", "nosuch")
    assert code == 2


def test_laws_machine_format(capsys):
    code, out = run_cli(capsys, "laws", "identity", "--samples", "10",
                        "--format", "machine")
    assert code == 0
    assert "status=ok" in out and "law.assoc.run=10" in out


def test_laws_with_category_file(tmp_path, capsys):
    cat = tmp_path / "c.cat"
    cat.write_text("kind free\nobjects a b\ngen f : a -> b\n")
    code, out = run_cli(capsys, "laws", "identity", "--samples", "15",
                        "--category", str(cat))
    assert code == 0 and "failures: 0" in out


def test_run_lock_program(tmp_path, capsys):
    gp = tmp_path / "lock.gp"
    gp.write_text(LOCK_GP)
    code, out = run_cli(capsys, "run", str(gp), "--store", "5")
    assert code == 0
    assert "grade: lock;get;put;unlock : free -> free" in out
    assert "final 6" in out


def test_run_over_5000_stores(tmp_path, capsys):
    """Linear in the store domain: 5000 stores answer in a fraction of a second."""
    gp = tmp_path / "lock.gp"
    gp.write_text(LOCK_GP.replace("int[0..7]", "int[0..4999]"))
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 0
    table = "; ".join(f"{s} -> ((), {s + 1})" for s in range(4999))
    assert out == f"grade: lock;get;put;unlock : free -> free\nresult: {{{table}}}\n"


def test_run_infers_grades_once(capsys, monkeypatch):
    calls = []
    infer = metalang._infer
    monkeypatch.setattr(metalang, "_infer", lambda *args: calls.append(args[2]) or infer(*args))
    code, out = run_cli(capsys, "run", str(REPO / "programs" / "lock.gp"))
    assert code == 0 and out.startswith("grade: ")
    assert len(calls) == 1


def test_run_builds_the_lock_primitives_once(capsys, monkeypatch):
    """The bundle carries its primitives: inference and evaluation share one set."""
    calls = []
    init = LockPrims.__init__
    monkeypatch.setattr(LockPrims, "__init__", lambda self, T: calls.append(T) or init(self, T))
    code, out = run_cli(capsys, "run", str(REPO / "programs" / "lock.gp"))
    assert code == 0 and out.startswith("grade: ")
    assert len(calls) == 1


def test_eval_term_alone_infers_for_itself():
    program = metalang.parse_program(LOCK_GP)
    bundle = cli.build_instance(program.instance)
    start = metalang.start_object(bundle, program)
    inferred = metalang.infer_program(bundle, program)
    alone = metalang.eval_term(bundle, program.body, {}, start)
    assert alone == metalang.eval_term(bundle, program.body, {}, start, inferred)
    assert alone.index == inferred.index


def test_run_protocol_violation_exit_2(tmp_path, capsys):
    gp = tmp_path / "bad.gp"
    gp.write_text("instance concst\nstart free\ndo { get; pure () }")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 2
    assert "grade error" in out and "get" in out


def test_run_parse_error_exit_3(tmp_path, capsys):
    gp = tmp_path / "oops.gp"
    gp.write_text("instance concst\ndo { lock;")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 3
    assert "parse error" in out


def test_run_empty_store_range_exit_3(tmp_path, capsys):
    gp = tmp_path / "empty.gp"
    gp.write_text(LOCK_GP.replace("int[0..7]", "int[5..1]"))
    code = main(["run", str(gp)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "parse error: 4:7: empty range int[5..1]\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("rng,col,found", [
    ("int[a..3]", 11, "a"),
    ("int[-1..3]", 11, "-"),
    ("int[0..b]", 14, "b"),
])
def test_run_store_bound_not_an_integer_exit_3(tmp_path, capsys, rng, col, found):
    gp = tmp_path / "bad.gp"
    gp.write_text(LOCK_GP.replace("int[0..7]", rng))
    code = main(["run", str(gp)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == f"parse error: 4:{col}: expected an integer, found {found!r}\n"
    assert "Traceback" not in captured.err


def test_run_missing_file_exit_2(capsys):
    code, _ = run_cli(capsys, "run", "nowhere.gp")
    assert code == 2


def test_ahl_valid(tmp_path, capsys):
    f = tmp_path / "ok.ahl"
    f.write_text(TWO_SAMPLERS)
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 0
    assert "failure 19/100" in out and "verdict: valid" in out


def test_ahl_rejected_bound(tmp_path, capsys):
    f = tmp_path / "tight.ahl"
    f.write_text(TWO_SAMPLERS.replace("conclude 1/5", "conclude 1/10"))
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 1
    assert "verdict: invalid" in out


def test_ahl_parse_error(tmp_path, capsys):
    f = tmp_path / "broken.ahl"
    f.write_text("var x : int[0..9]\nconclude nonsense")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 3


@pytest.mark.parametrize("old,new,expected", [
    # integer tokens: a name, a sign, a non-ASCII digit
    ("var x : int[0..9]", "var x : int[a..9]", "2:13: expected an integer, found 'a'"),
    ("var x : int[0..9]", "var x : int[-1..9]", "2:13: expected an integer, found '-'"),
    ("rand x 0 9", "rand x a 9", "8:10: expected an integer, found 'a'"),
    ("rand x 0 9", "rand x 0 -9", "8:12: expected an integer, found '-'"),
    ("conclude 1/5", "conclude 1/x", "5:12: expected an integer, found 'x'"),
    ("var x : int[0..9]", "var x : int[0..\u00b2]", "2:16: unexpected character '\u00b2'"),
    # degenerate headers
    ("conclude 1/5", "conclude 1/0", "5:12: zero denominator"),
    ("var x : int[0..9]", "var x : int[5..1]", "2:9: empty range int[5..1]"),
])
def test_ahl_header_parse_errors_exit_3(tmp_path, capsys, old, new, expected):
    f = tmp_path / "bad.ahl"
    f.write_text(TWO_SAMPLERS.replace(old, new, 1))
    code = main(["ahl", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == f"parse error: {expected}\n"
    assert "Traceback" not in captured.err


def test_ahl_weak_zero_denominator_exit_3(tmp_path, capsys):
    f = tmp_path / "weak.ahl"
    f.write_text("var x : int[0..3]\nconclude 1/2 : true => true\n"
                 "weak 1/0 : true => true { skip : true }\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 3
    assert out == "parse error: 3:8: zero denominator\n"


def test_ahl_empty_var_range_is_not_valid(tmp_path, capsys):
    # over an empty state space `true => (x == 7)` would hold vacuously
    f = tmp_path / "empty.ahl"
    f.write_text("var x : int[5..1]\nconclude 0 : true => (x == 7)\n"
                 "weak 0 : true => (x == 7) { skip : true }\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 3
    assert out == "parse error: 1:9: empty range int[5..1]\n"


@pytest.mark.parametrize("old,new,expected", [
    ("rand x 0 9", "rand x 0 12", "8:10: range 0..12 is not within x : int[0..9]"),
    ("var x : int[0..9]", "var x : int[2..9]", "8:10: range 0..9 is not within x : int[2..9]"),
    ("rand x 0 9", "rand z 0 9", "8:8: undeclared variable 'z'"),
])
def test_ahl_rand_parse_errors_exit_3(tmp_path, capsys, old, new, expected):
    f = tmp_path / "bad.ahl"
    f.write_text(TWO_SAMPLERS.replace(old, new, 1))
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 3
    assert out == f"parse error: {expected}\n"


@pytest.mark.parametrize("rule,expected", [
    # a malformed rand is a parse error, not a failed verification
    ("rand x 5 1 : 1/2 : true => true", "3:8: empty range 5..1"),
    ("assign y := 1 : true", "3:8: undeclared variable 'y'"),
    ("assign x := y + 1 : true", "3:13: undeclared variable 'y'"),
    ("skip : (x == 1) || (z == 1)", "3:21: undeclared variable 'z'"),
])
def test_ahl_malformed_rule_exit_3(tmp_path, capsys, rule, expected):
    f = tmp_path / "bad.ahl"
    f.write_text(f"var x : int[0..3]\nconclude 1/2 : true => true\n{rule}\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 3
    assert out == f"parse error: {expected}\n"


@pytest.mark.parametrize("text,message", [
    ("objects a b\ngen f : a -> c\n", "edge f references an undeclared object"),
    ("kind table\nobjects a\ngen f : a -> a\n", "graph has unbounded paths; cannot tabulate"),
])
def test_laws_category_config_error_exit_2(tmp_path, capsys, text, message):
    cat = tmp_path / "f.cat"
    cat.write_text(text)
    code = main(["laws", "identity", "--category", str(cat)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"error: {message}\n"
    assert "Traceback" not in captured.err


def test_roundtrip_exit_codes(capsys):
    code, out = run_cli(capsys, "roundtrip", "--states", "2", "--samples", "20")
    assert code == 0 and "failures: 0" in out
    code, _ = run_cli(capsys, "roundtrip", "--states", "9")
    assert code == 2


def test_translate_known_and_unknown(capsys):
    code, out = run_cli(capsys, "translate", "graded", "catgraded", "glist")
    assert code == 0 and "failures: 0" in out
    code, _ = run_cli(capsys, "translate", "foo", "bar", "glist")
    assert code == 2
    code, _ = run_cli(capsys, "translate", "graded", "catgraded", "concst")
    assert code == 2


@pytest.mark.parametrize("src,tgt,inst", [
    ("monad", "catgraded", "list"),
    ("pograded", "2catgraded", "glist"),
    ("discrete-param", "catgraded", "tstate"),
    ("param", "catgraded", "tstate"),
])
def test_translate_all_pairs(capsys, src, tgt, inst):
    code, out = run_cli(capsys, "translate", src, tgt, inst)
    assert code == 0, out
    assert "failures: 0" in out


@pytest.mark.parametrize("argv", [
    ("laws", "concst", "--samples", "50", "--seed", "5"),
    ("laws", "ahl", "--samples", "25", "--seed", "7", "--format", "machine"),
    ("roundtrip", "--states", "2", "--samples", "15", "--seed", "3"),
    ("translate", "pograded", "2catgraded", "glist"),
])
def test_repeated_runs_byte_identical(capsys, argv):
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_synopses_list_every_flag():
    """The module docstring and README's CLI block name each option of each subcommand."""
    readme = (REPO / "README.md").read_text()
    block = readme[readme.index("## CLI"):readme.index("Exit codes:", readme.index("## CLI"))]
    subs = next(a for a in cli.make_parser()._actions if a.choices)
    for name, parser in subs.choices.items():
        flags = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for text in (cli.__doc__, block):
            lines = " ".join(l for l in text.splitlines() if l.split()[:2] == ["cgm", name])
            assert lines and all(f"[{f} " in lines or f"{f} N" in lines for f in flags), name


def test_main_reuses_one_parser_as_a_fresh_one_would_parse(tmp_path, capsys, monkeypatch):
    gp = tmp_path / "lock.gp"
    gp.write_text(LOCK_GP)
    calls = [
        ("run", str(gp), "--store", "3"),
        ("laws",),                                   # usage errors exit 2 from argparse
        ("laws", "identity", "--samples", "5", "--format", "machine"),
        ("laws", "identity", "--samples", "many"),
        ("roundtrip", "--states", "1", "--samples", "3"),
        (),
        ("run", str(gp)),
        ("translate", "graded", "catgraded"),
        ("laws", "nosuch", "--seed", "2"),
        ("nosuch",),
        ("roundtrip", "--states", "1", "--samples", "3", "--format", "machine"),
    ]

    def outcomes():
        out = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            seen = capsys.readouterr()
            out.append((argv, code, seen.out, seen.err))
        return out

    reused = outcomes()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.make_parser)  # a fresh parser per call
    assert reused == outcomes()
    assert [code for _, code, _, _ in reused] == [0, ("exit", 2), 0, ("exit", 2), 0, ("exit", 2),
                                                  0, ("exit", 2), 2, ("exit", 2), 0]


def test_file_commands_byte_identical(tmp_path, capsys):
    gp = tmp_path / "lock.gp"
    gp.write_text(LOCK_GP)
    ahl = tmp_path / "s.ahl"
    ahl.write_text(TWO_SAMPLERS)
    for argv in (("run", str(gp), "--store", "3"), ("ahl", str(ahl))):
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2


WEAK_TWO_SAMPLERS = """
var x : int[0..9]
var y : int[0..9]

conclude 1/4 : true => (x != 0)

weak 1/4 : true => (x != 0) {
  seq {
    rand x 0 9 : 1/10 : true => (x != 0);
    rand y 0 9 : 1/10 : (x != 0) => (x != 0) && (y != 0)
  }
}
"""


def test_ahl_warm_recheck_byte_identical(tmp_path, capsys):
    # the same program checked plain and under weak, twice over in one
    # process: a re-check must not depend on what earlier checks left behind
    plain = tmp_path / "plain.ahl"
    plain.write_text(TWO_SAMPLERS)
    weak = tmp_path / "weak.ahl"
    weak.write_text(WEAK_TWO_SAMPLERS)
    first = [run_cli(capsys, "ahl", str(p)) for p in (plain, weak)]
    second = [run_cli(capsys, "ahl", str(p)) for p in (plain, weak)]
    assert second == first
    (code_plain, out_plain), (code_weak, out_weak) = first
    assert code_plain == 0 and "failure 19/100" in out_plain
    assert code_weak == 0
    assert out_weak.endswith(
        "node weak: beta 1/4, pre true, post (x != 0), failure 1/10\n"
        "conclusion: |-1/4 : true => (x != 0)\nverdict: valid\n")


def test_ahl_skip_over_ten_thousand_states(tmp_path, capsys):
    f = tmp_path / "skip.ahl"
    f.write_text("".join(f"var x{i} : int[0..9]\n" for i in range(4))
                 + "conclude 0 : (x3 != 5) => (x3 != 5)\nskip : (x3 != 5)\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 0
    assert out == ("node skip: beta 0, pre (x3 != 5), post (x3 != 5), failure 0\n"
                   "conclusion: |-0 : (x3 != 5) => (x3 != 5)\nverdict: valid\n")


COPRIME_SAMPLERS = """
var x : int[0..2]
var y : int[0..4]
var z : int[0..6]

conclude 71/105 : true => (x != 0) && (y != 0) && (z != 0)

seq {
  rand x 0 2 : 1/3 : true => (x != 0);
  rand y 0 4 : 1/5 : (x != 0) => (x != 0) && (y != 0);
  rand z 0 6 : 1/7 : (x != 0) && (y != 0) => (x != 0) && (y != 0) && (z != 0)
}
"""


def test_ahl_rand_ranges_with_coprime_sizes(tmp_path, capsys):
    # denominators 3, 5 and 7: each seq node's distributions are put over
    # the lcm of their continuations' denominators; closed forms
    # 1 - (2/3)(4/5) = 7/15 and 1 - (2/3)(4/5)(6/7) = 19/35
    f = tmp_path / "coprime.ahl"
    f.write_text(COPRIME_SAMPLERS)
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 0
    xy, xyz = "((x != 0) && (y != 0))", "(((x != 0) && (y != 0)) && (z != 0))"
    assert out == (
        "node rand: beta 1/3, pre true, post (x != 0), failure 1/3\n"
        f"node rand: beta 1/5, pre (x != 0), post {xy}, failure 1/5\n"
        f"node seq: beta 8/15, pre true, post {xy}, failure 7/15\n"
        f"node rand: beta 1/7, pre {xy}, post {xyz}, failure 1/7\n"
        f"node seq: beta 71/105, pre true, post {xyz}, failure 19/35\n"
        f"conclusion: |-71/105 : true => {xyz}\nverdict: valid\n")


def test_ahl_assign_range_error_names_the_first_state_in_declaration_order(tmp_path, capsys):
    # y varies slowest in declaration order, so (y, x) = (1, 1) leaves the
    # range first, with x := 3; by name x varies slowest and (0, 2) gives 4
    f = tmp_path / "order.ahl"
    f.write_text("var y : int[0..2]\nvar x : int[0..2]\nconclude 0 : true => true\n"
                 "assign x := 2 * y + x : true\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 1
    assert out == ("RangeError: x := 3 leaves the declared range [0..2]\n"
                   "verdict: invalid\n")


# A leaf's RangeError surfaces at that node's turn, before the conclusion is
# compared with the claimed one; outputs recorded before leaves were checked by
# index arithmetic.
@pytest.mark.parametrize("content", [
    "var x : int[0..2]\nvar y : int[0..1]\nconclude 1/2 : true => (x == 0)\n"
    "assign x := x + y + 1 : true\n",
    "var x : int[0..2]\nconclude 1/2 : true => (x == 0)\n"
    "seq { skip : true; assign x := x + 1 : true }\n",
    "var x : int[0..2]\nconclude 1/2 : true => (x == 0)\n"
    "seq { assign x := x + 1 : true; skip : true }\n",
], ids=["leaf", "second-part", "first-part"])
def test_ahl_range_error_comes_before_a_wrong_conclusion(tmp_path, capsys, content):
    f = tmp_path / "claim.ahl"
    f.write_text(content)
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 1
    assert out == "RangeError: x := 3 leaves the declared range [0..2]\nverdict: invalid\n"


CHAIN216 = """
var x0 : int[0..5]
var x1 : int[0..5]
var x2 : int[0..5]

conclude {total} : true => (((x2 != 3) && (x1 != 0)) && (x0 != 4))

seq {{
  rand x2 0 5 : {beta} : true => (x2 != 3);
  rand x1 0 5 : {beta} : (x2 != 3) => ((x2 != 3) && (x1 != 0));
  rand x0 0 5 : {beta} : ((x2 != 3) && (x1 != 0)) => (((x2 != 3) && (x1 != 0)) && (x0 != 4))
}}
"""


@pytest.mark.parametrize("beta,total,code,reason", [
    ("1/6", "1/2", 0, None),
    ("1/7", "3/7", 1, "rand node: failure probability 1/6 exceeds bound 1/7"),
], ids=["valid", "under-bounded"])
def test_ahl_rand_chain_over_216_states(tmp_path, capsys, beta, total, code, reason):
    # three `rand _ 0 5` over 6^3 states, each seq node's distributions
    # merged across every middle state; closed forms: each rand fails
    # with 1/6, a prefix of k of them with 1 - (5/6)^k: 11/36, then 91/216
    f = tmp_path / "chain216.ahl"
    f.write_text(CHAIN216.format(beta=beta, total=total))
    out_code, out = run_cli(capsys, "ahl", str(f))
    assert out_code == code
    b = Fraction(beta)
    p1, p2 = "(x2 != 3)", "((x2 != 3) && (x1 != 0))"
    p3 = "(((x2 != 3) && (x1 != 0)) && (x0 != 4))"
    assert out == (
        f"node rand: beta {b}, pre true, post {p1}, failure 1/6\n"
        f"node rand: beta {b}, pre {p1}, post {p2}, failure 1/6\n"
        f"node seq: beta {2 * b}, pre true, post {p2}, failure 11/36\n"
        f"node rand: beta {b}, pre {p2}, post {p3}, failure 1/6\n"
        f"node seq: beta {3 * b}, pre true, post {p3}, failure 91/216\n"
        f"conclusion: |-{total} : true => {p3}\n"
        + (f"reason: {reason}\nverdict: invalid\n" if reason else "verdict: valid\n"))


# sha256 of stdout, recorded before the law suites of the source structures
# were rebuilt on the category-graded engine (the two text-format `ahl`
# reports: before distributions kept integer numerators; the `concst` and
# `lock.cat` reports: before product objects kept their component pair); a
# change that alters any of these outputs (law names, sampling order,
# rendering) shows up here; paths are relative to the repository root
_GOLDEN = [
    (("laws", "broken-glist", "--samples", "30", "--seed", "9"), 1,
     "4dbd6bfed5be199dd5510f517afe3b73507fdc005ef5d37a40905d45e42aa973"),
    (("laws", "broken-ahl", "--samples", "30", "--seed", "9", "--format", "machine"), 1,
     "acaee10b8691df813b74ec4ff2717d8967847275c3e64940673e95ebb9605602"),
    (("laws", "ahl", "--samples", "30", "--seed", "9"), 0,
     "ec5f4550952746838c5ec2077cb26c1c61f690fe669b40305814fa25aabe7f92"),
    (("laws", "broken-ahl", "--samples", "30", "--seed", "9"), 1,
     "752d1b146eca6f165c8b07ec17b74a47127188971ba6677cfc626aed93fd126a"),
    (("laws", "tstate", "--samples", "30", "--seed", "9"), 0,
     "f58e5815b8aaf451209e582cf120cacf6d08256b614dff583909d2df1b8b82b7"),
    (("laws", "concst", "--samples", "30", "--seed", "9"), 0,
     "6adf2a52b591c77ab9f79d0bd18f534b2d4a96b4bf0c78e1395af6466078f76c"),
    (("laws", "identity", "--category", "programs/lock.cat", "--samples", "30", "--seed", "9"), 0,
     "00cdcfecb5de64457b31abd50a99278fa6584ed9ad1220210a493e80c733cf49"),
    (("translate", "graded", "catgraded", "glist"), 0,
     "fda9f71414bc01fd7dc40641578a1ee3019af06c7e1371a85b41ab8036003fb6"),
    (("translate", "param", "catgraded", "tstate"), 0,
     "8e5c9665aeb61d5de3f9440452e1ddc04d8b4cea3c01ec28d2389aaff8faf9a8"),
    (("roundtrip", "--states", "2", "--samples", "15", "--seed", "4"), 0,
     "6d55fef1ce15e90b7d48192f866c3620221ceacc4c4c545145642b4972a5fa47"),
    (("laws", "glist", "--samples", "30", "--seed", "9"), 0,
     "574efc4214b86c2ad4cbf8bf10e516cb0128985e6e69b023ebf4365b6bc256e6"),
    (("translate", "monad", "catgraded", "list"), 0,
     "3d00e4fb9c0f57f1ccf712953ffe2b6e7a8899200e131df0bef9669190bdb0cc"),
    (("translate", "discrete-param", "catgraded", "tstate"), 0,
     "5c3de93feb007098056f187fc76954b75e69bac41e4b228709a652ae45ecb51b"),
    # the identity monad's report carries only law counts, so these two
    # match the lock.cat row: they pin that each kind loads and is lawful
    (("laws", "identity", "--category", "programs/diamond.cat", "--samples", "30", "--seed", "9"), 0,
     "00cdcfecb5de64457b31abd50a99278fa6584ed9ad1220210a493e80c733cf49"),
    (("laws", "identity", "--category", "programs/nat_plus.cat", "--samples", "30", "--seed", "9"), 0,
     "00cdcfecb5de64457b31abd50a99278fa6584ed9ad1220210a493e80c733cf49"),
    (("run", "programs/lock.gp"), 0,
     "8133901a75aab77dccfa16bf4ec79ad4d7644498a3f7dc9fb22456ea5f0bbeb6"),
    (("run", "programs/lock.gp", "--store", "0"), 0,
     "6935a2f6d1120621b943001a72a368bd66c24e1c3a41696c71f07f36d8d925fd"),
    (("run", "programs/lock.gp", "--store", "3"), 0,
     "e23c0ee653879f8ae57eec423ba78dd26897b984310dc7fb7328f732c79ef1f9"),
    (("run", "programs/lock.gp", "--store", "7"), 2,
     "dd94a403073d1316ba8c54ee22b61c078328366c75cec846490e235d2ed6aa95"),
    (("run", "programs/lock.gp", "--store", "9"), 2,
     "f310cc030d05aaf427b90c658d72828c9a2d252d7784c7204087ea7709fc0f2a"),
]


@pytest.mark.parametrize("argv,exit_code,digest", _GOLDEN,
                         ids=[" ".join(a) for a, _, _ in _GOLDEN])
def test_stdout_matches_recorded_digest(capsys, monkeypatch, argv, exit_code, digest):
    monkeypatch.chdir(REPO)
    code, out = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the repr of every law instantiation's (law, str(indices), input,
# lhs, rhs), recorded before law pools became lazy streams; a lawful report
# prints only counts, so only these notice a law drawing other data or the
# same data in another order (argv None: the list-sort homomorphism's laws)
_TRACES = [
    (("laws", "identity", "--samples", "40", "--seed", "5"),
     "baaef14870dc3a3ed5c589d29e6e3b4c5a2809c769617dcadb2f785037d4154a"),
    (("laws", "concst", "--samples", "40", "--seed", "5"),
     "b2375b3f719689cdb7d39328ac8f07f91be88353bc9b5d061cd338331b3e7022"),
    (("laws", "glist", "--samples", "40", "--seed", "5"),
     "c37fa292cb4ec900e5a7fa6fa289c0187c672047778cc6ba47a37a98925365e1"),
    (("laws", "tstate", "--samples", "40", "--seed", "5"),
     "1a85a44612111d94b4650706d2a7838083c1cb1925d916d153c25f84729f91bb"),
    (("laws", "ahl", "--samples", "40", "--seed", "5"),
     "93a44c39188f70f1dda2aad773b67eccea92b96cbcfc51c6d7a6c4ff2b7a14bc"),
    (("translate", "param", "catgraded", "tstate"),
     "ea2d9890fca4b45f978402b573b91b0466d4ded1977f5f5eeb4ee26b10527c39"),
    (("roundtrip", "--states", "2", "--samples", "15"),
     "e6acc3c995142a5cc7639d5a08320697b66054a57f9c81f02db6dd42cd0d92be"),
    (None, "ce601a3640b6542723e694c90831b9fe51321a0008c817d14be2fbabbdf01677"),
]


@pytest.mark.parametrize("argv,digest", _TRACES,
                         ids=[" ".join(a) if a else "hom list-sort" for a, _ in _TRACES])
def test_law_data_match_recorded_trace(capsys, monkeypatch, argv, digest):
    trace = []
    law = core.Runner.law

    def traced(self, name, data, body):
        def recorded(datum, rng):
            out = body(datum, rng)
            indices, inp, lhs, rhs = out
            trace.append((name, str(indices), inp.show(), lhs.show(), rhs.show()))
            return out
        return law(self, name, data, recorded)

    monkeypatch.setattr(core.Runner, "law", traced)
    if argv is None:
        assert core.check_laws(list_sort_homomorphism(), samples=40).ok()
    else:
        assert run_cli(capsys, *argv)[0] == 0
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == digest


# --- the error boundary: one stdout line and a documented code, never a traceback ---

_BAD_START = "instance {}\nstart bogus\ndo {{ 1 }}\n"
_LATIN1 = "instance concst # caf\u00e9\n".encode("latin-1")
_NOT_UTF8 = ("error: {}: 'utf-8' codec can't decode byte 0xe9 in position 21: "
             "invalid continuation byte\n")
_STORE = "error: --store needs a store-passing instance; the result of {} is not a table\n"
_DIRECTORY = None  # the case's path is a directory

# (id, argv with {} for the path, file content, exit code, stdout with {} for the path)
_ERROR_CASES = [
    ("bad-start-concst", ("run", "{}"), _BAD_START.format("concst"), 2,
     "error: no object named bogus\n"),
    ("bad-start-glist", ("run", "{}"), _BAD_START.format("glist"), 2,
     "error: no object named bogus\n"),
    ("bad-start-tstate", ("run", "{}"), _BAD_START.format("tstate"), 2,
     "error: no object named bogus\n"),
    ("bad-start-ahl", ("run", "{}"), _BAD_START.format("ahl"), 2,
     "error: bogus is not a product object\n"),
    ("unknown-instance", ("run", "{}"), "instance nosuch\ndo { 1 }\n", 2,
     "error: unknown instance 'nosuch'; known: identity, glist, broken-glist, concst, "
     "tstate, ahl, broken-ahl\n"),
    ("directory-run", ("run", "{}"), _DIRECTORY, 2, "error: [Errno 21] Is a directory: '{}'\n"),
    ("directory-ahl", ("ahl", "{}"), _DIRECTORY, 2, "error: [Errno 21] Is a directory: '{}'\n"),
    ("store-identity", ("run", "{}", "--store", "4"), "instance identity\ndo { 1 }\n", 2,
     "grade: id_free : free -> free\n" + _STORE.format("identity")),
    ("store-glist", ("run", "{}", "--store", "0"), "instance glist\ndo { pure (1, 2) }\n", 2,
     "grade: 1 : * -> *\n" + _STORE.format("glist")),
    ("not-utf8-run", ("run", "{}"), _LATIN1, 2, _NOT_UTF8),
    ("not-utf8-ahl", ("ahl", "{}"), _LATIN1, 2, _NOT_UTF8),
    ("not-utf8-category", ("laws", "identity", "--category", "{}"), _LATIN1, 2, _NOT_UTF8),
    ("undeclared-formula-variable", ("ahl", "{}"),
     "var x : int[0..3]\nconclude 0 : true => (z == 1)\nskip : (z == 1)\n", 3,
     "parse error: 2:23: undeclared variable 'z'\n"),
    ("repeated-generator-label", ("laws", "identity", "--category", "{}"),
     "kind free\nobjects a b\ngen f : a -> b\ngen f : b -> a\n", 2,
     "error: generator f is declared twice\n"),
    ("store-header-glist", ("run", "{}"), "instance glist\nstore int[0..3]\ndo { pure 1 }\n", 2,
     "error: a store header applies only to instance concst, not glist\n"),
    ("var-header-gp", ("run", "{}"), "instance concst\nvar x : int[0..3]\ndo { pure 1 }\n", 3,
     "parse error: 2:1: expected 'do', found 'var'\n"),
    ("repeated-ahl-variable", ("ahl", "{}"),
     "var x : int[0..1]\nvar x : int[0..2]\nconclude 0 : true => true\nskip : true\n", 3,
     "parse error: 2:5: variable 'x' is declared twice\n"),
    ("number-as-variable", ("ahl", "{}"),
     "var 5 : int[0..1]\nconclude 0 : true => true\nskip : true\n", 3,
     "parse error: 1:5: expected a variable name, found '5'\n"),
    ("parenthesis-as-variable", ("ahl", "{}"),
     "var ( : int[0..1]\nconclude 0 : true => true\nskip : true\n", 3,
     "parse error: 1:5: expected a variable name, found '('\n"),
    ("formula-constant-as-variable", ("ahl", "{}"),
     "var true : int[0..1]\nconclude 0 : true => true\nskip : true\n", 3,
     "parse error: 1:5: 'true' is a constant, not a variable name\n"),
    ("formula-as-arithmetic-operand", ("ahl", "{}"),
     "var x : int[0..3]\nconclude 0 : (x == 1) + 2 => true\nskip : true\n", 3,
     "parse error: 2:23: '+' applies to expressions, not formulas\n"),
    ("chained-comparison", ("ahl", "{}"),
     "var x : int[0..3]\nconclude 0 : x == 1 == 2 => true\nskip : true\n", 3,
     "parse error: 2:21: '==' applies to expressions, not formulas\n"),
    ("unclosed-parenthesis", ("ahl", "{}"),
     "var x : int[0..3]\nconclude 0 : true => true\nskip : (x == 1\n", 3,
     "parse error: 4:1: expected ')', found end of input\n"),
    ("triple-in-gp", ("run", "{}"), "instance concst\ndo { pure (1, 2, 3) }\n", 3,
     "parse error: 2:16: expected ')', found ','\n"),
    ("spawn-without-spawn", ("run", "{}"),
     "instance tstate\ndo { spawn do { pure () }; pure () }\n", 2,
     "grade error: 2:6: instance has no spawn\n"),
    ("spawn-in-critical", ("run", "{}"),
     "instance concst\ndo { lock; spawn do { pure () }; unlock }\n", 2,
     "grade error: 2:12: spawn used at critical, only available at free\n"),
    ("spawn-body-leaves-free", ("run", "{}"),
     "instance concst\ndo { spawn do { lock; pure () }; pure () }\n", 2,
     "grade error: 2:6: spawn body has grade (lock : free -> critical), needs free -> free\n"),
    # the input file is not read: these refuse a sample count, as `laws` does
    ("roundtrip-zero-samples", ("roundtrip", "--states", "2", "--samples", "0"), "", 2,
     "error: --samples must be at least 1\n"),
    ("roundtrip-negative-samples", ("roundtrip", "--states", "2", "--samples", "-3"), "", 2,
     "error: --samples must be at least 1\n"),
]


@pytest.mark.parametrize("argv,content,exit_code,expected", [c[1:] for c in _ERROR_CASES],
                         ids=[c[0] for c in _ERROR_CASES])
def test_error_is_one_line_and_a_documented_code(tmp_path, capsys, argv, content,
                                                 exit_code, expected):
    path = tmp_path / "input"
    if content is _DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == exit_code
    assert out == expected.format(path)


@pytest.mark.parametrize("name,exit_code,expected", [
    ("broken-glist", 0, "grade: 1 : * -> *\nresult: [1]\n"),
    # selected, then refused as `ahl` is: not a parse error at the '-'
    ("broken-ahl", 2, "grade error: instance has no default start object\n"),
])
def test_run_selects_hyphenated_instance(tmp_path, capsys, name, exit_code, expected):
    gp = tmp_path / "mutant.gp"
    gp.write_text(f"instance {name}\ndo {{ pure 1 }}\n")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == exit_code
    assert out == expected


_PROTOCOL_STATEMENTS = ("lock; x <- get; put(x + 1); unlock", "lock; put(9); unlock",
                        "spawn do { lock; unlock; pure () }", "pure ()", "1")
_ANY_STATEMENTS = _PROTOCOL_STATEMENTS + ("lock", "unlock", "get", "x <- get",
                                          "put(x + 1)", "put(1)", "y", "frob")


@st.composite
def _gp_programs(draw):
    """A .gp source over every instance, start object and store header,
    with 1-6 statements drawn from the lock primitives, pure terms,
    unbound names and unknown primitives; and an optional --store.  Half
    the draws are `concst`, half have no `start`, and half use only whole
    protocol runs, so that programs which run are drawn too.  The other
    draws include the hyphenated mutants `broken-glist` and `broken-ahl`."""
    instance = draw(st.just("concst") | st.sampled_from(instance_names() + ("nosuch",)))
    lines = [f"instance {instance}"]
    start = draw(st.none() | st.sampled_from(("free", "critical", "*", "A", "B", "bogus")))
    if start is not None:
        lines.append(f"start {start}")
    if draw(st.booleans()):
        lo = draw(st.integers(0, 3))
        lines.append(f"store int[{lo}..{lo + draw(st.integers(0, 3))}]")
    pool = _PROTOCOL_STATEMENTS if draw(st.booleans()) else _ANY_STATEMENTS
    stmts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    lines.append("do { " + "; ".join(stmts) + " }")
    store = draw(st.none() | st.integers(0, 8))
    return "\n".join(lines) + "\n", () if store is None else ("--store", str(store))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=_gp_programs())
def test_run_fuzzed_programs_exit_with_a_documented_code(tmp_path_factory, case):
    text, extra = case
    gp = tmp_path_factory.getbasetemp() / "fuzz.gp"
    gp.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(gp), *extra])
    # `run` checks no law or derivation, so it never exits 1
    assert code in (0, 2, 3), out.getvalue()
    if code != 0:
        assert out.getvalue().splitlines()[-1].startswith(
            ("error: ", "parse error: ", "grade error: ", "store ")), out.getvalue()


_CAT_NAMES = ("a", "b", "c")
_CAT_JUNK = ("gen f a b", "arrows f", "kind", "monoid")


@st.composite
def _cat_files(draw):
    """A .cat source: a `kind` line (or none, or a bad one), the objects
    a and b or some of them, and 0-4 `gen` lines labelled f or g.  So
    labels repeat and graphs cycle under every kind.  Half the draws take
    endpoints from a, b and the undeclared c, so that they may dangle,
    the other half from the declared objects only.  `kind monoid` may draw a
    `monoid` line, and one draw in ten adds a malformed line.  With two
    labels an accepted graph has at most two generators, which bounds the
    run: the index pool grows as the fourth power of the generators, the
    law triples as the cube of the pool."""
    kind = draw(st.sampled_from(("free", "table", "monoid", None, "bogus")))
    lines = [] if kind is None else [f"kind {kind}"]
    objects = draw(st.lists(st.sampled_from(_CAT_NAMES[:2]), max_size=2, unique=True))
    if objects:
        lines.append("objects " + " ".join(objects))
    ends = st.sampled_from(objects if objects and draw(st.booleans()) else _CAT_NAMES)
    for _ in range(draw(st.integers(0, 4))):
        label, src, tgt = draw(st.sampled_from("fg")), draw(ends), draw(ends)
        lines.append(f"gen {label} : {src} -> {tgt}")
    if kind == "monoid" and draw(st.booleans()):
        lines.append("monoid " + draw(st.sampled_from(
            ("nat-plus", "nat-times", "prob-sat", "bogus"))))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_CAT_JUNK)))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=_cat_files())
def test_laws_over_fuzzed_categories_exit_with_a_documented_code(tmp_path_factory, text):
    cat = tmp_path_factory.getbasetemp() / "fuzz.cat"
    cat.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["laws", "identity", "--category", str(cat), "--samples", "3"])
    # the identity monad is lawful over every category a file can describe,
    # so a bad file is a config (2) or parse (3) error, never a failure (1)
    assert code in (0, 2, 3), text + out.getvalue()
    if code != 0:
        assert out.getvalue().startswith(("error: ", "parse error: ")), out.getvalue()
        assert out.getvalue().count("\n") == 1, out.getvalue()


def test_run_150_statements(tmp_path, capsys):
    gp = tmp_path / "long.gp"
    gp.write_text("instance concst\nstart free\ndo {\n"
                  + "lock; put(1); unlock;\n" * 50 + "pure ()\n}\n")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 0 and out.startswith("grade: ")


def test_run_210_statements(tmp_path, capsys):
    gp = tmp_path / "long.gp"
    gp.write_text("instance concst\nstart free\ndo {\n"
                  + "lock; put(1); unlock;\n" * 70 + "pure ()\n}\n")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 0 and out.startswith("grade: ")


# Evaluation keeps its suspended binds on an explicit stack, so program
# length costs it no interpreter stack.

def test_run_300_statements(tmp_path, capsys):
    gp = tmp_path / "long.gp"
    gp.write_text("instance concst\nstart free\ndo {\n"
                  + "lock; put(1); unlock;\n" * 100 + "pure ()\n}\n")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 0 and out.startswith("grade: ")


# A pure expression's shape, free variables and value are walked on explicit
# stacks, so its depth costs no interpreter stack.  An operand of arithmetic is
# checked before the next one is visited, so the left one's error comes first.

@pytest.mark.parametrize("arg, expected", [
    ("true + y", "grade error: arithmetic on non-integer (bool)\n"),
    ("y + true", "grade error: unbound variable 'y'\n"),
])
def test_run_arithmetic_errors_surface_from_the_left(tmp_path, capsys, arg, expected):
    gp = tmp_path / "arith.gp"
    gp.write_text(f"instance concst\nstart free\ndo {{\nlock; put({arg}); unlock\n}}\n")
    assert run_cli(capsys, "run", str(gp)) == (2, expected)


def test_run_ten_thousand_deep_arithmetic(tmp_path, capsys):
    depth = 10_000  # x - (x - (... x)) is 0 at an even depth
    arg = "x - (" * (depth - 1) + "x" + ")" * (depth - 1)
    gp = tmp_path / "deep.gp"
    gp.write_text("instance concst\nstart free\nstore int[0..3]\n"
                  f"do {{\nlock; x <- get; put({arg}); unlock\n}}\n")
    assert run_cli(capsys, "run", str(gp)) == (0, (
        "grade: lock;get;put;unlock : free -> free\n"
        "result: {0 -> ((), 0); 1 -> ((), 0); 2 -> ((), 0); 3 -> ((), 0)}\n"))


def test_run_never_nests_fmap(tmp_path, capsys, monkeypatch):
    # a continuation that ran inside the functor map of its bind would nest
    # one fmap per statement; a structural count, not a timing
    depth = [0, 0]  # current, deepest
    fmap = metalang.fmap

    def counting(*args):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return fmap(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(metalang, "fmap", counting)
    for rounds in (20, 60):
        gp = tmp_path / f"r{rounds}.gp"
        gp.write_text("instance concst\nstart free\ndo {\n"
                      + "lock; put(1); unlock;\n" * rounds + "pure ()\n}\n")
        depth[1] = 0
        code, out = run_cli(capsys, "run", str(gp))
        assert code == 0 and out.startswith("grade: ")
        assert depth[1] == 1, (rounds, depth[1])


# Grade inference still recurses once per statement (`metalang._infer`'s
# `go`), so longer programs overflow the interpreter stack there.  This
# marks the defect until that walker is iterative; then it passes, and
# strict makes the suite say so.

@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="grade inference (metalang._infer) recurses once per statement")
def test_run_1200_statements(tmp_path, capsys):
    gp = tmp_path / "long.gp"
    gp.write_text("instance concst\nstart free\ndo {\n"
                  + "lock; put(1); unlock;\n" * 400 + "pure ()\n}\n")
    code, out = run_cli(capsys, "run", str(gp))
    assert code == 0 and out.startswith("grade: ")


# A bind's compose trusts the paths the lock category built, so the
# generators `FreeCategory.contains` walks do not grow with the path composed
# so far: a count of work done, not a timing.

def test_run_walks_generators_at_most_linearly(tmp_path, capsys, monkeypatch):
    walked = [0]
    contains = FreeCategory.contains

    def counting(cat, m):
        walked[0] += len(m.word.gens) if isinstance(m.word, WPath) else 0
        return contains(cat, m)

    monkeypatch.setattr(FreeCategory, "contains", counting)

    def walk(rounds):
        gp = tmp_path / f"r{rounds}.gp"
        gp.write_text("instance concst\nstart free\ndo {\n"
                      + "lock; put(1); unlock;\n" * rounds + "pure ()\n}\n")
        walked[0] = 0
        code, out = run_cli(capsys, "run", str(gp))
        assert code == 0 and out.startswith("grade: ")
        return walked[0]

    assert walk(60) <= 3 * walk(20)


# The expression parser keeps open parentheses on an explicit stack, so
# nesting depth costs no interpreter stack.

def test_ahl_formula_600_parentheses_deep(tmp_path, capsys):
    phi = "(" * 600 + "x == 0" + ")" * 600
    f = tmp_path / "deep.ahl"
    f.write_text(f"var x : int[0..1]\nconclude 0 : {phi} => {phi}\nskip : {phi}\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 0 and out.endswith("verdict: valid\n")


@pytest.mark.parametrize("phi", [
    "(" * 10_000 + "x + 1" + ")" * 10_000 + " == 1",
    "(" * 10_000 + "x == 0" + ")" * 10_000,
])
def test_ahl_formula_10000_parentheses_deep(tmp_path, capsys, phi):
    f = tmp_path / "deep.ahl"
    f.write_text(f"var x : int[0..1]\nconclude 0 : {phi} => {phi}\nskip : {phi}\n")
    code, out = run_cli(capsys, "ahl", str(f))
    assert code == 0 and out.endswith("verdict: valid\n")


def test_run_pure_expression_10000_parentheses_deep(tmp_path, capsys):
    gp = tmp_path / "deep.gp"
    gp.write_text("instance concst\nstart free\ndo { pure "
                  + "(" * 10_000 + "1, 2" + ")" * 10_000 + " }\n")
    code, out = run_cli(capsys, "run", str(gp), "--store", "0")
    assert code == 0
    assert out == "grade: id_free : free -> free\nstore 0: result (1, 2), final 0\n"
