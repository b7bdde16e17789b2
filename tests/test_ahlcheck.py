"""`.ahl` checking by violation vectors, against composite payloads.

`check_ahl` finds each node's failure probability by pulling its post's
violation indicator back through the payloads along its spine, and builds a
seq's composite only where it is some seq's first part.  These tests hold
it to the definition it replaced: every node's program interpreted as one
table, and its failure read off that table.
"""

import collections
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cgm.instances.ahl as ahl_module
from cgm import cli
from cgm.ahlcheck import (
    AhlVerdict,
    DAssign,
    DRand,
    DSeq,
    DSkip,
    DWeak,
    NodeReport,
    check_ahl,
    conclusion,
    interpret,
    pull,
)
from cgm.errors import CgmError, RangeError
from cgm.formulas import EBin, EInt, EVar, FAnd, FCmp, FNot, FOr, TRUE, VarDecl
from cgm.instances import AhlMonad, ahl_instance
from test_instances import _ahl_decls

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
_RULE = {DSkip: "skip", DAssign: "assign", DRand: "rand", DSeq: "seq", DWeak: "weak"}
_BETAS = (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def _children(d):
    if isinstance(d, DSeq):
        return [d.first, d.second]
    return [d.child] if isinstance(d, DWeak) else []


def _postorder(d):
    return [n for c in _children(d) for n in _postorder(c)] + [d]


def _reference_check(inst, d):
    """`check_ahl` by its definition: every node's program interpreted as a
    composite table, and its failure probability read off that table."""
    jmemo, pmemo, nodes = {}, {}, []
    for node in _postorder(d):
        j = conclusion(inst, node, jmemo)
        fail = inst.failure_prob(interpret(inst, node, pmemo), j.pre, j.post)
        nodes.append(NodeReport(_RULE[type(node)], j, fail))
    bad = [n for n in nodes if n.failure > n.judgement.beta]
    message = (f"{bad[0].rule} node: failure probability {bad[0].failure} "
               f"exceeds bound {bad[0].judgement.beta}") if bad else ""
    return AhlVerdict(not bad, tuple(nodes), j, message)


def _plain_failure(inst, payload, pre, post):
    """Max over starts satisfying pre of the mass on states violating post,
    as a sum of `Fraction`s over a set of the violating states."""
    bad = {sv for sv, ok in zip(inst.svalues, inst.holds(post)) if not ok}
    return max((sum((Fraction(n, payload.get(sv).den) for pr, n in payload.get(sv).atoms
                     if pr.fst in bad), Fraction(0))
                for sv, ok in zip(inst.svalues, inst.holds(pre)) if ok), default=Fraction(0))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CgmError as e:
        return type(e), str(e)


# --- drawn derivations ---

@st.composite
def _atoms(draw, names, hi):
    op = draw(st.sampled_from(["==", "!=", "<="]))
    return FCmp(op, EVar(draw(st.sampled_from(names))), EInt(draw(st.integers(0, hi))))


@st.composite
def _formulas(draw, names, hi):
    a = draw(_atoms(names, hi))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return a
    b = draw(_atoms(names, hi))
    return (FAnd(a, b), FOr(a, b), FNot(a))[kind - 1]


@st.composite
def _leaf(draw, inst, names, hi, pre):
    """A rand, skip or assign leaf under a weak whose pre is `pre`: the
    weak's implications are valid by construction."""
    kind = draw(st.sampled_from(["rand", "skip", "assign"]))
    x = draw(st.sampled_from(names))
    if kind == "rand":
        lo = draw(st.integers(0, hi))
        leaf = DRand(x, lo, draw(st.integers(lo, hi)), draw(st.sampled_from(_BETAS)),
                     draw(st.sampled_from([TRUE, pre])), draw(_formulas(names, hi)))
    elif kind == "skip":
        leaf = DSkip(pre)
    else:  # x := e : (x == e), whose pre (e == e) holds everywhere
        e = draw(st.sampled_from([EInt(draw(st.integers(0, hi))),
                                  EVar(draw(st.sampled_from(names)))]))
        leaf = DAssign(x, e, FCmp("==", EVar(x), e))
    return draw(_weakened(inst, names, hi, leaf, pre))


@st.composite
def _weakened(draw, inst, names, hi, d, pre):
    """d under a weak with pre `pre`, a bound at least d's and a post that
    d's post implies: the same one, or it or-ed with another formula."""
    j = conclusion(inst, d)
    post = draw(st.sampled_from([j.post, FOr(j.post, draw(_formulas(names, hi))), TRUE]))
    beta = min(j.beta + draw(st.sampled_from(_BETAS)), Fraction(1))
    return DWeak(d, beta, pre, post)


@st.composite
def _derivation(draw, inst, names, hi, pre, size):
    """A schema-valid derivation with `size` leaves concluding from `pre`:
    random bracketing, so seq nests both ways and weak sits over seq."""
    if size == 1:
        return draw(_leaf(inst, names, hi, pre))
    k = draw(st.integers(1, size - 1))
    first = draw(_derivation(inst, names, hi, pre, k))
    d = DSeq(first, draw(_derivation(inst, names, hi, conclusion(inst, first).post, size - k)))
    if draw(st.booleans()):
        d = draw(_weakened(inst, names, hi, d, pre))
    return d


@st.composite
def _cases(draw):
    names = ["x", "y", "z"][:draw(st.integers(1, 3))]
    hi = draw(st.integers(1, 2))
    inst = ahl_instance([VarDecl(x, 0, hi) for x in names])
    d = draw(_derivation(inst, names, hi, draw(_formulas(names, hi)), draw(st.integers(1, 6))))
    return inst, d


def _mutate(draw, d, names, hi):
    """d with one node replaced by a broken variant, chosen by postorder
    position: out-of-range or undeclared leaves, a lowered weak bound, a
    weak pre that does not entail, a swapped seq."""
    target = draw(st.sampled_from(_postorder(d)))

    def rebuild(n):
        if n is target:
            return draw(st.sampled_from(_variants(n, names, hi)))
        if isinstance(n, DSeq):
            return DSeq(rebuild(n.first), rebuild(n.second))
        if isinstance(n, DWeak):
            return DWeak(rebuild(n.child), n.beta, n.pre, n.post)
        return n

    return rebuild(d)


def _variants(n, names, hi):
    x = names[0]
    if isinstance(n, DRand):
        return [DRand(n.var, n.lo, hi + 1, n.beta, n.pre, n.post),
                DRand("w", 0, 0, n.beta, n.pre, n.post),
                DRand(n.var, n.lo, n.hi, Fraction(3, 2), n.pre, n.post),
                DRand(n.var, n.lo, n.hi, n.beta, n.pre, FNot(n.post))]
    if isinstance(n, DAssign):
        return [DAssign(n.var, EInt(hi + 1), n.post),
                DAssign(n.var, EBin("+", EVar(x), EInt(1)), n.post)]
    if isinstance(n, DSkip):
        return [DSkip(FNot(n.pre))]
    if isinstance(n, DWeak):
        return [DWeak(n.child, Fraction(-1), n.pre, n.post),
                DWeak(n.child, n.beta, TRUE, n.post),
                DWeak(n.child, n.beta, n.pre, FCmp("==", EVar(x), EInt(hi + 1)))]
    return [DSeq(n.second, n.first)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_cases())
def test_every_node_failure_matches_its_composite(case):
    inst, d = case
    v = check_ahl(inst, d)
    ref = _reference_check(inst, d)
    assert v == ref
    pmemo = {}
    for node, report in zip(_postorder(d), v.nodes):
        p = interpret(inst, node, pmemo)
        j = report.judgement
        assert report.failure == inst.failure_prob(p, j.pre, j.post)
        assert report.failure == _plain_failure(inst, p, j.pre, j.post)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_cases(), st.data())
def test_mutated_derivations_fail_as_the_composite_check_does(case, data):
    inst, d = case
    names = [decl.name for decl in inst.decls]
    for _ in range(data.draw(st.integers(1, 2))):
        d = _mutate(data.draw, d, names, inst.decls[0].hi)
    fresh = AhlMonad(inst.decls)
    assert _outcome(check_ahl, inst, d) == _outcome(_reference_check, fresh, d)


# --- work done ---

def _ahl_file(tmp_path, text):
    path = tmp_path / "d.ahl"
    path.write_text("var x0 : int[0..2]\nvar x1 : int[0..2]\nvar x2 : int[0..2]\n" + text)
    return str(path)


_R0 = "rand x0 0 2 : 1/3 : true => (x0 != 0)"
_R1 = "rand x1 0 2 : 1/3 : (x0 != 0) => ((x0 != 0) && (x1 != 0))"
_R2 = "rand x2 0 2 : 1/3 : ((x0 != 0) && (x1 != 0)) => (((x0 != 0) && (x1 != 0)) && (x2 != 0))"


@pytest.mark.parametrize("text,seqs", [
    (f"conclude 1 : true => (((x0 != 0) && (x1 != 0)) && (x2 != 0))\n"
     f"seq {{ {_R0}; {_R1}; {_R2} }}", 1),
    (f"conclude 1 : true => ((x1 != 0) || (x2 == 0))\n"
     f"weak 1 : true => ((x1 != 0) || (x2 == 0)) {{ seq {{ {_R0}; {_R1} }} }}", 0),
    (f"conclude 2/3 : true => ((x0 != 0) && (x1 != 0))\n"
     f"weak 2/3 : true => ((x0 != 0) && (x1 != 0)) {{ seq {{ {_R0}; {_R1} }} }}", 0),
], ids=["left-nested-chain-of-3", "weak-over-seq-new-post", "weak-over-seq-same-post"])
def test_composites_are_built_only_as_first_parts(tmp_path, capsys, monkeypatch, text, seqs):
    # over 27 states; the composite check built one more seq in each case
    calls = []
    seq = AhlMonad.seq
    monkeypatch.setattr(AhlMonad, "seq", lambda self, a, b: calls.append(1) or seq(self, a, b))
    assert cli.main(["ahl", _ahl_file(tmp_path, text)]) == 0
    assert "verdict: valid" in capsys.readouterr().out
    assert len(calls) == seqs


def test_a_flat_seq_of_a_thousand_rands_checks_without_recursion(tmp_path, capsys):
    steps = ";\n".join(["rand x 0 1 : 0 : true => true"] * 999
                        + ["rand x 0 1 : 1/2 : true => (x != 0)"])
    path = tmp_path / "long.ahl"
    path.write_text(f"var x : int[0..1]\nconclude 1/2 : true => (x != 0)\nseq {{\n{steps}\n}}\n")
    assert cli.main(["ahl", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1999 + 2 and out[-1] == "verdict: valid"
    assert out[-3] == "node seq: beta 1/2, pre true, post (x != 0), failure 1/2"


# The derivation parser keeps open seq and weak nodes on an explicit stack,
# so nesting depth costs no interpreter stack.

@pytest.mark.parametrize("depth", [2_000, 10_000])
def test_deeply_nested_seqs_check(tmp_path, capsys, depth):
    body = "skip : true"
    for _ in range(depth):
        body = f"seq {{ skip : true; {body} }}"
    path = tmp_path / "deep.ahl"
    path.write_text(f"var x : int[0..1]\nconclude 0 : true => true\n{body}\n")
    assert cli.main(["ahl", str(path)]) == 0
    node = "node {}: beta 0, pre true, post true, failure 0\n"
    assert capsys.readouterr().out == (node.format("skip") * (depth + 1) + node.format("seq") * depth
                                       + "conclusion: |-0 : true => true\nverdict: valid\n")


# --- leaf steps: index arithmetic against the payloads ---

@st.composite
def _any_leaf(draw, decls):
    """A skip, an assign whose value may leave the range, or a rand over a sub-range that may
    leave it, of a declared variable or of an undeclared one."""
    decl = draw(st.sampled_from(decls))
    x, other = draw(st.sampled_from([decl.name, decl.name, "w"])), draw(st.sampled_from(decls)).name
    kind = draw(st.sampled_from(["skip", "assign", "rand"]))
    if kind == "skip":
        return DSkip(TRUE)
    if kind == "assign":
        return DAssign(x, draw(st.sampled_from([
            EInt(draw(st.integers(decl.lo - 1, decl.hi + 1))), EVar(other),
            EBin("+", EVar(decl.name), EInt(1)),
            EBin("-", EBin("*", EInt(2), EVar(other)), EVar(decl.name))])), TRUE)
    lo = draw(st.integers(decl.lo - 1, decl.hi))
    return DRand(x, lo, draw(st.integers(lo - 1, decl.hi + 1)), Fraction(0), TRUE, TRUE)


def _range_outcome(fn, *args):
    try:
        return fn(*args)
    except RangeError as e:
        return str(e)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_ahl_decls(), st.data())
def test_each_leaf_step_equals_the_expectation_of_its_payload(decls, data):
    inst = ahl_instance(decls)
    leaf = data.draw(_any_leaf(decls))
    n, den = math.prod(len(d.values()) for d in decls), data.draw(st.integers(1, 12))
    v = data.draw(st.lists(st.integers(0, den), min_size=n, max_size=n))
    g = math.gcd(den, *v)  # in lowest terms, as every vector `check_ahl` pulls
    vec = ([m // g for m in v], den // g)
    want = _range_outcome(lambda: inst.expectation(interpret(inst, leaf), vec))
    assert _range_outcome(pull, inst, leaf, vec) == want


def test_checks_over_a_hundred_thousand_states_build_no_state_and_no_leaf_payload(
        tmp_path, capsys, monkeypatch):
    # five variables of ten values; each formula mentions one of them
    built, evaluated = [], collections.Counter()
    for name in ("skip", "assign", "sample_uniform", "_unit"):
        fn = getattr(AhlMonad, name)
        monkeypatch.setattr(AhlMonad, name,
                            lambda self, *a, fn=fn, name=name: built.append(name) or fn(self, *a))
    svalues = AhlMonad.svalues  # a cached property
    monkeypatch.setattr(AhlMonad, "svalues", property(
        lambda self: built.append("svalues") or svalues.__get__(self)))
    ev = ahl_module.eval_formula
    monkeypatch.setattr(ahl_module, "eval_formula",
                        lambda phi, s: evaluated.update([phi]) or ev(phi, s))
    decls = "".join(f"var x{i} : int[0..9]\n" for i in range(5))
    for text, last, concl in [
        ("conclude 0 : (x4 != 5) => (x4 != 5)\nskip : (x4 != 5)\n",
         "node skip: beta 0, pre (x4 != 5), post (x4 != 5), failure 0",
         "|-0 : (x4 != 5) => (x4 != 5)"),
        ("conclude 1/10 : true => (x0 != 3)\nrand x0 0 9 : 1/10 : true => (x0 != 3)\n",
         "node rand: beta 1/10, pre true, post (x0 != 3), failure 1/10",
         "|-1/10 : true => (x0 != 3)"),
        ("conclude 1/5 : true => (x1 != 7)\nseq { rand x2 0 9 : 1/10 : true => (x2 != 3);\n"
         "rand x1 0 9 : 1/10 : (x2 != 3) => (x1 != 7) }\n",
         "node seq: beta 1/5, pre true, post (x1 != 7), failure 1/10",
         "|-1/5 : true => (x1 != 7)"),
    ]:
        path = tmp_path / "big.ahl"
        path.write_text(decls + text)
        evaluated.clear()
        assert cli.main(["ahl", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            last, f"conclusion: {concl}", "verdict: valid"]
        assert built == []
        assert evaluated and max(evaluated.values()) == 1  # each formula exactly once


def test_checking_builds_no_law_harness_structure(monkeypatch, capsys):
    """`cgm ahl` reads no monad, 2-category or generalised unit, so it builds none, nor the
    default sample indices they carry."""
    made, make_index = [], AhlMonad.make_index
    monkeypatch.setattr(AhlMonad, "make_index",
                        lambda self, *a: made.append(a) or make_index(self, *a))
    assert cli.main(["ahl", str(PROGRAMS / "two_samplers.ahl")]) == 0
    assert capsys.readouterr().out.endswith("verdict: valid\n")
    assert made == []


def test_a_million_state_mismatch_answers_at_once(tmp_path, capsys):
    path = tmp_path / "million.ahl"
    path.write_text("var x : int[0..99]\nvar y : int[0..99]\nvar z : int[0..99]\n"
                    "conclude 0 : true => true\nskip : (x == 0)\n")
    start = time.perf_counter()
    assert cli.main(["ahl", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (
        "RuleMismatch: derivation concludes |-0 : (x == 0) => (x == 0), "
        "file claims |-0 : true => true\nverdict: invalid\n")
