"""`.ahl` checking by violation vectors, against composite payloads.

`check_ahl` finds each node's failure probability by pulling its post's
violation indicator back through the payloads along its spine, and builds a
seq's composite only where it is some seq's first part.  These tests hold
it to the definition it replaced: every node's program interpreted as one
table, and its failure read off that table.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
)
from cgm.errors import CgmError
from cgm.formulas import EBin, EInt, EVar, FAnd, FCmp, FNot, FOr, TRUE, VarDecl
from cgm.instances import AhlMonad, ahl_instance

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
