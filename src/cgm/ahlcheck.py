"""Derivation checker for probabilistic Hoare triples.

A derivation is a tree of rule applications (skip, assign, rand, seq,
weak).  Checking is two-layered: each node's conclusion must fit its
rule schema (seq adds bounds with saturation and requires the middle
formulas to match; weak needs both implications valid and a
non-decreasing bound), and the program the tree denotes is interpreted
as a state-to-distribution table whose exact failure probability must
stay within every node's claimed bound.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidImplication, ParseError, RuleMismatch
from .formulas import (
    Expr,
    Formula,
    TokenStream,
    VarDecl,
    formula_text,
    parse_arith,
    parse_formula,
    parse_int_range,
    subst_formula,
    tokenize,
    valid_implication,
)
from .instances.ahl import AhlMonad, sat_add
from .values import Record, Value


class DSkip(Record):
    __slots__ = ()
    pre: Formula


class DAssign(Record):
    __slots__ = ()
    var: str
    expr: Expr
    post: Formula


class DRand(Record):
    __slots__ = ()
    var: str
    lo: int
    hi: int
    beta: Fraction
    pre: Formula
    post: Formula


class DSeq(Record):
    __slots__ = ()
    first: "Derivation"
    second: "Derivation"


class DWeak(Record):
    __slots__ = ()
    child: "Derivation"
    beta: Fraction
    pre: Formula
    post: Formula


Derivation = DSkip | DAssign | DRand | DSeq | DWeak


class Judgement(Record):
    __slots__ = ()
    beta: Fraction
    pre: Formula
    post: Formula

    def __str__(self) -> str:
        return f"|-{self.beta} : {formula_text(self.pre)} => {formula_text(self.post)}"


class NodeReport(Record):
    __slots__ = ()
    rule: str
    judgement: Judgement
    failure: Fraction  # exact Pr[post violated] of this node's program

    def render(self) -> str:
        return (f"node {self.rule}: beta {self.judgement.beta}, "
                f"pre {formula_text(self.judgement.pre)}, "
                f"post {formula_text(self.judgement.post)}, "
                f"failure {self.failure}")


class AhlVerdict(Record):
    __slots__ = ()
    valid: bool
    nodes: tuple[NodeReport, ...]
    conclusion: Judgement
    message: str = ""

    def render(self) -> str:
        lines = [n.render() for n in self.nodes]
        lines.append(f"conclusion: {self.conclusion}")
        if self.message:
            lines.append(f"reason: {self.message}")
        lines.append(f"verdict: {'valid' if self.valid else 'invalid'}")
        return "\n".join(lines)


def _rule_name(d: Derivation) -> str:
    return {DSkip: "skip", DAssign: "assign", DRand: "rand",
            DSeq: "seq", DWeak: "weak"}[type(d)]


def conclusion(inst: AhlMonad, d: Derivation,
               _memo: dict | None = None) -> Judgement:
    """Structural conclusion of a derivation; raises on schema violations."""
    memo = _memo if _memo is not None else {}
    if id(d) in memo:
        return memo[id(d)]
    if isinstance(d, DSkip):
        out = Judgement(Fraction(0), d.pre, d.pre)
    elif isinstance(d, DAssign):
        out = Judgement(Fraction(0), subst_formula(d.post, d.var, d.expr), d.post)
    elif isinstance(d, DRand):
        if not 0 <= d.beta <= 1:
            raise RuleMismatch(f"bound {d.beta} outside [0, 1]")
        out = Judgement(d.beta, d.pre, d.post)
    elif isinstance(d, DSeq):
        j1 = conclusion(inst, d.first, memo)
        j2 = conclusion(inst, d.second, memo)
        if j1.post != j2.pre:
            raise RuleMismatch(
                f"seq middle mismatch: {formula_text(j1.post)} vs "
                f"{formula_text(j2.pre)} (use weak to adapt)")
        out = Judgement(sat_add(j1.beta, j2.beta), j1.pre, j2.post)
    elif isinstance(d, DWeak):
        j = conclusion(inst, d.child, memo)
        if not valid_implication(inst.holds, d.pre, j.pre):
            raise InvalidImplication(
                f"{formula_text(d.pre)} does not entail {formula_text(j.pre)}")
        if not valid_implication(inst.holds, j.post, d.post):
            raise InvalidImplication(
                f"{formula_text(j.post)} does not entail {formula_text(d.post)}")
        if not j.beta <= d.beta:
            raise RuleMismatch(f"bound must not decrease: {j.beta} > {d.beta}")
        out = Judgement(d.beta, d.pre, d.post)
    else:
        raise RuleMismatch(f"unknown rule {d!r}")
    memo[id(d)] = out
    return out


def interpret(inst: AhlMonad, d: Derivation, _memo: dict | None = None) -> Value:
    """The state-transformer table the derivation's program denotes."""
    memo = _memo if _memo is not None else {}
    if id(d) in memo:
        return memo[id(d)]
    if isinstance(d, DSkip):
        out = inst.skip()
    elif isinstance(d, DAssign):
        out = inst.assign(d.var, d.expr)
    elif isinstance(d, DRand):
        out = inst.sample_uniform(d.var, d.lo, d.hi)
    elif isinstance(d, DSeq):
        out = inst.seq(interpret(inst, d.first, memo),
                               interpret(inst, d.second, memo))
    else:
        out = interpret(inst, d.child, memo)
    memo[id(d)] = out
    return out


def _postorder(d: Derivation) -> list[Derivation]:
    """The nodes of a derivation, each after its children, left to right."""
    out, todo = [], [d]
    while todo:
        node = todo.pop()
        out.append(node)
        if isinstance(node, DSeq):
            todo += (node.first, node.second)
        elif isinstance(node, DWeak):
            todo.append(node.child)
    return out[::-1]


def check_ahl(inst: AhlMonad, d: Derivation,
              claimed: Judgement | None = None) -> AhlVerdict:
    """Structural and semantic verification of one derivation tree."""
    nodes: list[NodeReport] = []
    jmemo: dict = {}
    pmemo: dict = {}
    for node in _postorder(d):
        root = conclusion(inst, node, jmemo)
        payload = interpret(inst, node, pmemo)
        fail = inst.failure_prob(payload, root.pre, root.post)
        nodes.append(NodeReport(_rule_name(node), root, fail))
    if claimed is not None and (claimed.beta != root.beta
                                or claimed.pre != root.pre
                                or claimed.post != root.post):
        raise RuleMismatch(f"derivation concludes {root}, file claims {claimed}")
    for n in nodes:
        if n.failure > n.judgement.beta:
            return AhlVerdict(
                False, tuple(nodes), root,
                f"{n.rule} node: failure probability {n.failure} exceeds bound {n.judgement.beta}")
    return AhlVerdict(True, tuple(nodes), root)


# --- derivation files ---

def _parse_fraction(ts: TokenStream) -> Fraction:
    t = ts.next("rational bound")
    if t.kind != "int":
        raise ParseError(f"expected a rational, found {t.text!r}", t.line, t.col)
    num = int(t.text)
    if ts.eat("/"):
        at = ts.peek()
        den = ts.next_int()
        if den == 0:
            raise ParseError("zero denominator", at.line, at.col)
        return Fraction(num, den)
    return Fraction(num)


def _parse_judgement_tail(ts: TokenStream, decls: dict[str, VarDecl]) -> tuple[Formula, Formula]:
    pre = parse_formula(ts, decls)
    ts.expect("=>")
    post = parse_formula(ts, decls)
    return pre, post


def _parse_var(ts: TokenStream, decls: dict[str, VarDecl]) -> VarDecl:
    t = ts.next("variable")
    if t.text not in decls:
        raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
    return decls[t.text]


def _parse_derivation(ts: TokenStream, decls: dict[str, VarDecl]) -> Derivation:
    t = ts.next("rule name")
    if t.text == "skip":
        ts.expect(":")
        return DSkip(parse_formula(ts, decls))
    if t.text == "assign":
        var = _parse_var(ts, decls).name
        ts.expect(":=")
        expr = parse_arith(ts, decls)
        ts.expect(":")
        return DAssign(var, expr, parse_formula(ts, decls))
    if t.text == "rand":
        decl = _parse_var(ts, decls)
        at = ts.peek()
        lo = ts.next_int()
        hi = ts.next_int()
        if hi < lo:
            raise ParseError(f"empty range {lo}..{hi}", at.line, at.col)
        if lo < decl.lo or hi > decl.hi:
            raise ParseError(f"range {lo}..{hi} is not within {decl.name} : "
                             f"int[{decl.lo}..{decl.hi}]", at.line, at.col)
        ts.expect(":")
        beta = _parse_fraction(ts)
        ts.expect(":")
        pre, post = _parse_judgement_tail(ts, decls)
        return DRand(decl.name, lo, hi, beta, pre, post)
    if t.text == "seq":
        ts.expect("{")
        parts = [_parse_derivation(ts, decls)]
        while ts.eat(";"):
            if ts.at("}"):
                break
            parts.append(_parse_derivation(ts, decls))
        ts.expect("}")
        if len(parts) < 2:
            raise ParseError("seq needs at least two derivations", t.line, t.col)
        out = parts[0]
        for nxt in parts[1:]:
            out = DSeq(out, nxt)
        return out
    if t.text == "weak":
        beta = _parse_fraction(ts)
        ts.expect(":")
        pre, post = _parse_judgement_tail(ts, decls)
        ts.expect("{")
        child = _parse_derivation(ts, decls)
        ts.expect("}")
        return DWeak(child, beta, pre, post)
    raise ParseError(f"unknown rule {t.text!r}", t.line, t.col)


class AhlFile(Record):
    __slots__ = ()
    decls: tuple[VarDecl, ...]
    claimed: Judgement
    derivation: Derivation


def parse_ahl_file(text: str) -> AhlFile:
    ts = TokenStream(tokenize(text), end_line=text.count("\n") + 1)
    decls: dict[str, VarDecl] = {}
    while ts.at("var"):
        ts.next()
        t = ts.next("variable name")
        if t.text in ("true", "false"):
            raise ParseError(f"{t.text!r} is a constant, not a variable name", t.line, t.col)
        if t.text in decls:
            raise ParseError(f"variable {t.text!r} is declared twice", t.line, t.col)
        ts.expect(":")
        decls[t.text] = VarDecl(t.text, *parse_int_range(ts))
    if not decls:
        raise ParseError("derivation file declares no variables", 1, 1)
    ts.expect("conclude")
    beta = _parse_fraction(ts)
    ts.expect(":")
    pre, post = _parse_judgement_tail(ts, decls)
    deriv = _parse_derivation(ts, decls)
    t = ts.peek()
    if t is not None:
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return AhlFile(tuple(decls.values()), Judgement(beta, pre, post), deriv)
