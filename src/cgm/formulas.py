"""Integer expressions and boolean predicates over finite-range program variables.

States are total assignments of in-range integers to declared variables.
Validity of an implication is decided by brute-force enumeration of the
(finite) state space.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection, Iterable, Mapping

from .errors import ParseError
from .values import Record, Value, VInt, VStr, VTable, _new, table, vint, vstr


# --- expressions ---

class EInt(Record):
    __slots__ = ()
    n: int


class EVar(Record):
    __slots__ = ()
    name: str


class EBin(Record):
    __slots__ = ()
    op: str  # + - *
    lhs: "Expr"
    rhs: "Expr"


Expr = EInt | EVar | EBin


# --- formulas ---

class FBool(Record):
    __slots__ = ()
    b: bool


class FCmp(Record):
    __slots__ = ()
    op: str  # == != < <= > >=
    lhs: Expr
    rhs: Expr


class FAnd(Record):
    __slots__ = ()
    lhs: "Formula"
    rhs: "Formula"


class FOr(Record):
    __slots__ = ()
    lhs: "Formula"
    rhs: "Formula"


class FNot(Record):
    __slots__ = ()
    body: "Formula"


Formula = FBool | FCmp | FAnd | FOr | FNot

TRUE = FBool(True)
FALSE = FBool(False)


def eval_expr(e: Expr, state: Mapping[str, int]) -> int:
    if isinstance(e, EInt):
        return e.n
    if isinstance(e, EVar):
        return state[e.name]
    a, b = eval_expr(e.lhs, state), eval_expr(e.rhs, state)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    raise ValueError(f"unknown operator {e.op}")


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_formula(phi: Formula, state: Mapping[str, int]) -> bool:
    if isinstance(phi, FBool):
        return phi.b
    if isinstance(phi, FCmp):
        return _CMP[phi.op](eval_expr(phi.lhs, state), eval_expr(phi.rhs, state))
    if isinstance(phi, FAnd):
        return eval_formula(phi.lhs, state) and eval_formula(phi.rhs, state)
    if isinstance(phi, FOr):
        return eval_formula(phi.lhs, state) or eval_formula(phi.rhs, state)
    if isinstance(phi, FNot):
        return not eval_formula(phi.body, state)
    raise ValueError(f"unknown formula {phi!r}")


def subst_expr(e: Expr, var: str, repl: Expr) -> Expr:
    if isinstance(e, EInt):
        return e
    if isinstance(e, EVar):
        return repl if e.name == var else e
    return EBin(e.op, subst_expr(e.lhs, var, repl), subst_expr(e.rhs, var, repl))


def subst_formula(phi: Formula, var: str, repl: Expr) -> Formula:
    if isinstance(phi, FBool):
        return phi
    if isinstance(phi, FCmp):
        return FCmp(phi.op, subst_expr(phi.lhs, var, repl), subst_expr(phi.rhs, var, repl))
    if isinstance(phi, FAnd):
        return FAnd(subst_formula(phi.lhs, var, repl), subst_formula(phi.rhs, var, repl))
    if isinstance(phi, FOr):
        return FOr(subst_formula(phi.lhs, var, repl), subst_formula(phi.rhs, var, repl))
    return FNot(subst_formula(phi.body, var, repl))


def expr_text(e: Expr) -> str:
    if isinstance(e, EInt):
        return str(e.n)
    if isinstance(e, EVar):
        return e.name
    return f"({expr_text(e.lhs)} {e.op} {expr_text(e.rhs)})"


def formula_text(phi: Formula) -> str:
    """Canonical fully parenthesized rendering; injective on ASTs."""
    if isinstance(phi, FBool):
        return "true" if phi.b else "false"
    if isinstance(phi, FCmp):
        return f"({expr_text(phi.lhs)} {phi.op} {expr_text(phi.rhs)})"
    if isinstance(phi, FAnd):
        return f"({formula_text(phi.lhs)} && {formula_text(phi.rhs)})"
    if isinstance(phi, FOr):
        return f"({formula_text(phi.lhs)} || {formula_text(phi.rhs)})"
    return f"(!{formula_text(phi.body)})"


# --- variable declarations and state spaces ---

class VarDecl(Record):
    __slots__ = ()
    name: str
    lo: int
    hi: int

    def values(self) -> range:
        return range(self.lo, self.hi + 1)


def states(decls: Iterable[VarDecl]) -> list[dict[str, int]]:
    decls = list(decls)
    names = [d.name for d in decls]
    return [dict(zip(names, combo))
            for combo in itertools.product(*[d.values() for d in decls])]


def state_value(state: Mapping[str, int]) -> VTable:
    return table({vstr(k): vint(v) for k, v in state.items()})


def state_dict(v: Value) -> dict[str, int]:
    if not isinstance(v, VTable):
        raise ValueError("state must be a table value")
    out = {}
    for k, x in v.entries:
        if not isinstance(k, VStr) or not isinstance(x, VInt):
            raise ValueError("state must map names to integers")
        out[k.s] = x.n
    return out


def valid_implication(holds: Callable, pre: Formula, post: Formula) -> bool:
    """Whether post holds wherever pre does; `holds(phi)` is phi's truth per state."""
    return all(q for p, q in zip(holds(pre), holds(post)) if p)


# --- parsing ---

_TOKEN_CHARS = {"(": "(", ")": ")", ",": ","}
_TWO = ("==", "!=", "<=", ">=", "&&", "||", "<-", "<~", "->", "..", "=>", ":=")
_ONE = "+-*/<>!(){};:=[],~"
_DIGITS = "0123456789"


class Token(Record):
    __slots__ = ()
    kind: str  # int | name | op
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two in _TWO:
            toks.append(_new(Token, ("Token", "op", two, line, col)))
            i += 2
            col += 2
            continue
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            toks.append(_new(Token, ("Token", "int", text[i:j], line, col)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_new(Token, ("Token", "name", text[i:j], line, col)))
            col += j - i
            i = j
            continue
        if c in _ONE:
            toks.append(_new(Token, ("Token", "op", c, line, col)))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return toks


class TokenStream:
    def __init__(self, toks: list[Token], end_line: int = 0):
        self.toks = toks
        self.pos = 0
        self.end_line = end_line
        self.names: Collection[str] | None = None  # declared variables, if checked

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, what: str = "token") -> Token:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {what}, found end of input", self.end_line, 1)
        self.pos += 1
        return t

    def next_int(self) -> int:
        t = self.next("an integer")
        if t.kind != "int":
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return int(t.text)

    def expect(self, text: str) -> Token:
        t = self.next(repr(text))
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False


def parse_int_range(ts: TokenStream) -> tuple[int, int]:
    """`int[lo..hi]` with lo <= hi."""
    start = ts.expect("int")
    ts.expect("[")
    lo = ts.next_int()
    ts.expect("..")
    hi = ts.next_int()
    ts.expect("]")
    if hi < lo:
        raise ParseError(f"empty range int[{lo}..{hi}]", start.line, start.col)
    return lo, hi


def _parse_atom_expr(ts: TokenStream) -> Expr:
    t = ts.next("expression")
    if t.kind == "int":
        return EInt(int(t.text))
    if t.kind == "name":
        if ts.names is not None and t.text not in ts.names:
            raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        return EVar(t.text)
    if t.text == "(":
        e = parse_arith(ts)
        ts.expect(")")
        return e
    if t.text == "-":
        inner = _parse_atom_expr(ts)
        return EBin("-", EInt(0), inner)
    raise ParseError(f"expected expression, found {t.text!r}", t.line, t.col)


def parse_arith(ts: TokenStream) -> Expr:
    left = _parse_mul(ts)
    while ts.at("+") or ts.at("-"):
        op = ts.next().text
        left = EBin(op, left, _parse_mul(ts))
    return left


def _parse_mul(ts: TokenStream) -> Expr:
    left = _parse_atom_expr(ts)
    while ts.at("*"):
        ts.next()
        left = EBin("*", left, _parse_atom_expr(ts))
    return left


def _parse_formula_atom(ts: TokenStream) -> Formula:
    t = ts.peek()
    if t is None:
        raise ParseError("expected formula", ts.end_line, 1)
    if t.text == "!":
        ts.next()
        return FNot(_parse_formula_atom(ts))
    if t.text == "true" and t.kind == "name":
        ts.next()
        return TRUE
    if t.text == "false" and t.kind == "name":
        ts.next()
        return FALSE
    if t.text == "(":
        # Could be a parenthesized formula or a parenthesized arithmetic
        # expression starting a comparison; backtrack on failure.
        save = ts.pos
        ts.next()
        try:
            inner = parse_formula(ts)
            ts.expect(")")
            return inner
        except ParseError:
            ts.pos = save
    lhs = parse_arith(ts)
    t = ts.next("comparison operator")
    if t.text not in _CMP:
        raise ParseError(f"expected comparison, found {t.text!r}", t.line, t.col)
    rhs = parse_arith(ts)
    return FCmp(t.text, lhs, rhs)


def parse_formula(ts: TokenStream) -> Formula:
    left = _parse_formula_atom(ts)
    while ts.at("&&") or ts.at("||"):
        op = ts.next().text
        right = _parse_formula_atom(ts)
        left = FAnd(left, right) if op == "&&" else FOr(left, right)
    return left

