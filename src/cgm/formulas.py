"""Integer expressions and boolean predicates over finite-range program variables.

States are total assignments of in-range integers to declared variables.
Validity of an implication is decided by brute-force enumeration of the
(finite) state space.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Collection, Iterable, Mapping

from .errors import ParseError
from .values import Record, Value, _new


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


def valid_implication(holds: Callable, pre: Formula, post: Formula) -> bool:
    """Whether post holds wherever pre does; `holds(phi)` is phi's truth per state."""
    return all(itertools.compress(holds(post), holds(pre)))


def mentioned(node: Expr | Formula) -> set[str]:
    """The variables that an expression or formula reads, walked with an explicit stack."""
    names, todo = set(), [node]
    while todo:
        n = todo.pop()
        if isinstance(n, EVar):
            names.add(n.name)
        todo += [f for f in n[1:] if isinstance(f, Record)]  # its operands
    return names


# --- parsing ---

_TWO = ("==", "!=", "<=", ">=", "&&", "||", "<-", "<~", "->", "..", "=>", ":=")
_ONE = "+-*/<>!(){};:=[],~"
# The `re` module's tokenizer idiom: one token after optional blanks, its
# kind the named group that matched.  A comment and the end of the text
# match no named group, and `bad` is any other character.  Digits are ASCII;
# `\w` is `str.isalnum()` or `_`, and a name's first character must also be
# `isalpha()` or `_`, which `tokenize` checks.  Names, the most frequent
# tokens, are tried first, and two-character operators before one.  `re`
# compiles the pattern on first use and caches it, so commands that parse
# nothing do not pay for it.
_TOKEN = (r"[ \t\r]*(?:(?P<name>[^\W\d]\w*)"
          rf"|(?P<op>{'|'.join(map(re.escape, _TWO))}|[{re.escape(_ONE)}])"
          r"|(?P<int>[0-9]+)|(?P<nl>\n)|#[^\n]*|(?P<bad>.)|\Z)")


class Token(Record):
    __slots__ = ()
    kind: str  # int | name | op
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in re.finditer(_TOKEN, text):
        kind = m.lastgroup
        if kind is None:  # a comment, or blanks at the end
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        at = m.start(kind)
        if kind == "bad" or kind == "name" and not (text[at].isalpha() or text[at] == "_"):
            raise ParseError(f"unexpected character {text[at]!r}", line, at - line_start + 1)
        toks.append(_new(Token, ("Token", kind, m.group(kind), line, at - line_start + 1)))
    return toks


class TokenStream:
    def __init__(self, toks: list[Token], end_line: int = 0):
        self.toks = toks
        self.pos = 0
        self.end_line = end_line

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


def parse_infix(ts: TokenStream, atom: Callable[[Token], object], binary: Mapping[str, int],
                prefix: Mapping[str, int], build: Callable, pair: Callable | None = None):
    """One expression, read by operator precedence with no recursion and
    no backtracking (Pratt, "Top down operator precedence", 1973).

    `binary` and `prefix` give each operator's precedence: a higher one
    binds tighter, and binary operators associate left.  `atom(token)`
    reads any other operand; `build(token, *operands)` makes an operator's
    node or rejects its operands.  An open `(` is a marker of precedence 0
    on the operator stack, so the builder that takes a group settles its
    sort.  With `pair`, `(a, b)` is pair(a, b) and `()` is pair().  The
    expression ends before the first token that cannot continue it."""
    vals: list = []
    ops: list = []  # (precedence, arity, token); an open `(` has arity 1, and 2 after its comma
    while True:
        t = ts.next("expression")
        if t.text == "(" and (pair is None or not ts.eat(")")):
            ops.append((0, 1, t))
            continue
        if t.text in prefix:
            ops.append((prefix[t.text], 1, t))
            continue
        vals.append(pair() if t.text == "(" else atom(t))
        while True:  # after an operand: close groups, then a binary operator or the end
            t = ts.peek()
            if t is not None and t.text in binary:
                _reduce(vals, ops, binary[t.text], build)
                ops.append((binary[t.text], 2, t))
                ts.pos += 1
                break
            _reduce(vals, ops, 1, build)
            if not ops:  # no group is open
                return vals[0]
            if pair is not None and ops[-1][1] == 1 and ts.eat(","):
                ops[-1] = (0, 2, ops[-1][2])
                break
            ts.expect(")")
            if ops.pop()[1] == 2:
                vals[-2:] = [pair(*vals[-2:])]


def _reduce(vals: list, ops: list, prec: int, build: Callable) -> None:
    """Apply the stacked operators that bind at least as tightly as `prec`."""
    while ops and ops[-1][0] >= prec:
        _, arity, t = ops.pop()
        vals[-arity:] = [build(t, *vals[-arity:])]


def _node(t: Token, *operands):
    """Operator `t`'s node: `&& || !` take formulas, the others expressions."""
    op = t.text
    logic = op in ("&&", "||", "!")
    if not all(isinstance(x, Formula if logic else Expr) for x in operands):
        want, other = ("formula", "expression") if logic else ("expression", "formula")
        raise ParseError(f"{op!r} applies to {want}s, not {other}s", t.line, t.col)
    if logic:
        return FNot(*operands) if op == "!" else FAnd(*operands) if op == "&&" else FOr(*operands)
    if len(operands) == 1:
        return EBin("-", EInt(0), *operands)
    return FCmp(op, *operands) if op in _CMP else EBin(op, *operands)


# `|| &&` < `!` < comparisons < `+ -` < `*` < unary `-`
_ARITH, _NEG = {"+": 4, "-": 4, "*": 5}, {"-": 6}
_FORMULA_OPS = {**_ARITH, "&&": 1, "||": 1, **dict.fromkeys(_CMP, 3)}
_FORMULA_PREFIX = {**_NEG, "!": 2}


def _reader(scope: Mapping[str, Expr | Formula]) -> Callable[[Token], Expr | Formula]:
    """Integers, and the names in `scope` as their nodes."""
    def atom(t: Token) -> Expr | Formula:
        if t.kind == "int":
            return EInt(int(t.text))
        if t.kind != "name":
            raise ParseError(f"expected expression, found {t.text!r}", t.line, t.col)
        if t.text not in scope:
            raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        return scope[t.text]
    return atom


def parse_arith(ts: TokenStream, names: Collection[str]) -> Expr:
    """An integer expression over the declared `names`."""
    return parse_infix(ts, _reader({n: EVar(n) for n in names}), _ARITH, _NEG, _node)


def parse_formula(ts: TokenStream, names: Collection[str]) -> Formula:
    """A predicate over the declared `names`, with the constants `true` and `false`."""
    scope = {n: EVar(n) for n in names} | {"true": TRUE, "false": FALSE}
    phi = parse_infix(ts, _reader(scope), _FORMULA_OPS, _FORMULA_PREFIX, _node)
    if not isinstance(phi, Formula):
        t = ts.next("comparison operator")
        raise ParseError(f"expected comparison, found {t.text!r}", t.line, t.col)
    return phi
