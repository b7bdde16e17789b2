"""Integer expressions and boolean predicates over finite-range program variables.

States are total assignments of in-range integers to declared variables.
Validity of an implication is decided by brute-force enumeration of the
(finite) state space.  Every walk over a formula or an expression is one
post-order walk on an explicit stack (`fold`), so depth costs no
interpreter stack; a formula is evaluated once over columns of values,
not once per state.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Collection, Mapping
from operator import add, and_, eq, ge, gt, le, lt, mul, ne, not_, or_, sub

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
    op = "&&"  # a class constant, as in FOr and FNot: not a field
    lhs: "Formula"
    rhs: "Formula"


class FOr(Record):
    __slots__ = ()
    op = "||"
    lhs: "Formula"
    rhs: "Formula"


class FNot(Record):
    __slots__ = ()
    op = "!"
    body: "Formula"


Formula = FBool | FCmp | FAnd | FOr | FNot

TRUE = FBool(True)
FALSE = FBool(False)


_LOGIC = {c.op: c for c in (FAnd, FOr, FNot)}
_CMP = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
_OPS = {"+": add, "-": sub, "*": mul, **_CMP, "&&": and_, "||": or_, "!": not_}


def _postorder(node: Record) -> list[tuple[Record, int]]:
    """The nodes under `node`, each after its operands, with its number of operands: its
    fields that are records but not values.  In a formula or an expression they are its last
    fields.  The walk keeps an explicit stack, so depth costs no interpreter stack."""
    order, todo = [], [node]  # each node before its operands, right to left
    while todo:
        n = todo.pop()
        k = len(todo)
        for f in n[1:]:
            if isinstance(f, Record) and not isinstance(f, Value):
                todo.append(f)
        order.append((n, len(todo) - k))
    order.reverse()
    return order


def fold(node: Record, fn: Callable) -> object:
    """fn(n, *the values of n's operands, left to right) at each node n under `node`, bottom up."""
    out = []
    for n, k in _postorder(node):
        k = len(out) - k
        out[k:] = [fn(n, *out[k:])]
    return out[0]


def eval_formula(phi: Expr | Formula, columns: Mapping[str, int | list[int]]) -> object:
    """phi's value, an expression's int or a formula's truth, at each row of `columns`: each
    variable phi reads maps to its value in every row, or to a list of its value per row.
    phi is evaluated once, each node's operator mapped over its operands' lists with a scalar
    operand repeated; a node that reads no list is a scalar, so over ints phi is one row."""
    def at(n, *args):
        if not args:
            return columns[n.name] if isinstance(n, EVar) else n[1]  # EInt's n, FBool's b
        op = _OPS[n.op]
        if list not in map(type, args):
            return op(*args)
        return list(map(op, *(a if type(a) is list else itertools.repeat(a) for a in args)))
    return fold(phi, at)


def subst_formula(phi: Formula | Expr, var: str, repl: Expr) -> Formula | Expr:
    """phi with `repl` for each occurrence of the variable `var`."""
    old = EVar(var)
    return fold(phi, lambda n, *ops: type(n)(*n[1:-len(ops)], *ops) if ops
                else repl if n == old else n)


def formula_text(phi: Formula | Expr) -> str:
    """Canonical fully parenthesized rendering; injective on ASTs."""
    def at(n, *ops):
        if ops:
            return f"({ops[0]} {n.op} {ops[1]})" if len(ops) == 2 else f"({n.op}{ops[0]})"
        if isinstance(n, FBool):
            return "true" if n.b else "false"
        return n.name if isinstance(n, EVar) else str(n.n)
    return fold(phi, at)


# --- variable declarations and state spaces ---

class VarDecl(Record):
    __slots__ = ()
    name: str
    lo: int
    hi: int

    def values(self) -> range:
        return range(self.lo, self.hi + 1)


def valid_implication(holds: Callable, pre: Formula, post: Formula) -> bool:
    """Whether post holds wherever pre does; `holds(phi)` is phi's truth per state."""
    return all(itertools.compress(holds(post), holds(pre)))


def mentioned(node: Expr | Formula) -> set[str]:
    """The variables that an expression or formula reads."""
    return {n.name for n, _ in _postorder(node) if isinstance(n, EVar)}


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
    logic = op in _LOGIC
    if not all(isinstance(x, Formula if logic else Expr) for x in operands):
        want, other = ("formula", "expression") if logic else ("expression", "formula")
        raise ParseError(f"{op!r} applies to {want}s, not {other}s", t.line, t.col)
    if logic:
        return _LOGIC[op](*operands)
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
