"""The one operator-precedence parser behind `.gp` expressions, `.ahl`
arithmetic and formulas: it reads forward only, and printed formulas
parse back to themselves."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cgm import ahlcheck, metalang
from cgm.formulas import (
    EBin,
    EInt,
    EVar,
    FALSE,
    FAnd,
    FBool,
    FCmp,
    FNot,
    FOr,
    TRUE,
    TokenStream,
    formula_text,
    parse_formula,
    tokenize,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
NAMES = ("x", "y", "z")


class ForwardOnly(TokenStream):
    """A token stream whose position may never move back."""

    @property
    def pos(self) -> int:
        return self._pos

    @pos.setter
    def pos(self, p: int) -> None:
        if p < getattr(self, "_pos", 0):
            raise AssertionError(f"stream moved back from {self._pos} to {p}")
        self._pos = p


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.ahl")) + sorted(PROGRAMS.glob("*.gp")),
                         ids=lambda p: p.name)
def test_programs_parse_without_moving_back(monkeypatch, path):
    monkeypatch.setattr(ahlcheck, "TokenStream", ForwardOnly)
    monkeypatch.setattr(metalang, "TokenStream", ForwardOnly)
    parse = ahlcheck.parse_ahl_file if path.suffix == ".ahl" else metalang.parse_program
    parse(path.read_text())


_exprs = st.recursive(
    st.builds(EInt, st.integers(0, 12)) | st.builds(EVar, st.sampled_from(NAMES)),
    lambda sub: st.builds(EBin, st.sampled_from(("+", "-", "*")), sub, sub),
    max_leaves=6)
_formulas = st.recursive(
    st.sampled_from((TRUE, FALSE))
    | st.builds(FCmp, st.sampled_from(("==", "!=", "<", "<=", ">", ">=")), _exprs, _exprs),
    lambda sub: st.builds(FAnd, sub, sub) | st.builds(FOr, sub, sub) | st.builds(FNot, sub),
    max_leaves=6)


def _precedence(n) -> int:
    """The README's table: `|| &&` < `!` < comparisons < `+ -` < `*` < atoms."""
    if isinstance(n, (FAnd, FOr)):
        return 1
    if isinstance(n, FNot):
        return 2
    if isinstance(n, FCmp):
        return 3
    if isinstance(n, EBin):
        return 5 if n.op == "*" else 4
    return 7


def minimal_text(n, need: int = 0) -> str:
    """`n` with only the parentheses that precedence and left association need."""
    p = _precedence(n)
    if isinstance(n, (FAnd, FOr, FCmp, EBin)):
        op = "&&" if isinstance(n, FAnd) else "||" if isinstance(n, FOr) else n.op
        text = f"{minimal_text(n.lhs, p)} {op} {minimal_text(n.rhs, p + 1)}"
    elif isinstance(n, FNot):
        text = "!" + minimal_text(n.body, p)
    elif isinstance(n, FBool):
        text = "true" if n.b else "false"
    else:
        text = str(n.n) if isinstance(n, EInt) else n.name
    return f"({text})" if p < need else text


def _parse_all(text: str):
    ts = ForwardOnly(tokenize(text), end_line=1)
    phi = parse_formula(ts, NAMES)
    assert ts.peek() is None, text
    return phi


@settings(max_examples=400, derandomize=True, deadline=None)
@given(phi=_formulas)
def test_printed_formulas_parse_back(phi):
    assert _parse_all(formula_text(phi)) == phi
    assert _parse_all(minimal_text(phi)) == phi


@pytest.mark.parametrize("text,tree", [
    ("!x == 1 && y < 2 || z > 0",
     FOr(FAnd(FNot(FCmp("==", EVar("x"), EInt(1))), FCmp("<", EVar("y"), EInt(2))),
         FCmp(">", EVar("z"), EInt(0)))),
    ("-x * y - 1 >= 0",
     FCmp(">=", EBin("-", EBin("*", EBin("-", EInt(0), EVar("x")), EVar("y")), EInt(1)),
          EInt(0))),
    ("((x + 1)) == ((2))", FCmp("==", EBin("+", EVar("x"), EInt(1)), EInt(2))),
])
def test_precedence_and_association(text, tree):
    assert _parse_all(text) == tree
