"""The one operator-precedence parser behind `.gp` expressions, `.ahl`
arithmetic and formulas: it reads forward only, and printed formulas
parse back to themselves.  The scanner in front of it splits text as the
character loop it replaced did."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import test_cli
from cgm import ahlcheck, metalang
from cgm.errors import ParseError
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
    Token,
    TokenStream,
    formula_text,
    parse_formula,
    tokenize,
)

REPO = Path(__file__).resolve().parent.parent
PROGRAMS = REPO / "programs"
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


# --- the scanner against the character loop it replaced ---

_TWO = ("==", "!=", "<=", ">=", "&&", "||", "<-", "<~", "->", "..", "=>", ":=")
_ONE = "+-*/<>!(){};:=[],~"
_DIGITS = "0123456789"


def reference_tokenize(text: str) -> list[Token]:
    """The scanner as one Python iteration per character."""
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
            toks.append(Token("op", two, line, col))
            i += 2
            col += 2
            continue
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _ONE:
            toks.append(Token("op", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return toks


def _scan(scanner, text: str):
    try:
        return scanner(text)
    except ParseError as exc:
        return ("ParseError", exc.msg, exc.line, exc.col)


def assert_scans_alike(text: str) -> None:
    assert _scan(tokenize, text) == _scan(reference_tokenize, text), repr(text)


def _workload_texts() -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(mod)
    return [text for w in ("gp", "ahl") for it in mod.build(w, 0) for text in it.files.values()]


_CORPUS = ([p.read_text(encoding="utf-8") for p in sorted(PROGRAMS.iterdir())]
           + [test_cli.LOCK_GP, test_cli.TWO_SAMPLERS, test_cli.WEAK_TWO_SAMPLERS,
              test_cli.COPRIME_SAMPLERS, test_cli._LATIN1.decode("latin-1")]
           + [c[2] for c in test_cli._ERROR_CASES if isinstance(c[2], str)]
           + _workload_texts())


def test_scanner_matches_the_loop_on_the_corpora():
    for text in _CORPUS:
        assert_scans_alike(text)
        assert_scans_alike(text.replace("\n", "\r\n").replace(" ", "\t"))


@pytest.mark.parametrize("text", [
    "é", "x é", "xé2_", "²", "x²", "x ²", "½", "x½", "٣", "1٣", "x٣", "x\u0301", "\u0301",
    "Ⅻ", "xⅫ", "_", "__1", "0x1", "007", "a..b", "a.b", "...", "<-->", "=>=", "&|", "|",
    "&&&", "# only a comment", "x # é\ny", "x\r\ny", "\t\tx", "x   ", "\n\n  \n",
    "\f", "x\vy", "\u00a0", "$", "\"s\"", "",
])
def test_scanner_matches_the_loop_on_edge_cases(text):
    assert_scans_alike(text)


_ALPHABET = "ab_xyz019 \t\r\n#.&|$\"" + _ONE + "é²½٣Ⅻ\u0301\u00a0\f"


@settings(max_examples=600, derandomize=True, deadline=None)
@given(text=st.text(alphabet=_ALPHABET, max_size=30) | st.text(max_size=30))
def test_scanner_matches_the_loop_on_drawn_text(text):
    assert_scans_alike(text)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(gp=test_cli._gp_programs(), cat=test_cli._cat_files())
def test_scanner_matches_the_loop_on_drawn_programs(gp, cat):
    assert_scans_alike(gp[0])
    assert_scans_alike(cat)
