"""`formulas.fold`, the one walk over formulas and expressions.

Evaluation over columns, substitution, rendering and `mentioned` are held
to recursive references that read one state at a time and live here only.
Depth costs the walk no interpreter stack.
"""

import ast
from functools import reduce
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cgm import formulas
from cgm.formulas import (
    EBin,
    EInt,
    EVar,
    FAnd,
    FBool,
    FCmp,
    FNot,
    FOr,
    eval_formula,
    formula_text,
    mentioned,
    subst_formula,
)
from test_instances import _ahl_decls, states

_CMPS = ("==", "!=", "<", "<=", ">", ">=")


def _exprs(names):
    return st.recursive(
        st.builds(EInt, st.integers(-3, 3)) | st.builds(EVar, st.sampled_from(names)),
        lambda sub: st.builds(EBin, st.sampled_from("+-*"), sub, sub), max_leaves=6)


def _formulas(names):
    return st.recursive(
        st.builds(FBool, st.booleans())
        | st.builds(FCmp, st.sampled_from(_CMPS), _exprs(names), _exprs(names)),
        lambda sub: st.builds(FAnd, sub, sub) | st.builds(FOr, sub, sub) | st.builds(FNot, sub),
        max_leaves=6)


# --- the references: one recursive call per node ---

def ref_eval(n, s):
    """n's value in the state s, a dict of ints."""
    if isinstance(n, EInt):
        return n.n
    if isinstance(n, FBool):
        return n.b
    if isinstance(n, EVar):
        return s[n.name]
    if isinstance(n, FNot):
        return not ref_eval(n.body, s)
    if isinstance(n, FAnd):
        return ref_eval(n.lhs, s) and ref_eval(n.rhs, s)
    if isinstance(n, FOr):
        return ref_eval(n.lhs, s) or ref_eval(n.rhs, s)
    a, b = ref_eval(n.lhs, s), ref_eval(n.rhs, s)
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "==": lambda: a == b, "!=": lambda: a != b, "<": lambda: a < b,
            "<=": lambda: a <= b, ">": lambda: a > b, ">=": lambda: a >= b}[n.op]()


def ref_subst(n, var, repl):
    if isinstance(n, EVar):
        return repl if n.name == var else n
    if isinstance(n, (EBin, FCmp)):
        return type(n)(n.op, ref_subst(n.lhs, var, repl), ref_subst(n.rhs, var, repl))
    if isinstance(n, (FAnd, FOr)):
        return type(n)(ref_subst(n.lhs, var, repl), ref_subst(n.rhs, var, repl))
    return FNot(ref_subst(n.body, var, repl)) if isinstance(n, FNot) else n


def ref_text(n):
    if isinstance(n, EInt):
        return str(n.n)
    if isinstance(n, EVar):
        return n.name
    if isinstance(n, FBool):
        return "true" if n.b else "false"
    if isinstance(n, FNot):
        return f"(!{ref_text(n.body)})"
    op = "&&" if isinstance(n, FAnd) else "||" if isinstance(n, FOr) else n.op
    return f"({ref_text(n.lhs)} {op} {ref_text(n.rhs)})"


def ref_mentioned(n):
    if isinstance(n, EVar):
        return {n.name}
    return set().union(*(ref_mentioned(f) for f in n[1:] if isinstance(f, tuple)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ahl_decls(), st.data())
def test_evaluation_over_columns_equals_the_per_state_reference(decls, data):
    names = [d.name for d in decls]
    node = data.draw(_formulas(names) | _exprs(names))
    rows = states(decls)
    want = [ref_eval(node, s) for s in rows]
    got = eval_formula(node, {x: [s[x] for s in rows] for x in names})
    assert isinstance(got, list) == bool(ref_mentioned(node))  # a constant stays a scalar
    got = got if isinstance(got, list) else [got] * len(rows)
    assert (got, list(map(type, got))) == (want, list(map(type, want)))
    one = [eval_formula(node, s) for s in rows]  # over ints: one row
    assert (one, list(map(type, one))) == (want, list(map(type, want)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ahl_decls(), st.data())
def test_substitution_rendering_and_mentioned_equal_their_references(decls, data):
    names = [d.name for d in decls]
    node = data.draw(_formulas(names) | _exprs(names))
    var, repl = data.draw(st.sampled_from(names)), data.draw(_exprs(names))
    assert subst_formula(node, var, repl) == ref_subst(node, var, repl)
    assert formula_text(node) == ref_text(node)
    assert mentioned(node) == ref_mentioned(node)


def test_ten_thousand_deep_formulas_and_expressions_need_no_interpreter_stack():
    n, x = 10_000, EVar("x")
    conj = reduce(FAnd, [FCmp("!=", x, EInt(i)) for i in range(n)])  # left-nested
    arith = reduce(lambda e, i: EBin("-+"[i % 2], e, EInt(1)), range(n), x)  # x - 1 + 1 ...
    assert eval_formula(conj, {"x": [n, 0, n - 1, -1]}) == [True, False, False, True]
    assert eval_formula(arith, {"x": [3, -2]}) == [3, -2] and eval_formula(arith, {"x": 4}) == 4
    assert eval_formula(subst_formula(conj, "x", EInt(n)), {}) is True
    assert eval_formula(subst_formula(arith, "x", EInt(7)), {}) == 7
    assert formula_text(conj) == "(" * (n - 1) + "(x != 0)" + "".join(
        f" && (x != {i}))" for i in range(1, n))
    assert formula_text(arith) == "(" * n + "x" + "".join(
        f" {'-+'[i % 2]} 1)" for i in range(n))
    assert mentioned(conj) == mentioned(arith) == {"x"}


def test_no_function_in_formulas_calls_itself():
    """A walker that recursed once per level would reach the stack limit on deep input."""
    tree = ast.parse(Path(formulas.__file__).read_text(encoding="utf-8"))
    found = [(f.name, call.lineno) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             for call in ast.walk(f) if isinstance(call, ast.Call)
             and f.name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]
    assert found == []
