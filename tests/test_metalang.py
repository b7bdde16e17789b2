"""Metalanguage: parsing, grade inference, evaluation, derivation checking."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cgm.ahlcheck import (
    DRand,
    DSeq,
    DSkip,
    DWeak,
    Judgement,
    check_ahl,
    parse_ahl_file,
)
from cgm.errors import (
    GradeMismatch,
    InvalidImplication,
    ParseError,
    RuleMismatch,
    SpawnGradeError,
)
from cgm.formulas import FCmp, EVar, EInt, TRUE, VarDecl
from cgm.core import GradedComputation, PrimSpec
from cgm.indexcat import ObjectId, free_category
from cgm.instances import (
    AhlMonad,
    InstanceBundle,
    ahl_instance,
    concst_bundle,
    identity_instance,
    instance_names,
    lock_category,
)
from cgm import metalang
from cgm.formulas import EBin as PArith, EVar as PVar
from cgm.metalang import (
    TLet,
    TPrim,
    TPure,
    TVar,
    PLit,
    PPairE,
    eval_term,
    infer_grade,
    infer_program,
    PExpr,
    Program,
    Term,
    parse_program,
    start_object,
    strength,
)
from cgm.rng import Rng
from cgm.values import VBool, VUnit, unit as vunit, vint, vpair, vseq


# --- pretty printing, for parse round trips ---

def pexpr_text(e: PExpr) -> str:
    if isinstance(e, PLit):
        if isinstance(e.value, VBool):
            return "true" if e.value.b else "false"
        if isinstance(e.value, VUnit):
            return "()"
        return e.value.show()
    if isinstance(e, PVar):
        return e.name
    if isinstance(e, PArith):
        return f"({pexpr_text(e.lhs)} {e.op} {pexpr_text(e.rhs)})"
    return f"({pexpr_text(e.fst)}, {pexpr_text(e.snd)})"


def _term_text(t: Term, indent: int) -> str:
    pad = "  " * indent
    if isinstance(t, TLet):
        stmts = []
        cur: Term = t
        while isinstance(cur, TLet):
            head = f"{cur.var} <- " if cur.var != "_" else ""
            stmts.append(pad + "  " + head + _inline_term(cur.bound, indent + 1) + ";")
            cur = cur.body
        stmts.append(pad + "  " + _inline_term(cur, indent + 1))
        return pad + "do {\n" + "\n".join(stmts) + "\n" + pad + "}"
    return pad + _inline_term(t, indent)


def _inline_term(t: Term, indent: int) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TPure):
        return f"pure {pexpr_text(t.expr)}"
    if isinstance(t, TPrim):
        if t.name == "spawn":
            return "spawn " + _term_text(t.body, indent).lstrip()
        if t.args:
            return f"{t.name}({', '.join(pexpr_text(a) for a in t.args)})"
        return t.name
    return _term_text(t, indent).lstrip() if isinstance(t, TLet) else str(t)


def pretty_program(p: Program) -> str:
    lines = [f"instance {p.instance}"]
    if p.start is not None:
        lines.append(f"start {p.start}")
    if p.store is not None:
        lines.append(f"store int[{p.store[0]}..{p.store[1]}]")
    lines.append("")
    if isinstance(p.body, TLet):
        lines.append(_term_text(p.body, 0))
    else:
        lines.append("do {\n  " + _inline_term(p.body, 1) + "\n}")
    return "\n".join(lines) + "\n"


LOCK_PROGRAM = """
instance concst
start free
store int[0..63]

do {
  lock;
  x <- get;
  put(x + 1);
  unlock
}
"""


def lock_bundle(n=64):
    return lock_bundle_over(range(n))


def lock_bundle_over(stores):
    return concst_bundle(tuple(vint(i) for i in stores))


FREE = ObjectId("free")


# --- parsing ---

def test_parse_lock_program_shape():
    p = parse_program(LOCK_PROGRAM)
    assert p.instance == "concst" and p.start == "free" and p.store == (0, 63)
    t = p.body
    steps = []
    while isinstance(t, TLet):
        steps.append((t.var, t.bound))
        t = t.body
    steps.append((None, t))
    assert len(steps) == 4
    assert steps[0][1] == TPrim("lock")
    assert steps[1] == ("x", TPrim("get"))
    assert steps[2][1] == TPrim("put", (PArith("+", PVar("x"), PLit(vint(1))),))
    assert steps[3][1] == TPrim("unlock")


def test_parse_pure_literal():
    p = parse_program("instance glist\nstart *\ndo { pure 5 }")
    assert p.body == TPure(PLit(vint(5)))


def test_parse_error_unbalanced():
    with pytest.raises(ParseError) as err:
        parse_program("instance concst\ndo { lock;\n")
    assert err.value.line >= 2


def test_parse_error_missing_instance():
    with pytest.raises(ParseError):
        parse_program("do { pure 1 }")


def test_gp_and_ahl_parse_arithmetic_to_the_same_records():
    from cgm.formulas import EBin, EVar, TokenStream, parse_arith, tokenize
    text = "x + y * (z - w) - x"
    gp = metalang.parse_pexpr(TokenStream(tokenize(text)))
    ahl = parse_arith(TokenStream(tokenize(text)), ("w", "x", "y", "z"))
    x, y, z, w = map(EVar, "xyzw")
    assert gp == ahl == EBin("-", EBin("+", x, EBin("*", y, EBin("-", z, w))), x)


def test_pretty_roundtrip_lock():
    p = parse_program(LOCK_PROGRAM)
    again = parse_program(pretty_program(p))
    assert again.body == p.body
    assert again.instance == p.instance and again.store == p.store


def test_pretty_roundtrip_nested():
    text = """
instance concst
start free
do {
  spawn do { lock; put(3); unlock };
  y <- pure (1 + 2 * 3, ());
  pure y
}
"""
    p = parse_program(text)
    again = parse_program(pretty_program(p))
    assert again.body == p.body


# --- grade inference ---

def test_lock_program_grade():
    bundle = lock_bundle()
    p = parse_program(LOCK_PROGRAM)
    gt = infer_program(bundle, p)
    assert str(gt.index) == "lock;get;put;unlock : free -> free"
    assert gt.shape == "unit"


def test_pure_term_grade_is_identity():
    bundle = lock_bundle(4)
    gt = infer_grade(bundle, FREE, TPure(PLit(vint(5))))
    assert str(gt.index) == "id_free : free -> free"
    assert gt.shape == "int"


def test_get_from_free_rejected():
    bundle = lock_bundle(4)
    with pytest.raises(GradeMismatch):
        infer_grade(bundle, FREE, TPrim("get"))


def test_missing_unlock_rejected_at_program_level():
    bundle = lock_bundle(4)
    p = parse_program("instance concst\nstart free\ndo { lock; get }")
    with pytest.raises(GradeMismatch):
        infer_program(bundle, p)


def test_spawn_of_critical_body_rejected():
    bundle = lock_bundle(4)
    p = parse_program(
        "instance concst\nstart free\ndo { lock; x <- get; unlock; "
        "spawn do { lock; put(x); unlock }; pure () }")
    # inner spawn body is free -> free, fine; now a critical body:
    gt = infer_program(bundle, p)
    assert gt.index.src == FREE
    bad = parse_program(
        "instance concst\nstart free\ndo { spawn do { lock; get; pure () }; pure () }")
    with pytest.raises(SpawnGradeError):
        infer_program(bundle, bad)


def _ab_bundle(spawned):
    """The identity monad over a free category a <-> b, with primitives
    `tick : a -> b` (returns its argument plus one) and `tock : b -> a`, and a
    spawn at b that records each body it runs."""
    cat = free_category(["a", "b"], [("tick", "a", "b"), ("tock", "b", "a")])
    tick, tock, at_b = cat.path(["tick"]), cat.path(["tock"]), cat.identity(ObjectId("b"))
    return InstanceBundle("ab", identity_instance(cat), prims={
        "tick": PrimSpec(("int",), "int", tick,
                         lambda a: GradedComputation(tick, vint(a[0].n + 1))),
        "tock": PrimSpec((), "unit", tock, lambda _a: GradedComputation(tock, vunit)),
    }, spawn=PrimSpec((), "unit", at_b,
                      lambda body: spawned.append(body) or GradedComputation(at_b, vunit)))


def test_declared_primitives_and_spawn_of_any_instance():
    spawned = []
    bundle = _ab_bundle(spawned)
    a = ObjectId("a")
    p = parse_program("instance ab\nstart a\n"
                      "do { x <- tick(4); spawn do { pure (x, x) }; tock; pure x }")
    gt = infer_program(bundle, p)
    assert str(gt) == "tick;tock : a -> a [int]"
    c = eval_term(bundle, p.body, {}, a, gt)
    assert c == GradedComputation(gt.index, vint(5))
    assert [str(b) for b in spawned] == ["[id_b : b -> b] (5, 5)"]
    misplaced = parse_program("instance ab\ndo { spawn do { pure () }; pure () }")
    with pytest.raises(GradeMismatch, match=r"^2:6: spawn used at a, only available at b$"):
        infer_grade(bundle, a, misplaced.body)
    leaving = parse_program("instance ab\ndo { tick(0); spawn do { tock; pure () }; tock }")
    with pytest.raises(SpawnGradeError,
                       match=r"^2:15: spawn body has grade \(tock : b -> a\), needs b -> b$"):
        infer_grade(bundle, a, leaving.body)


def test_metalang_names_no_instance_or_object():
    """The metalanguage reads every primitive and the spawn off the bundle:
    outside docstrings its source holds no instance name and no object name
    of the lock category."""
    tree = ast.parse(Path(metalang.__file__).read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    names = set(instance_names()) | {o.name for o in lock_category().object_ids()}
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and id(node) not in docstrings and names & set(re.findall(r"[\w-]+", node.value))]
    assert found == []


def test_unknown_prim():
    from cgm.errors import UnknownPrim
    bundle = lock_bundle(4)
    with pytest.raises(UnknownPrim):
        infer_grade(bundle, FREE, TPrim("warp"))


# --- evaluation ---

def test_eval_lock_program_threads_store():
    bundle = lock_bundle()
    p = parse_program(LOCK_PROGRAM)
    c = eval_term(bundle, p.body, {}, start_object(bundle, p))
    assert str(c.index) == "lock;get;put;unlock : free -> free"
    step = c.payload.get(vint(41))
    assert step.snd == vint(42)
    # state-threading oracle across the whole domain
    for s0 in range(63):
        assert c.payload.get(vint(s0)).snd == vint(s0 + 1)
    assert not c.payload.has(vint(63))  # 64 escapes the store domain


def test_eval_pure_is_unit():
    bundle = lock_bundle(4)
    from cgm.core import unit
    c = eval_term(bundle, TPure(PLit(vint(9))), {}, FREE)
    assert c == unit(bundle.monad, FREE, vint(9))


def test_eval_index_matches_inference_corpus():
    bundle = lock_bundle(8)
    rng = Rng(2024)
    for i in range(40):
        term = _random_valid_program(rng.fork(i))
        inferred = infer_grade(bundle, FREE, term)
        got = eval_term(bundle, term, {}, FREE)
        assert got.index == inferred.index


def test_pretty_roundtrip_generated_corpus():
    rng = Rng(77)
    for i in range(30):
        term = _random_valid_program(rng.fork(i))
        from cgm.metalang import Program
        p = Program("concst", "free", (0, 7), term)
        again = parse_program(pretty_program(p))
        assert again.body == p.body


def _replay_reference(term, store, domain):
    """Oracle: walk the statement chain over a plain (env, store) machine.

    Returns the final store, or None when a write leaves the domain.
    """
    from cgm.metalang import eval_pexpr

    env = {}
    t = term
    while True:
        if isinstance(t, TLet):
            stmt, var, rest = t.bound, t.var, t.body
        else:
            stmt, var, rest = t, None, None
        if isinstance(stmt, TPrim):
            if stmt.name == "get":
                if var and var != "_":
                    env[var] = vint(store)
            elif stmt.name == "put":
                store = eval_pexpr(stmt.args[0], env).n
                if store not in domain:
                    return None
            # lock/unlock do not touch the store
        elif isinstance(stmt, TPure) and var and var != "_":
            env[var] = eval_pexpr(stmt.expr, env)
        if rest is None:
            return store
        t = rest


def test_eval_matches_reference_machine_corpus():
    domain = range(8)
    bundle = lock_bundle(8)
    rng = Rng(4242)
    for i in range(30):
        term = _random_valid_program(rng.fork(i))
        comp = eval_term(bundle, term, {}, FREE)
        for s0 in domain:
            expected = _replay_reference(term, s0, domain)
            if expected is None:
                assert not comp.payload.has(vint(s0))
            else:
                assert comp.payload.get(vint(s0)).snd == vint(expected)


def _random_valid_program(rng: Rng, depth: int = 5):
    """DFA-respecting statement chains from `free`, depth statements."""
    stmts = []
    state = "free"
    bound = []
    for _ in range(depth - 1):
        choice = rng.randint(0, 3)
        if state == "free":
            if choice == 0:
                stmts.append(("_", TPure(PLit(vint(rng.randint(0, 3))))))
            else:
                stmts.append(("_", TPrim("lock")))
                state = "critical"
        else:
            if choice == 0:
                var = f"v{len(bound)}"
                stmts.append((var, TPrim("get")))
                bound.append(var)
            elif choice == 1:
                arg = PVar(rng.choice(bound)) if bound else PLit(vint(rng.randint(0, 7)))
                stmts.append(("_", TPrim("put", (arg,))))
            elif choice == 2:
                stmts.append(("_", TPure(PLit(vint(1)))))
            else:
                stmts.append(("_", TPrim("unlock")))
                state = "free"
    last = TPrim("unlock") if state == "critical" else TPure(PLit(vint(0)))
    term = last
    for var, bound_term in reversed(stmts):
        term = TLet(var, bound_term, term)
    return term


def test_eval_work_is_linear_in_binds(monkeypatch):
    """k x `x <- get; put(x + 1)` over int[0..7]: each bind adds a constant
    number of multiplications instead of multiplying them by |S|."""
    calls = [0]
    real_mult = metalang.mult

    def counting_mult(*args):
        calls[0] += 1
        return real_mult(*args)

    monkeypatch.setattr(metalang, "mult", counting_mult)
    bundle = lock_bundle(8)

    def mults(k):
        stmts = ["lock"] + ["x <- get", "put(x + 1)"] * k + ["unlock"]
        p = parse_program("instance concst\nstart free\ndo { " + "; ".join(stmts) + " }")
        calls[0] = 0
        c = eval_term(bundle, p.body, {}, FREE)
        assert c.payload.get(vint(0)).snd == vint(k)
        return calls[0]

    assert mults(4) <= 2 * mults(2) + 2


def test_eval_runs_continuations_in_first_occurrence_order(monkeypatch):
    """Continuations run depth first, each bind's in the order its map_fn
    first reaches the carried values, and each only at the stores where the
    rows that carry it end; `put` logs each value it writes.  Over int[0..3],
    x's continuation runs at store x and writes x + 1, y's at x + 1 and
    writes 2y, z's at 2y and writes 2y - x, and nothing runs outside 0..3:
    x = 0 writes 1, 2, 2; x = 1 writes 2, 4; x = 2 writes 3, 6; x = 3 writes 4."""
    from cgm.instances import LockPrims
    written = []
    put = LockPrims.put

    def logging_put(self, v, states=None):
        written.append(v.n)
        return put(self, v, states)

    monkeypatch.setattr(LockPrims, "put", logging_put)
    p = parse_program("instance concst\nstart free\ndo { lock; x <- get; put(x + 1); "
                      "y <- get; put(y * 2); z <- get; put(z - x); unlock }")
    c = eval_term(lock_bundle(4), p.body, {}, FREE)
    assert c.payload.show() == "{0 -> ((), 2)}"
    assert written == [1, 2, 2, 2, 4, 3, 6, 4]


_SHAPES = {  # program, how far past its start store each row ends
    "lock": ("lock; x <- get; put(x + 1); unlock", 1),
    "pure": ("lock; x <- get; y <- pure (x + 1); put(y); unlock", 1),
    "reput": ("lock; x <- get; put(1); put(x); unlock", 0),
}


def _leaf_rows(monkeypatch, shape, n):
    """The rows that the leaves build to evaluate a shape over int[0..n-1]."""
    program, shift = _SHAPES[shape]
    bundle = lock_bundle(n)
    built = [0]

    def counted(make):
        def leaf(*args):
            c = make(*args)
            built[0] += len(c.payload.entries)
            return c
        return leaf

    for spec in bundle.prims.values():
        spec.make = counted(spec.make)
    bundle.demand.unit = counted(bundle.demand.unit)
    monkeypatch.setattr(metalang, "unit", counted(metalang.unit))
    p = parse_program(f"instance concst\ndo {{ {program} }}")
    c = eval_term(bundle, p.body, {}, FREE)
    rows = (f"{s} -> ((), {s + shift})" for s in range(n - shift))
    assert c.payload.show() == "{" + "; ".join(rows) + "}"
    return built[0]


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_eval_leaf_rows_grow_linearly_with_the_store_domain(monkeypatch, shape):
    """Each continuation builds rows only at the stores its multiplication
    reads, so doubling the domain at most about doubles the rows; built over
    the whole domain, they would quadruple."""
    assert _leaf_rows(monkeypatch, shape, 128) <= 2.1 * _leaf_rows(monkeypatch, shape, 64)


def test_eval_rebuilds_a_memo_entry_once_at_every_state(monkeypatch):
    """The continuation of `y <- pure (x * 0)` is shared by every x: first
    built at x's one store, it is built once more, at every store, when the
    next x reads another store, and then serves every later x."""
    from cgm.instances import LockPrims
    stores = []
    put = LockPrims.put

    def logging_put(self, v, states=None):
        stores.append(None if states is None else sorted(s.n for s in states))
        return put(self, v, states)

    monkeypatch.setattr(LockPrims, "put", logging_put)
    p = parse_program("instance concst\ndo { lock; x <- get; y <- pure (x * 0); put(y + 1); unlock }")
    c = eval_term(lock_bundle(4), p.body, {}, FREE)
    assert c.payload.show() == "{0 -> ((), 1); 1 -> ((), 1); 2 -> ((), 1); 3 -> ((), 1)}"
    assert stores == [[0], None]


def test_eval_let_node_shared_between_objects():
    shared = TLet("_", TPure(PLit(vint(1))), TPure(PLit(vint(2))))
    term = TLet("_", shared, TLet("_", TPrim("lock"), TLet("_", shared, TPrim("unlock"))))
    bundle = lock_bundle(4)
    c = eval_term(bundle, term, {}, FREE)
    assert c.index == infer_grade(bundle, FREE, term).index
    assert c.payload.get(vint(3)) == vpair(vunit, vint(3))


# Differential test: random lock programs against a store-passing interpreter.

_NAMES = ("x", "y", "z", "_")


@st.composite
def _int_expr(draw, ints):
    def atom():
        if ints and draw(st.booleans()):
            return PVar(draw(st.sampled_from(sorted(ints))))
        return PLit(vint(draw(st.integers(0, 7))))
    e = atom()
    if draw(st.booleans()):
        e = PArith(draw(st.sampled_from("+-*")), e, atom())
    return e


@st.composite
def _value_expr(draw, ints, pairs):
    """An int or pair expression; pairs may nest a pair-valued variable."""
    kind = draw(st.sampled_from(["int", "pair", "pairvar"] if pairs else ["int", "pair"]))
    if kind == "int":
        return draw(_int_expr(ints))
    fst = PVar(draw(st.sampled_from(sorted(pairs)))) if kind == "pairvar" else \
        draw(_int_expr(ints))
    return PPairE(fst, draw(_int_expr(ints)))


@st.composite
def _lock_chain(draw, ints=frozenset(), pairs=frozenset(), spawn_depth=1):
    """A statement chain from `free` back to `free`: lock / get / put /
    unlock, `pure`, and `spawn` at free, binding shadowed, unused and
    pair-valued variables."""
    stmts = []
    critical = False
    for _ in range(draw(st.integers(0, 6))):
        options = ["pure", "unlock", "get", "put"] if critical else ["pure", "lock"]
        if not critical and spawn_depth:
            options.append("spawn")
        op = draw(st.sampled_from(options))
        if op == "pure":
            bound = TPure(draw(_value_expr(ints, pairs)))
        elif op == "put":
            bound = TPrim("put", (draw(_int_expr(ints)),))
        elif op == "spawn":
            bound = TPrim("spawn", (), draw(_lock_chain(ints, pairs, spawn_depth - 1)))
        else:
            bound = TPrim(op)
            critical = op != "unlock"
        var = draw(st.sampled_from(_NAMES))
        if var != "_":
            is_pair = isinstance(bound, TPure) and isinstance(bound.expr, PPairE)
            is_int = bound == TPrim("get") or (isinstance(bound, TPure) and not is_pair)
            ints = ints | {var} if is_int else ints - {var}
            pairs = pairs | {var} if is_pair else pairs - {var}
        stmts.append((var, bound))
    if critical:
        term = TPrim("unlock")
    elif (ints or pairs) and draw(st.booleans()):
        term = TVar(draw(st.sampled_from(sorted(ints | pairs))))
    else:
        term = TPure(draw(_value_expr(ints, pairs)))
    for var, bound in reversed(stmts):
        term = TLet(var, bound, term)
    return term


def _direct_run(t, env, store, domain):
    """Store-passing interpreter: (result, final store), or None when the
    store leaves the domain before a later statement."""
    def ev(e):
        if isinstance(e, PLit):
            return e.value
        if isinstance(e, PVar):
            return env[e.name]
        if isinstance(e, PPairE):
            return vpair(ev(e.fst), ev(e.snd))
        a, b = ev(e.lhs).n, ev(e.rhs).n
        return vint({"+": a + b, "-": a - b, "*": a * b}[e.op])

    if isinstance(t, TLet):
        first = _direct_run(t.bound, env, store, domain)
        if first is None or first[1] not in domain:
            return None
        return _direct_run(t.body, {**env, t.var: first[0]}, first[1], domain)
    if isinstance(t, TVar):
        return env[t.name], store
    if isinstance(t, TPure):
        return ev(t.expr), store
    if t.name == "spawn":
        inner = _direct_run(t.body, env, store, domain)
        return None if inner is None else (vunit, inner[1])
    if t.name == "get":
        return vint(store), store
    if t.name == "put":
        return vunit, ev(t.args[0]).n
    return vunit, store  # lock, unlock


def _chain(text):
    return parse_program(f"instance concst\nstart free\ndo {{ {text} }}").body


@settings(max_examples=300, derandomize=True, deadline=None)
@given(term=_lock_chain(), lo=st.integers(-2, 4), size=st.integers(1, 6))
@example(term=_chain("lock; x <- get; put(1); put(x); unlock"), lo=0, size=4)
@example(term=_chain("spawn do { lock; x <- get; put(1); put(x); unlock }; pure ()"),
         lo=-1, size=3)
def test_eval_matches_store_passing_interpreter(term, lo, size):
    """Both over the whole domain and, as `cgm run --store` does, at one
    start store: inside the domain, and once below it, where no row is built.
    The examples run a continuation keyed per site inside one keyed per value."""
    domain = range(lo, lo + size)
    bundle = lock_bundle_over(domain)
    inferred = infer_grade(bundle, FREE, term)
    comp = eval_term(bundle, term, {}, FREE)
    assert comp.index == inferred.index
    for s0 in domain:
        expected = _direct_run(term, {}, s0, domain)
        one = eval_term(bundle, term, {}, FREE, inferred, {vint(s0)})
        assert one.index == inferred.index
        if expected is None:
            assert not comp.payload.has(vint(s0))
            assert one.payload.entries == ()
        else:
            step = vpair(expected[0], vint(expected[1]))
            assert comp.payload.get(vint(s0)) == step
            assert one.payload.entries == ((vint(s0), step),)
    assert eval_term(bundle, term, {}, FREE, inferred, {vint(lo - 1)}).payload.entries == ()


# --- strength ---

def test_strength_graded_list():
    from cgm.core import GradedComputation
    from cgm.instances import graded_list_instance
    two = graded_list_instance()
    T = two.base
    f = T.index_cat.elem(2)
    c = GradedComputation(f, vseq([vint(1), vint(2)]))
    out, pairs = strength(T, f, vint(9), c)
    # fmap-pairing oracle
    assert out.payload == vseq([vpair(vint(9), vint(1)), vpair(vint(9), vint(2))])
    assert out.index == f
    assert pairs == list(out.payload.items)  # one per call of the pairing function
    # projection: strength then second == original
    from cgm.core import fmap
    back = fmap(T, f, lambda pr: pr.snd, out.payload)
    assert back == c.payload


def test_strength_identity_instance():
    from cgm.core import GradedComputation
    from cgm.instances import identity_instance, lock_category
    T = identity_instance(lock_category())
    f = T.index_cat.identity(FREE)
    c = GradedComputation(f, vint(5))
    out, pairs = strength(T, f, vint(1), c)
    assert out.payload == vpair(vint(1), vint(5)) and pairs == [out.payload]


# --- protocol completeness against a reference DFA ---

LOCK_DFA = {
    ("free", "lock"): "critical",
    ("critical", "get"): "critical",
    ("critical", "put"): "critical",
    ("critical", "unlock"): "free",
}


def _chain(prims):
    term = TPure(PLit(vint(0)))
    for name in reversed(prims):
        args = (PLit(vint(0)),) if name == "put" else ()
        term = TLet("_", TPrim(name, args), term)
    return term


def test_dfa_equivalence_up_to_length_5():
    import itertools
    bundle = lock_bundle(4)
    names = ("lock", "get", "put", "unlock")
    mismatches = 0
    total = 0
    for length in range(0, 6):
        for seq in itertools.product(names, repeat=length):
            total += 1
            state = "free"
            accepted = True
            for name in seq:
                nxt = LOCK_DFA.get((state, name))
                if nxt is None:
                    accepted = False
                    break
                state = nxt
            try:
                infer_grade(bundle, FREE, _chain(seq))
                inferred_ok = True
            except GradeMismatch:
                inferred_ok = False
            if inferred_ok != accepted:
                mismatches += 1
    assert mismatches == 0
    assert total == sum(4 ** k for k in range(6))


# --- derivation checking ---

X_NE_0 = FCmp("!=", EVar("x"), EInt(0))
XY_DECLS = (VarDecl("x", 0, 9), VarDecl("y", 0, 9))


def test_skip_valid():
    inst = ahl_instance((VarDecl("x", 0, 9),))
    v = check_ahl(inst, DSkip(X_NE_0))
    assert v.valid
    assert v.conclusion == Judgement(Fraction(0), X_NE_0, X_NE_0)
    assert v.nodes[-1].failure == 0


def test_seq_two_samplers_exact_probability():
    inst = ahl_instance(XY_DECLS)
    y_ne_0 = FCmp("!=", EVar("y"), EInt(0))
    from cgm.formulas import FAnd
    both = FAnd(X_NE_0, y_ne_0)
    d = DSeq(DRand("x", 0, 9, Fraction(1, 10), TRUE, X_NE_0),
             DRand("y", 0, 9, Fraction(1, 10), X_NE_0, both))
    v = check_ahl(inst, d)
    assert v.valid
    assert v.conclusion.beta == Fraction(1, 5)
    assert v.nodes[-1].failure == Fraction(19, 100)
    # brute-force enumeration oracle over the 100 outcomes
    bad = sum(1 for x in range(10) for y in range(10) if x == 0 or y == 0)
    assert Fraction(bad, 100) == Fraction(19, 100)


def test_seq_middle_mismatch():
    inst = ahl_instance(XY_DECLS)
    d = DSeq(DRand("x", 0, 9, Fraction(1, 10), TRUE, X_NE_0),
             DRand("y", 0, 9, Fraction(1, 10), TRUE, TRUE))
    with pytest.raises(RuleMismatch):
        check_ahl(inst, d)


def test_weak_decreasing_bound_rejected():
    inst = ahl_instance((VarDecl("x", 0, 9),))
    d = DWeak(DRand("x", 0, 9, Fraction(1, 10), TRUE, X_NE_0),
              Fraction(1, 20), TRUE, X_NE_0)
    with pytest.raises(RuleMismatch):
        check_ahl(inst, d)


def test_weak_invalid_implication_rejected():
    inst = ahl_instance((VarDecl("x", 0, 9),))
    d = DWeak(DRand("x", 0, 9, Fraction(1, 10), X_NE_0, X_NE_0),
              Fraction(1, 2), TRUE, X_NE_0)
    with pytest.raises(InvalidImplication):
        check_ahl(inst, d)


def test_rand_overclaimed_bound_semantically_invalid():
    inst = ahl_instance((VarDecl("x", 0, 9),))
    v = check_ahl(inst, DRand("x", 0, 9, Fraction(1, 20), TRUE, X_NE_0))
    assert not v.valid
    assert "exceeds bound" in v.message


def test_structural_implies_semantic_on_corpus():
    # randomly generated structurally-sound derivations are semantically valid
    inst = ahl_instance(XY_DECLS)
    rng = Rng(99)
    built = 0
    for i in range(60):
        d = _random_derivation(inst, rng.fork(i), depth=rng.randint(1, 3))
        v = check_ahl(inst, d)
        assert v.valid, v.render()
        built += 1
    assert built == 60


def _random_derivation(inst, rng: Rng, depth: int):
    from cgm.ahlcheck import conclusion
    x_gt = lambda k: FCmp(">", EVar("x"), EInt(k))
    if depth <= 1:
        kind = rng.randint(0, 2)
        if kind == 0:
            return DSkip(x_gt(rng.randint(0, 5)))
        if kind == 1:
            k = rng.randint(0, 8)
            # uniform over 0..9 misses x > k with probability (k+1)/10
            return DRand("x", 0, 9, Fraction(k + 1, 10), TRUE, x_gt(k))
        return DRand("y", 0, 9, Fraction(1, 10), TRUE,
                     FCmp("!=", EVar("y"), EInt(0)))
    if rng.randint(0, 1) == 0:
        left = _random_derivation(inst, rng.fork(0), 1)
        mid = conclusion(inst, left).post
        right = DSkip(mid)
        return DSeq(left, right)
    child = _random_derivation(inst, rng.fork(1), depth - 1)
    j = conclusion(inst, child)
    bump = j.beta + Fraction(rng.randint(0, 2), 10)
    return DWeak(child, min(bump, Fraction(1)), j.pre, j.post)


def test_parse_ahl_file_and_check():
    text = """
var x : int[0..9]
conclude 1/10 : true => (x != 0)
rand x 0 9 : 1/10 : true => (x != 0)
"""
    f = parse_ahl_file(text)
    assert f.claimed.beta == Fraction(1, 10)
    v = check_ahl(AhlMonad(f.decls), f.derivation, claimed=f.claimed)
    assert v.valid


def test_ahl_file_claim_mismatch():
    text = """
var x : int[0..9]
conclude 1/20 : true => (x != 0)
rand x 0 9 : 1/10 : true => (x != 0)
"""
    f = parse_ahl_file(text)
    with pytest.raises(RuleMismatch):
        check_ahl(AhlMonad(f.decls), f.derivation, claimed=f.claimed)


def test_ahl_file_parse_error():
    with pytest.raises(ParseError):
        parse_ahl_file("var x : int[0..9]\nconclude oops")
