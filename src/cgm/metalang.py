"""A small graded monadic metalanguage.

Programs are do-blocks of `x <- t;` binds over instance primitives and
pure expressions.  Grade inference composes the primitives' morphisms,
so a program typechecks exactly when its effect trace is a path in the
instance's index category.  Evaluation elaborates each bind as
tensorial strength on the variables the continuation reads, functor map
of the continuation, then multiplication, and always produces the
inferred index.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .core import CatGradedMonad, GradedComputation, fmap, mult, unit
from .errors import (
    GradeMismatch,
    InconsistentContinuationIndex,
    MalformedPayload,
    ParseError,
    SpawnGradeError,
    UnknownPrim,
)
from .formulas import Token, TokenStream, parse_infix, parse_int_range, tokenize
from .indexcat import Morphism, ObjectId
from .instances import InstanceBundle, LockPrims
from .values import (
    Record,
    Value,
    VBool,
    VInt,
    VPair,
    VStr,
    VUnit,
    unit as vunit,
    vbool,
    vint,
    vpair,
    vseq,
)


class Pos(Record):
    __slots__ = ()
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NOPOS = Pos(0, 0)


# --- pure expressions ---

class PLit(Record):
    __slots__ = ()
    value: Value


class PVar(Record):
    __slots__ = ()
    name: str


class PArith(Record):
    __slots__ = ()
    op: str
    lhs: "PExpr"
    rhs: "PExpr"


class PPairE(Record):
    __slots__ = ()
    fst: "PExpr"
    snd: "PExpr"


PExpr = PLit | PVar | PArith | PPairE


# --- terms (each keeps its pos outside its tuple: equality and hash ignore it) ---

class TVar(Record, outside=("pos",)):
    name: str
    pos: Pos = NOPOS


class TPure(Record, outside=("pos",)):
    expr: PExpr
    pos: Pos = NOPOS


class TPrim(Record, outside=("pos",)):
    name: str
    args: tuple[PExpr, ...] = ()
    body: "Term | None" = None  # spawn carries a computation argument
    pos: Pos = NOPOS


class TLet(Record, outside=("pos",)):
    var: str
    bound: "Term"
    body: "Term"
    pos: Pos = NOPOS


Term = TVar | TPure | TPrim | TLet


class Program(Record):
    __slots__ = ()
    instance: str
    start: str | None
    store: tuple[int, int] | None
    body: Term


# --- shapes ---

Shape = object  # "unit" | "int" | "bool" | "str" | "any" | ("pair", s, s)


def shape_of_value(v: Value) -> Shape:
    if isinstance(v, VUnit):
        return "unit"
    if isinstance(v, VInt):
        return "int"
    if isinstance(v, VBool):
        return "bool"
    if isinstance(v, VStr):
        return "str"
    if isinstance(v, VPair):
        return ("pair", shape_of_value(v.fst), shape_of_value(v.snd))
    return "any"


def _shape_ok(actual: Shape, wanted: Shape) -> bool:
    return wanted == "any" or actual == "any" or actual == wanted


def shape_text(s: Shape) -> str:
    if isinstance(s, tuple):
        return f"pair({shape_text(s[1])}, {shape_text(s[2])})"
    return str(s)


class GradedType(Record):
    __slots__ = ()
    index: Morphism
    shape: Shape

    def __str__(self) -> str:
        return f"{self.index} [{shape_text(self.shape)}]"


# --- primitive signatures per instance ---

class PrimSpec:
    def __init__(self, arg_shapes: tuple[Shape, ...], result_shape: Shape, index: Morphism,
                 make: Callable[[list[Value]], GradedComputation]):
        self.arg_shapes, self.result_shape = arg_shapes, result_shape
        self.index, self.make = index, make


Spawn = Callable[[GradedComputation], GradedComputation]


def prims_for(bundle: InstanceBundle) -> tuple[dict[str, PrimSpec], Spawn | None]:
    """The instance's primitives by name, and its spawn (None without one)."""
    if not bundle.name.startswith("concst"):
        return {}, None
    lp = LockPrims(bundle.monad)

    def spec(name: str, args: tuple[Shape, ...], result: Shape, make) -> PrimSpec:
        return PrimSpec(args, result, lp.cat.path([name]), make)

    return {
        "lock": spec("lock", (), "unit", lambda _a: lp.lock()),
        "unlock": spec("unlock", (), "unit", lambda _a: lp.unlock()),
        "get": spec("get", (), "int", lambda _a: lp.get()),
        "put": spec("put", ("int",), "unit", lambda a: lp.put(a[0])),
    }, lp.spawn


# --- parsing ---

_KEYWORDS = {"do", "pure", "spawn", "instance", "start", "var", "store",
             "true", "false"}


def _pexpr_atom(t: Token) -> PExpr:
    if t.kind == "int":
        return PLit(vint(int(t.text)))
    if t.text in ("true", "false"):
        return PLit(vbool(t.text == "true"))
    if t.kind == "name":
        if t.text in _KEYWORDS:
            raise ParseError(f"keyword {t.text!r} is not an expression", t.line, t.col)
        return PVar(t.text)
    raise ParseError(f"expected expression, found {t.text!r}", t.line, t.col)


def _arith(t: Token, lhs: PExpr, rhs: PExpr) -> PExpr:
    return PArith(t.text, lhs, rhs)


def _tuple(*items: PExpr) -> PExpr:
    return PPairE(*items) if items else PLit(vunit)


def parse_pexpr(ts: TokenStream) -> PExpr:
    return parse_infix(ts, _pexpr_atom, {"+": 1, "-": 1, "*": 2}, {}, _arith, _tuple)


def _parse_term(ts: TokenStream, scope: set[str]) -> Term:
    t = ts.peek()
    if t is None:
        raise ParseError("expected a term", ts.end_line, 1)
    pos = Pos(t.line, t.col)
    if t.text == "do":
        return _parse_block(ts, scope)
    if t.text == "spawn":
        ts.next()
        body = _parse_block(ts, scope) if ts.at("do") else _parse_term(ts, scope)
        return TPrim("spawn", (), body, pos)
    if t.kind == "int" or t.text in ("pure", "true", "false", "("):
        ts.eat("pure")
        return TPure(parse_pexpr(ts), pos)
    if t.kind == "name":
        ts.next()
        if ts.eat("("):
            args = []
            if not ts.eat(")"):
                args.append(parse_pexpr(ts))
                while ts.eat(","):
                    args.append(parse_pexpr(ts))
                ts.expect(")")
            return TPrim(t.text, tuple(args), None, pos)
        if t.text in scope:
            return TVar(t.text, pos)
        return TPrim(t.text, (), None, pos)
    raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)


def _parse_block(ts: TokenStream, scope: set[str]) -> Term:
    ts.expect("do")
    ts.expect("{")
    stmts: list[tuple[str | None, Term, Pos]] = []
    scope = set(scope)  # this block's binds, added as they are read
    while True:
        t = ts.peek()
        if t is None:
            raise ParseError("unterminated block", ts.end_line, 1)
        if t.text == "}":
            break
        var = None
        pos = Pos(t.line, t.col)
        if (t.kind == "name" and t.text not in _KEYWORDS
                and ts.pos + 1 < len(ts.toks) and ts.toks[ts.pos + 1].text == "<-"):
            var = t.text
            ts.next()
            ts.next()
        stmts.append((var, _parse_term(ts, scope), pos))
        if var is not None:
            scope.add(var)
        if not ts.eat(";"):
            break
    close = ts.expect("}")
    if not stmts:
        raise ParseError("empty block", close.line, close.col)
    last_var, last_term, last_pos = stmts[-1]
    if last_var is not None:
        raise ParseError("block must end with an expression statement",
                         last_pos.line, last_pos.col)
    term = last_term
    for var, bound, pos in reversed(stmts[:-1]):
        term = TLet(var if var is not None else "_", bound, term, pos)
    return term


def parse_program(text: str) -> Program:
    toks = tokenize(text)
    ts = TokenStream(toks, end_line=text.count("\n") + 1)
    instance = None
    start = None
    store = None
    while True:
        t = ts.peek()
        if t is None:
            raise ParseError("program has no do-block", ts.end_line, 1)
        if t.text == "instance":
            ts.next()
            instance = ts.next("instance name").text
            while ts.eat("-"):  # registry names may be hyphenated: broken-glist
                instance += "-" + ts.next("instance name").text
        elif t.text == "start":
            ts.next()
            tok = ts.next("object name")
            start = tok.text
        elif t.text == "store":
            ts.next()
            store = parse_int_range(ts)
        else:
            break
    if instance is None:
        t = ts.peek()
        raise ParseError("missing `instance` header", t.line if t else 1, 1)
    body = _parse_block(ts, set())
    t = ts.peek()
    if t is not None:
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return Program(instance, start, store, body)


# --- grade inference ---

def shape_of_pexpr(e: PExpr, env: Mapping[str, Shape]) -> Shape:
    if isinstance(e, PLit):
        return shape_of_value(e.value)
    if isinstance(e, PVar):
        if e.name not in env:
            raise GradeMismatch(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, PArith):
        for side in (e.lhs, e.rhs):
            s = shape_of_pexpr(side, env)
            if not _shape_ok(s, "int"):
                raise GradeMismatch(f"arithmetic on non-integer ({shape_text(s)})")
        return "int"
    return ("pair", shape_of_pexpr(e.fst, env), shape_of_pexpr(e.snd, env))


def _pexpr_vars(e: PExpr) -> frozenset[str]:
    if isinstance(e, PVar):
        return frozenset((e.name,))
    if isinstance(e, PArith):
        return _pexpr_vars(e.lhs) | _pexpr_vars(e.rhs)
    if isinstance(e, PPairE):
        return _pexpr_vars(e.fst) | _pexpr_vars(e.snd)
    return frozenset()


class _LetInfo(Record):
    """What inference fixes about a bind for evaluation."""

    __slots__ = ()
    cont: Morphism              # the continuation's (the body's) grade
    carried: tuple[str, ...]    # the body's free variables, bound variable excepted
    reads_var: bool             # whether the body reads the bound variable


LetTable = dict[tuple[int, ObjectId], _LetInfo]


def infer_grade(bundle: InstanceBundle, start: ObjectId, term: Term,
                env: Mapping[str, Shape] | None = None) -> GradedType:
    return _infer(bundle, start, term, env or {})[0]


def _infer(bundle: InstanceBundle, start: ObjectId, term: Term,
           env: Mapping[str, Shape]) -> tuple[GradedType, LetTable]:
    """Grade inference.  Also records, for every let it visits, keyed by
    (id of the let, object the let starts at), what `eval_term` needs."""
    prims, spawn = prims_for(bundle)
    cat = bundle.monad.index_cat
    lets: LetTable = {}

    def go(t: Term, obj: ObjectId, env: dict) -> tuple[GradedType, frozenset[str]]:
        """The graded type of t at obj, and the free variables of t."""
        if isinstance(t, TVar):
            if t.name not in env:
                raise GradeMismatch(f"{t.pos}: unbound variable {t.name!r}")
            return GradedType(cat.identity(obj), env[t.name]), frozenset((t.name,))
        if isinstance(t, TPure):
            return (GradedType(cat.identity(obj), shape_of_pexpr(t.expr, env)),
                    _pexpr_vars(t.expr))
        if isinstance(t, TPrim):
            if t.name == "spawn":
                if spawn is None:
                    raise UnknownPrim(f"{t.pos}: instance has no spawn")
                free = ObjectId("free")
                body, fv = go(t.body, free, env)
                if not (body.index.src == free and body.index.tgt == free):
                    raise SpawnGradeError(
                        f"{t.pos}: spawn body has grade ({body.index}), "
                        "needs free -> free")
                if obj != free:
                    raise GradeMismatch(f"{t.pos}: spawn used at {obj.name}, "
                                        "only available at free")
                return GradedType(cat.identity(free), "unit"), fv
            spec = prims.get(t.name)
            if spec is None:
                raise UnknownPrim(f"{t.pos}: no primitive named {t.name!r}")
            if len(t.args) != len(spec.arg_shapes):
                raise GradeMismatch(
                    f"{t.pos}: {t.name} takes {len(spec.arg_shapes)} argument(s)")
            for a, want in zip(t.args, spec.arg_shapes):
                got = shape_of_pexpr(a, env)
                if not _shape_ok(got, want):
                    raise GradeMismatch(
                        f"{t.pos}: {t.name} argument has shape {shape_text(got)}, "
                        f"wants {shape_text(want)}")
            if spec.index.src != obj:
                raise GradeMismatch(
                    f"{t.pos}: primitive {t.name} starts at {spec.index.src.name}, "
                    f"but the program is at {obj.name}")
            return (GradedType(spec.index, spec.result_shape),
                    frozenset().union(*map(_pexpr_vars, t.args)))
        if isinstance(t, TLet):
            first, fv1 = go(t.bound, obj, env)
            env2 = dict(env)
            env2[t.var] = first.shape
            rest, fv2 = go(t.body, first.index.tgt, env2)
            carried = fv2 - {t.var}
            lets[(id(t), obj)] = _LetInfo(rest.index, tuple(sorted(carried)), t.var in fv2)
            return GradedType(cat.compose(rest.index, first.index), rest.shape), fv1 | carried
        raise GradeMismatch(f"cannot infer a grade for {t!r}")

    result, _ = go(term, start, dict(env))
    if result.index.src != start:
        raise GradeMismatch(
            f"program grade starts at {result.index.src.name}, not {start.name}")
    return result, lets


# --- evaluation ---

def strength(T: CatGradedMonad, f: Morphism, a: Value,
             c: GradedComputation) -> GradedComputation:
    """Thread a context value through a computation: payload values b
    become pairs (a, b); the index is unchanged."""
    if c.index != f:
        raise MalformedPayload(f"computation is at ({c.index}), not ({f})")
    return GradedComputation(f, fmap(T, f, lambda b: vpair(a, b), c.payload))


def eval_pexpr(e: PExpr, env: Mapping[str, Value]) -> Value:
    if isinstance(e, PLit):
        return e.value
    if isinstance(e, PVar):
        return env[e.name]
    if isinstance(e, PArith):
        a, b = eval_pexpr(e.lhs, env), eval_pexpr(e.rhs, env)
        if not (isinstance(a, VInt) and isinstance(b, VInt)):
            raise MalformedPayload("arithmetic on non-integers")
        if e.op == "+":
            return vint(a.n + b.n)
        if e.op == "-":
            return vint(a.n - b.n)
        return vint(a.n * b.n)
    return vpair(eval_pexpr(e.fst, env), eval_pexpr(e.snd, env))


def eval_term(bundle: InstanceBundle, term: Term, env: Mapping[str, Value],
              start: ObjectId) -> GradedComputation:
    """Evaluate; the resulting index always equals the inferred one.

    Grades come from one inference pass.  A let's continuation is
    computed once per (let, object, values of the body's free variables)
    for the whole evaluation: those values are all the body can read, so
    strength carries only them."""
    T = bundle.monad
    prims, spawn = prims_for(bundle)
    inferred, lets = _infer(bundle, start, term,
                            {k: shape_of_value(v) for k, v in env.items()})
    memo: dict[tuple, Value] = {}

    def go(t: Term, obj: ObjectId, env: Mapping[str, Value]) -> GradedComputation:
        if isinstance(t, TVar):
            return unit(T, obj, env[t.name])
        if isinstance(t, TPure):
            return unit(T, obj, eval_pexpr(t.expr, env))
        if isinstance(t, TPrim):
            if t.name == "spawn":
                body = go(t.body, ObjectId("free"), env)
                return spawn(body)
            return prims[t.name].make([eval_pexpr(a, env) for a in t.args])
        if isinstance(t, TLet):
            c1 = go(t.bound, obj, env)
            f = c1.index
            site = (id(t), obj)
            info = lets[site]
            carried = strength(T, f, vseq(env[v] for v in info.carried), c1)

            def cont(pr: Value) -> Value:
                key = (site, pr if info.reads_var else pr.fst)
                out = memo.get(key)
                if out is None:
                    env2 = dict(zip(info.carried, pr.fst.items))
                    env2[t.var] = pr.snd
                    c = go(t.body, f.tgt, env2)
                    if c.index != info.cont:
                        raise InconsistentContinuationIndex(
                            f"{t.pos}: continuation at ({c.index}), inferred ({info.cont})")
                    out = memo[key] = c.payload
                return out

            return mult(T, f, info.cont, fmap(T, f, cont, carried.payload))
        raise MalformedPayload(f"cannot evaluate {t!r}")

    result = go(term, start, env)
    if result.index != inferred.index:
        raise InconsistentContinuationIndex(
            f"evaluation produced ({result.index}), inference ({inferred.index})")
    return result


def start_object(bundle: InstanceBundle, program: Program) -> ObjectId:
    if program.start is not None:
        return ObjectId(program.start)
    objs = bundle.monad.index_cat.object_ids()
    if not objs:
        raise GradeMismatch("instance has no default start object")
    return objs[0]


def infer_program(bundle: InstanceBundle, program: Program) -> GradedType:
    """Top-level programs must describe a complete protocol run: the
    overall grade has to return to the start object."""
    start = start_object(bundle, program)
    gt = infer_grade(bundle, start, program.body)
    if gt.index.tgt != start:
        raise GradeMismatch(
            f"program grade ({gt.index}) does not return to {start.name}; "
            "the protocol run is incomplete")
    return gt
