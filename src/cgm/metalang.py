"""A small graded monadic metalanguage.

Programs are do-blocks of `x <- t;` binds over instance primitives and
pure expressions.  The instance bundle declares the primitives and the
spawn, with the object the spawn runs at; this module names no instance
and no object.  Grade inference composes the primitives' morphisms,
so a program typechecks exactly when its effect trace is a path in the
instance's index category.  Evaluation elaborates each bind as
tensorial strength on the variables the continuation reads, functor map
of the continuation, then multiplication, and always produces the
inferred index.  It keeps suspended binds on an explicit stack rather
than the interpreter's: a bind's continuations run after its strength
and before its functor map, in the order in which the instance's map_fn
first reaches their carried values, and their payloads wait in one memo
for the whole evaluation, keyed by (bind, object, live values), with the
start states they were built at.  On a bundle that declares a demand,
leaves build only the rows that a later multiplication reads.
"""

from __future__ import annotations

from collections.abc import Generator, Mapping

from .core import CatGradedMonad, GradedComputation, InstanceBundle, fmap, mult, unit
from .errors import (
    GradeMismatch,
    InconsistentContinuationIndex,
    MalformedPayload,
    ParseError,
    SpawnGradeError,
    UnknownPrim,
)
from .formulas import EBin, EVar, mentioned
from .formulas import Token, TokenStream, parse_infix, parse_int_range, tokenize
from .indexcat import Morphism, ObjectId
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


# --- pure expressions: variables and arithmetic are `.ahl`'s records ---

class PLit(Record):
    __slots__ = ()
    value: Value


class PPairE(Record):
    __slots__ = ()
    fst: "PExpr"
    snd: "PExpr"


PExpr = PLit | EVar | EBin | PPairE


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


_SHAPES = {VUnit: "unit", VInt: "int", VBool: "bool", VStr: "str"}


def shape_of_value(v: Value) -> Shape:
    if isinstance(v, VPair):
        return ("pair", shape_of_value(v.fst), shape_of_value(v.snd))
    return _SHAPES.get(type(v), "any")


def _shape_ok(actual: Shape, wanted: Shape) -> bool:
    return wanted == "any" or actual == "any" or actual == wanted


def shape_text(s: Shape) -> str:
    if isinstance(s, tuple):
        return f"pair({shape_text(s[1])}, {shape_text(s[2])})"
    return str(s)


class GradedType(Record):
    index: Morphism
    shape: Shape

    def __str__(self) -> str:
        return f"{self.index} [{shape_text(self.shape)}]"


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
        return EVar(t.text)
    raise ParseError(f"expected expression, found {t.text!r}", t.line, t.col)


def parse_pexpr(ts: TokenStream) -> PExpr:
    return parse_infix(ts, _pexpr_atom, {"+": 1, "-": 1, "*": 2}, {},
                       lambda t, lhs, rhs: EBin(t.text, lhs, rhs),
                       lambda *items: PPairE(*items) if items else PLit(vunit))


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
    """e's shape, on an explicit stack; an operand of arithmetic is checked once it is walked."""
    todo, out = [e], []
    while todo:
        n = todo.pop()
        if isinstance(n, PLit):
            out.append(shape_of_value(n.value))
        elif isinstance(n, EVar):
            if n.name not in env:
                raise GradeMismatch(f"unbound variable {n.name!r}")
            out.append(env[n.name])
        elif isinstance(n, EBin):  # an int, once both operands pass
            out.append("int")
            todo += ("operand", n.rhs, "operand", n.lhs)
        elif isinstance(n, PPairE):
            todo += (",", n.snd, n.fst)
        elif n == ",":  # after a pair's sides
            out[-2:] = [("pair", *out[-2:])]
        elif not _shape_ok(s := out.pop(), "int"):  # after an operand of arithmetic
            raise GradeMismatch(f"arithmetic on non-integer ({shape_text(s)})")
    return out[0]


class _LetInfo(Record):
    """What inference fixes about a bind for evaluation."""

    __slots__ = ()
    cont: Morphism              # the continuation's (the body's) grade
    carried: tuple[str, ...]    # the body's free variables, bound variable excepted
    reads_var: bool             # whether the body reads the bound variable


LetTable = dict[tuple[int, ObjectId], _LetInfo]


def infer_grade(bundle: InstanceBundle, start: ObjectId, term: Term,
                env: Mapping[str, Shape] | None = None) -> GradedType:
    return _infer(bundle, start, term, env or {})


def _infer(bundle: InstanceBundle, start: ObjectId, term: Term,
           env: Mapping[str, Shape]) -> GradedType:
    """Grade inference.  Also records in the result's `_lets`, for every let it
    visits, keyed by (id of the let, object the let starts at), what `eval_term` needs."""
    prims, spawn = bundle.prims, bundle.spawn
    cat = bundle.monad.index_cat
    lets: LetTable = {}

    def go(t: Term, obj: ObjectId, env: dict) -> tuple[GradedType, set[str]]:
        """The graded type of t at obj, and the free variables of t."""
        if isinstance(t, TVar):
            if t.name not in env:
                raise GradeMismatch(f"{t.pos}: unbound variable {t.name!r}")
            return GradedType(cat.identity(obj), env[t.name]), {t.name}
        if isinstance(t, TPure):
            return GradedType(cat.identity(obj), shape_of_pexpr(t.expr, env)), mentioned(t.expr)
        if isinstance(t, TPrim):
            if t.name == "spawn":
                if spawn is None:
                    raise UnknownPrim(f"{t.pos}: instance has no spawn")
                at = spawn.index.src
                body, fv = go(t.body, at, env)
                if not (body.index.src == at and body.index.tgt == at):
                    raise SpawnGradeError(
                        f"{t.pos}: spawn body has grade ({body.index}), "
                        f"needs {at.name} -> {at.name}")
                if obj != at:
                    raise GradeMismatch(f"{t.pos}: spawn used at {obj.name}, "
                                        f"only available at {at.name}")
                return GradedType(spawn.index, spawn.result_shape), fv
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
            return GradedType(spec.index, spec.result_shape), set().union(*map(mentioned, t.args))
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
    result._lets = lets
    return result


# --- evaluation ---

def strength(T: CatGradedMonad, f: Morphism, a: Value,
             c: GradedComputation) -> tuple[GradedComputation, list[VPair]]:
    """Thread a context value through a computation: payload values b
    become pairs (a, b); the index is unchanged.  Also returns the pairs
    in the order the instance's map_fn built them."""
    if c.index != f:
        raise MalformedPayload(f"computation is at ({c.index}), not ({f})")
    pairs: list[VPair] = []

    def pair(b: Value) -> VPair:
        pr = vpair(a, b)
        pairs.append(pr)
        return pr

    return GradedComputation(f, fmap(T, f, pair, c.payload)), pairs


def eval_pexpr(e: PExpr, env: Mapping[str, Value]) -> Value:
    """e's value, on an explicit stack: operands left to right, then their operator."""
    todo, out = [e], []
    while todo:
        n = todo.pop()
        if isinstance(n, PLit):
            out.append(n.value)
        elif isinstance(n, EVar):
            out.append(env[n.name])
        elif isinstance(n, EBin):
            todo += (n.op, n.rhs, n.lhs)
        elif isinstance(n, PPairE):
            todo += (",", n.snd, n.fst)
        elif n == ",":
            out[-2:] = [vpair(*out[-2:])]
        else:  # an operator of arithmetic, over the last two values
            a, b = out[-2:]
            if not (isinstance(a, VInt) and isinstance(b, VInt)):
                raise MalformedPayload("arithmetic on non-integers")
            out[-2:] = [vint(a.n + b.n if n == "+" else a.n - b.n if n == "-" else a.n * b.n)]
    return out[0]


def eval_term(bundle: InstanceBundle, term: Term, env: Mapping[str, Value],
              start: ObjectId, inferred: GradedType | None = None,
              states: set[Value] | None = None) -> GradedComputation:
    """Evaluate; the resulting index always equals the inferred one.

    Grades come from one inference pass: `inferred` if it is `infer_grade`'s
    result for this term, start and env, else one run here.  A let's
    continuation is computed once per (let, object, values of the body's free
    variables) for the whole evaluation, with the start states it was built
    at: those values are all the body can read, so strength carries only them.

    `states` holds the start states whose rows are wanted (None: all).  On a
    bundle that declares a demand, leaves build only those rows, and every
    continuation runs at the final states of the rows that carry it; a memo
    entry that misses a later visit's states is rebuilt once, at all.

    Evaluation does not grow the Python stack with the program (the
    inference pass still does).  A let runs as a generator on an explicit
    stack: it evaluates its bound term, then strength, whose map_fn
    builds one pair per carried value.  Next it evaluates, in that order,
    the continuations of the pairs that the memo does not cover yet,
    yielding each one that is not a leaf to the driver loop; this is the
    order in which map_fn would first reach them.  Last, one fmap reads
    the memo and mult flattens."""
    T, prims, spawn, demand = bundle.monad, bundle.prims, bundle.spawn, bundle.demand
    if not hasattr(inferred, "_lets"):
        inferred = _infer(bundle, start, term, {k: shape_of_value(v) for k, v in env.items()})
    lets, memo = inferred._lets, {}

    def begin(t: Term, obj: ObjectId, env: Mapping[str, Value],
              want: set | None) -> GradedComputation | Generator:
        """A leaf's computation at the start states `want`, or a generator that
        yields the generators of the subterms it waits for and returns t's computation."""
        if isinstance(t, TLet):
            return let(t, obj, env, want)
        if isinstance(t, (TVar, TPure)):
            v = env[t.name] if isinstance(t, TVar) else eval_pexpr(t.expr, env)
            return unit(T, obj, v) if want is None else demand.unit(obj, v, want)
        if isinstance(t, TPrim):
            if t.name == "spawn":
                return spawned(t, env, want)
            make, args = prims[t.name].make, [eval_pexpr(a, env) for a in t.args]
            return make(args) if want is None else make(args, want)
        raise MalformedPayload(f"cannot evaluate {t!r}")

    def spawned(t: TPrim, env: Mapping[str, Value], want: set | None) -> Generator:
        body = begin(t.body, spawn.index.src, env, want)
        if not isinstance(body, GradedComputation):
            body = yield body
        return spawn.make(body)

    def let(t: TLet, obj: ObjectId, env: Mapping[str, Value], want: set | None) -> Generator:
        c1 = begin(t.bound, obj, env, want)
        if not isinstance(c1, GradedComputation):
            c1 = yield c1
        f = c1.index
        site = (id(t), obj)
        info = lets[site]
        a = vseq(env[v] for v in info.carried)
        carried, pairs = strength(T, f, a, c1)
        ends = None if demand is None else demand.ends(c1.payload)  # value -> final states
        for pr in pairs if info.reads_var else pairs[:1]:  # else one key, (site, a)
            key = (site, pr if info.reads_var else a)
            need = (None if ends is None else ends[pr.snd] if info.reads_var
                    else set().union(*ends.values()))
            held = memo.get(key)  # (payload, the start states it was built at)
            if held is None or held[1] is not None and not need <= held[1]:
                need = need if held is None else None  # a rebuild is at every state
                env2 = dict(zip(info.carried, a.items))
                env2[t.var] = pr.snd
                c = begin(t.body, f.tgt, env2, need)
                if not isinstance(c, GradedComputation):
                    c = yield c
                if c.index != info.cont:
                    raise InconsistentContinuationIndex(
                        f"{t.pos}: continuation at ({c.index}), inferred ({info.cont})")
                memo[key] = c.payload, need
        cont = lambda pr: memo[site, pr if info.reads_var else a][0]
        return mult(T, f, info.cont, fmap(T, f, cont, carried.payload))

    result = begin(term, start, env, None if demand is None else states)
    if not isinstance(result, GradedComputation):
        stack, result = [result], None  # the suspended lets and spawns, innermost last
        while stack:
            try:
                sub = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(sub)
                result = None
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
