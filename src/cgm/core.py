"""Value-level morphism-graded monads and the sampling law harness.

An instance is a descriptor bundling an index category with unit,
multiplication, functor map, a payload validator, and a deterministic
payload sampler.  The harness instantiates every coherence diagram
pointwise on sampled payloads and compares both legs with exact
structural equality; there is no numeric tolerance anywhere.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from functools import partial
from itertools import cycle, islice

from .errors import (
    CgmError,
    ConfigError,
    InconsistentContinuationIndex,
    MalformedPayload,
    NoTwoCell,
    NotInSubcategory,
    UnknownObject,
)
from .indexcat import (
    IndexCategory,
    Morphism,
    ObjectId,
    TwoCategory,
    WideSubcategory,
    morphism_key,
)
from .rng import Rng, derive_seed
from .values import Record, Value, _new, vbool, vint, vpair, vtag


class GradedComputation(Record):
    """A morphism index paired with the payload inhabiting it."""

    __slots__ = ()
    index: Morphism
    payload: Value

    def __str__(self) -> str:
        return f"[{self.index}] {self.payload.show()}"


class CatGradedMonad:
    def __init__(self, name: str, index_cat: IndexCategory,
                 unit_fn: Callable[[ObjectId, Value], Value],
                 mult_fn: Callable[[Morphism, Morphism, Value], Value],
                 map_fn: Callable[[Morphism, Callable[[Value], Value], Value], Value],
                 validator: Callable[[Morphism, Value], bool],
                 sampler: Callable[[Morphism, Rng], Value],
                 index_samples: tuple[Morphism, ...] | None = None):
        self.name, self.index_cat, self.index_samples = name, index_cat, index_samples
        self.unit_fn, self.mult_fn, self.map_fn = unit_fn, mult_fn, map_fn
        self.validator, self.sampler = validator, sampler


class TwoCatGradedMonad:
    def __init__(self, base: CatGradedMonad, index_cat2: TwoCategory,
                 approx_fn: Callable[[Morphism, Morphism, Value], Value]):
        self.base, self.index_cat2, self.approx_fn = base, index_cat2, approx_fn

    @property
    def name(self) -> str:
        return self.base.name


class GeneralisedUnit:
    def __init__(self, monad: CatGradedMonad, sub: WideSubcategory,
                 geneta_fn: Callable[[Morphism, Value], Value]):
        self.monad, self.sub, self.geneta_fn = monad, sub, geneta_fn

    @property
    def name(self) -> str:
        return self.monad.name


class Homomorphism:
    """Index-preserving map between two monads over the same index category."""

    def __init__(self, name: str, source: CatGradedMonad, target: CatGradedMonad,
                 gamma_fn: Callable[[Morphism, Value], Value]):
        self.name, self.source, self.target, self.gamma_fn = name, source, target, gamma_fn


# --- operations ---

def unit(T: CatGradedMonad, obj: ObjectId, a: Value) -> GradedComputation:
    if not T.index_cat.has_object(obj):
        raise UnknownObject(f"no object named {obj.name}")
    idx = T.index_cat.identity(obj)
    payload = T.unit_fn(obj, a)
    if not T.validator(idx, payload):
        raise MalformedPayload(f"unit produced an invalid payload at {idx}")
    return _new(GradedComputation, ("GradedComputation", idx, payload))


def mult(T: CatGradedMonad, f: Morphism, g: Morphism, nested: Value) -> GradedComputation:
    idx = T.index_cat.compose(g, f)
    if not T.validator(f, nested):
        raise MalformedPayload(f"nested payload is invalid at outer index {f}")
    payload = T.mult_fn(f, g, nested)
    if not T.validator(idx, payload):
        raise MalformedPayload(f"mult produced an invalid payload at {idx}")
    return _new(GradedComputation, ("GradedComputation", idx, payload))


def fmap(T: CatGradedMonad, f: Morphism, fn: Callable[[Value], Value], payload: Value) -> Value:
    if not T.validator(f, payload):
        raise MalformedPayload(f"payload is invalid at {f}")
    return T.map_fn(f, fn, payload)


def bind(T: CatGradedMonad,
         c: GradedComputation,
         k: Callable[[Value], GradedComputation],
         cont_index: Morphism | None = None) -> GradedComputation:
    """Sequence c with a continuation whose outputs all share one index."""
    seen: list[Morphism] = []

    def run(a: Value) -> Value:
        out = k(a)
        seen.append(out.index)
        return out.payload

    mapped = fmap(T, c.index, run, c.payload)
    for idx in seen:
        if idx != seen[0]:
            raise InconsistentContinuationIndex(
                f"continuation produced indices ({seen[0]}) and ({idx})")
    if seen:
        g = seen[0]
        if cont_index is not None and g != cont_index:
            raise InconsistentContinuationIndex(
                f"continuation produced ({g}), expected ({cont_index})")
    elif cont_index is not None:
        g = cont_index
    else:
        raise InconsistentContinuationIndex(
            "effect-free computation: continuation index must be supplied")
    return mult(T, c.index, g, mapped)


def approximate(T2: TwoCatGradedMonad, f: Morphism, g: Morphism,
                c: GradedComputation) -> GradedComputation:
    if c.index != f:
        raise MalformedPayload(f"computation is indexed by ({c.index}), not ({f})")
    if not T2.index_cat2.leq(f, g):
        raise NoTwoCell(f"no 2-cell from ({f}) to ({g})")
    payload = T2.approx_fn(f, g, c.payload)
    if not T2.base.validator(g, payload):
        raise MalformedPayload(f"approximation produced an invalid payload at {g}")
    return GradedComputation(g, payload)


def gen_unit(G: GeneralisedUnit, f: Morphism, a: Value) -> GradedComputation:
    if not G.sub.contains(f):
        raise NotInSubcategory(f"({f}) is outside the unit subcategory")
    payload = G.geneta_fn(f, a)
    if not G.monad.validator(f, payload):
        raise MalformedPayload(f"generalised unit produced an invalid payload at {f}")
    return GradedComputation(f, payload)


# --- law reports ---

class LawFailure(Record):
    __slots__ = ()
    law: str
    indices: tuple[Morphism, ...]
    input_value: Value | None
    lhs: Value | None
    rhs: Value | None
    note: str = ""

    def shown(self) -> Iterator[tuple[str, str]]:
        """(name, text) of each optional field a report prints, in order."""
        for name, v in (("input", self.input_value), ("lhs", self.lhs), ("rhs", self.rhs)):
            if v is not None:
                yield name, v.show()
        if self.note:
            yield "note", self.note

    def render(self) -> str:
        lines = [f"FAIL {self.law}", *(f"  index[{i}]: {m}" for i, m in enumerate(self.indices))]
        lines.extend(f"  {name}: {text}" for name, text in self.shown())
        return "\n".join(lines)


class LawReport(Record):
    __slots__ = ()
    counts: tuple[tuple[str, int], ...]  # (law name, instantiations run)
    failures: tuple[LawFailure, ...]

    @property
    def checks_run(self) -> int:
        return sum(n for _, n in self.counts)

    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "LawReport") -> "LawReport":
        return LawReport(self.counts + other.counts, self.failures + other.failures)

    def render_text(self) -> str:
        lines = []
        for law, n in self.counts:
            bad = sum(1 for f in self.failures if f.law == law)
            lines.append(f"law {law}: {n - bad}/{n}")
        for f in self.failures:
            lines.append(f.render())
        lines.append(f"failures: {len(self.failures)}")
        return "\n".join(lines)

    def render_machine(self) -> str:
        lines = []
        for law, n in self.counts:
            bad = sum(1 for f in self.failures if f.law == law)
            lines.append(f"law.{law}.run={n}")
            lines.append(f"law.{law}.failures={bad}")
        for i, f in enumerate(self.failures):
            lines.append(f"failure.{i}.law={f.law}")
            lines.append("failure.%d.indices=%s"
                         % (i, "; ".join(str(m) for m in f.indices)))
            lines.extend(f"failure.{i}.{name}={text}" for name, text in f.shown())
        lines.append(f"failures.total={len(self.failures)}")
        lines.append(f"status={'ok' if self.ok() else 'fail'}")
        return "\n".join(lines)


# --- harness internals ---

_FN_POOL: tuple[tuple[str, Callable[[Value], Value]], ...] = (
    ("tag", lambda v: vtag("t", v)),
    ("pair1", lambda v: vpair(v, vint(1))),
    ("const7", lambda v: vint(7)),
)
DIGITS = tuple(vint(n) for n in range(10))  # carried values 0..9, as samplers draw them


def sample_element(rng: Rng) -> Value:  # a carried value for the laws that start from one
    return DIGITS[rng.randint(0, 9)]


def index_pool(T: CatGradedMonad) -> tuple[Morphism, ...]:
    if T.index_samples is not None:
        return tuple(sorted(T.index_samples, key=morphism_key))
    return T.index_cat.morphisms()


def _by_source(pool: Sequence[Morphism]) -> dict[ObjectId, list[Morphism]]:
    """The pool's morphisms by source, each list in pool order."""
    out: dict[ObjectId, list[Morphism]] = {}
    for m in pool:
        out.setdefault(m.src, []).append(m)
    return out


def _composable_pairs(pool: Sequence[Morphism]) -> Iterator[tuple[Morphism, Morphism]]:
    after = _by_source(pool)
    return ((f, g) for f in pool for g in after.get(f.tgt, ()))


def _composable_triples(pool: Sequence[Morphism]) -> Iterator[tuple[Morphism, Morphism, Morphism]]:
    after = _by_source(pool)
    return ((f, g, h) for f, g in _composable_pairs(pool) for h in after.get(g.tgt, ()))


def _nested2(T: CatGradedMonad, f: Morphism, g: Morphism, rng: Rng) -> Value:
    """A T_f payload whose carried values are T_g payloads, value-dependent."""
    outer = T.sampler(f, rng.fork(0))
    base = T.sampler(g, rng.fork(1))
    return T.map_fn(f, lambda a: T.map_fn(g, partial(vpair, a), base), outer)


def _nested3(T: CatGradedMonad, f: Morphism, g: Morphism, h: Morphism, rng: Rng) -> Value:
    outer = T.sampler(f, rng.fork(0))
    mid = T.sampler(g, rng.fork(1))
    inner = T.sampler(h, rng.fork(2))
    return T.map_fn(f, lambda a: T.map_fn(  # each (a, b) is built once per inner map
        g, lambda b: T.map_fn(h, partial(vpair, vpair(a, b)), inner), mid), outer)


# One coherence diagram: its name, the lazy pool of index tuples it is
# instantiated at, and body(datum, rng) -> (indices, input, lhs, rhs).
Law = tuple[str, Iterable, Callable]


def _witness(datum) -> tuple:
    """The morphisms and objects of a pool datum: nested plain tuples (not
    records) are flattened and integer pool positions dropped."""
    if type(datum) is tuple:
        return tuple(x for part in datum for x in _witness(part))
    return () if isinstance(datum, int) else (datum,)


class Runner:
    """Collects per-law instantiation counts and failures."""

    def __init__(self, samples: int, seed: int):
        if samples < 1:  # every law entry point builds one, so each refuses
            raise ConfigError(f"samples must be at least 1, not {samples}")
        self.samples = samples
        self.seed = seed
        self.counts: list[tuple[str, int]] = []
        self.failures: list[LawFailure] = []

    def law(self, name: str, data: Iterable, body) -> None:
        """Run one law on the first `samples` data of its pool.

        data: iterable of index tuples, read only as far as it is drawn and
        cycled when shorter than `samples`; an empty pool runs nothing.
        body(datum, rng) -> (indices, input_value, lhs, rhs).
        """
        run, base = 0, derive_seed(self.seed, name)  # derive_seed folds left
        for datum in islice(cycle(data), self.samples):
            rng = Rng(derive_seed(base, run))
            run += 1
            try:
                indices, inp, lhs, rhs = body(datum, rng)
            except CgmError as exc:
                self.failures.append(LawFailure(
                    name, _witness(datum), None, None, None, f"{type(exc).__name__}: {exc}"))
                continue
            if lhs != rhs:
                self.failures.append(LawFailure(name, indices, inp, lhs, rhs))
        self.counts.append((name, run))

    def report(self) -> LawReport:
        return LawReport(tuple(self.counts), tuple(self.failures))


def _monad_laws(T: CatGradedMonad) -> Iterator[Law]:
    cat = T.index_cat
    pool = index_pool(T)

    def payload_validity(f: Morphism, rng: Rng):
        p = T.sampler(f, rng)
        return (f,), p, vbool(T.validator(f, p)), vbool(True)

    yield "payload.validity", pool, payload_validity

    def functor_identity(f: Morphism, rng: Rng):
        p = T.sampler(f, rng)
        return (f,), p, T.map_fn(f, lambda v: v, p), p

    yield "functor.identity", pool, functor_identity

    def functor_composition(datum, rng: Rng):
        f, i = datum
        _, fn1 = _FN_POOL[i % len(_FN_POOL)]
        _, fn2 = _FN_POOL[(i + 1) % len(_FN_POOL)]
        p = T.sampler(f, rng)
        lhs = T.map_fn(f, lambda v: fn2(fn1(v)), p)
        rhs = T.map_fn(f, fn2, T.map_fn(f, fn1, p))
        return (f,), p, lhs, rhs

    yield "functor.composition", ((f, i) for i, f in enumerate(pool)), functor_composition

    def unit_left(f: Morphism, rng: Rng):
        # wrap outside with the unit at src(f), then flatten
        p = T.sampler(f, rng)
        ids = cat.identity(f.src)
        wrapped = T.unit_fn(f.src, p)
        lhs = T.mult_fn(ids, f, wrapped)
        return (f,), p, lhs, p

    yield "unit.left", pool, unit_left

    def unit_right(f: Morphism, rng: Rng):
        # wrap each carried value with the unit at tgt(f), then flatten
        p = T.sampler(f, rng)
        idt = cat.identity(f.tgt)
        wrapped = T.map_fn(f, partial(T.unit_fn, f.tgt), p)
        lhs = T.mult_fn(f, idt, wrapped)
        return (f,), p, lhs, p

    yield "unit.right", pool, unit_right

    def assoc(datum, rng: Rng):
        f, g, h = datum
        p3 = _nested3(T, f, g, h, rng)
        gf = cat.compose(g, f)
        hg = cat.compose(h, g)
        lhs = T.mult_fn(gf, h, T.mult_fn(f, g, p3))
        rhs = T.mult_fn(f, hg, T.map_fn(f, partial(T.mult_fn, g, h), p3))
        return (f, g, h), p3, lhs, rhs

    yield "assoc", _composable_triples(pool), assoc

    def unit_natural(datum, rng: Rng):
        f, i = datum
        _, fn = _FN_POOL[i % len(_FN_POOL)]
        a = sample_element(rng)
        lhs = T.map_fn(cat.identity(f.src), fn, T.unit_fn(f.src, a))
        rhs = T.unit_fn(f.src, fn(a))
        return (f,), a, lhs, rhs

    yield "naturality.unit", ((f, i) for i, f in enumerate(pool)), unit_natural

    def mult_natural(datum, rng: Rng):
        (f, g), i = datum
        _, fn = _FN_POOL[i % len(_FN_POOL)]
        p2 = _nested2(T, f, g, rng)
        gf = cat.compose(g, f)
        lhs = T.map_fn(gf, fn, T.mult_fn(f, g, p2))
        rhs = T.mult_fn(f, g, T.map_fn(f, partial(T.map_fn, g, fn), p2))
        return (f, g), p2, lhs, rhs

    numbered = enumerate(_composable_pairs(pool))
    yield "naturality.mult", ((fg, i) for i, fg in numbered), mult_natural

    def bind_left_unit(g: Morphism, rng: Rng):
        a = sample_element(rng)
        template = T.sampler(g, rng.fork(0))

        def k(x: Value) -> GradedComputation:
            return GradedComputation(g, T.map_fn(g, partial(vpair, x), template))

        c = unit(T, g.src, a)
        lhs = bind(T, c, k, cont_index=g)
        rhs = k(a)
        return (g,), a, lhs.payload, rhs.payload

    yield "bind.left_unit", pool, bind_left_unit

    def bind_right_unit(f: Morphism, rng: Rng):
        p = T.sampler(f, rng)
        c = GradedComputation(f, p)
        idt = cat.identity(f.tgt)
        lhs = bind(T, c, lambda a: unit(T, f.tgt, a), cont_index=idt)
        return (f,), p, lhs.payload, p

    yield "bind.right_unit", pool, bind_right_unit

    def bind_assoc(datum, rng: Rng):
        f, g, h = datum
        p = T.sampler(f, rng.fork(0))
        tg = T.sampler(g, rng.fork(1))
        th = T.sampler(h, rng.fork(2))
        c = GradedComputation(f, p)

        def k1(x: Value) -> GradedComputation:
            return GradedComputation(g, T.map_fn(g, partial(vpair, x), tg))

        def k2(y: Value) -> GradedComputation:
            return GradedComputation(h, T.map_fn(h, partial(vpair, y), th))

        hg = cat.compose(h, g)
        lhs = bind(T, bind(T, c, k1, cont_index=g), k2, cont_index=h)
        rhs = bind(T, c, lambda x: bind(T, k1(x), k2, cont_index=h), cont_index=hg)
        return (f, g, h), p, lhs.payload, rhs.payload

    yield "bind.assoc", _composable_triples(pool), bind_assoc


def _approx_laws(T2: TwoCatGradedMonad) -> Iterator[Law]:
    T = T2.base
    cat = T.index_cat
    pool = index_pool(T)
    leq = T2.index_cat2.leq
    cells = [(f, g) for f in pool for g in pool if leq(f, g)]
    chains = ((f, g, h) for f, g in cells for h in pool if leq(g, h))
    squares = ((fc, gc) for fc in cells for gc in cells if gc[0].src == fc[0].tgt)

    def approx_identity(f: Morphism, rng: Rng):
        p = T.sampler(f, rng)
        return (f,), p, T2.approx_fn(f, f, p), p

    yield "approx.identity", pool, approx_identity

    def approx_vertical(datum, rng: Rng):
        f, g, h = datum
        p = T.sampler(f, rng)
        lhs = T2.approx_fn(g, h, T2.approx_fn(f, g, p))
        rhs = T2.approx_fn(f, h, p)
        return (f, g, h), p, lhs, rhs

    yield "approx.vertical", chains, approx_vertical

    def approx_unit(f: Morphism, rng: Rng):
        a = sample_element(rng)
        ids = cat.identity(f.src)
        u = T.unit_fn(f.src, a)
        return (ids,), a, T2.approx_fn(ids, ids, u), u

    yield "approx.unit", pool, approx_unit

    def approx_horizontal(datum, rng: Rng):
        (f, f2), (g, g2) = datum
        p2 = _nested2(T, f, g, rng)
        inner = T.map_fn(f, partial(T2.approx_fn, g, g2), p2)
        lhs = T.mult_fn(f2, g2, T2.approx_fn(f, f2, inner))
        gf = cat.compose(g, f)
        g2f2 = cat.compose(g2, f2)
        rhs = T2.approx_fn(gf, g2f2, T.mult_fn(f, g, p2))
        return (f, f2, g, g2), p2, lhs, rhs

    yield "approx.horizontal", squares, approx_horizontal


def _genunit_laws(G: GeneralisedUnit) -> Iterator[Law]:
    T = G.monad
    cat = T.index_cat
    pool = [m for m in index_pool(T) if G.sub.contains(m)]

    def gen_compose(datum, rng: Rng):
        f, g = datum
        a = sample_element(rng)
        gf = cat.compose(g, f)
        staged = T.map_fn(f, partial(G.geneta_fn, g), G.geneta_fn(f, a))
        lhs = T.mult_fn(f, g, staged)
        rhs = G.geneta_fn(gf, a)
        return (f, g), a, lhs, rhs

    yield "genunit.compose", _composable_pairs(pool), gen_compose

    def gen_identity(f: Morphism, rng: Rng):
        a = sample_element(rng)
        idf = cat.identity(f.src)
        return (idf,), a, G.geneta_fn(idf, a), T.unit_fn(f.src, a)

    yield "genunit.identity", pool, gen_identity

    def gen_natural(datum, rng: Rng):
        f, i = datum
        _, fn = _FN_POOL[i % len(_FN_POOL)]
        a = sample_element(rng)
        lhs = T.map_fn(f, fn, G.geneta_fn(f, a))
        rhs = G.geneta_fn(f, fn(a))
        return (f,), a, lhs, rhs

    yield "genunit.naturality", ((f, i) for i, f in enumerate(pool)), gen_natural


def _hom_laws(H: Homomorphism) -> Iterator[Law]:
    T, S = H.source, H.target
    pool = index_pool(T)

    def hom_unit(f: Morphism, rng: Rng):
        a = sample_element(rng)
        idx = T.index_cat.identity(f.src)
        lhs = H.gamma_fn(idx, T.unit_fn(f.src, a))
        rhs = S.unit_fn(f.src, a)
        return (idx,), a, lhs, rhs

    yield "hom.unit", pool, hom_unit

    def hom_mult(datum, rng: Rng):
        f, g = datum
        p2 = _nested2(T, f, g, rng)
        gf = T.index_cat.compose(g, f)
        lhs = H.gamma_fn(gf, T.mult_fn(f, g, p2))
        rhs = S.mult_fn(f, g, H.gamma_fn(f, T.map_fn(f, partial(H.gamma_fn, g), p2)))
        return (f, g), p2, lhs, rhs

    yield "hom.mult", _composable_pairs(pool), hom_mult


def _laws(subject) -> Iterator[Law]:
    if isinstance(subject, CatGradedMonad):
        yield from _monad_laws(subject)
    elif isinstance(subject, TwoCatGradedMonad):
        yield from _monad_laws(subject.base)
        yield from _approx_laws(subject)
    elif isinstance(subject, GeneralisedUnit):
        yield from _genunit_laws(subject)
    elif isinstance(subject, Homomorphism):
        yield from _hom_laws(subject)
    else:
        raise TypeError(f"cannot check laws of {type(subject).__name__}")


def check_laws(subject, samples: int = 200, seed: int = 0) -> LawReport:
    """Instantiate every applicable coherence diagram on sampled data."""
    r = Runner(samples, seed)
    for name, data, body in _laws(subject):
        r.law(name, data, body)
    return r.report()


def run_laws_as(r: Runner, subject, names: Collection[str], prefix: str) -> None:
    """Run the named diagrams of `subject`, each reported as prefix + name.

    A structure that embeds into a category-graded one checks its own laws
    this way: each of its diagrams is the embedding's diagram of that name.
    """
    for name, data, body in _laws(subject):
        if name in names:
            r.law(prefix + name, data, body)


# --- instance bundles ---

class PrimSpec:
    """A `.gp` primitive: argument and result shapes, index, and `make`, which
    builds its computation from the evaluated arguments.  A spawn is one at
    the identity of the object it runs at; its `make` takes the body's computation."""

    def __init__(self, arg_shapes: tuple, result_shape: object, index: Morphism,
                 make: Callable):
        self.arg_shapes, self.result_shape = arg_shapes, result_shape
        self.index, self.make = index, make


class InstanceBundle:
    """Everything the harness and the metalanguage need for one instance,
    its `.gp` primitives by name and its spawn (None without one) among them.
    A state-passing one may declare `demand`, whose `unit(obj, a, states)` and
    each primitive's `make(args, states)` build rows only at the given start
    states, and whose `ends(payload)` maps each value to its rows' final states."""

    def __init__(self, name: str,
                 subject: CatGradedMonad | TwoCatGradedMonad,  # the structure the laws run on
                 genunit: GeneralisedUnit | None = None,
                 prims: dict[str, PrimSpec] | None = None, spawn: PrimSpec | None = None,
                 demand: object = None):
        self.name, self.subject, self.genunit = name, subject, genunit
        self.prims, self.spawn, self.demand = prims or {}, spawn, demand

    @property
    def monad(self) -> CatGradedMonad:
        s = self.subject
        return s.base if isinstance(s, TwoCatGradedMonad) else s

    def law_report(self, samples: int = 200, seed: int = 0) -> LawReport:
        report = check_laws(self.subject, samples=samples, seed=seed)
        if self.genunit is not None:
            report = report.merge(check_laws(self.genunit, samples=samples, seed=seed))
        return report
