"""Constructions between monad-like structures.

Plain monads, monoid/pomonoid-graded monads, and doubly indexed
(parameterised) monads each embed into morphism-graded monads; the full
parameterised case needs a generalised unit over a pair completion and
has an inverse construction.  Each embedding here is paired with the
law suites and round-trip comparisons that certify it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from itertools import product

from .core import (
    CatGradedMonad,
    GeneralisedUnit,
    LawFailure,
    LawReport,
    Runner,
    TwoCatGradedMonad,
    _FN_POOL,
    _composable_pairs,
    _nested2,
    run_laws_as,
    sample_element,
)
from .errors import (
    DinaturalityFailure,
    InfeasibleEnd,
    InfiniteIndex,
    NotBottom,
    NotDiscrete,
    NotIndiscrete,
    NotInSubcategory,
    WrongShape,
)
from .indexcat import (
    DiscreteCategory,
    IndexCategory,
    IndiscreteCategory,
    Morphism,
    ObjectId,
    PairCompletionCategory,
    STAR,
    WIdentity,
    WInj1,
    WideSubcategory,
    monoid_to_category,
    morphism_key,
    pair_completion,
    pomonoid_to_2category,
    whole_category,
)
from .rng import Rng, derive_seed
from .values import Value, VTable, table, vstr


# --- source structures ---

ValueFn = Callable[[Value], Value]


class PlainMonad:
    def __init__(self, name: str, unit_fn: ValueFn, join_fn: ValueFn,
                 map_fn: Callable[[ValueFn, Value], Value],
                 validator: Callable[[Value], bool], sampler: Callable[[Rng], Value]):
        self.name, self.unit_fn, self.join_fn, self.map_fn = name, unit_fn, join_fn, map_fn
        self.validator, self.sampler = validator, sampler


class GradedMonad:
    """Endofunctor family indexed by a (pre-ordered) monoid."""

    def __init__(self, name: str, op: Callable, unit_elem: object, sample: tuple,
                 unit_fn: ValueFn, mult_fn: Callable[[object, object, Value], Value],
                 map_fn: Callable[[object, ValueFn, Value], Value],
                 validator: Callable[[object, Value], bool],
                 sampler: Callable[[object, Rng], Value],
                 approx_fn: Callable[[object, object, Value], Value] | None = None,
                 leq: Callable[[object, object], bool] | None = None):
        self.name, self.op, self.unit_elem, self.sample = name, op, unit_elem, sample
        self.unit_fn, self.mult_fn, self.map_fn = unit_fn, mult_fn, map_fn
        self.validator, self.sampler, self.approx_fn, self.leq = validator, sampler, approx_fn, leq


class ParameterisedMonad:
    """Doubly indexed family P(I, J) over a finite index category.

    morph_map_fn(f, g, h, payload) is the full bifunctor action for
    f : I' -> I (pre-condition strengthening), g : J -> J' (post-condition
    weakening) and a value function h; None marks a discrete structure
    whose morphism mapping is degenerate.
    """

    def __init__(self, name: str, index_cat: IndexCategory,
                 eta_fn: Callable[[ObjectId, Value], Value],
                 mu_fn: Callable[[ObjectId, ObjectId, ObjectId, Value], Value],
                 value_map_fn: Callable[[ObjectId, ObjectId, ValueFn, Value], Value],
                 validator: Callable[[ObjectId, ObjectId, Value], bool],
                 sampler: Callable[[ObjectId, ObjectId, Rng], Value],
                 morph_map_fn: Callable[[Morphism, Morphism, ValueFn, Value], Value] | None = None):
        self.name, self.index_cat, self.eta_fn, self.mu_fn = name, index_cat, eta_fn, mu_fn
        self.value_map_fn, self.validator, self.sampler = value_map_fn, validator, sampler
        self.morph_map_fn = morph_map_fn

    @property
    def discrete(self) -> bool:
        return self.morph_map_fn is None

    def objects(self) -> tuple[ObjectId, ...]:
        objs = self.index_cat.object_ids()
        if objs is None:
            raise InfiniteIndex("parameterised index category must be finite")
        return objs


# --- law suites for the source structures ---
#
# Each source structure's unit and associativity laws are the diagrams of
# the same name of its category-graded embedding, reported under the source
# prefix (m, g, p).

_UNIT_ASSOC = ("unit.left", "unit.right", "assoc")
_APPROX = ("approx.identity", "approx.vertical", "approx.horizontal")


def check_plain_laws(M: PlainMonad, samples: int = 200, seed: int = 0) -> LawReport:
    r = Runner(samples, seed)
    run_laws_as(r, monad_to_catgraded(M), _UNIT_ASSOC, "m")
    return r.report()


def check_graded_laws(G: GradedMonad, samples: int = 200, seed: int = 0) -> LawReport:
    r = Runner(samples, seed)
    ordered = G.leq is not None and G.approx_fn is not None
    T = pograded_to_2catgraded(G) if ordered else graded_to_catgraded(G)
    run_laws_as(r, T, _UNIT_ASSOC + _APPROX, "g")
    return r.report()


def check_param_laws(P: ParameterisedMonad, samples: int = 200, seed: int = 0) -> LawReport:
    r = Runner(samples, seed)
    objs = P.objects()
    pairs = IndiscreteCategory(objs)
    T = param_over(P, pairs, P.name)
    run_laws_as(r, T, _UNIT_ASSOC, "p")
    if P.discrete:
        return r.report()

    # the dinaturality and bifunctor diagrams have no category-graded
    # counterpart; a payload at (I, J) is T's payload at the pair I -> J
    cat = P.index_cat
    morphs = cat.morphisms()

    def dinat_mu(datum, rng: Rng):
        i, g, k = datum
        j, j2 = g.src, g.tgt
        # source of the square: an outer payload at P(i, j) whose carried
        # values are inner payloads at P(j2, k)
        nested = _nested2(T, pairs.pair(i, j), pairs.pair(j2, k), rng)
        idi = cat.identity(i)
        idk = cat.identity(k)
        lhs = P.mu_fn(i, j2, k, P.morph_map_fn(idi, g, lambda v: v, nested))
        rhs = P.mu_fn(i, j, k, P.value_map_fn(
            i, j, lambda q: P.morph_map_fn(g, idk, lambda v: v, q), nested))
        return (g,), nested, lhs, rhs

    r.law("pdinat.mu", product(objs, morphs, objs), dinat_mu)

    def dinat_unit(g: Morphism, rng: Rng):
        a = sample_element(rng)
        i, j = g.src, g.tgt
        lhs = P.morph_map_fn(cat.identity(i), g, lambda v: v, P.eta_fn(i, a))
        rhs = P.morph_map_fn(g, cat.identity(j), lambda v: v, P.eta_fn(j, a))
        return (g,), a, lhs, rhs

    r.law("pdinat.unit", morphs, dinat_unit)

    def bifunctor_identity(datum, rng: Rng):
        i, j = datum
        p = T.sampler(pairs.pair(i, j), rng)
        lhs = P.morph_map_fn(cat.identity(i), cat.identity(j), lambda v: v, p)
        return (), p, lhs, p

    r.law("pbifunctor.identity", product(objs, repeat=2), bifunctor_identity)

    def bifunctor_compose(datum, rng: Rng):
        f, f2, g, g2 = datum
        _, h = _FN_POOL[0]
        _, h2 = _FN_POOL[1]
        p = T.sampler(pairs.pair(f2.tgt, g.src), rng)
        lhs = P.morph_map_fn(cat.compose(f2, f), cat.compose(g2, g),
                             lambda v: h2(h(v)), p)
        rhs = P.morph_map_fn(f, g2, h2, P.morph_map_fn(f2, g, h, p))
        return (f, f2, g, g2), p, lhs, rhs

    comp_pairs = ((f, f2, g, g2) for f, f2 in _composable_pairs(morphs)
                  for g, g2 in _composable_pairs(morphs))
    r.law("pbifunctor.compose", comp_pairs, bifunctor_compose)

    return r.report()


# --- translations into morphism-graded monads ---

def monad_to_catgraded(M: PlainMonad) -> CatGradedMonad:
    """Grade a plain monad by the one-object one-morphism category."""
    cat = DiscreteCategory((STAR,))
    return CatGradedMonad(
        name=M.name,
        index_cat=cat,
        unit_fn=lambda _obj, a: M.unit_fn(a),
        mult_fn=lambda _f, _g, nested: M.join_fn(nested),
        map_fn=lambda _f, fn, p: M.map_fn(fn, p),
        validator=lambda _f, p: M.validator(p),
        sampler=lambda _f, rng: M.sampler(rng),
    )


def graded_to_catgraded(G: GradedMonad) -> CatGradedMonad:
    """View the grading monoid as a one-object category; forget any ordering."""
    cat = monoid_to_category(G.op, G.unit_elem, G.sample)
    return CatGradedMonad(
        name=G.name,
        index_cat=cat,
        unit_fn=lambda _obj, a: G.unit_fn(a),
        mult_fn=lambda f, g, nested: G.mult_fn(f.word.value, g.word.value, nested),
        map_fn=lambda f, fn, p: G.map_fn(f.word.value, fn, p),
        validator=lambda f, p: G.validator(f.word.value, p),
        sampler=lambda f, rng: G.sampler(f.word.value, rng),
    )


def pograded_to_2catgraded(G: GradedMonad) -> TwoCatGradedMonad:
    if G.leq is None or G.approx_fn is None:
        raise NotBottom(f"{G.name} carries no ordering to lift")
    base = graded_to_catgraded(G)
    two = pomonoid_to_2category(G.op, G.unit_elem, G.sample, G.leq)
    return TwoCatGradedMonad(
        base=base,
        index_cat2=two,
        approx_fn=lambda f, g, p: G.approx_fn(f.word.value, g.word.value, p),
    )


def param_over(P: ParameterisedMonad, cat: IndexCategory, name: str) -> CatGradedMonad:
    """Grade a doubly indexed family by `cat`: a payload at f : I -> J is a
    P(I, J) payload, so only the endpoints of each morphism matter."""
    return CatGradedMonad(
        name=name,
        index_cat=cat,
        unit_fn=lambda obj, a: P.eta_fn(obj, a),
        mult_fn=lambda f, g, nested: P.mu_fn(f.src, f.tgt, g.tgt, nested),
        map_fn=lambda f, fn, p: P.value_map_fn(f.src, f.tgt, fn, p),
        validator=lambda f, p: P.validator(f.src, f.tgt, p),
        sampler=lambda f, rng: P.sampler(f.src, f.tgt, rng),
    )


def pure_lift(P: ParameterisedMonad, f: Morphism, a: Value) -> Value:
    """The unit at src(f) post-weakened along f : I -> J into P(I, J)."""
    if isinstance(f.word, WIdentity) or P.discrete:
        return P.eta_fn(f.src, a)
    return P.morph_map_fn(P.index_cat.identity(f.src), f, lambda v: v, P.eta_fn(f.src, a))


def discrete_param_to_catgraded(P: ParameterisedMonad) -> CatGradedMonad:
    """Discrete doubly indexed family, graded by the indiscrete category."""
    if not P.discrete:
        raise NotDiscrete(f"{P.name} has a non-degenerate morphism mapping")
    return param_over(P, IndiscreteCategory(P.objects()), f"{P.name}-pairs")


def catgraded_to_discrete_param(T: CatGradedMonad) -> ParameterisedMonad:
    cat = T.index_cat
    if not isinstance(cat, IndiscreteCategory):
        raise NotIndiscrete(f"{T.name} is not graded by an indiscrete category")
    objs = cat.object_ids()
    if objs is None:
        raise NotIndiscrete("symbolic indiscrete categories cannot be read back")
    return _read_back(T, DiscreteCategory(objs), cat.pair, lambda i, a: T.unit_fn(i, a), None)


def _read_back(T: CatGradedMonad, index_cat: IndexCategory, at: Callable,
               eta_fn: Callable, morph_map_fn: Callable | None) -> ParameterisedMonad:
    """The doubly indexed family whose P(I, J) is T at the morphism at(I, J)."""
    return ParameterisedMonad(
        name=f"{T.name}-param",
        index_cat=index_cat,
        eta_fn=eta_fn,
        mu_fn=lambda i, j, k, p: T.mult_fn(at(i, j), at(j, k), p),
        value_map_fn=lambda i, j, fn, p: T.map_fn(at(i, j), fn, p),
        validator=lambda i, j, p: T.validator(at(i, j), p),
        sampler=lambda i, j, rng: T.sampler(at(i, j), rng),
        morph_map_fn=morph_map_fn,
    )


def param_to_catgraded_genunit(P: ParameterisedMonad) -> tuple[CatGradedMonad, GeneralisedUnit]:
    """Grade by the pair completion; pure liftings come from the morphism mapping.

    The lifting at an inner morphism f : I -> J has two candidate
    definitions (post-weaken the unit at I, or pre-strengthen the unit
    at J); they must agree, which is checked exhaustively over the inner
    morphisms on a sampled value pool.
    """
    inner = P.index_cat
    comp = pair_completion(inner)
    T = param_over(P, comp, f"{P.name}^pc")
    lifts: dict[tuple[Morphism, Value], Value] = {}  # pure_lift once per (f, a)

    def geneta(m: Morphism, a: Value) -> Value:
        if not isinstance(m.word, WInj1):
            raise NotInSubcategory(f"({m}) is not an inner morphism")
        lift = lifts.get(key := (m.word.inner, a))
        if lift is None:
            lift = lifts[key] = pure_lift(P, m.word.inner, a)
        return lift

    if not P.discrete:
        rng = Rng(derive_seed(0, "geneta-elements"))
        pool = [sample_element(rng) for _ in range(5)]
        for f in inner.morphisms():
            if isinstance(f.word, WIdentity):
                continue
            for a in pool:
                alt = P.morph_map_fn(f, inner.identity(f.tgt), lambda v: v, P.eta_fn(f.tgt, a))
                if pure_lift(P, f, a) != alt:
                    raise DinaturalityFailure(
                        f"the two pure-lifting definitions disagree at ({f}) "
                        f"on {a.show()}; the source structure is not dinatural")

    sub = WideSubcategory(comp, lambda m: isinstance(m.word, WInj1))
    return T, GeneralisedUnit(T, sub, geneta)


def catgraded_genunit_to_param(T: CatGradedMonad, G: GeneralisedUnit) -> ParameterisedMonad:
    """Inverse reading: a pair-completion-graded monad with unit liftings
    over the inner subcategory determines a doubly indexed family."""
    comp = T.index_cat
    if not isinstance(comp, PairCompletionCategory):
        raise WrongShape(f"{T.name} is not graded by a pair completion")
    inner = comp.inner
    for f in inner.morphisms():
        if not G.sub.contains(comp.inj1(f)):
            raise WrongShape(f"unit subcategory does not cover inner morphism ({f})")

    def morph_map(f: Morphism, g: Morphism, h: Callable[[Value], Value], p: Value) -> Value:
        # p : P(I, J) with I = f.tgt, J = g.src; result : P(I', J')
        k = comp.inj2(f.tgt, g.src)
        fb = comp.inj1(f)
        gb = comp.inj1(g)
        x1 = G.geneta_fn(fb, p)
        x2 = T.map_fn(fb, lambda tk: T.map_fn(k, lambda a: G.geneta_fn(gb, a), tk), x1)
        x3 = T.mult_fn(fb, k, x2)
        kf = comp.compose(k, fb)
        x4 = T.mult_fn(kf, gb, x3)
        return T.map_fn(comp.compose(gb, kf), h, x4)

    return _read_back(T, inner, comp.inj2, lambda i, a: G.geneta_fn(comp.inj1(inner.identity(i)), a),
                      None if inner.kind == "discrete" else morph_map)


def roundtrip_param(P: ParameterisedMonad, samples: int = 50, seed: int = 0) -> LawReport:
    """Translate forward and back, comparing both structures extensionally."""
    r = Runner(samples, seed)
    try:
        T, G = param_to_catgraded_genunit(P)
        Q = catgraded_genunit_to_param(T, G)
    except DinaturalityFailure as exc:
        return LawReport((("roundtrip.build", 1),),
                         (LawFailure("roundtrip.build", (), None, None, None, str(exc)),))
    objs = P.objects()
    cat = P.index_cat
    pairs = IndiscreteCategory(objs)
    S = param_over(P, pairs, P.name)

    def cmp_eta(i: ObjectId, rng: Rng):
        a = sample_element(rng)
        return (), a, P.eta_fn(i, a), Q.eta_fn(i, a)

    r.law("roundtrip.eta", objs, cmp_eta)

    def cmp_mu(datum, rng: Rng):
        i, j, k = datum
        nested = _nested2(S, pairs.pair(i, j), pairs.pair(j, k), rng)
        return (), nested, P.mu_fn(i, j, k, nested), Q.mu_fn(i, j, k, nested)

    r.law("roundtrip.mu", product(objs, repeat=3), cmp_mu)

    def cmp_value_map(datum, rng: Rng):
        i, j = datum
        _, fn = _FN_POOL[0]
        p = S.sampler(pairs.pair(i, j), rng)
        return (), p, P.value_map_fn(i, j, fn, p), Q.value_map_fn(i, j, fn, p)

    r.law("roundtrip.value_map", product(objs, repeat=2), cmp_value_map)

    if not P.discrete:
        morphs = cat.morphisms()
        def cmp_morph_map(datum, rng: Rng):
            f, g = datum
            _, fn = _FN_POOL[rng.randint(0, len(_FN_POOL) - 1)]
            p = S.sampler(pairs.pair(f.tgt, g.src), rng)
            lhs = P.morph_map_fn(f, g, fn, p)
            rhs = Q.morph_map_fn(f, g, fn, p)
            return (f, g), p, lhs, rhs

        r.law("roundtrip.morph_map", product(morphs, repeat=2), cmp_morph_map)

    return r.report()


def bottom_unit_genunit(T2: TwoCatGradedMonad) -> GeneralisedUnit:
    """When the grading monoid's unit is the bottom of the ordering, every
    grade gets a pure lifting by approximating the unit upward."""
    base = T2.base
    cat = base.index_cat
    if cat.kind != "monoid":
        raise NotBottom(f"{base.name} is not graded by a one-object monoid category")
    e = cat.identity(STAR)
    for m in sorted(cat.morphisms(), key=morphism_key):
        if not T2.index_cat2.leq(e, m):
            raise NotBottom(f"unit grade is not below sampled grade ({m})")

    def geneta(m: Morphism, a: Value) -> Value:
        return T2.approx_fn(e, m, base.unit_fn(STAR, a))

    return GeneralisedUnit(base, whole_category(cat), geneta)


def end_graded_from_param(P: ParameterisedMonad,
                          op: Mapping[tuple[str, str], str],
                          unit_name: str) -> GradedMonad:
    """Build a monoid-graded monad whose payload at grade f is the family
    of components at every object i, one per P(i, i*f).

    Supported for finite discrete indices, where the compatibility
    conditions on families are vacuous and the construction is the plain
    product of components.
    """
    objs = P.index_cat.object_ids()
    if objs is None:
        raise InfeasibleEnd("index must be finite")
    if not P.discrete:
        raise InfeasibleEnd(
            "families over a non-discrete index need a monoidal action on "
            "morphisms; only discrete indices are supported")
    names = tuple(o.name for o in objs)
    if unit_name not in names:
        raise InfeasibleEnd(f"unit {unit_name!r} is not an object")

    def dot(a: str, b: str) -> str:
        try:
            return op[(a, b)]
        except KeyError:
            raise InfeasibleEnd(f"monoid operation undefined on ({a!r}, {b!r})")

    obj = ObjectId
    def unit_fn(a: Value) -> Value:
        return table({vstr(i): P.eta_fn(obj(i), a) for i in names})

    def mult_fn(m: str, n: str, nested: Value) -> Value:
        out = {}
        for i in names:
            j = dot(i, m)
            comp_i = nested.get(vstr(i))
            stripped = P.value_map_fn(obj(i), obj(j),
                                      lambda fam, jj=j: fam.get(vstr(jj)), comp_i)
            out[vstr(i)] = P.mu_fn(obj(i), obj(j), obj(dot(j, n)), stripped)
        return table(out)

    def map_fn(m: str, fn: Callable[[Value], Value], fam: Value) -> Value:
        return table({vstr(i): P.value_map_fn(obj(i), obj(dot(i, m)), fn, fam.get(vstr(i)))
                      for i in names})

    def validator(m: str, fam: Value) -> bool:
        if not isinstance(fam, VTable):
            return False
        if fam.keys() != tuple(sorted((vstr(i) for i in names),
                                      key=lambda v: v.s)):
            return False
        return all(P.validator(obj(i), obj(dot(i, m)), fam.get(vstr(i))) for i in names)

    def sampler(m: str, rng: Rng) -> Value:
        return table({vstr(i): P.sampler(obj(i), obj(dot(i, m)), rng.fork(i))
                      for i in names})

    return GradedMonad(
        name=f"{P.name}-end",
        op=dot,
        unit_elem=unit_name,
        sample=names,
        unit_fn=unit_fn,
        mult_fn=mult_fn,
        map_fn=map_fn,
        validator=validator,
        sampler=sampler,
    )
