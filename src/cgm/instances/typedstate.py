"""Typed-state structures: the state type may change over a computation.

A payload at (S1, S2) is a finite table from S1-states to (result,
S2-state) pairs.  The index category is either the full category of
functions between the declared state sets (morphisms act by
pre-composing the input state and post-composing the output state) or,
in the discrete variant, only identities.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from ..core import CatGradedMonad, GeneralisedUnit
from ..errors import DomainMismatch, MalformedPayload, NotInSubcategory
from ..indexcat import (
    DiscreteCategory,
    FuncCategory,
    IndexCategory,
    Morphism,
    ObjectId,
    WIdentity,
    func_category,
    whole_category,
)
from ..rng import Rng
from ..translations import ParameterisedMonad, param_over, pure_lift
from ..values import Value, VPair, VTable, once_per_value, ordered_table, sort_key, table
from ..values import unit as vunit, vint, vpair


def _normalize_sets(state_sets: Mapping[str, int | Iterable[Value]]) -> dict[str, tuple[Value, ...]]:
    out = {}
    for name, spec in state_sets.items():
        if isinstance(spec, int):
            if spec < 1:
                raise DomainMismatch("state sets must be nonempty")
            out[name] = tuple(vint(i) for i in range(spec))
        else:
            vs = tuple(sorted(set(spec), key=sort_key))  # in table key order
            if not vs:
                raise DomainMismatch("state sets must be nonempty")
            out[name] = vs
    return out


def typed_state_param(state_sets: Mapping[str, int | Iterable[Value]],
                      discrete: bool = False) -> ParameterisedMonad:
    sets = _normalize_sets(state_sets)
    carriers = {ObjectId(k): vs for k, vs in sets.items()}
    cat: IndexCategory
    if discrete:
        cat = DiscreteCategory(tuple(carriers))
    else:
        cat = func_category(sets)

    def carrier(obj: ObjectId) -> tuple[Value, ...]:
        try:
            return carriers[obj]
        except KeyError:
            raise DomainMismatch(f"no state set named {obj.name}")

    def eta(i: ObjectId, a: Value) -> Value:
        return ordered_table((s, vpair(a, s)) for s in carrier(i))

    def mu(i: ObjectId, j: ObjectId, _k: ObjectId, nested: Value) -> Value:
        out = []
        for s, step in nested.entries:
            inner, s1 = step.fst, step.snd
            if not isinstance(inner, VTable):
                raise MalformedPayload("carried value must be a state table")
            out.append((s, inner.get(s1)))
        return ordered_table(out)

    def value_map(_i: ObjectId, _j: ObjectId, fn: Callable[[Value], Value], p: Value) -> Value:
        fn = once_per_value(fn)
        return ordered_table((s, vpair(fn(step.fst), step.snd)) for s, step in p.entries)

    def morph_map(f: Morphism, g: Morphism, h: Callable[[Value], Value], p: Value) -> Value:
        # f : I' -> I re-keys the table, g : J -> J' re-targets the state
        out = []
        for s in carrier(f.src):
            step = p.get(_apply(f, s))
            out.append((s, vpair(h(step.fst), _apply(g, step.snd))))
        return ordered_table(out)

    def _apply(m: Morphism, v: Value) -> Value:
        if isinstance(m.word, WIdentity):
            return v
        return m.word.apply(v)

    def validator(i: ObjectId, j: ObjectId, p: Value) -> bool:
        if not isinstance(p, VTable):
            return False
        if set(p.keys()) != set(carrier(i)):
            return False
        cod = carrier(j)
        return all(isinstance(v, VPair) and v.snd in cod for _, v in p.entries)

    def sampler(i: ObjectId, j: ObjectId, rng: Rng) -> Value:
        cod = carrier(j)
        return table({s: vpair(vint(rng.randint(0, 9)), rng.choice(cod))
                      for s in carrier(i)})

    return ParameterisedMonad(
        name="tstate",
        index_cat=cat,
        eta_fn=eta,
        mu_fn=mu,
        value_map_fn=value_map,
        validator=validator,
        sampler=sampler,
        morph_map_fn=None if discrete else morph_map,
    )


def tstate_read(P: ParameterisedMonad, obj: str) -> Value:
    """read : table s -> (s, s) at (S, S)."""
    return table({s: vpair(s, s) for s in _carrier_of(P, ObjectId(obj))})


def tstate_store(P: ParameterisedMonad, src: str, tgt: str, v: Value) -> Value:
    """store(v) : table s0 -> ((), v) at (S0, S)."""
    if v not in _carrier_of(P, ObjectId(tgt)):
        raise DomainMismatch(f"{v.show()} is not in the target state set")
    return table({s: vpair(vunit, v) for s in _carrier_of(P, ObjectId(src))})


def _carrier_of(P: ParameterisedMonad, obj: ObjectId) -> tuple[Value, ...]:
    cat = P.index_cat
    if isinstance(cat, FuncCategory):
        return cat.carrier(obj)
    # discrete variant: recover the carrier from the unit table
    return typed_keys(P.eta_fn(obj, vunit))


def typed_keys(p: Value) -> tuple[Value, ...]:
    if not isinstance(p, VTable):
        raise MalformedPayload("state table expected")
    return p.keys()


def constructive_param(P: ParameterisedMonad,
                       C: IndexCategory | None = None) -> tuple[CatGradedMonad, GeneralisedUnit]:
    """Restrict a doubly indexed family so a payload at (I, J) is usable
    only when a chosen category supplies a morphism I -> J; those morphisms
    also provide pure liftings."""
    cat = P.index_cat if C is None else C
    objs = cat.object_ids()
    if objs is None or set(objs) != set(P.objects()):
        raise DomainMismatch("index category must share the family's objects")

    T = param_over(P, cat, f"{P.name}-constructive")

    def geneta(m: Morphism, a: Value) -> Value:
        if not P.index_cat.contains(m):
            raise NotInSubcategory(f"({m}) has no interpretation in {P.name}")
        return pure_lift(P, m, a)

    return T, GeneralisedUnit(T, whole_category(cat), geneta)
