"""Typed-state structures: the state type may change over a computation.

A payload at (S1, S2) is a finite table from S1-states to (result,
S2-state) pairs.  The index category is either the full category of
functions between the declared state sets (morphisms act by
pre-composing the input state and post-composing the output state) or,
in the discrete variant, only identities.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from ..core import DIGITS, CatGradedMonad, GeneralisedUnit
from ..errors import DomainMismatch, MalformedPayload, NotInSubcategory
from ..indexcat import (
    DiscreteCategory,
    IndexCategory,
    Morphism,
    ObjectId,
    func_category,
    whole_category,
)
from ..rng import Rng
from ..translations import ParameterisedMonad, param_over, pure_lift
from ..values import Value, VPair, VTable, _new, ordered_table, sort_key, table
from ..values import unit as vunit, vint, vpair


def _normalize_sets(state_sets: Mapping[str, int | Iterable[Value]]) -> dict[str, tuple[Value, ...]]:
    out = {}
    for name, spec in state_sets.items():
        if isinstance(spec, int):
            vs = tuple(vint(i) for i in range(spec))
        else:
            vs = tuple(sorted(set(spec), key=sort_key))  # in table key order
        if not vs:
            raise DomainMismatch("state sets must be nonempty")
        out[name] = vs
    return out


class _Declared(dict):
    """A dict keyed by object; an undeclared object is a domain mismatch."""

    def __missing__(self, obj: ObjectId):
        raise DomainMismatch(f"no state set named {obj.name}")


def state_passing(name: str, index_cat: IndexCategory,
                  carriers: Mapping[ObjectId, tuple[Value, ...]],
                  partial: bool) -> ParameterisedMonad:
    """The state-passing family of `concst` and `tstate` (Liang, Hudak &
    Jones, POPL 1995): a payload at (I, J) is a table from I-states to
    (result, J-state) pairs.  A partial family's tables may lack states
    and write states outside J, and mult drops such a branch; a total
    family's are total into J.  No morphism action is set."""
    carrier = _Declared(carriers)
    position = _Declared({o: {s: n for n, s in enumerate(vs)} for o, vs in carriers.items()})

    def unit(obj: ObjectId, a: Value) -> Value:
        return ordered_table([(s, _new(VPair, (5, a, s))) for s in carrier[obj]])

    def mult(_i: ObjectId, j: ObjectId, _k: ObjectId, nested: Value) -> Value:
        index = position[j]  # a state's entry index in a total table
        out = []
        for s, step in nested.entries:
            if not isinstance(step, VPair):
                raise MalformedPayload("state step must be a (result, store) pair")
            inner, s1 = step.fst, step.snd
            if not isinstance(inner, VTable):
                raise MalformedPayload("carried value must be a state table")
            entries = inner.entries
            n = index.get(s1, len(entries))
            if n < len(entries) and entries[n][0] == s1:
                out.append((s, entries[n][1]))
            elif not partial or inner.has(s1):  # a partial table, or one over other states
                out.append((s, inner.get(s1)))  # a total kernel raises on a missing state
            # else: the branch escaped the domain; the composite is partial there
        return ordered_table(out)

    def map_fn(_i: ObjectId, _j: ObjectId, fn: Callable[[Value], Value], p: Value) -> Value:
        memo, out = {}, []  # memo: fn once per distinct carried value
        for s, step in p.entries:
            if not isinstance(step, VPair):
                raise MalformedPayload("state step must be a (result, store) pair")
            a = step.fst
            out.append((s, _new(VPair, (5, memo.get(a) or memo.setdefault(a, fn(a)), step.snd))))
        return ordered_table(out)

    def validator(i: ObjectId, j: ObjectId, p: Value) -> bool:
        if not isinstance(p, VTable):
            return False
        keys, cod = position[i], position[j]
        if not partial and len(p.entries) != len(keys):  # keys are unique
            return False
        return all([k in keys and isinstance(v, VPair) and (partial or v.snd in cod)
                    for k, v in p.entries])

    def sampler(i: ObjectId, j: ObjectId, rng: Rng) -> Value:
        cod = carrier[j]
        return ordered_table([(s, _new(VPair, (5, DIGITS[rng.randint(0, 9)], rng.choice(cod))))
                              for s in carrier[i]])

    return ParameterisedMonad(name, index_cat, unit, mult, map_fn, validator, sampler)


def typed_state_param(state_sets: Mapping[str, int | Iterable[Value]],
                      discrete: bool = False) -> ParameterisedMonad:
    sets = _normalize_sets(state_sets)
    carriers = {ObjectId(k): vs for k, vs in sets.items()}
    cat = DiscreteCategory(tuple(carriers)) if discrete else func_category(sets)
    P = state_passing("tstate", cat, carriers, partial=False)

    def morph_map(f: Morphism, g: Morphism, h: Callable[[Value], Value], p: Value) -> Value:
        # f : I' -> I re-keys the table, g : J -> J' re-targets the state;
        # every morphism of a function category is a function graph
        out = []
        for s in carriers[f.src]:
            step = p.get(f.word.apply(s))
            out.append((s, vpair(h(step.fst), g.word.apply(step.snd))))
        return ordered_table(out)

    if not discrete:
        P.morph_map_fn = morph_map
    return P


def tstate_read(P: ParameterisedMonad, obj: str) -> Value:
    """read : table s -> (s, s) at (S, S)."""
    return table({s: vpair(s, s) for s in _carrier_of(P, ObjectId(obj))})


def tstate_store(P: ParameterisedMonad, src: str, tgt: str, v: Value) -> Value:
    """store(v) : table s0 -> ((), v) at (S0, S)."""
    if v not in _carrier_of(P, ObjectId(tgt)):
        raise DomainMismatch(f"{v.show()} is not in the target state set")
    return table({s: vpair(vunit, v) for s in _carrier_of(P, ObjectId(src))})


def _carrier_of(P: ParameterisedMonad, obj: ObjectId) -> tuple[Value, ...]:
    return P.eta_fn(obj, vunit).keys()


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
