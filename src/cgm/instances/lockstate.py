"""Mutual-exclusion lock protocol over one protected memory cell.

The index category is the free category on the lock graph, so only
protocol-respecting primitive sequences compose.  Payloads are finite
state-transformer tables over a declared cell domain; composing through
a store value outside the domain silently drops that branch, making the
composite a partial transformer.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core import CatGradedMonad, GradedComputation
from ..errors import MalformedPayload, SpawnGradeError
from ..indexcat import FreeCategory, Morphism, ObjectId, free_category
from ..rng import Rng
from ..values import Value, VPair, VTable, once_per_value, ordered_table, sort_key, table
from ..values import unit as vunit, vint, vpair

FREE = ObjectId("free")
CRITICAL = ObjectId("critical")


def lock_category() -> FreeCategory:
    return free_category(
        ["free", "critical"],
        [("lock", "free", "critical"),
         ("get", "critical", "critical"),
         ("put", "critical", "critical"),
         ("unlock", "critical", "free")],
    )


DEFAULT_STORES = tuple(vint(n) for n in range(8))


def concst_instance(stores: Iterable[Value] = DEFAULT_STORES) -> CatGradedMonad:
    cat = lock_category()
    domain = tuple(sorted(set(stores), key=sort_key))  # in table key order
    if not domain:
        raise MalformedPayload("store domain must be nonempty")
    position = {s: i for i, s in enumerate(domain)}  # a total table's entry index

    def total(entry) -> Value:
        return ordered_table((s, entry(s)) for s in domain)

    def unit_fn(_obj: ObjectId, a: Value) -> Value:
        return total(lambda s: vpair(a, s))

    def mult_fn(_f: Morphism, _g: Morphism, nested: Value) -> Value:
        out = []
        for s, step in nested.entries:
            if not isinstance(step, VPair):
                raise MalformedPayload("state step must be a (result, store) pair")
            inner, s1 = step.fst, step.snd
            if not isinstance(inner, VTable):
                raise MalformedPayload("carried value must be a state table")
            i = position.get(s1, len(domain))
            hit = inner.entries[i:i + 1]
            if hit and hit[0][0] == s1:
                out.append((s, hit[0][1]))
            elif inner.has(s1):  # a partial table, or one over other stores
                out.append((s, inner.get(s1)))
            # else: the branch escaped the domain; the composite is partial there
        return ordered_table(out)

    def map_fn(_f: Morphism, fn, p: Value) -> Value:
        fn = once_per_value(fn)
        out = []
        for s, step in p.entries:
            if not isinstance(step, VPair):
                raise MalformedPayload("state step must be a (result, store) pair")
            out.append((s, vpair(fn(step.fst), step.snd)))
        return ordered_table(out)

    def validator(_f: Morphism, p: Value) -> bool:
        if not isinstance(p, VTable):
            return False
        return all(k in domain and isinstance(v, VPair) for k, v in p.entries)

    def sampler(_f: Morphism, rng: Rng) -> Value:
        return total(lambda s: vpair(vint(rng.randint(0, 9)), rng.choice(domain)))

    return CatGradedMonad(
        name="concst",
        index_cat=cat,
        unit_fn=unit_fn,
        mult_fn=mult_fn,
        map_fn=map_fn,
        validator=validator,
        sampler=sampler,
    )


class LockPrims:
    """Primitive computations of the lock instance."""

    def __init__(self, T: CatGradedMonad):
        self.T = T
        self.cat: FreeCategory = T.index_cat
        self.domain = tuple(k for k, _ in T.unit_fn(FREE, vunit).entries)

    def _total(self, entry) -> Value:
        return table({s: entry(s) for s in self.domain})

    def lock(self) -> GradedComputation:
        return GradedComputation(self.cat.path(["lock"]), self._total(lambda s: vpair(vunit, s)))

    def unlock(self) -> GradedComputation:
        return GradedComputation(self.cat.path(["unlock"]), self._total(lambda s: vpair(vunit, s)))

    def get(self) -> GradedComputation:
        return GradedComputation(self.cat.path(["get"]), self._total(lambda s: vpair(s, s)))

    def put(self, v: Value) -> GradedComputation:
        # The written value may fall outside the domain; downstream
        # composition then drops the branch.
        return GradedComputation(self.cat.path(["put"]), self._total(lambda s: vpair(vunit, v)))

    def spawn(self, body: GradedComputation) -> GradedComputation:
        if not (body.index.src == FREE and body.index.tgt == FREE):
            raise SpawnGradeError(
                f"spawn needs a free -> free body, got ({body.index})")
        out = {}
        for s, step in body.payload.entries:
            out[s] = vpair(vunit, step.snd)
        return GradedComputation(self.cat.identity(FREE), table(out))


def run_table(c: GradedComputation, store: Value) -> tuple[Value, Value]:
    """Apply a lock computation to an initial store; (result, final store)."""
    step = c.payload.get(store)
    return step.fst, step.snd
