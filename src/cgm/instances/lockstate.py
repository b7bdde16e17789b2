"""Mutual-exclusion lock protocol over one protected memory cell.

The partial state-passing family over a declared cell domain, graded by
the free category on the lock graph through `param_over`: only
protocol-respecting primitive sequences compose, a payload reads only a
path's endpoints, and composing through a store value outside the
domain drops that branch, making the composite a partial transformer.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core import CatGradedMonad, GradedComputation, InstanceBundle, PrimSpec
from ..errors import MalformedPayload, SpawnGradeError
from ..indexcat import DiscreteCategory, FreeCategory, Morphism, ObjectId, free_category
from ..translations import param_over
from ..values import Value, ordered_table, sort_key
from ..values import unit as vunit, vint, vpair
from .typedstate import state_passing

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
    domain = tuple(sorted(set(stores), key=sort_key))  # in table key order
    if not domain:
        raise MalformedPayload("store domain must be nonempty")
    family = state_passing("concst", DiscreteCategory((FREE, CRITICAL)),
                           {FREE: domain, CRITICAL: domain}, partial=True)
    return param_over(family, lock_category(), "concst")


class LockPrims:
    """Primitive computations of the lock instance, and the bundle's `demand`."""

    def __init__(self, T: CatGradedMonad):
        self.T = T
        self.cat: FreeCategory = T.index_cat
        self.position = {s: n for n, s in enumerate(T.unit_fn(FREE, vunit).keys())}  # key order
        self.index = {name: self.cat.path([name]) for name, _, _ in self.cat.edges}

    def _table(self, index: Morphism, entry, states) -> GradedComputation:
        """A leaf at `index`: a row per domain state in `states` (None: all), in key order."""
        rows = self.position if states is None else sorted(
            filter(self.position.__contains__, states), key=self.position.__getitem__)
        return GradedComputation(index, ordered_table((s, entry(s)) for s in rows))

    def lock(self, states=None) -> GradedComputation:
        return self._table(self.index["lock"], lambda s: vpair(vunit, s), states)

    def unlock(self, states=None) -> GradedComputation:
        return self._table(self.index["unlock"], lambda s: vpair(vunit, s), states)

    def get(self, states=None) -> GradedComputation:
        return self._table(self.index["get"], lambda s: vpair(s, s), states)

    def put(self, v: Value, states=None) -> GradedComputation:
        # The written value may fall outside the domain; downstream
        # composition then drops the branch.
        return self._table(self.index["put"], lambda s: vpair(vunit, v), states)

    def unit(self, obj: ObjectId, a: Value, states) -> GradedComputation:
        return self._table(self.cat.identity(obj), lambda s: vpair(a, s), states)

    def ends(self, p: Value) -> dict[Value, set[Value]]:
        ends: dict[Value, set[Value]] = {}
        for _, step in p.entries:
            ends.setdefault(step.fst, set()).add(step.snd)
        return ends

    def spawn(self, body: GradedComputation) -> GradedComputation:
        if not (body.index.src == FREE and body.index.tgt == FREE):
            raise SpawnGradeError(
                f"spawn needs a free -> free body, got ({body.index})")
        return GradedComputation(self.cat.identity(FREE), ordered_table(
            (s, vpair(vunit, step.snd)) for s, step in body.payload.entries))


def concst_bundle(stores: Iterable[Value] = DEFAULT_STORES) -> InstanceBundle:
    """The lock instance over `stores`, with its `.gp` primitives, spawn at free and demand."""
    lp = LockPrims(concst_instance(stores))
    return InstanceBundle("concst", lp.T, prims={
        "lock": PrimSpec((), "unit", lp.index["lock"], lambda _a, at=None: lp.lock(at)),
        "unlock": PrimSpec((), "unit", lp.index["unlock"], lambda _a, at=None: lp.unlock(at)),
        "get": PrimSpec((), "int", lp.index["get"], lambda _a, at=None: lp.get(at)),
        "put": PrimSpec(("int",), "unit", lp.index["put"], lambda a, at=None: lp.put(a[0], at)),
    }, spawn=PrimSpec((), "unit", lp.cat.identity(FREE), lp.spawn), demand=lp)


def run_table(c: GradedComputation, store: Value) -> tuple[Value, Value]:
    """Apply a lock computation to an initial store; (result, final store)."""
    step = c.payload.get(store)
    return step.fst, step.snd
