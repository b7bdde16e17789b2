"""Identity, list, and length-graded list instances."""

from __future__ import annotations

from ..core import CatGradedMonad, Homomorphism, TwoCatGradedMonad
from ..errors import MalformedPayload
from ..indexcat import IndexCategory
from ..rng import Rng
from ..translations import GradedMonad, PlainMonad, pograded_to_2catgraded
from ..values import Value, VSeq, sort_key, vint, vseq


def identity_instance(cat: IndexCategory) -> CatGradedMonad:
    """Payloads are bare values; every operation acts as the identity."""
    return CatGradedMonad(
        name="identity",
        index_cat=cat,
        unit_fn=lambda _obj, a: a,
        mult_fn=lambda _f, _g, v: v,
        map_fn=lambda _f, fn, p: fn(p),
        validator=lambda _f, _p: True,
        sampler=lambda _f, rng: vint(rng.randint(0, 9)),
    )


def _concat(nested: Value, kind: str = "sequence") -> list[Value]:
    """The items of a sequence of sequences, in order; any other payload raises."""
    if not isinstance(nested, VSeq):
        raise MalformedPayload(f"{kind} payload expected")
    out: list[Value] = []
    for inner in nested.items:
        if not isinstance(inner, VSeq):
            raise MalformedPayload(f"nested {kind} payload expected")
        out.extend(inner.items)
    return out


def list_monad() -> PlainMonad:
    """The ordinary list monad on the value universe."""

    def sample(rng: Rng) -> Value:
        return vseq(vint(rng.randint(0, 9)) for _ in range(rng.randint(0, 3)))

    return PlainMonad(
        name="list",
        unit_fn=lambda a: vseq([a]),
        join_fn=lambda nested: vseq(_concat(nested, "list")),
        map_fn=lambda fn, p: vseq(fn(v) for v in p.items),
        validator=lambda p: isinstance(p, VSeq),
        sampler=sample,
    )


# the sampled grades of the list instances: lengths at most 1..4
_GRADES = tuple(range(1, 5))


def graded_list_graded_monad(drop_last: bool = False) -> GradedMonad:
    """Lists of length at most n, graded by (N, *, 1, <=).

    drop_last installs a deliberately broken multiplication that loses the
    final element of every non-empty concatenation.
    """

    def mult(m: int, n: int, nested: Value) -> Value:
        out = _concat(nested)
        return vseq(out[:-1] if drop_last else out)

    def valid(m: int, p: Value) -> bool:
        return isinstance(p, VSeq) and len(p.items) <= m

    def sample(m: int, rng: Rng) -> Value:
        return vseq(vint(rng.randint(0, 9)) for _ in range(rng.randint(0, m)))

    return GradedMonad(
        name="glist" if not drop_last else "broken-glist",
        op=lambda m, n: m * n,
        unit_elem=1,
        sample=_GRADES,
        unit_fn=lambda a: vseq([a]),
        mult_fn=mult,
        map_fn=lambda m, fn, p: vseq(fn(v) for v in p.items),
        validator=valid,
        sampler=sample,
        approx_fn=lambda m, n, p: p,
        leq=lambda m, n: m <= n,
    )


def graded_list_instance() -> TwoCatGradedMonad:
    return pograded_to_2catgraded(graded_list_graded_monad())


def broken_graded_list_instance() -> TwoCatGradedMonad:
    return pograded_to_2catgraded(graded_list_graded_monad(drop_last=True))


def sorted_list_instance() -> TwoCatGradedMonad:
    """Multisets in sorted-sequence form over the same grading monoid."""

    def resort(items) -> Value:
        return vseq(sorted(items, key=sort_key))

    def valid(m: int, p: Value) -> bool:
        if not (isinstance(p, VSeq) and len(p.items) <= m):
            return False
        keys = [sort_key(v) for v in p.items]
        return keys == sorted(keys)

    def sample(m: int, rng: Rng) -> Value:
        return resort(vint(rng.randint(0, 9)) for _ in range(rng.randint(0, m)))

    return pograded_to_2catgraded(GradedMonad(
        name="sorted-list",
        op=lambda m, n: m * n,
        unit_elem=1,
        sample=_GRADES,
        unit_fn=lambda a: vseq([a]),
        mult_fn=lambda m, n, nested: resort(_concat(nested)),
        map_fn=lambda m, fn, p: resort(fn(v) for v in p.items),
        validator=valid,
        sampler=sample,
        approx_fn=lambda m, n, p: p,
        leq=lambda m, n: m <= n,
    ))


def list_sort_homomorphism() -> Homomorphism:
    """Sorting each list is an index-preserving map from the graded list
    instance onto the sorted (multiset) instance."""
    src = graded_list_instance().base
    tgt = sorted_list_instance().base

    def gamma(_f, p: Value) -> Value:
        if not isinstance(p, VSeq):
            raise MalformedPayload("sequence payload expected")
        return vseq(sorted(p.items, key=sort_key))

    return Homomorphism("sort", src, tgt, gamma)
