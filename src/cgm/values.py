"""Closed dynamic value universe.

Every payload the library manipulates is one of the shapes below:
unit, integer, exact rational, boolean, string, pair, sequence, tagged
variant, finite function table, or finite-support probability
distribution.  All shapes are immutable, hashable, and have decidable
structural equality; tables and distributions are canonicalized at
construction so equal contents compare equal.

Table and distribution lookups go through a dict built on the first
lookup, and a composite value computes its hash and sort key once.  All
of it is kept on the value object, none at module level.

`table` and `dist` check what they are given.  The trusted path
(`ordered_table`, `dist_map_snd`, `dist_bind`) rebuilds
from valid values and keeps the canonical form without re-checking it.
A dist keeps int numerators over one denominator in lowest terms: the
trusted path does int arithmetic per entry and reduces once, and
`entries`, `weight` and `show()` build `Fraction`s when they are read.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidValue, MalformedPayload


class Value:
    """Base class; concrete shapes are the frozen dataclasses below."""

    __slots__ = ()

    def show(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.show()


class _Composite(Value):
    """Shapes built from other values.  Two slots start unset and are
    filled on first use: `_h` holds the hash and `_k` the sort key, so
    each is computed once per value object."""

    __slots__ = ("_h", "_k")


@dataclass(frozen=True, slots=True)
class VUnit(Value):
    def show(self) -> str:
        return "()"


@dataclass(frozen=True, slots=True)
class VInt(Value):
    n: int

    def show(self) -> str:
        return str(self.n)


@dataclass(frozen=True, slots=True)
class VRat(Value):
    q: Fraction

    def show(self) -> str:
        return str(self.q)


@dataclass(frozen=True, slots=True)
class VBool(Value):
    b: bool

    def show(self) -> str:
        return "true" if self.b else "false"


@dataclass(frozen=True, slots=True)
class VStr(Value):
    s: str

    def show(self) -> str:
        return '"' + self.s.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True, slots=True)
class VPair(_Composite):
    fst: Value
    snd: Value

    def show(self) -> str:
        return f"({self.fst.show()}, {self.snd.show()})"


@dataclass(frozen=True, slots=True)
class VSeq(_Composite):
    items: tuple[Value, ...]

    def show(self) -> str:
        return "[" + ", ".join(v.show() for v in self.items) + "]"


@dataclass(frozen=True, slots=True)
class VTag(_Composite):
    tag: str
    value: Value

    def show(self) -> str:
        return f"#{self.tag}({self.value.show()})"


class _Indexed(_Composite):
    """Shapes with unique entry keys; `_ix` maps key to entry value and
    is built on the first lookup."""

    __slots__ = ("_ix",)

    def _index(self) -> dict:
        ix = getattr(self, "_ix", None)
        if ix is None:
            ix = dict(self.entries)
            object.__setattr__(self, "_ix", ix)
        return ix


@dataclass(frozen=True, slots=True)
class VTable(_Indexed):
    """Finite map; entries sorted by canonical key order, keys unique."""

    entries: tuple[tuple[Value, Value], ...]

    def show(self) -> str:
        body = "; ".join(f"{k.show()} -> {v.show()}" for k, v in self.entries)
        return "{" + body + "}"

    def keys(self) -> tuple[Value, ...]:
        return tuple(k for k, _ in self.entries)

    def get(self, key: Value) -> Value:
        try:
            return self._index()[key]
        except KeyError:
            raise MalformedPayload(f"table has no entry for {key.show()}") from None

    def has(self, key: Value) -> bool:
        return key in self._index()


@dataclass(frozen=True, slots=True)
class VDist(_Indexed):
    """Finite-support distribution: values in canonical order, positive int
    numerators over `den` summing to it, in lowest terms (equal dists have equal fields)."""

    atoms: tuple[tuple[Value, int], ...]
    den: int

    @property
    def entries(self) -> tuple[tuple[Value, Fraction], ...]:
        return tuple((v, Fraction(n, self.den)) for v, n in self.atoms)

    def show(self) -> str:
        body = "; ".join(f"{v.show()} @ {w}" for v, w in self.entries)
        return "dist{" + body + "}"

    def support(self) -> tuple[Value, ...]:
        return tuple(v for v, _ in self.atoms)

    def weight(self, v: Value) -> Fraction:
        return self._index().get(v, _ZERO)


_ZERO = Fraction(0)


def _cached_hash(parts):
    """Composite values are hashed constantly by tables, caches, and law
    comparisons; memoize the recursive hash on first use."""

    def __hash__(self):
        h = getattr(self, "_h", None)
        if h is None:
            h = hash(parts(self))
            object.__setattr__(self, "_h", h)
        return h

    return __hash__


VPair.__hash__ = _cached_hash(lambda s: ("P", s.fst, s.snd))
VSeq.__hash__ = _cached_hash(lambda s: ("S", s.items))
VTag.__hash__ = _cached_hash(lambda s: ("G", s.tag, s.value))
VTable.__hash__ = _cached_hash(lambda s: ("T", s.entries))
VDist.__hash__ = _cached_hash(lambda s: ("D", s.atoms, s.den))

unit = VUnit()


def vint(n: int) -> VInt:
    return VInt(int(n))


def vrat(num, den=None) -> VRat:
    return VRat(Fraction(num) if den is None else Fraction(num, den))


def vbool(b: bool) -> VBool:
    return VBool(bool(b))


def vstr(s: str) -> VStr:
    return VStr(s)


def vpair(a: Value, b: Value) -> VPair:
    return VPair(a, b)


def vseq(items: Iterable[Value]) -> VSeq:
    return VSeq(tuple(items))


def vtag(tag: str, value: Value) -> VTag:
    return VTag(tag, value)


# A leaf's key is cheaper to build than a cache miss, so only composite
# keys are kept on the value.
_LEAF_KEYS = {
    VUnit: lambda v: (0,),
    VInt: lambda v: (1, v.n),
    VRat: lambda v: (2, v.q),
    VBool: lambda v: (3, v.b),
    VStr: lambda v: (4, v.s),
}
_COMPOSITE_KEYS = {
    VPair: lambda v: (5, sort_key(v.fst), sort_key(v.snd)),
    VSeq: lambda v: (6, tuple(sort_key(x) for x in v.items)),
    VTag: lambda v: (7, v.tag, sort_key(v.value)),
    VTable: lambda v: (8, tuple((sort_key(k), sort_key(x)) for k, x in v.entries)),
    VDist: lambda v: (9, tuple((sort_key(x), w) for x, w in v.entries)),
}


def sort_key(v: Value):
    """Total order over the whole universe, used for canonical sorting."""
    leaf = _LEAF_KEYS.get(type(v))
    if leaf is not None:
        return leaf(v)
    key = getattr(v, "_k", None)
    if key is None:
        composite = _COMPOSITE_KEYS.get(type(v))
        if composite is None:
            raise InvalidValue(f"foreign value {v!r}")
        key = composite(v)
        object.__setattr__(v, "_k", key)
    return key


def _by_key(entry: tuple[Value, object]):
    return sort_key(entry[0])


def table(entries: Mapping[Value, Value] | Iterable[tuple[Value, Value]]) -> VTable:
    if isinstance(entries, Mapping):  # keys already distinct
        return VTable(tuple(sorted(entries.items(), key=_by_key)))
    pairs = sorted(entries, key=_by_key)
    for (k1, _), (k2, _) in zip(pairs, pairs[1:]):
        if k1 == k2:
            raise InvalidValue(f"duplicate table key {k1.show()}")
    return VTable(tuple(pairs))


def _merged(entries: list[tuple[Value, int]]) -> tuple[tuple[Value, int], ...]:
    """Equal values' numerators added, sorted by value; nothing is checked."""
    if len(entries) == 1:
        return tuple(entries)
    acc: dict[Value, int] = {}
    for v, n in entries:
        acc[v] = acc[v] + n if v in acc else n
    return tuple(sorted(acc.items(), key=_by_key))


def _lowest(atoms: Iterable[tuple[Value, int]], den: int) -> VDist:
    """The dist of numerators `atoms` over `den`, reduced to lowest terms."""
    atoms = tuple(atoms)
    g = math.gcd(den, *(n for _, n in atoms))
    if g > 1:
        return VDist(tuple((v, n // g) for v, n in atoms), den // g)
    return VDist(atoms, den)


def dist(entries: Mapping[Value, Fraction] | Iterable[tuple[Value, Fraction]]) -> VDist:
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    positive: list[tuple[Value, Fraction]] = []
    for v, w in pairs:
        if not isinstance(w, Fraction):
            w = Fraction(w)
        if w < 0:
            raise InvalidValue("negative distribution weight")
        if w:
            positive.append((v, w))
    den = math.lcm(*(w.denominator for _, w in positive))
    merged = _merged([(v, w.numerator * (den // w.denominator)) for v, w in positive])
    total = sum(n for _, n in merged)
    if total != den:
        raise InvalidValue(f"distribution weights sum to {Fraction(total, den)}, not 1")
    return _lowest(merged, den)


def point(v: Value) -> VDist:
    return VDist(((v, 1),), 1)


def ordered_table(entries: Iterable[tuple[Value, Value]]) -> VTable:
    """Trusted: the keys come unique and in `sort_key` order, e.g. a valid
    table's keys, an in-order subsequence of them, or keys sorted once."""
    return VTable(tuple(entries))


def _checked(d: Value) -> VDist:
    if not isinstance(d, VDist):
        raise MalformedPayload(f"distribution expected, got a {type(d).__name__}")
    return d


def dist_map_snd(fn: Callable[[Value], Value], d: VDist) -> VDist:
    """The image of a dist of pairs under (a, b) -> (a, fn(b)).  Pair keys
    order by first component first, so only a run sharing one is merged."""
    out: list[tuple[Value, int]] = []
    for _, run in itertools.groupby(_checked(d).atoms, lambda e: sort_key(e[0].fst)):
        out += _merged([(vpair(pr.fst, fn(pr.snd)), n) for pr, n in run])
    return _lowest(out, d.den)


def dist_bind(d: VDist, k: Callable[[Value], VDist]) -> VDist:
    ds = _checked(d).atoms
    if len(ds) == 1:  # a point: the bind is k's dist
        return _checked(k(ds[0][0]))
    ks = [_checked(k(v)) for v, _ in ds]
    den = math.lcm(*(e.den for e in ks))  # each branch is scaled to it
    scaled = [(e.atoms, n * (den // e.den)) for (_, n), e in zip(ds, ks)]
    return _lowest(_merged([(u, s * m) for atoms, s in scaled for u, m in atoms]), d.den * den)


def once_per_value(fn: Callable[[Value], Value]) -> Callable[[Value], Value]:
    """fn, called once per distinct argument (no value is falsy)."""
    memo: dict[Value, Value] = {}
    return lambda v: memo.get(v) or memo.setdefault(v, fn(v))


def uniform(values: Iterable[Value]) -> VDist:
    vs = list(values)
    if not vs:
        raise InvalidValue("uniform over empty support")
    return _lowest(_merged([(v, 1) for v in vs]), len(vs))

