"""Closed dynamic value universe.

Every payload the library manipulates is one of the shapes below:
unit, integer, exact rational, boolean, string, pair, sequence, tagged
variant, finite function table, or finite-support probability
distribution.  All shapes are immutable, hashable, and have decidable
structural equality; tables and distributions are canonicalized at
construction so equal contents compare equal.

A value is a `Record`, the one representation of the package's
immutable data: a tuple tagged with its shape, `(tag, *fields)`.  `VUnit` is
`(0,)`, `VInt` is `(1, n)`, up to `VDist`, `(9, atoms, den)`.  The tags
follow the canonical order of shapes, so the tuple's own `<`, `==` and
`hash` are the canonical order, equality and hash, computed in C.  Only
dists define their order among themselves (by `Fraction` weight, not by
numerator).  Other records are tagged with their class names, so no
record equals a value.  A record equals a plain tuple with the same
items, so the two must not share a dict or set.  A table or dist keeps the dict of
its first lookup on the object, and a dist its comparison key; nothing
is cached at module level.

`table` and `dist` check what they are given.  The trusted path
(`ordered_table`, `table_map_snd`, `dist_bind`) rebuilds
from valid values and keeps the canonical form without re-checking it;
`table_map_snd` maps a whole payload in one frame, with one memo dict.
A dist keeps int numerators over one denominator in lowest terms: the
trusted path does int arithmetic per entry and reduces once, and
`entries`, `weight` and `show()` build `Fraction`s when they are read.
"""

from __future__ import annotations

import itertools
import math
from collections import _tuplegetter  # namedtuple's field descriptor, in C
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from operator import attrgetter, itemgetter, lt

from .errors import InvalidValue, MalformedPayload

_new = tuple.__new__  # builds a record from its tuple, skipping Record.__new__'s frame


class Record(tuple):
    """An immutable record: the tuple (tag, *fields).

    A subclass declares its fields by annotation, in order with any
    defaults last, and its tag by keyword (default: its class name); a
    field reads through namedtuple's C descriptor.  The tuple's `==`,
    `hash` and `<` are the record's, run in C; records of different
    classes differ in their tags.  Fields named in `outside` come last and
    live in the instance dict, so equality and hash ignore them.  Nothing
    is generated: `Record(*fields)` checks the count and fills in
    defaults, and hot call sites build `_new(cls, (tag, *fields))`.  A
    record with nothing outside the tuple declares `__slots__ = ()`.
    """

    __slots__ = ()

    def __init_subclass__(cls, tag=None, outside: tuple[str, ...] = ()):
        super().__init_subclass__()
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._tag = cls.__name__ if tag is None else tag
        cls._fields, cls._arity = names, len(names) - len(outside)
        cls._defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
        for i, name in enumerate(names[:cls._arity], 1):
            setattr(cls, name, _tuplegetter(i, None))

    def __new__(cls, *args):
        n = cls._arity
        if len(args) == n:
            return _new(cls, (cls._tag, *args))
        missing = len(cls._fields) - len(args)
        if not 0 <= missing <= len(cls._defaults):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, not {len(args)}")
        args += cls._defaults[len(cls._defaults) - missing:]
        self = _new(cls, (cls._tag, *args[:n]))
        for name, v in zip(cls._fields[n:], args[n:]):
            if v is not getattr(cls, name):
                setattr(self, name, v)
        return self

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class Value(Record):
    """Base class of the shapes: records tagged with ints, by shape."""

    __slots__ = ()

    def show(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.show()


class VUnit(Value, tag=0):
    __slots__ = ()

    def show(self) -> str:
        return "()"


class VInt(Value, tag=1):
    __slots__ = ()
    n: int

    def show(self) -> str:
        return str(self.n)


class VRat(Value, tag=2):
    __slots__ = ()
    q: Fraction

    def show(self) -> str:
        return str(self.q)


class VBool(Value, tag=3):
    __slots__ = ()
    b: bool

    def show(self) -> str:
        return "true" if self.b else "false"


class VStr(Value, tag=4):
    __slots__ = ()
    s: str

    def show(self) -> str:
        return '"' + self.s.replace("\\", "\\\\").replace('"', '\\"') + '"'


class VPair(Value, tag=5):
    __slots__ = ()
    fst: Value
    snd: Value

    def show(self) -> str:
        return f"({self.fst.show()}, {self.snd.show()})"


class VSeq(Value, tag=6):
    __slots__ = ()
    items: tuple[Value, ...]

    def show(self) -> str:
        return "[" + ", ".join(v.show() for v in self.items) + "]"


class VTag(Value, tag=7):
    __slots__ = ()
    tag: str
    value: Value

    def show(self) -> str:
        return f"#{self.tag}({self.value.show()})"


def _index(v: VTable | VDist) -> dict:
    """v's entries as a dict, built on the first lookup and kept on v
    (tables and dists have an instance dict for it)."""
    try:
        return v._ix
    except AttributeError:
        v._ix = ix = dict(v.entries)
        return ix


class VTable(Value, tag=8):
    """Finite map; entries sorted by canonical key order, keys unique."""

    entries: tuple[tuple[Value, Value], ...]

    def show(self) -> str:
        body = "; ".join(f"{k.show()} -> {v.show()}" for k, v in self.entries)
        return "{" + body + "}"

    def keys(self) -> tuple[Value, ...]:
        return tuple(map(_by_key, self.entries))

    def get(self, key: Value) -> Value:
        try:
            return _index(self)[key]
        except KeyError:
            raise MalformedPayload(f"table has no entry for {key.show()}") from None

    def has(self, key: Value) -> bool:
        return key in _index(self)


class VDist(Value, tag=9):
    """Finite-support distribution: values in canonical order, positive int
    numerators over `den` summing to it, in lowest terms (equal dists have
    equal fields).  Two dists order by their `entries`, i.e. by `Fraction`
    weight; a dist against any other shape orders natively, by tag."""

    atoms: tuple[tuple[Value, int], ...]
    den: int

    @property
    def entries(self) -> tuple[tuple[Value, Fraction], ...]:
        return tuple((v, Fraction(n, self.den)) for v, n in self.atoms)

    def _key(self) -> tuple[tuple[Value, Fraction], ...]:
        try:
            return self._k
        except AttributeError:
            self._k = k = self.entries
            return k

    def __lt__(self, other):
        return self._key() < other._key() if type(other) is VDist else tuple.__lt__(self, other)

    def __le__(self, other):
        return self._key() <= other._key() if type(other) is VDist else tuple.__le__(self, other)

    def __gt__(self, other):
        return self._key() > other._key() if type(other) is VDist else tuple.__gt__(self, other)

    def __ge__(self, other):
        return self._key() >= other._key() if type(other) is VDist else tuple.__ge__(self, other)

    def show(self) -> str:
        body = "; ".join(f"{v.show()} @ {w}" for v, w in self.entries)
        return "dist{" + body + "}"

    def support(self) -> tuple[Value, ...]:
        return tuple(v for v, _ in self.atoms)

    def weight(self, v: Value) -> Fraction:
        return _index(self).get(v, _ZERO)


_ZERO = Fraction(0)

unit = _new(VUnit, (0,))


def vint(n: int) -> VInt:
    return _new(VInt, (1, int(n)))


def vrat(num, den=None) -> VRat:
    return _new(VRat, (2, Fraction(num) if den is None else Fraction(num, den)))


def vbool(b: bool) -> VBool:
    return _new(VBool, (3, bool(b)))


def vstr(s: str) -> VStr:
    return _new(VStr, (4, s))


def vpair(a: Value, b: Value) -> VPair:
    return _new(VPair, (5, a, b))


def vseq(items: Iterable[Value]) -> VSeq:
    return _new(VSeq, (6, tuple(items)))


def vtag(tag: str, value: Value) -> VTag:
    return _new(VTag, (7, tag, value))


def sort_key(v: Value) -> Value:
    """Key of the total order over the whole universe: the value itself,
    checked to be one."""
    if isinstance(v, Value):
        return v
    raise InvalidValue(f"foreign value {v!r}")


_by_key, _by_num, _fst, _den = itemgetter(0), itemgetter(1), attrgetter("fst"), attrgetter("den")


def _by_checked_key(entry: tuple[Value, object]) -> Value:
    return sort_key(entry[0])


def table(entries: Mapping[Value, Value] | Iterable[tuple[Value, Value]]) -> VTable:
    if isinstance(entries, Mapping):  # keys already distinct
        return _new(VTable, (8, tuple(sorted(entries.items(), key=_by_checked_key))))
    pairs = sorted(entries, key=_by_checked_key)
    for (k1, _), (k2, _) in zip(pairs, pairs[1:]):
        if k1 == k2:
            raise InvalidValue(f"duplicate table key {k1.show()}")
    return _new(VTable, (8, tuple(pairs)))


def _merged(entries: list[tuple[Value, int]]) -> tuple[tuple[Value, int], ...]:
    """Equal values' numerators added, sorted by value; nothing is checked."""
    if len(entries) == 1:
        return tuple(entries)
    acc: dict[Value, int] = {}
    for v, n in entries:
        acc[v] = acc[v] + n if v in acc else n
    return tuple(sorted(acc.items(), key=_by_key))


def point(v: Value) -> VDist:
    return _new(VDist, (9, ((v, 1),), 1))


def _lowest(atoms: Iterable[tuple[Value, int]], den: int) -> VDist:
    """The dist of numerators `atoms` over `den`, reduced to lowest terms.
    Numerators sum to `den`, so one atom (as with `den == 1`) is a point."""
    atoms = tuple(atoms)
    g = math.gcd(den, *map(_by_num, atoms))
    if g > 1:
        return _new(VDist, (9, tuple([(v, n // g) for v, n in atoms]), den // g))
    return _new(VDist, (9, atoms, den))


def dist(entries: Mapping[Value, Fraction] | Iterable[tuple[Value, Fraction]]) -> VDist:
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    positive: list[tuple[Value, Fraction]] = []
    for v, w in pairs:
        sort_key(v)  # rejects a foreign value
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


def ordered_table(entries: Iterable[tuple[Value, Value]]) -> VTable:
    """Trusted: the keys come unique and in `sort_key` order, e.g. a valid
    table's keys, an in-order subsequence of them, or keys sorted once."""
    return _new(VTable, (8, tuple(entries)))


def _checked(d: Value) -> VDist:
    if not isinstance(d, VDist):
        raise MalformedPayload(f"distribution expected, got a {type(d).__name__}")
    return d


def table_map_snd(fn: Callable[[Value], Value], t: VTable) -> VTable:
    """t's dists of pairs mapped by (a, b) -> (a, fn(b)) in one pass, fn once per distinct
    carried value (no value is falsy).  Image pairs that still ascend keep their numerators;
    else only runs that share a first component are merged, so a value alone is not hashed."""
    memo: dict[Value, Value] = {}
    get, put, rows, entries = memo.get, memo.setdefault, [], t.entries
    try:
        for k, d in entries:
            out = []
            for pr, n in (d if type(d) is VDist else _checked(d)).atoms:
                out.append((_new(VPair, (5, pr.fst, get(b := pr.snd) or put(b, fn(b)))), n))
            if len(out) == 1 or all(map(lt, map(_by_key, out), map(_by_key, out[1:]))):
                rows.append((k, _new(VDist, (9, tuple(out), d.den))))
            else:  # rare (a frame per run): the first components pick the runs
                runs = itertools.groupby(zip(map(_fst, map(_by_key, out)), out), _by_key)
                merged = [e for _, run in runs for e in _merged(list(map(_by_num, run)))]
                rows.append((k, _lowest(merged, d.den)))
    except AttributeError:
        if type(pr) is VPair:  # raised by fn
            raise
        raise MalformedPayload(f"pair expected, got a {type(pr).__name__}") from None
    return _new(VTable, (8, tuple(rows)))


def dist_bind(d: VDist, k: Callable[[Value], VDist]) -> VDist:
    """k's dists mixed by d's weights."""
    ds = _checked(d).atoms
    ks = [_checked(k(v)) for v, _ in ds]
    den = math.lcm(*map(_den, ks))  # each branch is scaled to it
    scaled = [(e.atoms, n * (den // e.den)) for (_, n), e in zip(ds, ks)]
    return _lowest(_merged([(u, s * m) for us, s in scaled for u, m in us]), d.den * den)


def uniform(values: Iterable[Value]) -> VDist:
    vs = list(values)
    if not vs:
        raise InvalidValue("uniform over empty support")
    return _lowest(_merged([(v, 1) for v in vs]), len(vs))
