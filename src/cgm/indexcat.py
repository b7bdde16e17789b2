"""Index categories and 2-categories.

Effectful computations are indexed by morphisms of a category.  The
kinds supported here are the ones the built-in structures need: free
path categories over a graph, one-object categories from a (pre-ordered)
monoid, discrete and indiscrete categories, pair completions, products,
and finite function categories (objects are finite value sets, morphisms
are all functions between them).

Morphisms are plain data: a source, a target, and a word describing the
arrow.  Equality is structural on the word, so free paths are equal iff
their generator sequences are equal.

A category trusts the morphisms it owns, those its own operations built
or its `contains` verified: `compose` passes them on an `is` test, so a
bind does not re-walk the path composed so far.  Any other morphism,
one owned by another category included, goes through `contains`.
Categories compare and hash by identity.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterable, Mapping

from .errors import (
    CompositionMismatch,
    DanglingEdge,
    ForeignMorphism,
    RepeatedGenerator,
    SymbolicObjects,
    UnknownObject,
)
from .values import Record, Value, _new


class ObjectId(Record):
    name: str
    # a product object's components: set by pair_object in the instance
    # dict, not a field, so equality, hash and repr ignore them
    pair = None

    def __str__(self) -> str:
        return self.name


# --- morphism words ---

class WIdentity(Record):
    __slots__ = ()
    obj: ObjectId


class WPath(Record):
    __slots__ = ()
    gens: tuple[str, ...]


class WElem(Record):
    """Morphism labelled by a monoid carrier element."""

    __slots__ = ()
    value: Hashable


class WPair(Record):
    """The unique arrow of an indiscrete category (a 'domino')."""

    __slots__ = ()
    src: ObjectId
    tgt: ObjectId


class WInj1(Record):
    __slots__ = ()
    inner: "Morphism"


class WInj2(Record):
    __slots__ = ()
    src: ObjectId
    tgt: ObjectId


class WTuple(Record):
    __slots__ = ()
    left: "Morphism"
    right: "Morphism"


class WFn(Record):
    """Graph of a function between two finite value sets.  The graph as a
    dict is built on the first `apply` and kept in the instance dict."""

    graph: tuple[tuple[Value, Value], ...]

    def apply(self, v: Value) -> Value:
        try:
            return self._lookup[v]
        except AttributeError:
            self._lookup = dict(self.graph)
            return self.apply(v)
        except KeyError:
            raise ForeignMorphism(f"function graph undefined at {v.show()}") from None


Word = WIdentity | WPath | WElem | WPair | WInj1 | WInj2 | WTuple | WFn


def word_str(w: Word) -> str:
    if isinstance(w, WIdentity):
        return f"id_{w.obj.name}"
    if isinstance(w, WPath):
        return ";".join(w.gens)
    if isinstance(w, WElem):
        return str(w.value)
    if isinstance(w, WPair):
        return f"({w.src.name},{w.tgt.name})"
    if isinstance(w, WInj1):
        return f"in1({word_str(w.inner.word)})"
    if isinstance(w, WInj2):
        return f"in2({w.src.name},{w.tgt.name})"
    if isinstance(w, WTuple):
        return f"({word_str(w.left.word)}, {w.right.src.name} -> {w.right.tgt.name})"
    if isinstance(w, WFn):
        return "fn{" + ", ".join(f"{a.show()}->{b.show()}" for a, b in w.graph) + "}"
    raise ForeignMorphism(f"unknown word {w!r}")


class Morphism(Record):
    src: ObjectId
    tgt: ObjectId
    word: Word
    owner = None  # the category that built or verified it, kept out of equality

    def __str__(self) -> str:
        return f"{word_str(self.word)} : {self.src.name} -> {self.tgt.name}"


def morphism_key(m: Morphism):
    """Deterministic sort key for morphisms (reports, pools)."""
    return (m.src.name, m.tgt.name, word_str(m.word))


class IndexCategory:
    """Abstract interface; concrete kinds below."""

    kind: str = "abstract"

    def object_ids(self) -> tuple[ObjectId, ...] | None:
        """Enumerated objects, or None when the object set is symbolic."""
        raise NotImplementedError

    def has_object(self, obj: ObjectId) -> bool:
        objs = self.object_ids()
        return objs is None or obj in objs

    def identity(self, obj: ObjectId) -> Morphism:
        """The formal identity; kinds whose identities are other words override this."""
        _require_object(self, obj)
        return self._arrow(obj, obj, _new(WIdentity, ("WIdentity", obj)))

    def _arrow(self, src: ObjectId, tgt: ObjectId, word: Word) -> Morphism:
        """A morphism built by this category's own operation, marked as its own."""
        m = _new(Morphism, ("Morphism", src, tgt, word))
        m.owner = self
        return m

    def _sorted(self, ms: Iterable[Morphism]) -> tuple[Morphism, ...]:
        """Own morphisms, marked and deterministically sorted."""
        out = sorted(ms, key=morphism_key)
        for m in out:
            m.owner = self
        return tuple(out)

    def _admit(self, m: Morphism) -> bool:
        """Whether m is a morphism here: an owned one on an `is` test, any
        other through `contains`, after which it is marked as owned."""
        if m.owner is not self:
            if not self.contains(m):
                return False
            m.owner = self
        return True

    def _is_identity(self, m: Morphism) -> bool:
        return isinstance(m.word, WIdentity) and m.word.obj == m.src == m.tgt and self.has_object(m.src)

    def contains(self, m: Morphism) -> bool:
        raise NotImplementedError

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f.  Requires tgt(f) = src(g)."""
        raise NotImplementedError

    def morphisms(self, max_path_len: int = 4) -> tuple[Morphism, ...]:
        """Enumerate (a sample of) the morphisms, deterministically sorted."""
        raise NotImplementedError

    def _check_endpoints(self, g: Morphism, f: Morphism) -> None:
        """The one gate of compose."""
        for m in (f, g):
            if not self._admit(m):
                raise ForeignMorphism(f"{m} is not a morphism of this {self.kind} category")
        if f.tgt != g.src:
            raise CompositionMismatch(
                f"cannot compose: target {f.tgt.name} of ({f}) differs from source {g.src.name} of ({g})")


def _require_object(cat: IndexCategory, obj: ObjectId) -> None:
    if not cat.has_object(obj):
        raise UnknownObject(f"no object named {obj.name}")


class FreeCategory(IndexCategory):
    """Free category on a labelled graph; morphisms are generator paths."""

    kind = "free"

    def __init__(self, objects: tuple[ObjectId, ...],
                 edges: tuple[tuple[str, ObjectId, ObjectId], ...]):  # (label, src, tgt)
        self.objects, self.edges = objects, edges
        self._by_label = {}  # label -> (src, tgt); a label names one edge
        for name, s, t in edges:
            if name in self._by_label:
                raise RepeatedGenerator(f"generator {name} is declared twice")
            self._by_label[name] = (s, t)

    def object_ids(self):
        return self.objects

    def edge(self, label: str) -> tuple[ObjectId, ObjectId]:
        try:
            return self._by_label[label]
        except KeyError:
            raise ForeignMorphism(f"no generator named {label}") from None

    def path(self, labels: Iterable[str]) -> Morphism:
        gens = tuple(labels)
        if not gens:
            raise ForeignMorphism("empty path; use identity()")
        src, cur = self.edge(gens[0])
        for name in gens[1:]:
            s, t = self.edge(name)
            if s != cur:
                raise CompositionMismatch(f"generator {name} does not chain at {cur.name}")
            cur = t
        return self._arrow(src, cur, WPath(gens))

    def contains(self, m):
        if isinstance(m.word, WIdentity):
            return self._is_identity(m)
        if not isinstance(m.word, WPath) or not m.word.gens:
            return False
        cur = m.src
        for name in m.word.gens:
            st = self._by_label.get(name)
            if st is None or st[0] != cur:
                return False
            cur = st[1]
        return cur == m.tgt

    def compose(self, g, f):
        self._check_endpoints(g, f)
        if isinstance(f.word, WIdentity):
            return g
        if isinstance(g.word, WIdentity):
            return f
        return self._arrow(f.src, g.tgt, _new(WPath, ("WPath", f.word.gens + g.word.gens)))

    def morphisms(self, max_path_len: int = 4):
        out = [self.identity(o) for o in self.objects]
        frontier = [self.path([name]) for name, _, _ in self.edges]
        out.extend(frontier)
        for _ in range(max_path_len - 1):
            frontier = [Morphism(m.src, t, WPath(m.word.gens + (name,)))
                        for m in frontier for name, s, t in self.edges if s == m.tgt]
            out.extend(frontier)
        return self._sorted(out)


STAR = ObjectId("*")


class MonoidCategory(IndexCategory):
    """One-object category whose arrows are monoid elements."""

    kind = "monoid"

    def __init__(self, op: Callable[[Hashable, Hashable], Hashable], unit: Hashable,
                 sample: tuple[Hashable, ...]):
        self.op, self.unit, self.sample = op, unit, sample

    def object_ids(self):
        return (STAR,)

    def elem(self, x) -> Morphism:
        return self._arrow(STAR, STAR, _new(WElem, ("WElem", x)))

    def identity(self, obj):
        _require_object(self, obj)
        return self.elem(self.unit)

    def contains(self, m):
        return isinstance(m.word, WElem) and m.src == m.tgt == STAR

    def compose(self, g, f):
        self._check_endpoints(g, f)
        # g o f runs f first, so the product is f * g.
        return self.elem(self.op(f.word.value, g.word.value))

    def morphisms(self, max_path_len: int = 4):
        elems = {self.unit, *self.sample}
        return tuple(self.elem(x) for x in sorted(elems, key=lambda e: (str(type(e)), e)))


class DiscreteCategory(IndexCategory):
    kind = "discrete"

    def __init__(self, objects: tuple[ObjectId, ...]):
        self.objects = objects

    def object_ids(self):
        return self.objects

    def contains(self, m):
        return self._is_identity(m)

    def compose(self, g, f):
        self._check_endpoints(g, f)
        return f

    def morphisms(self, max_path_len: int = 4):
        return self._sorted(self.identity(o) for o in self.objects)


class IndiscreteCategory(IndexCategory):
    """Exactly one arrow between every ordered pair of objects.

    objects=None makes the object set symbolic: membership is by name and
    the category cannot be enumerated.
    """

    kind = "indiscrete"

    def __init__(self, objects: tuple[ObjectId, ...] | None):
        self.objects = objects

    def object_ids(self):
        return self.objects

    def pair(self, a: ObjectId, b: ObjectId) -> Morphism:
        _require_object(self, a)
        _require_object(self, b)
        return self._arrow(a, b, _new(WPair, ("WPair", a, b)))

    def identity(self, obj):
        return self.pair(obj, obj)

    def contains(self, m):
        return (isinstance(m.word, WPair) and m.word.src == m.src and m.word.tgt == m.tgt
                and self.has_object(m.src) and self.has_object(m.tgt))

    def compose(self, g, f):
        self._check_endpoints(g, f)
        return self._arrow(f.src, g.tgt, _new(WPair, ("WPair", f.src, g.tgt)))

    def morphisms(self, max_path_len: int = 4):
        if self.objects is None:
            raise SymbolicObjects("indiscrete category over a symbolic object set")
        return self._sorted(self.pair(a, b) for a in self.objects for b in self.objects)


class PairCompletionCategory(IndexCategory):
    """Inner morphisms tagged in1 plus one formal in2 arrow per object pair."""

    kind = "pair_completion"

    def __init__(self, inner: IndexCategory):
        self.inner = inner

    def object_ids(self):
        return self.inner.object_ids()

    def has_object(self, obj):
        return self.inner.has_object(obj)

    def inj1(self, m: Morphism) -> Morphism:
        if not self.inner._admit(m):
            raise ForeignMorphism(f"{m} is not in the inner category")
        return self._arrow(m.src, m.tgt, _new(WInj1, ("WInj1", m)))

    def inj2(self, a: ObjectId, b: ObjectId) -> Morphism:
        _require_object(self, a)
        _require_object(self, b)
        return self._arrow(a, b, _new(WInj2, ("WInj2", a, b)))

    def identity(self, obj):
        _require_object(self, obj)
        return self.inj1(self.inner.identity(obj))

    def contains(self, m):
        if isinstance(m.word, WInj1):
            i = m.word.inner
            return self.inner.contains(i) and i.src == m.src and i.tgt == m.tgt
        if isinstance(m.word, WInj2):
            return m.word.src == m.src and m.word.tgt == m.tgt and self.has_object(m.src) and self.has_object(m.tgt)
        return False

    def compose(self, g, f):
        self._check_endpoints(g, f)
        if isinstance(f.word, WInj1) and isinstance(g.word, WInj1):
            return self.inj1(self.inner.compose(g.word.inner, f.word.inner))
        return self._arrow(f.src, g.tgt, _new(WInj2, ("WInj2", f.src, g.tgt)))

    def morphisms(self, max_path_len: int = 4):
        objs = self.object_ids()
        if objs is None:
            raise SymbolicObjects("pair completion of a symbolic category")
        out = [self.inj1(m) for m in self.inner.morphisms(max_path_len)]
        out.extend(self.inj2(a, b) for a in objs for b in objs)
        return self._sorted(out)


_ESC = str.maketrans({"\\": "\\\\", "|": "\\|", "<": "\\<", ">": "\\>"})


def pair_object(a: ObjectId, b: ObjectId) -> ObjectId:
    """The product object of a and b: an escaped `<a|b>` name that keeps the pair."""
    o = ObjectId(f"<{a.name.translate(_ESC)}|{b.name.translate(_ESC)}>")
    o.pair = (a, b)
    return o


class ProductCategory(IndexCategory):
    kind = "product"

    def __init__(self, left: IndexCategory, right: IndexCategory):
        self.left, self.right = left, right
        self._objects: dict[tuple[ObjectId, ObjectId], ObjectId] = {}

    def _object(self, a: ObjectId, b: ObjectId) -> ObjectId:
        """pair_object(a, b), built once per pair: few objects carry a dict."""
        o = self._objects.get((a, b))
        if o is None:
            o = self._objects[a, b] = pair_object(a, b)
        return o

    def object_ids(self):
        lo, ro = self.left.object_ids(), self.right.object_ids()
        if lo is None or ro is None:
            return None
        return tuple(self._object(a, b) for a in lo for b in ro)

    def has_object(self, obj):
        return (obj.pair is not None
                and self.left.has_object(obj.pair[0]) and self.right.has_object(obj.pair[1]))

    def tuple_morphism(self, l: Morphism, r: Morphism) -> Morphism:
        """Owned only when both components are owned by the component categories."""
        m = _new(Morphism, ("Morphism", self._object(l.src, r.src), self._object(l.tgt, r.tgt),
                            _new(WTuple, ("WTuple", l, r))))
        if l.owner is self.left and r.owner is self.right:
            m.owner = self
        return m

    def identity(self, obj):
        if obj.pair is None:
            raise UnknownObject(f"{obj.name} is not a product object")
        a, b = obj.pair
        return self.tuple_morphism(self.left.identity(a), self.right.identity(b))

    def contains(self, m):
        return (isinstance(m.word, WTuple)
                and self.left.contains(m.word.left) and self.right.contains(m.word.right)
                and m.src == self._object(m.word.left.src, m.word.right.src)
                and m.tgt == self._object(m.word.left.tgt, m.word.right.tgt))

    def compose(self, g, f):
        self._check_endpoints(g, f)
        return self.tuple_morphism(self.left.compose(g.word.left, f.word.left),
                                   self.right.compose(g.word.right, f.word.right))

    def morphisms(self, max_path_len: int = 4):
        ls = self.left.morphisms(max_path_len)
        rs = self.right.morphisms(max_path_len)
        return self._sorted(self.tuple_morphism(l, r) for l in ls for r in rs)


class FuncCategory(IndexCategory):
    """Objects are named finite value sets; arrows are all functions."""

    kind = "func"

    def __init__(self, sets: tuple[tuple[ObjectId, tuple[Value, ...]], ...]):
        self.sets = sets
        # per object: (carrier, carrier as a set, identity), built once
        self._by_obj = {o: (vs, frozenset(vs), self._arrow(o, o, WFn(tuple((v, v) for v in vs))))
                        for o, vs in sets}

    def _entry(self, obj: ObjectId):
        try:
            return self._by_obj[obj]
        except KeyError:
            raise UnknownObject(f"no object named {obj.name}") from None

    def object_ids(self):
        return tuple(o for o, _ in self.sets)

    def has_object(self, obj: ObjectId) -> bool:
        return obj in self._by_obj

    def carrier(self, obj: ObjectId) -> tuple[Value, ...]:
        return self._entry(obj)[0]

    def fn(self, src: ObjectId, tgt: ObjectId, mapping: Mapping[Value, Value]) -> Morphism:
        dom = self.carrier(src)
        cod = self._entry(tgt)[1]
        graph = []
        for v in dom:
            out = mapping[v]
            if out not in cod:
                raise ForeignMorphism(f"{out.show()} is not in the target carrier")
            graph.append((v, out))
        return self._arrow(src, tgt, WFn(tuple(graph)))

    def identity(self, obj):
        return self._entry(obj)[2]

    def contains(self, m):
        if not isinstance(m.word, WFn):
            return False
        try:
            dom, cod = self.carrier(m.src), self._entry(m.tgt)[1]
        except UnknownObject:
            return False
        keys = tuple(a for a, _ in m.word.graph)
        return keys == dom and all(b in cod for _, b in m.word.graph)

    def compose(self, g, f):
        self._check_endpoints(g, f)
        graph = tuple((a, g.word.apply(b)) for a, b in f.word.graph)
        return self._arrow(f.src, g.tgt, _new(WFn, ("WFn", graph)))

    def morphisms(self, max_path_len: int = 4):
        out = []
        for src, dom in self.sets:
            for tgt, cod in self.sets:
                for image in itertools.product(cod, repeat=len(dom)):
                    out.append(Morphism(src, tgt, WFn(tuple(zip(dom, image)))))
        return self._sorted(out)


class TwoCategory:
    """An index category plus a decidable 2-cell preorder on parallel arrows."""

    def __init__(self, base: IndexCategory, cell: Callable[[Morphism, Morphism], bool]):
        self.base, self.cell = base, cell

    def leq(self, f: Morphism, g: Morphism) -> bool:
        return f.src == g.src and f.tgt == g.tgt and (f == g or self.cell(f, g))


class WideSubcategory:
    def __init__(self, parent: IndexCategory, member: Callable[[Morphism], bool]):
        self.parent, self.member = parent, member

    def contains(self, m: Morphism) -> bool:
        return self.parent.contains(m) and self.member(m)


def whole_category(cat: IndexCategory) -> WideSubcategory:
    return WideSubcategory(cat, lambda m: True)


# --- module-level operation surface ---

def compose(cat: IndexCategory, g: Morphism, f: Morphism) -> Morphism:
    return cat.compose(g, f)


def identity(cat: IndexCategory, obj: ObjectId) -> Morphism:
    return cat.identity(obj)


def monoid_to_category(op, unit, sample) -> MonoidCategory:
    """One object, arrows are carrier elements, composition is the op."""
    return MonoidCategory(op=op, unit=unit, sample=tuple(sample))


def pomonoid_to_2category(op, unit, sample, leq) -> TwoCategory:
    """2-cells f => g exactly when f's element is below g's."""
    return TwoCategory(monoid_to_category(op, unit, sample),
                       lambda f, g: leq(f.word.value, g.word.value))


def discretise(cat: IndexCategory) -> DiscreteCategory:
    objs = cat.object_ids()
    if objs is None:
        raise SymbolicObjects("cannot discretise a symbolic object set")
    return DiscreteCategory(tuple(objs))


def indiscretise(cat: IndexCategory) -> IndiscreteCategory:
    objs = cat.object_ids()
    if objs is None:
        raise SymbolicObjects("cannot indiscretise a symbolic object set")
    return IndiscreteCategory(tuple(objs))


def pair_completion(cat: IndexCategory) -> PairCompletionCategory:
    if cat.object_ids() is None:
        raise SymbolicObjects("cannot pair-complete a symbolic object set")
    return PairCompletionCategory(cat)


def free_category(objects: Iterable[str | ObjectId],
                  edges: Iterable[tuple[str, str | ObjectId, str | ObjectId]]) -> FreeCategory:
    objs = tuple(o if isinstance(o, ObjectId) else ObjectId(o) for o in objects)
    norm = []
    for name, s, t in edges:
        s = s if isinstance(s, ObjectId) else ObjectId(s)
        t = t if isinstance(t, ObjectId) else ObjectId(t)
        if s not in objs or t not in objs:
            raise DanglingEdge(f"edge {name} references an undeclared object")
        norm.append((name, s, t))
    return FreeCategory(objs, tuple(norm))


def func_category(sets: Mapping[str, Iterable[Value]]) -> FuncCategory:
    norm = tuple((ObjectId(name), tuple(vs)) for name, vs in sets.items())
    return FuncCategory(norm)
