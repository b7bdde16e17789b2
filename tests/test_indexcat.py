"""Index categories: construction, composition laws, closures."""

from fractions import Fraction

import pytest

from cgm.errors import (
    CompositionMismatch,
    DanglingEdge,
    ForeignMorphism,
    SymbolicObjects,
    UnknownObject,
)
from cgm.indexcat import (
    DiscreteCategory,
    FreeCategory,
    IndiscreteCategory,
    Morphism,
    ObjectId,
    ProductCategory,
    STAR,
    WElem,
    WFn,
    WIdentity,
    WInj1,
    WPath,
    compose,
    discretise,
    free_category,
    func_category,
    identity,
    indiscretise,
    monoid_to_category,
    pair_completion,
    pair_object,
    pomonoid_to_2category,
)
from cgm.instances import lock_category, sat_add
from cgm.values import vint


def assert_category_laws(cat, cap=3):
    """Exhaustive associativity and unit laws over the enumerated morphisms."""
    pool = cat.morphisms(cap)
    for f in pool:
        assert compose(cat, identity(cat, f.tgt), f) == f
        assert compose(cat, f, identity(cat, f.src)) == f
    pairs = [(f, g) for f in pool for g in pool if f.tgt == g.src]
    for f, g in pairs:
        for h in pool:
            if g.tgt == h.src:
                lhs = compose(cat, h, compose(cat, g, f))
                rhs = compose(cat, compose(cat, h, g), f)
                assert lhs == rhs


def test_lock_category_composition():
    cat = lock_category()
    lock = cat.path(["lock"])
    get = cat.path(["get"])
    put = cat.path(["put"])
    unlock = cat.path(["unlock"])
    whole = compose(cat, unlock, compose(cat, put, compose(cat, get, lock)))
    assert whole.word == WPath(("lock", "get", "put", "unlock"))
    assert whole.src == ObjectId("free") and whole.tgt == ObjectId("free")
    assert str(whole) == "lock;get;put;unlock : free -> free"


def test_identity_neutral():
    cat = lock_category()
    f = cat.path(["lock", "get"])
    assert compose(cat, identity(cat, f.tgt), f) == f
    assert compose(cat, f, identity(cat, f.src)) == f


def test_composition_mismatch():
    cat = lock_category()
    unlock = cat.path(["unlock"])
    get = cat.path(["get"])
    # get after unlock: get starts at critical, unlock ends at free
    with pytest.raises(CompositionMismatch):
        compose(cat, get, unlock)


def test_unknown_object():
    cat = lock_category()
    with pytest.raises(UnknownObject):
        identity(cat, ObjectId("missing"))


def test_dangling_edge():
    with pytest.raises(DanglingEdge):
        free_category(["a"], [("f", "a", "b")])


def test_free_single_object_no_edges():
    cat = free_category(["a"], [])
    assert cat.morphisms() == (identity(cat, ObjectId("a")),)


def test_monoid_category_nat_plus():
    cat = monoid_to_category(lambda a, b: a + b, 0, range(6))
    assert compose(cat, cat.elem(3), cat.elem(2)).word.value == 5
    assert identity(cat, STAR).word.value == 0
    assert_category_laws(cat)


def test_monoid_category_nat_times_identity():
    cat = monoid_to_category(lambda a, b: a * b, 1, range(1, 5))
    assert identity(cat, STAR).word.value == 1


def test_saturating_addition_monoid():
    cat = monoid_to_category(sat_add, Fraction(0),
                             (Fraction(0), Fraction(1, 2), Fraction(7, 10)))
    out = compose(cat, cat.elem(Fraction(5, 10)), cat.elem(Fraction(7, 10)))
    assert out.word.value == Fraction(1)
    assert_category_laws(cat)


def test_pomonoid_two_category():
    two = pomonoid_to_2category(lambda a, b: a * b, 1, range(1, 6),
                                lambda m, n: m <= n)
    cat = two.base
    assert two.leq(cat.elem(2), cat.elem(5))
    assert not two.leq(cat.elem(5), cat.elem(2))
    # reflexivity, transitivity, monotonicity over the sample
    pool = cat.morphisms()
    for f in pool:
        assert two.leq(f, f)
    for f in pool:
        for g in pool:
            for h in pool:
                if two.leq(f, g) and two.leq(g, h):
                    assert two.leq(f, h)
    for f1 in pool:
        for f2 in pool:
            if not two.leq(f1, f2):
                continue
            for g1 in pool:
                for g2 in pool:
                    if two.leq(g1, g2):
                        assert two.leq(compose(cat, g1, f1), compose(cat, g2, f2))


def test_discretise():
    cat = lock_category()
    d = discretise(cat)
    ms = d.morphisms()
    assert len(ms) == 2 and all(isinstance(m.word, WIdentity) for m in ms)
    assert discretise(d).objects == d.objects
    with pytest.raises(CompositionMismatch):
        compose(d, identity(d, ObjectId("free")), identity(d, ObjectId("critical")))
    assert_category_laws(d)


def test_indiscretise():
    cat = DiscreteCategory((ObjectId("a"), ObjectId("b"), ObjectId("c")))
    ind = indiscretise(cat)
    ab = ind.pair(ObjectId("a"), ObjectId("b"))
    bc = ind.pair(ObjectId("b"), ObjectId("c"))
    assert compose(ind, bc, ab) == ind.pair(ObjectId("a"), ObjectId("c"))
    assert identity(ind, ObjectId("a")) == ind.pair(ObjectId("a"), ObjectId("a"))
    assert len(ind.morphisms()) == 9
    assert indiscretise(ind).objects == ind.objects
    assert_category_laws(ind)


def test_symbolic_objects_error():
    sym = IndiscreteCategory(None)
    with pytest.raises(SymbolicObjects):
        sym.morphisms()
    with pytest.raises(SymbolicObjects):
        discretise(sym)


def test_pair_completion_composition():
    base = free_category(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")])
    pc = pair_completion(base)
    f = pc.inj1(base.path(["f"]))
    g = pc.inj1(base.path(["g"]))
    # both genuine: stays genuine
    assert compose(pc, g, f) == pc.inj1(base.path(["f", "g"]))
    # mixed: collapses to the formal pair
    k = pc.inj2(ObjectId("b"), ObjectId("c"))
    assert compose(pc, k, f) == pc.inj2(ObjectId("a"), ObjectId("c"))
    assert identity(pc, ObjectId("a")) == pc.inj1(identity(base, ObjectId("a")))
    assert_category_laws(pc, cap=2)


def test_pair_completion_inclusion_functorial():
    base = free_category(["a", "b"], [("f", "a", "b")])
    pc = pair_completion(base)
    for m in base.morphisms(3):
        assert pc.contains(pc.inj1(m))
        for n in base.morphisms(3):
            if m.tgt == n.src:
                lhs = compose(pc, pc.inj1(n), pc.inj1(m))
                assert lhs == pc.inj1(compose(base, n, m))
    for obj in base.object_ids():
        assert identity(pc, obj) == pc.inj1(identity(base, obj))


@pytest.mark.parametrize("base", [
    free_category(["a", "b"], [("f", "a", "b")]),
    func_category({"a": [vint(0)], "b": [vint(0), vint(1)]}),
], ids=["free", "func"])
def test_pair_completion_objects_are_the_inner_ones(base, monkeypatch):
    pc = pair_completion(base)
    # answered by the inner category's own test, not by listing the objects
    monkeypatch.setattr(pc, "object_ids", None)
    a, z = ObjectId("a"), ObjectId("z")
    assert pc.has_object(a) and pc.has_object(ObjectId("b")) and not pc.has_object(z)
    assert pc.inj2(a, ObjectId("b")).src == a
    for build in (lambda: pc.inj2(a, z), lambda: pc.inj2(z, a), lambda: pc.identity(z)):
        with pytest.raises(UnknownObject) as err:
            build()
        assert str(err.value) == "no object named z"


def test_func_category():
    cat = func_category({"A": [vint(0), vint(1)], "B": [vint(0), vint(1), vint(2)]})
    ms = cat.morphisms()
    # 4 endo A, 9 endo B, 9 A->B, 8 B->A... sizes: |B|^|A| etc.
    assert len(ms) == 4 + 27 + 9 + 8
    f = cat.fn(ObjectId("A"), ObjectId("B"), {vint(0): vint(2), vint(1): vint(0)})
    g = cat.fn(ObjectId("B"), ObjectId("A"),
               {vint(0): vint(1), vint(1): vint(1), vint(2): vint(0)})
    gf = compose(cat, g, f)
    assert gf.word.apply(vint(0)) == vint(0)
    assert gf.word.apply(vint(1)) == vint(1)
    assert_category_laws(cat, cap=2)


def test_pair_object_name_and_pair():
    a, b, c = ObjectId("x || y"), ObjectId("<wei|rd>"), ObjectId(r"back\slash")
    ab = pair_object(a, b)
    # the escaped names, as rendered before product objects kept their pair
    assert ab.name == r"<x \|\| y|\<wei\|rd\>>"
    assert pair_object(ab, c).name == r"<\<x \\\|\\\| y\|\\\<wei\\\|rd\\\>\>|back\\slash>"
    assert ab.pair == (a, b) and pair_object(ab, c).pair == (ab, c)
    # the pair is not part of equality, hashing or repr
    bare = ObjectId(ab.name)
    assert bare == ab and hash(bare) == hash(ab) and repr(bare) == repr(ab)
    left, right = DiscreteCategory((a,)), IndiscreteCategory((b,))
    prod = ProductCategory(left, right)
    assert prod.identity(ab) == prod.tuple_morphism(left.identity(a), right.identity(b))
    assert prod.has_object(ab) and not prod.has_object(bare)
    # a name alone is not decoded
    with pytest.raises(UnknownObject, match="is not a product object"):
        prod.identity(bare)


def test_free_category_contains():
    cat = lock_category()
    free, critical = ObjectId("free"), ObjectId("critical")
    assert all(cat.contains(m) for m in cat.morphisms(4))
    rejected = [
        Morphism(free, critical, WPath(("lock", "spin"))),  # unknown generator
        Morphism(free, critical, WPath(("lock", "lock"))),  # does not chain
        Morphism(critical, free, WPath(("lock",))),  # swapped endpoints
        Morphism(critical, critical, WPath(("lock", "get"))),  # wrong source
        Morphism(free, critical, WPath(("lock", "unlock"))),  # wrong target
        Morphism(free, free, WPath(())),  # empty path
        Morphism(free, free, WElem(0)),  # not a path
        Morphism(free, critical, WIdentity(free)),  # identity across objects
        Morphism(ObjectId("x"), ObjectId("x"), WIdentity(ObjectId("x"))),  # unknown object
    ]
    assert not any(cat.contains(m) for m in rejected)


def test_free_category_law_suite():
    assert_category_laws(lock_category(), cap=3)


# --- compose trusts what a category owns, and checks everything else ---

def _foreign_cases():
    """Per kind: a category, one of its morphisms, and a forged morphism."""
    free, critical = ObjectId("free"), ObjectId("critical")
    a = ObjectId("a")
    A, B = ObjectId("A"), ObjectId("B")
    lock = lock_category()
    func = func_category({"A": [vint(0), vint(1)], "B": [vint(0)]})
    inner = free_category(["a", "b"], [("f", "a", "b")])
    pc = pair_completion(inner)
    nat = monoid_to_category(lambda x, y: x + y, 0, range(3))
    prod = ProductCategory(nat, DiscreteCategory((a,)))
    return {
        # a path whose chain breaks
        "free": (lock, lock.path(["lock", "put"]),
                 Morphism(free, critical, WPath(("lock", "lock")))),
        # a function graph that leaves its target carrier
        "func": (func, func.fn(A, B, {vint(0): vint(0), vint(1): vint(0)}),
                 Morphism(A, B, WFn(((vint(0), vint(0)), (vint(1), vint(5)))))),
        # an in1 whose endpoints differ from its inner morphism's
        "pair_completion": (pc, pc.inj1(inner.path(["f"])),
                            Morphism(a, a, WInj1(inner.path(["f"])))),
        # a tuple over a component the monoid does not have
        "product": (prod, prod.tuple_morphism(nat.elem(2), prod.right.identity(a)),
                    prod.tuple_morphism(Morphism(STAR, STAR, WPath(("x",))),
                                        prod.right.identity(a))),
    }


@pytest.mark.parametrize("kind", ["free", "func", "pair_completion", "product"])
def test_compose_rejects_a_foreign_morphism(kind):
    cat, valid, forged = _foreign_cases()[kind]
    assert cat.kind == kind and cat.contains(valid) and not cat.contains(forged)
    text = f"{forged} is not a morphism of this {kind} category"
    copy = Morphism(valid.src, valid.tgt, valid.word)  # equal, built outside cat
    for verified in (False, True):
        if verified:  # the copy is checked once and then trusted
            assert compose(cat, identity(cat, copy.tgt), copy) == valid
        for g, f in ((forged, identity(cat, forged.src)), (identity(cat, forged.tgt), forged),
                     (forged, forged)):
            with pytest.raises(ForeignMorphism) as err:
                compose(cat, g, f)
            assert str(err.value) == text
    assert compose(cat, valid, identity(cat, valid.src)) == valid


def test_a_distinct_category_checks_again(monkeypatch):
    one, two = lock_category(), lock_category()
    assert one is not two
    lock, put = one.path(["lock"]), one.path(["put"])
    expected = compose(one, put, lock)
    checked = []
    monkeypatch.setattr(two, "contains", lambda m: checked.append(m) or FreeCategory.contains(two, m))
    assert compose(two, put, lock) == expected
    assert checked == [lock, put]
    checked.clear()
    compose(two, put, lock)  # verified once, then owned by two
    assert checked == []
    # a path one built is no path of a category without its generator
    small = free_category(["free", "critical"], [("lock", "free", "critical")])
    with pytest.raises(ForeignMorphism, match="is not a morphism of this free category"):
        compose(small, put, small.path(["lock"]))


def test_composing_owned_morphisms_calls_contains_zero_times(monkeypatch):
    lock = lock_category()
    nat = monoid_to_category(lambda x, y: x + y, 0, range(3))
    disc = DiscreteCategory((ObjectId("a"),))
    cats = [lock, func_category({"A": [vint(0), vint(1)]}), pair_completion(lock), nat,
            ProductCategory(nat, disc)]
    for cat in cats + [disc]:
        monkeypatch.setattr(cat, "contains", lambda m: pytest.fail(f"contains({m})"))
    for cat in cats:
        pool = cat.morphisms(2)
        for f in pool:
            for g in pool:
                if f.tgt == g.src:
                    compose(cat, compose(cat, g, f), identity(cat, f.src))
