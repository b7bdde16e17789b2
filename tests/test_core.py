"""Monad interface operations and the law harness."""

import copy
import re

import pytest

from cgm.core import (
    GradedComputation,
    Runner,
    approximate,
    bind,
    check_laws,
    fmap,
    gen_unit,
    mult,
    unit,
)
from cgm.errors import (
    CompositionMismatch,
    InconsistentContinuationIndex,
    MalformedPayload,
    NoTwoCell,
    NotInSubcategory,
    UnknownObject,
)
from cgm.indexcat import Morphism, ObjectId, STAR
from cgm.instances import (
    ahl_instance,
    broken_graded_list_instance,
    build_instance,
    graded_list_instance,
    identity_instance,
    list_sort_homomorphism,
    lock_category,
)
from cgm.translations import bottom_unit_genunit
from cgm.values import vint, vseq


@pytest.fixture(scope="module")
def glist():
    return graded_list_instance()


@pytest.fixture(scope="module")
def ident():
    return identity_instance(lock_category())


def test_unit_graded_list(glist):
    c = unit(glist.base, STAR, vint(5))
    assert c.index.word.value == 1
    assert c.payload == vseq([vint(5)])


def test_unit_identity_instance(ident):
    c = unit(ident, ObjectId("free"), vint(7))
    assert c.payload == vint(7)


def test_unit_unknown_object(ident):
    with pytest.raises(UnknownObject):
        unit(ident, ObjectId("nowhere"), vint(0))


def test_mult_graded_list(glist):
    T = glist.base
    cat = T.index_cat
    nested = vseq([vseq([vint(1), vint(2), vint(3)]), vseq([vint(4)])])
    c = mult(T, cat.elem(2), cat.elem(3), nested)
    assert c.index.word.value == 6
    assert c.payload == vseq([vint(1), vint(2), vint(3), vint(4)])


def test_mult_unit_unit_collapses(glist):
    T = glist.base
    cat = T.index_cat
    one = cat.elem(1)
    inner = unit(T, STAR, vint(9))
    outer = unit(T, STAR, inner.payload)
    c = mult(T, one, one, outer.payload)
    assert c == unit(T, STAR, vint(9))


def test_mult_invalid_payload(glist):
    T = glist.base
    cat = T.index_cat
    too_long = vseq([vseq([]), vseq([]), vseq([])])
    with pytest.raises(MalformedPayload):
        mult(T, cat.elem(2), cat.elem(1), too_long)


def test_fmap_examples(glist):
    T = glist.base
    two = T.index_cat.elem(2)
    p = vseq([vint(1), vint(2)])
    assert fmap(T, two, lambda v: vint(v.n + 1), p) == vseq([vint(2), vint(3)])
    assert fmap(T, two, lambda v: v, p) == p


def test_bind_left_and_right_unit(glist):
    T = glist.base
    cat = T.index_cat
    two = cat.elem(2)

    def k(a):
        return GradedComputation(two, vseq([a, a]))

    c = unit(T, STAR, vint(3))
    assert bind(T, c, k) == k(vint(3))
    d = GradedComputation(two, vseq([vint(1), vint(2)]))
    assert bind(T, d, lambda a: unit(T, STAR, a)) == d


def test_bind_inconsistent_continuation(glist):
    T = glist.base
    cat = T.index_cat
    d = GradedComputation(cat.elem(2), vseq([vint(1), vint(2)]))

    def k(a):
        return GradedComputation(cat.elem(a.n), vseq([a]))

    with pytest.raises(InconsistentContinuationIndex):
        bind(T, d, k)


def test_bind_empty_needs_index(glist):
    T = glist.base
    cat = T.index_cat
    d = GradedComputation(cat.elem(2), vseq([]))
    with pytest.raises(InconsistentContinuationIndex):
        bind(T, d, lambda a: unit(T, STAR, a))
    out = bind(T, d, lambda a: unit(T, STAR, a), cont_index=cat.elem(1))
    assert out.payload == vseq([])
    assert out.index.word.value == 2


def test_bind_lock_chain():
    bundle = build_instance("concst")
    T = bundle.monad
    from cgm.instances import LockPrims
    lp = LockPrims(T)
    c = lp.lock()
    c = bind(T, c, lambda _: lp.get())
    c = bind(T, c, lambda x: lp.put(vint(x.n + 1)))
    c = bind(T, c, lambda _: lp.unlock())
    assert str(c.index) == "lock;get;put;unlock : free -> free"


def test_approximate(glist):
    cat = glist.base.index_cat
    c = GradedComputation(cat.elem(2), vseq([vint(1), vint(2)]))
    widened = approximate(glist, cat.elem(2), cat.elem(5), c)
    assert widened.index.word.value == 5
    assert widened.payload == c.payload
    assert approximate(glist, cat.elem(2), cat.elem(2), c) == c
    with pytest.raises(NoTwoCell):
        approximate(glist, cat.elem(5), cat.elem(2),
                    GradedComputation(cat.elem(5), vseq([])))


def test_gen_unit_identity_coincides(glist):
    G = bottom_unit_genunit(glist)
    cat = glist.base.index_cat
    idm = cat.identity(STAR)
    assert gen_unit(G, idm, vint(4)) == unit(glist.base, STAR, vint(4))
    # bottom unit: singleton viewed at any grade
    c = gen_unit(G, cat.elem(3), vint(5))
    assert c.payload == vseq([vint(5)]) and c.index.word.value == 3


def test_gen_unit_outside_subcategory():
    inst = ahl_instance()
    G = inst.genunit
    from fractions import Fraction
    from cgm.formulas import TRUE
    m = inst.make_index(Fraction(1, 10), TRUE, TRUE)
    with pytest.raises(NotInSubcategory):
        gen_unit(G, m, vint(0))


def test_check_laws_identity_clean(ident):
    report = check_laws(ident, samples=200, seed=0)
    assert report.ok()
    assert report.checks_run > 0


def test_check_laws_glist_clean(glist):
    report = check_laws(glist, samples=200, seed=0)
    assert report.ok()


def test_check_laws_mutant_has_witness():
    report = check_laws(broken_graded_list_instance(), samples=200, seed=0)
    assert not report.ok()
    f = report.failures[0]
    assert f.law in ("unit.left", "unit.right", "assoc", "naturality.mult",
                     "bind.right_unit", "bind.left_unit", "bind.assoc",
                     "approx.horizontal")
    assert f.lhs is not None and f.rhs is not None and f.lhs != f.rhs


def _raising_mult(f, g, nested):
    raise MalformedPayload(f"no multiplication at ({f}) then ({g})")


def test_exception_witnesses_list_morphisms_not_pool_data(ident):
    # every law that multiplies fails on the exception path; naturality.mult
    # draws ((f, g), position) data, assoc flat (f, g, h) triples
    mutant = copy.copy(ident)
    mutant.mult_fn = _raising_mult
    report = check_laws(mutant, samples=6, seed=0)
    first = {}
    for f in report.failures:
        assert f.indices and all(isinstance(m, Morphism) for m in f.indices), f.indices
        first.setdefault(f.law, f)
    assert len(first["naturality.mult"].indices) == 2
    assert len(first["assoc"].indices) == 3
    text, machine = report.render_text(), report.render_machine()
    for out in (text, machine):
        assert "Morphism(" not in out and "ObjectId(" not in out
    assert not re.search(r"^  index\[\d+\]: \d+$", text, re.M), text
    assert "FAIL naturality.mult\n  index[0]: get : critical -> critical\n" \
           "  index[1]: get;get : critical -> critical\n" in text
    for line in machine.splitlines():
        if ".indices=" in line:
            parts = line.split("=", 1)[1].split("; ")
            assert not any(p.isdigit() for p in parts), line


def test_runner_draws_pools_lazily(ident):
    f = ident.index_cat.identity(ObjectId("free"))
    g = ident.index_cat.identity(ObjectId("critical"))
    advanced = []

    def unbounded():
        while True:
            advanced.append(f)
            yield f

    drawn = []

    def body(m, rng):
        drawn.append(m)
        return (m,), vint(0), vint(0), vint(0)

    r = Runner(samples=7, seed=0)
    r.law("unbounded", unbounded(), body)
    assert drawn == [f] * 7 and len(advanced) <= 7
    drawn.clear()
    r.law("short", (m for m in (f, g)), body)
    assert drawn == [f, g, f, g, f, g, f]
    r.law("x", (m for m in ()), body)
    assert r.report().render_text().splitlines() == [
        "law unbounded: 7/7", "law short: 7/7", "law x: 0/0", "failures: 0"]


def test_check_laws_deterministic(glist):
    a = check_laws(glist, samples=60, seed=42).render_text()
    b = check_laws(glist, samples=60, seed=42).render_text()
    assert a == b


def test_homomorphism_laws():
    H = list_sort_homomorphism()
    report = check_laws(H, samples=150, seed=1)
    assert report.ok(), report.render_text()


def test_report_render_machine(glist):
    report = check_laws(glist, samples=10, seed=0)
    text = report.render_machine()
    assert "status=ok" in text
    assert "law.assoc.run=10" in text


def test_composition_mismatch_in_mult():
    bundle = build_instance("concst")
    T = bundle.monad
    cat = T.index_cat
    lock = cat.path(["lock"])
    with pytest.raises(CompositionMismatch):
        mult(T, lock, lock, T.unit_fn(ObjectId("free"), vint(0)))
