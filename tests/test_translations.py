"""Structure translations and their round trips."""

import itertools

import pytest

from cgm.core import GradedComputation, check_laws, gen_unit, mult, unit
from cgm.errors import (
    ConfigError,
    DinaturalityFailure,
    InfeasibleEnd,
    NotBottom,
    NotDiscrete,
    NotIndiscrete,
    WrongShape,
)
from cgm.indexcat import ObjectId, STAR
from cgm.instances import (
    build_instance,
    graded_list_graded_monad,
    graded_list_instance,
    list_monad,
    typed_state_param,
)
from cgm.rng import Rng
from cgm.translations import (
    bottom_unit_genunit,
    catgraded_genunit_to_param,
    catgraded_to_discrete_param,
    check_graded_laws,
    check_param_laws,
    check_plain_laws,
    discrete_param_to_catgraded,
    end_graded_from_param,
    graded_to_catgraded,
    monad_to_catgraded,
    param_to_catgraded_genunit,
    pograded_to_2catgraded,
    roundtrip_param,
)
from cgm.values import VSeq, table, vint, vpair, vseq, vstr


# --- plain monads ---

def test_list_monad_laws_both_sides():
    M = list_monad()
    assert check_plain_laws(M, samples=150).ok()
    T = monad_to_catgraded(M)
    assert check_laws(T, samples=150).ok()


def test_monad_to_catgraded_indices():
    T = monad_to_catgraded(list_monad())
    c = unit(T, STAR, vint(4))
    assert str(c.index) == "id_* : * -> *"
    nested = vseq([vseq([vint(1)]), vseq([vint(2), vint(3)])])
    idm = T.index_cat.identity(STAR)
    out = mult(T, idm, idm, nested)
    assert out.payload == vseq([vint(1), vint(2), vint(3)])


# --- graded monads ---

def test_graded_to_catgraded_forwards():
    G = graded_list_graded_monad()
    T = graded_to_catgraded(G)
    cat = T.index_cat
    out = mult(T, cat.elem(2), cat.elem(3),
               vseq([vseq([vint(1)]), vseq([vint(2)])]))
    assert out.index.word.value == 6
    assert check_laws(T, samples=150).ok()


_LAW_MAP = {
    "gunit.left": "unit.left",
    "gunit.right": "unit.right",
    "gassoc": "assoc",
    "gapprox.identity": "approx.identity",
    "gapprox.vertical": "approx.vertical",
    "gapprox.horizontal": "approx.horizontal",
}


def test_translation_maps_law_failures():
    # every graded-monad diagram corresponds to exactly one diagram of the
    # translated structure; a broken source must break the image too
    broken = graded_list_graded_monad(drop_last=True)
    src_report = check_graded_laws(broken, samples=150)
    dst_report = check_laws(pograded_to_2catgraded(broken), samples=150)
    src_failing = {f.law for f in src_report.failures}
    dst_failing = {f.law for f in dst_report.failures}
    assert src_failing and dst_failing
    for law in src_failing:
        assert _LAW_MAP[law] in dst_failing
    clean = graded_list_graded_monad()
    assert check_graded_laws(clean, samples=150).ok()
    assert check_laws(pograded_to_2catgraded(clean), samples=150).ok()


def test_source_law_witnesses_name_the_embedded_index():
    # a source law is its embedding's diagram, so a witness carries the
    # embedded index: the grade as a morphism of the one-object category
    graded = check_graded_laws(graded_list_graded_monad(drop_last=True), samples=30)
    first = graded.failures[0]
    assert first.law == "gunit.left"
    assert [str(m) for m in first.indices] == ["1 : * -> *"]
    broken = list_monad()
    join = broken.join_fn
    broken.join_fn = lambda p: vseq(join(p).items[:-1])
    plain = check_plain_laws(broken, samples=30)
    assert {f.law for f in plain.failures} == {"munit.left", "munit.right", "massoc"}
    assert all(str(m) == "id_* : * -> *" for f in plain.failures for m in f.indices)


def test_pograded_approximation():
    two = pograded_to_2catgraded(graded_list_graded_monad())
    cat = two.base.index_cat
    from cgm.core import approximate
    c = GradedComputation(cat.elem(2), vseq([vint(1), vint(2)]))
    assert approximate(two, cat.elem(2), cat.elem(5), c).index.word.value == 5
    assert approximate(two, cat.elem(2), cat.elem(2), c) == c
    assert check_laws(two, samples=150).ok()


def test_pograded_requires_order():
    G = graded_list_graded_monad()
    G.leq = None
    with pytest.raises(NotBottom):
        pograded_to_2catgraded(G)


# --- discrete parameterised monads ---

def test_discrete_param_to_catgraded():
    P = typed_state_param({"A": 2, "B": 2}, discrete=True)
    T = discrete_param_to_catgraded(P)
    cat = T.index_cat
    ab = cat.pair(ObjectId("A"), ObjectId("B"))
    bb = cat.pair(ObjectId("B"), ObjectId("B"))
    nested = P.value_map_fn(
        ObjectId("A"), ObjectId("B"),
        lambda a: P.sampler(ObjectId("B"), ObjectId("B"), Rng(1)),
        P.sampler(ObjectId("A"), ObjectId("B"), Rng(0)))
    out = mult(T, ab, bb, nested)
    assert out.index == cat.pair(ObjectId("A"), ObjectId("B"))
    assert check_laws(T, samples=120).ok()


def test_discrete_param_requires_degenerate_mapping():
    P = typed_state_param({"A": 2}, discrete=False)
    with pytest.raises(NotDiscrete):
        discrete_param_to_catgraded(P)


def test_discrete_param_roundtrip_identity():
    P = typed_state_param({"A": 2, "B": 3}, discrete=True)
    T = discrete_param_to_catgraded(P)
    Q = catgraded_to_discrete_param(T)
    objs = [ObjectId("A"), ObjectId("B")]
    for i in objs:
        for a in (vint(0), vint(7)):
            assert Q.eta_fn(i, a) == P.eta_fn(i, a)
    for n, (i, j, k) in enumerate(itertools.product(objs, objs, objs)):
        rng = Rng(n)
        outer = P.sampler(i, j, rng.fork(0))
        inner = P.sampler(j, k, rng.fork(1))
        nested = P.value_map_fn(i, j, lambda _a: inner, outer)
        assert Q.mu_fn(i, j, k, nested) == P.mu_fn(i, j, k, nested)
        p = P.sampler(i, j, rng.fork(2))
        fn = lambda v: vpair(v, v)
        assert Q.value_map_fn(i, j, fn, p) == P.value_map_fn(i, j, fn, p)
        assert Q.validator(i, j, p) == P.validator(i, j, p)


def test_catgraded_to_discrete_param_rejects_other_shapes():
    with pytest.raises(NotIndiscrete):
        catgraded_to_discrete_param(monad_to_catgraded(list_monad()))


# --- full parameterised monads ---

def test_param_laws_clean():
    P = typed_state_param({"A": 2, "B": 2})
    assert check_param_laws(P, samples=150).ok()


def test_two_geneta_definitions_agree_sizes_1_2_3():
    for sets in ({"A": 1}, {"A": 2, "B": 2}, {"A": 3, "B": 2}):
        P = typed_state_param(sets)
        inner = P.index_cat
        comp_T, G = param_to_catgraded_genunit(P)  # raises on disagreement
        comp = comp_T.index_cat
        for f in inner.morphisms():
            m = comp.inj1(f)
            for a in (vint(0), vint(3)):
                lhs = G.geneta_fn(m, a)
                rhs = P.morph_map_fn(f, inner.identity(f.tgt), lambda v: v,
                                     P.eta_fn(f.tgt, a))
                assert lhs == rhs


def test_param_forward_payloads_and_laws():
    P = typed_state_param({"A": 2, "B": 3})
    T, G = param_to_catgraded_genunit(P)
    comp = T.index_cat
    # formal-pair morphisms carry exactly the (I, J) tables
    p = P.sampler(ObjectId("A"), ObjectId("B"), Rng(0))
    assert T.validator(comp.inj2(ObjectId("A"), ObjectId("B")), p)
    assert not T.validator(comp.inj2(ObjectId("B"), ObjectId("A")), p)
    assert check_laws(T, samples=120).ok()
    assert check_laws(G, samples=120).ok()


def _broken_typed_state():
    """Mutant whose morphism mapping ignores the post-composition side."""
    P = typed_state_param({"A": 2, "B": 2})
    good = P.morph_map_fn

    def bad(f, g, h, payload):
        return good(f, P.index_cat.identity(g.src), h, payload)

    P.morph_map_fn = bad
    return P


def test_dinaturality_failure_detected():
    with pytest.raises(DinaturalityFailure):
        param_to_catgraded_genunit(_broken_typed_state())


def test_roundtrip_reports_broken_source():
    report = roundtrip_param(_broken_typed_state())
    assert not report.ok()
    assert report.failures[0].law == "roundtrip.build"


@pytest.mark.parametrize("call", [
    lambda: build_instance("ahl").law_report(samples=0),
    lambda: roundtrip_param(typed_state_param({"A": 2}), samples=0),
    lambda: roundtrip_param(typed_state_param({"A": 2}), samples=-3),
    lambda: roundtrip_param(_broken_typed_state(), samples=0),
], ids=["law_report-0", "roundtrip-0", "roundtrip-negative", "roundtrip-broken-0"])
def test_law_entry_points_refuse_sample_counts_below_1(call):
    with pytest.raises(ConfigError, match="samples must be at least 1"):
        call()


def test_roundtrip_param_sizes():
    for sets in ({"A": 1}, {"A": 2, "B": 2}, {"A": 3, "B": 2}):
        report = roundtrip_param(typed_state_param(sets), samples=40)
        assert report.ok(), report.render_text()


def test_backward_construction_shape_checks():
    P = typed_state_param({"A": 2})
    T, G = param_to_catgraded_genunit(P)
    with pytest.raises(WrongShape):
        catgraded_genunit_to_param(monad_to_catgraded(list_monad()), G)


def test_backward_morph_map_bifunctorial_exhaustive():
    P = typed_state_param({"A": 2, "B": 2})
    T, G = param_to_catgraded_genunit(P)
    Q = catgraded_genunit_to_param(T, G)
    cat = P.index_cat
    morphs = cat.morphisms()
    h1 = lambda v: vpair(v, vint(1))
    h2 = lambda v: vint(0) if isinstance(v, VSeq) else vseq([v])
    comp_pairs = [(f, f2) for f in morphs for f2 in morphs if f.tgt == f2.src]
    rng = Rng(7)
    payloads = {}
    for (i, j) in itertools.product(cat.object_ids(), repeat=2):
        payloads[(i, j)] = P.sampler(i, j, rng.fork(i.name, j.name))
    checked = 0
    for f, f2 in comp_pairs:
        for g, g2 in comp_pairs:
            p = payloads[(f2.tgt, g.src)]
            lhs = Q.morph_map_fn(cat.compose(f2, f), cat.compose(g2, g),
                                 lambda v: h2(h1(v)), p)
            rhs = Q.morph_map_fn(f, g2, h2, Q.morph_map_fn(f2, g, h1, p))
            assert lhs == rhs, (f, f2, g, g2)
            checked += 1
    assert checked == len(comp_pairs) ** 2


def test_backward_morph_map_identity_exhaustive():
    P = typed_state_param({"A": 2, "B": 2})
    T, G = param_to_catgraded_genunit(P)
    Q = catgraded_genunit_to_param(T, G)
    cat = P.index_cat
    alphabet = (vint(0), vint(1))
    for i in cat.object_ids():
        for j in cat.object_ids():
            cells = [vpair(a, s2) for a in alphabet for s2 in cat.carrier(j)]
            for combo in itertools.product(cells, repeat=len(cat.carrier(i))):
                p = table(dict(zip(cat.carrier(i), combo)))
                assert Q.morph_map_fn(cat.identity(i), cat.identity(j),
                                      lambda v: v, p) == p


# --- bottom units ---

def test_bottom_unit_from_additive_monoid():
    from cgm.translations import GradedMonad

    def mk(leq):
        return GradedMonad(
            name="counter",
            op=lambda a, b: a + b,
            unit_elem=0,
            sample=(0, 1, 2, 3),
            unit_fn=lambda a: vseq([a]),
            mult_fn=lambda m, n, p: vseq(x for q in p.items for x in q.items),
            map_fn=lambda m, fn, p: vseq(fn(v) for v in p.items),
            validator=lambda m, p: isinstance(p, VSeq),
            sampler=lambda m, rng: vseq(vint(rng.randint(0, 5))
                                        for _ in range(rng.randint(0, 2))),
            approx_fn=lambda m, n, p: p,
            leq=leq,
        )

    two = pograded_to_2catgraded(mk(lambda m, n: m <= n))
    G = bottom_unit_genunit(two)
    c = gen_unit(G, two.base.index_cat.elem(3), vint(5))
    assert c.payload == vseq([vint(5)])
    assert check_laws(G, samples=100).ok()
    # reversed order: 0 is no longer the bottom
    reversed_two = pograded_to_2catgraded(mk(lambda m, n: m >= n))
    with pytest.raises(NotBottom):
        bottom_unit_genunit(reversed_two)


def test_bottom_unit_glist():
    two = graded_list_instance()
    G = bottom_unit_genunit(two)
    cat = two.base.index_cat
    assert gen_unit(G, cat.elem(1), vint(9)) == unit(two.base, STAR, vint(9))
    assert gen_unit(G, cat.elem(3), vint(5)).payload == vseq([vint(5)])


# --- end construction ---

Z2 = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}


def test_end_requires_discrete():
    P = typed_state_param({"e": 2, "a": 2})
    with pytest.raises(InfeasibleEnd):
        end_graded_from_param(P, Z2, "e")


def test_end_trivial_monoid_is_component():
    P = typed_state_param({"e": 2}, discrete=True)
    G = end_graded_from_param(P, {("e", "e"): "e"}, "e")
    fam = G.unit_fn(vint(3))
    assert fam == table({vstr("e"): P.eta_fn(ObjectId("e"), vint(3))})


def test_end_discrete_equals_plain_product():
    # with a discrete index there are no compatibility conditions: every
    # product of componentwise-valid payloads is a valid family
    P = typed_state_param({"e": 2, "a": 2}, discrete=True)
    G = end_graded_from_param(P, Z2, "e")
    comp_e = [P.sampler(ObjectId("e"), ObjectId("a"), Rng(i)) for i in range(3)]
    comp_a = [P.sampler(ObjectId("a"), ObjectId("e"), Rng(i + 10)) for i in range(3)]
    for ce in comp_e:
        for ca in comp_a:
            fam = table({vstr("e"): ce, vstr("a"): ca})
            assert G.validator("a", fam)
    # and a family missing a component is rejected
    assert not G.validator("a", table({vstr("e"): comp_e[0]}))


def test_end_graded_laws_exhaustive_grades():
    P = typed_state_param({"e": 2, "a": 2}, discrete=True)
    G = end_graded_from_param(P, Z2, "e")
    report = check_graded_laws(G, samples=200, seed=0)
    assert report.ok(), report.render_text()
