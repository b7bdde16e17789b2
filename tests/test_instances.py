"""Built-in instances: lock protocol, typed state, probabilistic triples."""

import gc
import itertools
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cgm.core import (
    GradedComputation, _composable_pairs, _composable_triples, _nested2, _nested3,
    bind, check_laws, fmap, gen_unit, index_pool, mult, unit,
)
from cgm.errors import (
    CompositionMismatch,
    DomainMismatch,
    InvalidImplication,
    InvalidValue,
    MalformedPayload,
    RangeError,
    SpawnGradeError,
)
from cgm.formulas import EBin, EInt, EVar, FAnd, FCmp, FNot, TRUE, VarDecl, eval_formula
from cgm.indexcat import DiscreteCategory, ObjectId
from cgm.instances.typedstate import state_passing
from cgm.instances import (
    LockPrims,
    ahl_instance,
    broken_ahl_instance,
    build_instance,
    concst_instance,
    constructive_param,
    run_table,
    tstate_read,
    tstate_store,
    typed_state_param,
)
from cgm.rng import Rng
from cgm.values import (
    VDist, VPair, VTable, _lowest,
    dist, dist_bind, ordered_table, point, table, uniform, unit as vunit, vint, vpair, vseq,
    vstr, vtag,
)


# --- lock protocol ---

def lock_bundle(n=64):
    return concst_instance(tuple(vint(i) for i in range(n)))


def reference_lock_machine(prims, store):
    """Oracle: replay a primitive list over a plain (env-free) machine.

    Returns the final integer store, or None when a write escapes the
    domain mid-run (matching a dropped table branch).
    """
    s = store
    for op in prims:
        if op[0] == "get":
            pass
        elif op[0] == "put":
            s = op[1](s)
        # lock/unlock leave the store alone
    return s


def test_lock_program_counts_up():
    T = lock_bundle()
    lp = LockPrims(T)
    c = lp.lock()
    c = bind(T, c, lambda _: lp.get())
    c = bind(T, c, lambda x: lp.put(vint(x.n + 1)))
    c = bind(T, c, lambda _: lp.unlock())
    assert str(c.index) == "lock;get;put;unlock : free -> free"
    result, final = run_table(c, vint(41))
    assert final == vint(42) and result == vunit


def test_lock_state_threading_oracle():
    T = lock_bundle(16)
    lp = LockPrims(T)
    # several well-graded programs as (prims for the oracle, computation)
    programs = [
        ([("lock",), ("put", lambda s: 7), ("unlock",)],
         bind(T, bind(T, lp.lock(), lambda _: lp.put(vint(7))), lambda _: lp.unlock())),
        ([("lock",), ("get",), ("put", lambda s: (s * 2) % 16), ("unlock",)],
         bind(T, bind(T, bind(T, lp.lock(), lambda _: lp.get()),
                      lambda x: lp.put(vint((x.n * 2) % 16))), lambda _: lp.unlock())),
        ([("lock",), ("get",), ("put", lambda s: s + 1), ("get",), ("unlock",)],
         bind(T, bind(T, bind(T, bind(T, lp.lock(), lambda _: lp.get()),
                              lambda x: lp.put(vint(x.n + 1))),
                      lambda _: lp.get()), lambda _: lp.unlock())),
    ]
    for prims, comp in programs:
        for s0 in range(16):
            expected = reference_lock_machine(prims, s0)
            if 0 <= expected < 16:
                _, final = run_table(comp, vint(s0))
                assert final == vint(expected), (prims, s0)
            else:
                assert not comp.payload.has(vint(s0))


def test_get_before_lock_rejected():
    T = lock_bundle(4)
    lp = LockPrims(T)
    with pytest.raises(CompositionMismatch):
        bind(T, lp.get(), lambda _: lp.lock())


def test_spawn_grade_restriction():
    T = lock_bundle(4)
    lp = LockPrims(T)
    critical_body = lp.get()
    with pytest.raises(SpawnGradeError):
        lp.spawn(critical_body)
    whole = bind(T, bind(T, lp.lock(), lambda _: lp.put(vint(3))),
                 lambda _: lp.unlock())
    spawned = lp.spawn(whole)
    assert str(spawned.index) == "id_free : free -> free"
    _, final = run_table(spawned, vint(0))
    assert final == vint(3)


def test_concst_laws_clean():
    report = check_laws(concst_instance(), samples=120, seed=3)
    assert report.ok(), report.render_text()


def test_concst_mult_reads_each_branch_by_its_store():
    # carried tables that are total, partial (a branch dropped earlier) or
    # keyed outside the domain: a branch takes the entry keyed by its
    # store, and is dropped when there is none
    T = concst_instance()
    step = lambda n: vpair(vunit, vint(n))
    total = table({vint(k): step(10 + k) for k in range(8)})
    partial = table({vint(k): step(20 + k) for k in (0, 2, 3)})
    foreign = table({vint(k): step(30 + k) for k in (5, 99)})
    carried = [(total, 5), (partial, 1), (partial, 2), (partial, 3), (foreign, 99),
               (foreign, 7), (total, 99), (total, 0)]
    nested = table({vint(s): vpair(t, vint(n)) for s, (t, n) in enumerate(carried)})
    get = T.index_cat.path(["get"])
    assert T.mult_fn(get, get, nested) == table(
        {vint(0): step(15), vint(2): step(22), vint(3): step(23), vint(4): step(129),
         vint(7): step(10)})
    # tstate's tables are total: a carried table that lacks the state is
    # malformed, not a dropped branch
    P = typed_state_param({"S": 8})
    S = ObjectId("S")
    with pytest.raises(MalformedPayload, match="table has no entry for 1"):
        P.mu_fn(S, S, S, nested)


def _concst_ops():
    """(unit, map, mult) of concst at the identity on free."""
    T = concst_instance((vint(0), vint(1)))
    free = T.index_cat.identity(ObjectId("free"))
    return (lambda a: T.unit_fn(free.src, a), lambda fn, p: T.map_fn(free, fn, p),
            lambda p: T.mult_fn(free, free, p))


def _tstate_ops():
    """(unit, map, mult) of tstate at (S, S)."""
    P = typed_state_param({"S": 2})
    S = ObjectId("S")
    return (lambda a: P.eta_fn(S, a), lambda fn, p: P.value_map_fn(S, S, fn, p),
            lambda p: P.mu_fn(S, S, S, p))


@pytest.mark.parametrize("ops", [_concst_ops, _tstate_ops], ids=["concst", "tstate"])
def test_state_step_must_be_a_pair(ops):
    unit_fn, map_fn, mult_fn = ops()
    not_a_step = table({vint(0): vint(3), vint(1): vint(4)})
    for op in (lambda: map_fn(lambda v: v, not_a_step), lambda: mult_fn(not_a_step)):
        with pytest.raises(MalformedPayload, match=r"^state step must be a \(result, store\) pair$"):
            op()
    # a pair step carrying a non-table is caught after the pair check
    with pytest.raises(MalformedPayload, match="carried value must be a state table"):
        mult_fn(unit_fn(vint(5)))


# --- typed state ---

def test_typed_state_eta_table():
    P = typed_state_param({"S": 2})
    got = P.eta_fn(ObjectId("S"), vint(7))
    assert got == table({vint(0): vpair(vint(7), vint(0)),
                         vint(1): vpair(vint(7), vint(1))})


def test_typed_state_read_store():
    P = typed_state_param({"S": 2})
    assert tstate_read(P, "S") == table({vint(0): vpair(vint(0), vint(0)),
                                         vint(1): vpair(vint(1), vint(1))})
    st = tstate_store(P, "S", "S", vint(1))
    assert st == table({vint(0): vpair(vunit, vint(1)),
                        vint(1): vpair(vunit, vint(1))})
    with pytest.raises(DomainMismatch):
        tstate_store(P, "S", "S", vint(9))


def test_typed_state_validator_domains():
    P = typed_state_param({"A": 2, "B": 3})
    good = P.sampler(ObjectId("A"), ObjectId("B"), Rng(0))
    assert P.validator(ObjectId("A"), ObjectId("B"), good)
    bad = table({vint(0): vpair(vint(1), vint(0))})  # missing key 1
    assert not P.validator(ObjectId("A"), ObjectId("B"), bad)
    escaped = table({vint(0): vpair(vint(1), vint(0)), vint(1): vpair(vint(1), vint(3))})
    assert not P.validator(ObjectId("A"), ObjectId("B"), escaped)  # 3 is outside B
    # the lock instance's tables are partial: both are valid there
    T = concst_instance((vint(0), vint(1), vint(2)))
    get = T.index_cat.path(["get"])
    assert T.validator(get, bad) and T.validator(get, escaped)


def _enumerate_tables(src_vals, tgt_vals, alphabet):
    cells = [vpair(a, s2) for a in alphabet for s2 in tgt_vals]
    for combo in itertools.product(cells, repeat=len(src_vals)):
        yield table(dict(zip(src_vals, combo)))


def test_dinaturality_unit_square_exhaustive():
    # eta weakened by f equals eta at the target strengthened by f,
    # for every function f between every pair of state sets up to size 3
    P = typed_state_param({"A": 3, "B": 2})
    cat = P.index_cat
    for f in cat.morphisms():
        i, j = f.src, f.tgt
        for a in (vint(0), vint(5)):
            lhs = P.morph_map_fn(cat.identity(i), f, lambda v: v, P.eta_fn(i, a))
            rhs = P.morph_map_fn(f, cat.identity(j), lambda v: v, P.eta_fn(j, a))
            assert lhs == rhs, (f, a)


def test_dinaturality_mu_square_exhaustive_size2():
    P = typed_state_param({"A": 2, "B": 2})
    cat = P.index_cat
    alphabet = (vint(0), vint(1))
    objs = cat.object_ids()
    vals = {o: cat.carrier(o) for o in objs}
    for g in cat.morphisms():
        j, j2 = g.src, g.tgt
        for i in objs:
            for k in objs:
                inners = list(_enumerate_tables(vals[j2], vals[k], alphabet))
                idi, idk = cat.identity(i), cat.identity(k)
                # enumerate outer tables carrying inner payloads
                cells = [vpair(inner, sj) for inner in inners[:6] for sj in vals[j]]
                for combo in itertools.product(cells, repeat=len(vals[i])):
                    nested = table(dict(zip(vals[i], combo)))
                    lhs = P.mu_fn(i, j2, k, P.morph_map_fn(idi, g, lambda v: v, nested))
                    rhs = P.mu_fn(i, j, k, P.value_map_fn(
                        i, j, lambda q: P.morph_map_fn(g, idk, lambda v: v, q), nested))
                    assert lhs == rhs, (g, i, k)


def test_dinaturality_mu_square_size3_sampled():
    P = typed_state_param({"A": 3, "B": 2})
    cat = P.index_cat
    objs = cat.object_ids()
    for g in cat.morphisms():
        j, j2 = g.src, g.tgt
        for n, (i, k) in enumerate(itertools.product(objs, objs)):
            rng = Rng(n)
            outer = P.sampler(i, j, rng.fork(0))
            base = P.sampler(j2, k, rng.fork(1))
            nested = P.value_map_fn(
                i, j, lambda a: P.value_map_fn(j2, k, lambda b: vpair(a, b), base),
                outer)
            idi, idk = cat.identity(i), cat.identity(k)
            lhs = P.mu_fn(i, j2, k, P.morph_map_fn(idi, g, lambda v: v, nested))
            rhs = P.mu_fn(i, j, k, P.value_map_fn(
                i, j, lambda q: P.morph_map_fn(g, idk, lambda v: v, q), nested))
            assert lhs == rhs


def test_constructive_restriction():
    P = typed_state_param({"A": 2, "B": 2})
    T, G = constructive_param(P)
    report = check_laws(T, samples=100, seed=5).merge(
        check_laws(G, samples=100, seed=5))
    assert report.ok(), report.render_text()
    # generalised unit at an identity equals the plain unit
    idm = T.index_cat.identity(ObjectId("A"))
    assert gen_unit(G, idm, vint(3)) == unit(T, ObjectId("A"), vint(3))


def test_constructive_discrete_blocks_cross_state():
    # with only identities available, no computation can be indexed A -> B
    P = typed_state_param({"A": 2, "B": 2})
    C = DiscreteCategory((ObjectId("A"), ObjectId("B")))
    T, _G = constructive_param(P, C)
    ida = T.index_cat.identity(ObjectId("A"))
    idb = T.index_cat.identity(ObjectId("B"))
    with pytest.raises(CompositionMismatch):
        T.index_cat.compose(idb, ida)


def test_constructive_objects_must_match():
    P = typed_state_param({"A": 2, "B": 2})
    with pytest.raises(DomainMismatch):
        constructive_param(P, DiscreteCategory((ObjectId("A"),)))


def _concst_endpoint_case():
    """concst, two free -> free paths, and a path into and one out of free."""
    T = concst_instance((vint(0), vint(1), vint(2)))
    path = T.index_cat.path
    return (T, path(["lock", "unlock"]), path(["lock", "put", "unlock"]),
            path(["unlock"]), path(["lock"]))


def _tstate_endpoint_case():
    """Constructive tstate, two A -> B functions, and one B -> A function."""
    T, _G = constructive_param(typed_state_param({"A": 2, "B": 2}))
    A, B = ObjectId("A"), ObjectId("B")
    morphs = T.index_cat.morphisms()
    f1, f2 = [m for m in morphs if (m.src, m.tgt) == (A, B)][:2]
    back = next(m for m in morphs if (m.src, m.tgt) == (B, A))
    return T, f1, f2, back, back


@pytest.mark.parametrize("case", [_concst_endpoint_case, _tstate_endpoint_case],
                         ids=["concst", "tstate"])
def test_payload_functions_read_only_endpoints(case):
    # an instance graded through `param_over` cannot tell apart two
    # morphisms with the same endpoints; an endpoint quotient of the law
    # data relies on this
    T, f1, f2, before, after = case()
    assert f1 != f2 and (f1.src, f1.tgt) == (f2.src, f2.tgt)
    assert before.tgt == f1.src and after.src == f1.tgt
    p = T.sampler(f1, Rng(7))
    assert T.sampler(f2, Rng(7)) == p
    keys = p.keys()
    candidates = (p, vint(0), table({keys[0]: vint(1)}),
                  table({k: vpair(vint(0), k) for k in keys[:1]}),
                  table({k: vpair(vint(0), vint(9)) for k in keys}))
    assert T.validator(f1, p)
    assert [T.validator(f1, q) for q in candidates] == [T.validator(f2, q) for q in candidates]
    fn = lambda a: vpair(a, vint(a.n + 1))
    assert T.map_fn(f1, fn, p) == T.map_fn(f2, fn, p)
    # f as the outer grade of a nested payload, then as the inner one
    inners = [T.sampler(after, Rng(n)) for n in range(10)]
    nested = T.map_fn(f1, lambda a: inners[a.n], p)
    assert T.mult_fn(f1, after, nested) == T.mult_fn(f2, after, nested)
    outer = T.map_fn(before, lambda _a: p, T.sampler(before, Rng(8)))
    assert T.mult_fn(before, f1, outer) == T.mult_fn(before, f2, outer)


# --- probabilistic triples ---

def state_dict(v):
    """An ahl state table as a dict from variable names to integers."""
    return {k.s: x.n for k, x in v.entries}


def test_ahl_unit_is_point_distribution():
    inst = ahl_instance()
    idx = inst.make_index(0, TRUE, TRUE)
    c = unit(inst.monad.base, idx.src, vint(5))
    for sv, d in c.payload.entries:
        assert d == point(vpair(sv, vint(5)))


def test_ahl_index_composition_saturates():
    inst = ahl_instance()
    a = FCmp("!=", EVar("x"), EInt(0))
    f = inst.make_index(Fraction(7, 10), TRUE, a)
    g = inst.make_index(Fraction(5, 10), a, TRUE)
    gf = inst.cat.compose(g, f)
    assert inst.beta_of(gf) == Fraction(1)
    assert gf.src == f.src and gf.tgt == g.tgt
    # non-saturating case adds exactly
    f2 = inst.make_index(Fraction(1, 10), TRUE, a)
    g2 = inst.make_index(Fraction(1, 10), a, TRUE)
    assert inst.beta_of(inst.cat.compose(g2, f2)) == Fraction(2, 10)


def test_ahl_uniform_validity_bounds():
    inst = ahl_instance((VarDecl("x", 0, 9),))
    nonzero = FCmp("!=", EVar("x"), EInt(0))
    payload = inst.sample_uniform("x", 0, 9)
    assert inst.failure_prob(payload, TRUE, nonzero) == Fraction(1, 10)
    ok_idx = inst.make_index(Fraction(1, 10), TRUE, nonzero)
    bad_idx = inst.make_index(Fraction(1, 20), TRUE, nonzero)
    assert inst.monad.base.validator(ok_idx, payload)
    assert not inst.monad.base.validator(bad_idx, payload)


def test_ahl_index_composition_associative_with_saturation():
    inst = ahl_instance()
    a = FCmp("!=", EVar("x"), EInt(0))
    b = FCmp("<=", EVar("x"), EInt(1))
    for b1, b2, b3 in ((Fraction(7, 10), Fraction(5, 10), Fraction(1, 10)),
                       (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)),
                       (Fraction(1), Fraction(1), Fraction(1))):
        f = inst.make_index(b1, TRUE, a)
        g = inst.make_index(b2, a, b)
        h = inst.make_index(b3, b, TRUE)
        lhs = inst.cat.compose(h, inst.cat.compose(g, f))
        rhs = inst.cat.compose(inst.cat.compose(h, g), f)
        assert lhs == rhs


def test_ahl_two_cells_monotone_under_composition():
    inst = ahl_instance()
    two = inst.monad.index_cat2
    pool = inst.monad.base.index_samples
    cells = [(f, g) for f in pool for g in pool if two.leq(f, g)]
    for f1, f2 in cells:
        for g1, g2 in cells:
            if f1.tgt == g1.src:
                assert two.leq(inst.cat.compose(g1, f1), inst.cat.compose(g2, f2))


def test_ahl_distributions_sum_to_one():
    inst = ahl_instance()
    for i, m in enumerate(inst.monad.base.index_samples):
        payload = inst.monad.base.sampler(m, Rng(i))
        for _, d in payload.entries:
            assert sum(w for _, w in d.entries) == 1


def test_ahl_fmap_matches_distribution_oracle():
    inst = ahl_instance()
    T = inst.monad.base
    m = inst.monad.base.index_samples[5]
    payload = T.sampler(m, Rng(9))
    mapped = fmap(T, m, lambda v: vint(99), payload)
    for sv, d in payload.entries:
        # oracle: push the value component forward by hand
        expected: dict = {}
        for pr, w in d.entries:
            key = vpair(pr.fst, vint(99))
            expected[key] = expected.get(key, Fraction(0)) + w
        got = mapped.get(sv)
        assert {p: w for p, w in got.entries} == expected


@pytest.mark.parametrize("bad", [vint(99), vtag("t", vunit)], ids=["before-the-pairs", "after"])
def test_ahl_map_of_a_non_pair_atom_is_malformed(bad):
    # as mult, expectation and state_passing's map_fn do: a MalformedPayload, not an AttributeError
    inst = ahl_instance()
    payload = table({sv: dist({bad: Fraction(1, 2), vpair(sv, vunit): Fraction(1, 2)})
                     for sv in inst.svalues})
    m = inst.make_index(0, TRUE, TRUE)
    with pytest.raises(MalformedPayload, match=f"^pair expected, got a {type(bad).__name__}$"):
        inst.monad.base.map_fn(m, lambda v: v, payload)


def test_ahl_geneta_requires_valid_implication():
    inst = ahl_instance()
    nonzero = FCmp("!=", EVar("x"), EInt(0))
    bad = inst.make_index(0, TRUE, nonzero)  # true does not entail x != 0
    with pytest.raises(InvalidImplication):
        gen_unit(inst.genunit, bad, vint(1))
    good = inst.make_index(0, FCmp("==", EVar("x"), EInt(1)), nonzero)
    c = gen_unit(inst.genunit, good, vint(1))
    assert c.index == good


def test_ahl_range_errors():
    inst = ahl_instance((VarDecl("x", 0, 4),))
    with pytest.raises(RangeError):
        inst.sample_uniform("x", 0, 9)
    with pytest.raises(RangeError):
        inst.assign("x", EInt(11))
    with pytest.raises(RangeError):
        inst.assign("y", EInt(0))


def test_glist_validator_length_bound():
    from cgm.instances import graded_list_instance
    from cgm.values import vseq
    T = graded_list_instance().base
    two = T.index_cat.elem(2)
    assert not T.validator(two, vseq([vint(1), vint(2), vint(3)]))
    assert T.validator(two, vseq([vint(1), vint(2)]))


@pytest.mark.parametrize("nested", [
    vint(3), vseq([vint(3)]), vseq([vseq([vint(1)]), vint(2)])])
def test_list_mults_refuse_what_is_not_a_sequence_of_sequences(nested):
    from cgm.instances import graded_list_instance, list_monad, sorted_list_instance
    glist, slist = graded_list_instance().base, sorted_list_instance().base
    one = glist.index_cat.elem(1)
    for mult in (list_monad().join_fn, lambda p: glist.mult_fn(one, one, p),
                 lambda p: slist.mult_fn(one, one, p)):
        with pytest.raises(MalformedPayload, match="payload expected"):
            mult(nested)


def test_ahl_unit_subcategory_is_wide_and_closed():
    inst = ahl_instance()
    G = inst.genunit
    cat = inst.cat
    members = [m for m in inst.monad.base.index_samples if G.sub.contains(m)]
    assert members
    for m in members:
        # identities at both endpoints stay inside
        assert G.sub.contains(cat.identity(m.src))
        assert G.sub.contains(cat.identity(m.tgt))
        for n in members:
            if m.tgt == n.src:
                assert G.sub.contains(cat.compose(n, m))


def test_ahl_approximate_lifts_bound():
    inst = ahl_instance()
    from cgm.core import approximate
    nonzero = FCmp("!=", EVar("x"), EInt(0))
    lo = inst.make_index(Fraction(1, 10), TRUE, nonzero)
    hi = inst.make_index(Fraction(1, 2), TRUE, nonzero)
    payload = inst.monad.base.sampler(lo, Rng(2))
    c = GradedComputation(lo, payload)
    out = approximate(inst.monad, lo, hi, c)
    assert out.index == hi and out.payload == payload


def test_ahl_mult_threads_states():
    inst = ahl_instance((VarDecl("x", 0, 3), VarDecl("y", 0, 3)))
    sample_x = inst.sample_uniform("x", 0, 3)
    copy_to_y = inst.assign("y", EVar("x"))
    composed = inst.seq(sample_x, copy_to_y)
    # after sampling x and copying it, every reachable state has y == x
    for sv in inst.svalues:
        d = composed.get(sv)
        assert sum(w for _, w in d.entries) == 1
        for pr, w in d.entries:
            final = state_dict(pr.fst)
            assert final["y"] == final["x"]
            assert w == Fraction(1, 4)


# --- mult merges by state rank, in the native order ---

@st.composite
def _ahl_payloads(draw, inst, decl, tag, kinds=("sampler", "assign", "uniform")):
    """A payload from the sampler, or `assign` or `sample_uniform` on
    decl, its results paired with `tag`."""
    kind = draw(st.sampled_from(kinds))
    if kind == "sampler":
        f = draw(st.sampled_from(inst.monad.base.index_samples))
        p = inst.monad.base.sampler(f, Rng(draw(st.integers(0, 999))))
    elif kind == "assign":
        p = inst.assign(decl.name, EInt(draw(st.integers(decl.lo, decl.hi))))
    else:
        lo = draw(st.integers(decl.lo, decl.hi - 1))
        p = inst.sample_uniform(decl.name, lo, draw(st.integers(lo + 1, decl.hi)))
    return inst._map(None, lambda r: vpair(vint(tag), r), p)


@st.composite
def _ahl_decls(draw):
    """1-3 variables with 2-3 values each, from -1 up, whose names sort in
    any order against their declarations."""
    names = draw(st.permutations("xyz"))[:draw(st.integers(1, 3))]
    return [VarDecl(x, lo, lo + draw(st.integers(1, 2)))
            for x, lo in zip(names, draw(st.lists(st.integers(-1, 1), min_size=3, max_size=3)))]


@st.composite
def _ahl_nested(draw):
    """An instance over `_ahl_decls`; a first payload that samples
    (no point where `sample_uniform` made it); and 1-3 payloads to carry
    after it, each tagged with its position.  All but the sampler's change
    one variable, so different middle states often reach one final state."""
    inst = ahl_instance(draw(_ahl_decls()))
    decl = draw(st.sampled_from(inst.decls))
    first = draw(_ahl_payloads(inst, decl, 0, ("sampler", "uniform")))
    return inst, first, [draw(_ahl_payloads(inst, decl, i)) for i in range(draw(st.integers(1, 3)))]


def _carry(first, inners):
    """first, each atom carrying one of `inners` chosen by its row and
    place: a final state is reached through payloads with different
    tags, so its distribution has several distinct results."""
    return table({sv: dist([(vpair(pr.fst, inners[(i + j) % len(inners)]), w)
                            for j, (pr, w) in enumerate(d.entries)])
                  for i, (sv, d) in enumerate(first.entries)})


def _mult_oracle(nested):
    """mult through the checked `dist()`, which sorts natively."""
    return ordered_table(
        (sv, dist([(u, w * x) for pr, w in d.entries for u, x in pr.snd.get(pr.fst).entries]))
        for sv, d in nested.entries)


def _seq_reference(inst, first, second):
    """seq by its definition: mult after mapping every result to second."""
    return inst._mult(None, None, inst._map(None, lambda _: second, first))


def _assert_strictly_ordered(p):
    for _, d in p.entries:
        assert all(a < b for (a, _), (b, _) in zip(d.atoms, d.atoms[1:]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_ahl_nested())
def test_ahl_mult_by_state_rank_equals_native_order(case):
    inst, first, inners = case
    nested = _carry(first, inners)
    out = inst._mult(None, None, nested)
    assert out == _mult_oracle(nested)
    _assert_strictly_ordered(out)
    # seq, chained in both associations, over multi-atom rows (first) and
    # point rows (an assignment, which sends many middle states to one)
    x = inst.decls[0]
    a, b, c = first, inners[0], inners[-1]
    for mid in (b, inst.assign(x.name, EInt(x.lo))):
        for p, q in ((a, mid), (mid, c), (inst.seq(a, mid), c), (a, inst.seq(mid, c))):
            out = inst.seq(p, q)
            assert out == _seq_reference(inst, p, q) == _mult_oracle(_carry(p, [q]))
            _assert_strictly_ordered(out)
        assert inst.seq(inst.seq(a, mid), c) == inst.seq(a, inst.seq(mid, c))


@pytest.mark.parametrize("bad", [vpair(vint(99), vunit), vint(99)],
                         ids=["undeclared-state", "not-a-pair"])
def test_ahl_mult_of_a_malformed_carried_atom_is_rejected_by_core(bad):
    # the outer layer is valid, so only the carried tables' atoms are wrong
    inst = ahl_instance()
    f = inst.make_index(0, TRUE, TRUE)
    s0, s1 = inst.svalues[:2]
    inner = table({sv: dist({bad: Fraction(1, 2), vpair(s0, vunit): Fraction(1, 2)})
                   for sv in inst.svalues})
    nested = table({sv: uniform([vpair(s0, inner), vpair(s1, inner)]) for sv in inst.svalues})
    with pytest.raises(MalformedPayload) as err:
        mult(inst.monad.base, f, f, nested)
    assert str(err.value) == ("mult produced an invalid payload at "
                              "(0, true -> true) : <*|true> -> <*|true>")


# --- mult's rank read against its definition, a bind through each carried table ---

def _mult_by_bind(nested):
    """mult by its definition: each row bound through its carried tables' `get`."""
    def step(pr):
        if not isinstance(pr, VPair) or not isinstance(pr.snd, VTable):
            raise MalformedPayload("carried value must be a state table")
        return pr.snd.get(pr.fst)

    return ordered_table((sv, dist_bind(d, step)) for sv, d in nested.entries)


def _outcome(fn, nested):
    """fn's payload, or the text of the MalformedPayload it raises."""
    try:
        return fn(nested)
    except MalformedPayload as exc:
        return f"MalformedPayload: {exc}"


def _recarried(nested, fn):
    """nested with each carried atom (s, t) replaced by the value fn(s, t)."""
    return table({sv: dist([(fn(pr.fst, pr.snd), w) for pr, w in d.entries])
                  for sv, d in nested.entries})


def _rebuilt(sv):
    """A state equal to sv but not identical to it, nor sharing its entries."""
    return table({vstr(k.s): vint(v.n) for k, v in sv.entries})


_UNDECLARED = table({vstr("x"): vint(99)})


def _bad_carriers():
    """(name, fn) rewrites of a carried atom (s, t) that the rank read must not trust."""
    other = ahl_instance((VarDecl("x", 5, 7),)).svalues
    return [
        ("equal-not-identical", lambda s, t: vpair(
            _rebuilt(s), table({_rebuilt(k): e for k, e in t.entries}))),
        ("equal-not-identical-keys", lambda s, t: vpair(
            s, table({_rebuilt(k): e for k, e in t.entries}))),
        ("table-over-other-states", lambda s, t: vpair(
            s, table({o: e for o, (_, e) in zip(other, t.entries)}))),
        ("table-missing-a-state", lambda s, t: vpair(s, table(dict(t.entries[:-1])))),
        ("carried-int", lambda s, t: vpair(s, vint(3))),
        ("carried-dist", lambda s, t: vpair(s, point(s))),
        ("not-a-pair", lambda s, t: s),
        ("entry-not-a-dist", lambda s, t: vpair(s, table({k: vint(0) for k, _ in t.entries}))),
        ("undeclared-final-state", lambda s, t: vpair(s, table(
            {k: dist([(vpair(_UNDECLARED, pr.snd), w) for pr, w in e.entries])
             for k, e in t.entries}))),
        ("undeclared-middle-state", lambda s, t: vpair(
            _UNDECLARED, table({**dict(t.entries), _UNDECLARED: t.entries[0][1]}))),
    ]


def _law_shaped_nested(inst):
    """Nested payloads as the law harness draws them: `_nested2` at composable
    pairs, and `_nested3` at triples with both of its mult inputs."""
    T, pool = inst.monad.base, inst.monad.base.index_samples
    out = [_nested2(T, f, g, Rng(i)) for i, (f, g) in enumerate(_composable_pairs(pool))]
    for i, (f, g, h) in enumerate(itertools.islice(_composable_triples(pool), 0, None, 7)):
        p3 = _nested3(T, f, g, h, Rng(i))
        out += [p3, T.map_fn(f, lambda q: T.mult_fn(g, h, q), p3)]
    return out


def test_ahl_mult_by_rank_equals_a_bind_through_each_carried_table(monkeypatch):
    inst = ahl_instance()
    nesteds = _law_shaped_nested(inst)
    expected = [_mult_by_bind(n) for n in nesteds]
    gets = []
    real_get = VTable.get
    monkeypatch.setattr(VTable, "get", lambda t, k: gets.append(k) or real_get(t, k))
    assert [inst._mult(None, None, n) for n in nesteds] == expected
    assert gets == []  # every carried table was read by rank
    seen = set()
    for name, fn in _bad_carriers():
        for nested in nesteds[::5]:
            bad = _recarried(nested, fn)
            out = _outcome(lambda n: inst._mult(None, None, n), bad)
            assert out == _outcome(_mult_by_bind, bad), name
            seen.add((name, type(out).__name__))
    # each rewrite was met: errors where the table cannot answer, payloads where it can
    assert seen >= {
        ("equal-not-identical", "VTable"), ("equal-not-identical-keys", "VTable"),
        ("table-over-other-states", "str"), ("table-missing-a-state", "str"),
        ("carried-int", "str"), ("carried-dist", "str"), ("not-a-pair", "str"),
        ("entry-not-a-dist", "str"), ("undeclared-final-state", "VTable"),
        ("undeclared-middle-state", "VTable")}


def test_ahl_mult_reports_the_first_malformed_atom_in_bind_order():
    # a row whose first carried table holds a non-dist and whose second has no
    # entry for its state: bind checks the first atom's dist before reading the second
    inst = ahl_instance()
    s0, s1 = inst.svalues[:2]
    good = inst.skip()
    first = table({k: vint(0) for k, _ in good.entries})
    second = table({k: e for k, e in good.entries if k is not s1})  # s2 at s1's rank
    nested = table({sv: dist({vpair(s0, first): Fraction(1, 2), vpair(s1, second): Fraction(1, 2)})
                    for sv in inst.svalues})
    assert _outcome(lambda n: inst._mult(None, None, n), nested) == _outcome(_mult_by_bind, nested)
    assert _outcome(_mult_by_bind, nested) == (
        "MalformedPayload: distribution expected, got a VInt")


# --- primitive payloads against their definitions ---

def states(decls):
    """Each state over `decls` as a dict, the last declaration varying fastest."""
    names = [d.name for d in decls]
    return [dict(zip(names, combo)) for combo in itertools.product(*[d.values() for d in decls])]


def _states(inst):
    """The states as dicts, in rank order: the last name varies fastest."""
    return states(sorted(inst.decls, key=lambda d: d.name))


def _leaf_reference(inst, var, values, build):
    """A payload by the definition: each state's row is `build` over its
    successors with var set to each of `values(s)`, every successor found by
    searching `svalues` for the state `{**s, var: v}`."""
    def find(s):  # a ValueError if s is not a declared state
        return inst.svalues[inst.svalues.index(table({vstr(k): vint(v) for k, v in s.items()}))]

    return table({sv: build([vpair(find({**s, var: v}), vunit) for v in values(s)])
                  for s, sv in zip(_states(inst), inst.svalues)})


def _error_text(fn, *args):
    with pytest.raises(RangeError) as err:
        fn(*args)
    return str(err.value)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_ahl_decls(), st.data())
def test_ahl_leaf_payloads_equal_their_definitions(decls, data):
    inst = ahl_instance(decls)
    decl = data.draw(st.sampled_from(decls))
    x, other = decl.name, data.draw(st.sampled_from(decls)).name
    lo = data.draw(st.integers(decl.lo, decl.hi))
    hi = data.draw(st.integers(lo, decl.hi))
    assert inst.sample_uniform(x, lo, hi) == _leaf_reference(
        inst, x, lambda s: range(lo, hi + 1), uniform)
    for bad in ((lo, decl.hi + 1), (decl.lo - 1, hi), (hi, lo - 1)):
        assert _error_text(inst.sample_uniform, x, *bad) == (
            f"uniform({bad[0]},{bad[1]}) is not within [{decl.lo}..{decl.hi}] for {x}")
    # a constant, another variable, a step that may leave the range, or `2 * other - x`,
    # whose first value out of the range can differ between declaration and name order
    expr = data.draw(st.sampled_from([EInt(lo), EVar(other), EBin("+", EVar(x), EInt(1)),
                                      EBin("-", EVar(other), EInt(1)),
                                      EBin("-", EBin("*", EInt(2), EVar(other)), EVar(x))]))
    values = [eval_formula(expr, s) for s in states(decls)]
    out = [v for v in values if not decl.lo <= v <= decl.hi]
    if out:  # the first state, in declaration order, that leaves the range
        assert _error_text(inst.assign, x, expr) == (
            f"{x} := {out[0]} leaves the declared range [{decl.lo}..{decl.hi}]")
    else:
        assert inst.assign(x, expr) == _leaf_reference(
            inst, x, lambda s: [eval_formula(expr, s)], lambda prs: point(*prs))
    assert _error_text(inst.assign, "w", EInt(0)) == "undeclared variable 'w'"


@pytest.mark.parametrize("decls", [
    [],
    [VarDecl("x", 0, 1), VarDecl("x", 0, 2)],
    [VarDecl("y", 0, 1), VarDecl("x", 0, 2), VarDecl("y", 1, 1)],
    [VarDecl("x", 0, -1)],
    [VarDecl("y", 0, 1), VarDecl("x", 3, 2)],
], ids=["none", "repeated", "repeated-apart", "empty", "empty-second"])
def test_ahl_refuses_repeated_names_and_empty_ranges(decls):
    with pytest.raises(InvalidValue, match="declare one or more variables, each once"):
        ahl_instance(decls)


def test_ahl_sample_uniform_builds_one_row_per_class(monkeypatch):
    import cgm.instances.ahl as ahl_module

    inst = ahl_instance((VarDecl("y", 0, 2), VarDecl("x", -1, 2), VarDecl("z", 1, 2)))
    built = []
    monkeypatch.setattr(ahl_module, "uniform", lambda vs: built.append(1) or uniform(vs))
    for var, k in (("y", 3), ("x", 4), ("z", 2)):
        built.clear()
        p = inst.sample_uniform(var, inst.range_of(var).lo, inst.range_of(var).hi)
        assert len(built) == len(_states(inst)) // k  # one per class of k states
        rows = {}
        for s, sv in zip(_states(inst), inst.svalues):
            d = rows.setdefault(tuple(v for n, v in s.items() if n != var), p.get(sv))
            assert d is p.get(sv)  # every member holds the class's one dist


# --- validity and failure probability against the definitions they replaced ---

def _reference_failure_prob(inst, payload, pre, post):
    """`AhlMonad.failure_prob` as it was defined before it read states by rank:
    a set of the violating states, each final state hashed into it."""
    starts = [sv for sv, ok in zip(inst.svalues, inst.holds(pre)) if ok]
    if not starts:
        return Fraction(0)
    bad = {sv for sv, ok in zip(inst.svalues, inst.holds(post)) if not ok}
    return max(Fraction(sum(n for prv, n in d.atoms if prv.fst in bad), d.den)
               for d in map(payload.get, starts))


def _reference_validate(inst, f, p):
    """`AhlMonad._validate` as it was defined then: every atom checked, then
    the failure probability compared with the bound."""
    if not isinstance(p, VTable) or p.keys() != inst.svalues:
        return False
    for _, d in p.entries:
        if not isinstance(d, VDist):
            return False
        for prv, _n in d.atoms:
            if not isinstance(prv, VPair) or prv.fst not in inst._rank:
                return False
    try:
        pre, post = inst.pre_of(f), inst.post_of(f)
    except MalformedPayload:
        return False
    return _reference_failure_prob(inst, p, pre, post) <= inst.beta_of(f)


def _assert_same_as_reference(inst, f, p):
    ok = inst.monad.base.validator(f, p)
    assert type(ok) is bool and ok == _reference_validate(inst, f, p)
    pre, post = inst.pre_of(f), inst.post_of(f)
    fail = inst.failure_prob(p, pre, post)
    assert type(fail) is Fraction and fail == _reference_failure_prob(inst, p, pre, post)
    return ok


@pytest.mark.parametrize("name", ["ahl", "broken-ahl"])
def test_ahl_validity_matches_reference_over_drawn_payloads(name):
    inst = {"ahl": ahl_instance, "broken-ahl": broken_ahl_instance}[name]()
    T = inst.monad.base
    pool = index_pool(T)
    payloads = [T.sampler(g, Rng(seed)) for g in pool for seed in range(4)]
    x = inst.decls[0]
    payloads += [inst.seq(payloads[0], inst.sample_uniform(x.name, x.lo, x.hi)),
                 inst._map(None, lambda r: vpair(r, r), payloads[-1])]
    seen = {_assert_same_as_reference(inst, f, p) for f in pool for p in payloads}
    assert seen == {True, False}


def _chain216():
    inst = ahl_instance([VarDecl(f"x{i}", 0, 5) for i in range(3)])
    step = [inst.sample_uniform(f"x{i}", 0, 5) for i in (2, 1, 0)]
    return inst, inst.seq(inst.seq(step[0], step[1]), step[2])


def test_ahl_validity_matches_reference_on_the_216_state_chain():
    inst, p = _chain216()
    assert sum(len(d.atoms) for _, d in p.entries) == 216 ** 2
    post = FCmp("!=", EVar("x2"), EInt(3))
    for phi in (post, FAnd(post, FCmp("!=", EVar("x0"), EInt(4)))):
        for beta in (0, Fraction(1, 7), Fraction(1, 6), Fraction(11, 36), 1):
            _assert_same_as_reference(inst, inst.make_index(beta, TRUE, phi), p)
    assert inst.failure_prob(p, TRUE, post) == Fraction(1, 6)


def _assert_index_is_rank(inst):
    """`svalues` strictly ascends, each state's index is its rank, and
    `_states(inst)[i]` is the state `svalues[i]` tables."""
    svs = inst.svalues
    assert all(a < b for a, b in zip(svs, svs[1:]))
    assert all(inst._rank[sv] == i for i, sv in enumerate(svs))
    assert [{k.s: v.n for k, v in sv.entries} for sv in svs] == _states(inst)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_ahl_decls())
def test_ahl_state_index_is_its_rank(decls):
    inst = ahl_instance(decls)
    _assert_index_is_rank(inst)
    assert inst.decls == tuple(decls)  # kept in declaration order


def test_ahl_validity_matches_reference_when_rank_and_state_order_differ():
    inst = ahl_instance([VarDecl("y", 0, 2), VarDecl("x", 0, 1)])
    # y is declared first, yet x, the first name, varies slowest
    _assert_index_is_rank(inst)
    assert [(s["x"], s["y"]) for s in _states(inst)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    T = inst.monad.base
    x0, y2 = FCmp("==", EVar("x"), EInt(0)), FCmp("==", EVar("y"), EInt(2))
    pool = [inst.make_index(beta, pre, post)
            for beta in (0, Fraction(1, 3), Fraction(1, 2), 1)
            for pre in (TRUE, x0, y2) for post in (x0, y2, FNot(y2))]
    payloads = [T.sampler(g, Rng(seed)) for g in pool for seed in range(2)]
    payloads += [inst.seq(inst.sample_uniform("x", 0, 1), inst.sample_uniform("y", 0, 2))]
    seen = {_assert_same_as_reference(inst, f, p) for f in pool for p in payloads}
    assert seen == {True, False}


def _malformed(inst):
    """(case, payload) pairs that fail `ahl`'s validity before its bound."""
    sv0, svs = inst.svalues[0], inst.svalues
    unit_p = inst.skip()

    def at_first(d):  # unit_p with the first state's dist replaced
        return ordered_table([(sv0, d)] + list(unit_p.entries[1:]))

    return [
        ("non-table", uniform([vpair(sv, vunit) for sv in svs])),
        ("keys-missing", ordered_table(unit_p.entries[1:])),
        ("keys-out-of-order", ordered_table(unit_p.entries[::-1])),
        ("non-dist-entry", at_first(vpair(sv0, vunit))),
        ("non-pair-atom", at_first(uniform([vint(3), vpair(sv0, vunit)]))),
        ("undeclared-state", at_first(point(vpair(table({vstr("x"): vint(99)}), vunit)))),
    ]


def test_ahl_validity_matches_reference_on_malformed_payloads():
    inst = ahl_instance()
    T = inst.monad.base
    for f in index_pool(T):
        for case, p in _malformed(inst):
            assert T.validator(f, p) is False and _reference_validate(inst, f, p) is False, case
    # `failure_prob` reads each start's dist by key: under `true` every state
    # is a start, so it reaches the malformed entry, and raises for it
    for case, p in _malformed(inst):
        if case == "non-table":  # no keys to read by
            continue
        if case == "keys-out-of-order":
            assert inst.failure_prob(p, TRUE, TRUE) == _reference_failure_prob(inst, p, TRUE, TRUE)
        else:
            with pytest.raises(MalformedPayload):
                inst.failure_prob(p, TRUE, TRUE)
    # an index whose formula this instance never registered
    other = ahl_instance()
    f = other.make_index(0, TRUE, FCmp("==", EVar("x"), EInt(2)))
    assert T.validator(f, inst.skip()) is False and _reference_validate(inst, f, inst.skip()) is False


def test_ahl_validity_reads_a_state_equal_to_a_declared_one_by_value():
    inst = ahl_instance()
    T = inst.monad.base
    copies = {sv: table([(vstr(k.s), vint(v.n)) for k, v in sv.entries]) for sv in inst.svalues}
    assert all(c == sv and c is not sv for sv, c in copies.items())
    pool = index_pool(T)
    seen = set()
    for i, g in enumerate(pool):
        drawn = T.sampler(g, Rng(i))
        p = ordered_table((sv, dist([(vpair(copies[pr.fst], pr.snd), w) for pr, w in d.entries]))
                          for sv, d in drawn.entries)
        for f in pool:
            ok = _assert_same_as_reference(inst, f, p)
            assert ok == T.validator(f, drawn)
            seen.add(ok)
    assert seen == {True, False}


# --- map_fn calls fn once per distinct carried value ---

def _steps(p):
    return {step.fst for _, step in p.entries}, lambda fn: table(
        {s: vpair(fn(step.fst), step.snd) for s, step in p.entries})


def _ahl_branches(p):
    return {pr.snd for _, d in p.entries for pr, _ in d.entries}, lambda fn: table(
        {sv: dist([(vpair(pr.fst, fn(pr.snd)), w) for pr, w in d.entries])
         for sv, d in p.entries})


@pytest.mark.parametrize("name,carried", [
    ("concst", _steps), ("tstate", _steps), ("ahl", _ahl_branches)])
def test_map_fn_calls_fn_once_per_distinct_carried_value(name, carried):
    T = build_instance(name).monad
    repeats = 0
    for i, f in enumerate(index_pool(T)[:16]):
        p = T.sampler(f, Rng(i))
        values, per_entry = carried(p)
        entries = sum(len(d.entries) if name == "ahl" else 1 for _, d in p.entries)
        for fn in (lambda v: vtag("t", v), lambda v: vint(0)):
            calls = []
            out = T.map_fn(f, lambda v, fn=fn: calls.append(v) or fn(v), p)
            assert len(calls) == len(set(calls)) and set(calls) == values
            assert out == per_entry(fn)
        repeats += entries - len(values)
    assert repeats > 0  # some payload carries one value more than once


def test_dropped_ahl_instance_is_freed_without_a_collection():
    gc.disable()
    try:
        inst = ahl_instance()
        idx = inst.make_index(0, TRUE, TRUE)
        fmap(inst.monad.base, idx, lambda v: v, unit(inst.monad.base, idx.src, vint(1)).payload)
        gen_unit(inst.genunit, idx, vint(1))
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
    finally:
        gc.enable()


# --- the payload kernels open no Python frame per entry, atom or draw ---

def _calls(run, *skip) -> int:
    """The Python-level calls made while run() runs, leaving out calls to the functions
    in skip (those are the caller's work: its fn, or the rng's draws).  The collector is
    paused, so no `gc.callbacks` hook (hypothesis installs one) runs inside."""
    codes, n, enabled = {f.__code__ for f in skip}, 0, gc.isenabled()

    def count(frame, event, _arg):
        nonlocal n
        n += event == "call" and frame.f_code not in codes

    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return n


def _kernel_calls(decls, stores):
    """Calls made by each payload kernel on payloads over decls' states and over stores."""
    ident, const = (lambda v: v), (lambda v: vunit)  # the sampled pairs ascend under ident
    draws = (Rng.randint, Rng.choice, Rng.next_u64)
    inst = ahl_instance(decls)
    m = inst.make_index(0, TRUE, TRUE)
    sampled = inst.monad.base.sampler(m, Rng(0))
    o = ObjectId("s")
    P = state_passing("t", DiscreteCategory((o,)), {o: stores}, partial=False)
    p = P.sampler(o, o, Rng(0))
    atoms = [(v, 2) for v in stores]  # over 4 * len(stores): reduced by 2
    calls = {
        "ahl._map": _calls(lambda: inst.monad.base.map_fn(m, ident, sampled), ident),
        "unit": _calls(lambda: P.eta_fn(o, vunit)),
        "map_fn": _calls(lambda: P.value_map_fn(o, o, const, p), const),
        "validator": _calls(lambda: P.validator(o, o, p)),
        "sampler": _calls(lambda: P.sampler(o, o, Rng(1)), *draws),
        "VTable.keys": _calls(p.keys),
        "_lowest": _calls(lambda: _lowest(atoms, 4 * len(stores))),
    }
    assert P.validator(o, o, p) and len(sampled.entries) == len(_states(inst))
    return calls


def test_payload_kernel_calls_do_not_grow_with_the_payload():
    small = _kernel_calls([VarDecl("x", 0, 2)], tuple(vint(i) for i in range(2)))
    large = _kernel_calls([VarDecl(v, 0, 9) for v in "xyz"], tuple(vint(i) for i in range(200)))
    assert small == large
