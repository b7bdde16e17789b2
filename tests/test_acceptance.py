"""Acceptance suite.

One test per criterion; each prints a PASS line with the measured
evidence when it succeeds (run pytest -s to see them).
"""

import itertools
import time

from cgm.cli import main as cli_main
from cgm.indexcat import ObjectId
from cgm.instances import (
    build_instance,
    graded_list_instance,
    typed_state_param,
)
from cgm.metalang import (
    TLet,
    TPrim,
    TPure,
    PLit,
    infer_grade,
    infer_program,
    parse_program,
)
from cgm.errors import GradeMismatch
from cgm.rng import Rng
from cgm.translations import (
    catgraded_genunit_to_param,
    catgraded_to_discrete_param,
    check_graded_laws,
    discrete_param_to_catgraded,
    end_graded_from_param,
    param_to_catgraded_genunit,
    roundtrip_param,
)
from cgm.values import table, vint, vpair, vseq, vstr


def _pass(msg: str) -> None:
    print(f"PASS: {msg}")


# --- criterion 1: law suites ---

def test_criterion_1_law_suites():
    timings = []
    for name in ("identity", "glist", "concst", "tstate", "ahl"):
        bundle = build_instance(name)
        t0 = time.perf_counter()
        report = bundle.law_report(samples=200, seed=0)
        dt = time.perf_counter() - t0
        assert report.ok(), f"{name}: {report.render_text()}"
        assert dt < 10.0, f"{name} law suite took {dt:.1f}s"
        timings.append(f"{name} {dt:.2f}s")
    for name in ("broken-glist", "broken-ahl"):
        report = build_instance(name).law_report(samples=200, seed=0)
        assert len(report.failures) >= 1, name
        witness = report.failures[0]
        assert witness.indices, name
        assert witness.lhs is not None or witness.note, name
    _pass("criterion 1: five suites clean at 200 samples seed 0 "
          f"({'; '.join(timings)}); both mutants fail with witnesses")


# --- criterion 2: graded list bound, exhaustive ---

def test_criterion_2_graded_list_bound_exhaustive():
    two = graded_list_instance()
    T = two.base
    cat = T.index_cat
    alphabet = (vstr("a"), vstr("b"))
    inner_pool = {}
    for n in range(1, 5):
        pool = []
        for length in range(0, n + 1):
            pool.extend(vseq(c) for c in itertools.product(alphabet, repeat=length))
        inner_pool[n] = pool
    top = cat.elem(4)
    top2 = cat.elem(16)
    checked = 0
    for m in range(1, 5):
        for n in range(1, 5):
            f, g = cat.elem(m), cat.elem(n)
            gf = cat.compose(g, f)
            for o in range(0, m + 1):
                for combo in itertools.product(inner_pool[n], repeat=o):
                    nested = vseq(combo)
                    out = T.mult_fn(f, g, nested)
                    checked += 1
                    assert len(out.items) <= m * n
                    # vertical identity and composition of approximations
                    assert two.approx_fn(f, f, nested) == nested
                    assert two.approx_fn(top, top2, two.approx_fn(f, top, nested)) \
                        == two.approx_fn(f, top2, nested)
                    # horizontal square against the top grades
                    inner_ap = T.map_fn(f, lambda q: two.approx_fn(g, top, q), nested)
                    lhs = T.mult_fn(top, top, two.approx_fn(f, top, inner_ap))
                    assert lhs == two.approx_fn(gf, top2, out)
    assert checked == 1047672
    _pass(f"criterion 2: {checked} nested sequences within the m*n bound; "
          "approximation diagrams hold on the same space")


# --- criterion 3: lock protocol ---

LOCK_GP = """
instance concst
start free
store int[0..7]

do {
  lock;
  x <- get;
  put(x + 1);
  unlock
}
"""

VIOLATIONS = {
    "get before lock": "instance concst\nstart free\ndo { x <- get; pure () }",
    "missing unlock": "instance concst\nstart free\ndo { lock; x <- get; pure () }",
    "spawn non-free body":
        "instance concst\nstart free\n"
        "do { spawn do { lock; x <- get; pure () }; pure () }",
}


def test_criterion_3_lock_protocol(tmp_path, capsys):
    bundle = build_instance("concst")
    program = parse_program(LOCK_GP)
    gt = infer_program(bundle, program)
    assert str(gt.index) == "lock;get;put;unlock : free -> free"

    for label, text in VIOLATIONS.items():
        path = tmp_path / "v.gp"
        path.write_text(text)
        code = cli_main(["run", str(path)])
        capsys.readouterr()
        assert code == 2, label

    dfa = {("free", "lock"): "critical", ("critical", "get"): "critical",
           ("critical", "put"): "critical", ("critical", "unlock"): "free"}
    names = ("lock", "get", "put", "unlock")
    free = ObjectId("free")
    discrepancies = 0
    total = 0
    for length in range(0, 6):
        for seq in itertools.product(names, repeat=length):
            total += 1
            state = "free"
            accepted = True
            for nm in seq:
                state = dfa.get((state, nm))
                if state is None:
                    accepted = False
                    break
            term = TPure(PLit(vint(0)))
            for nm in reversed(seq):
                args = (PLit(vint(0)),) if nm == "put" else ()
                term = TLet("_", TPrim(nm, args), term)
            try:
                infer_grade(bundle, free, term)
                ok = True
            except GradeMismatch:
                ok = False
            if ok != accepted:
                discrepancies += 1
    assert discrepancies == 0 and total == 1365
    _pass("criterion 3: displayed composite grade; 3 violations exit 2; "
          f"{total} primitive sequences match the reference DFA")


# --- criterion 4: parameterised round trip ---

def _all_tables(src_vals, tgt_vals, alphabet):
    cells = [vpair(a, s2) for a in alphabet for s2 in tgt_vals]
    for combo in itertools.product(cells, repeat=len(src_vals)):
        yield table(dict(zip(src_vals, combo)))


def test_criterion_4_roundtrip_exhaustive():
    h_pool = (lambda v: vpair(v, vint(1)), lambda v: vint(0))
    sizes = ({"A": 1}, {"A": 2, "B": 2}, {"A": 3, "B": 2})
    alphabets = ((vint(0), vint(1)), (vint(0), vint(1)), (vint(0),))
    compared = 0
    for sets, alphabet in zip(sizes, alphabets):
        P = typed_state_param(sets)
        T, G = param_to_catgraded_genunit(P)  # checks the two lifts agree
        Q = catgraded_genunit_to_param(T, G)
        cat = P.index_cat
        morphs = cat.morphisms()
        # morphism mapping identical on every table over the alphabet
        for f in morphs:
            for g in morphs:
                for p in _all_tables(cat.carrier(f.tgt), cat.carrier(g.src),
                                     alphabet):
                    for h in h_pool:
                        assert P.morph_map_fn(f, g, h, p) == \
                            Q.morph_map_fn(f, g, h, p)
                        compared += 1
        # unit and multiplication identical
        for i in cat.object_ids():
            for a in alphabet:
                assert P.eta_fn(i, a) == Q.eta_fn(i, a)
        report = roundtrip_param(P, samples=40)
        assert report.ok(), report.render_text()

    # bifunctoriality bullets, exhaustive over a 2-element state set
    P = typed_state_param({"A": 2, "B": 2})
    T, G = param_to_catgraded_genunit(P)
    Q = catgraded_genunit_to_param(T, G)
    cat = P.index_cat
    morphs = cat.morphisms()
    comp_pairs = [(f, f2) for f in morphs for f2 in morphs if f.tgt == f2.src]
    rng = Rng(11)
    h1, h2 = h_pool
    quads = 0
    for f, f2 in comp_pairs:
        for g, g2 in comp_pairs:
            p = P.sampler(f2.tgt, g.src, rng.fork(quads))
            lhs = Q.morph_map_fn(cat.compose(f2, f), cat.compose(g2, g),
                                 lambda v: h2(h1(v)), p)
            rhs = Q.morph_map_fn(f, g2, h2, Q.morph_map_fn(f2, g, h1, p))
            assert lhs == rhs
            quads += 1
    for i in cat.object_ids():
        for j in cat.object_ids():
            for p in _all_tables(cat.carrier(i), cat.carrier(j), (vint(0), vint(1))):
                assert Q.morph_map_fn(cat.identity(i), cat.identity(j),
                                      lambda v: v, p) == p
    _pass(f"criterion 4: round trip identical on {compared} morphism-mapping "
          f"instances over sizes 1,2,3; {quads} bifunctoriality squares; "
          "both unit-lifting definitions agree")


# --- criterion 5: probabilistic verification ---

AHL_BASE = """
var x : int[0..9]
var y : int[0..9]

conclude {BETA} : true => (x != 0) && (y != 0)

{BODY}
"""

AHL_SEQ = """seq {
  rand x 0 9 : 1/10 : true => (x != 0);
  rand y 0 9 : 1/10 : (x != 0) => (x != 0) && (y != 0)
}"""


def _write_and_run(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code = cli_main(["ahl", str(path)])
    out = capsys.readouterr().out
    return code, out


def test_criterion_5_ahl_verification(tmp_path, capsys):
    body = AHL_SEQ
    ok_text = AHL_BASE.replace("{BETA}", "1/5").replace("{BODY}", body)
    code, out = _write_and_run(tmp_path, capsys, "ok.ahl", ok_text)
    assert code == 0 and "failure 19/100" in out

    tight = AHL_BASE.replace("{BETA}", "1/10").replace("{BODY}", body)
    code, _ = _write_and_run(tmp_path, capsys, "tight.ahl", tight)
    assert code == 1

    for beta in ("1/5", "3/10", "1/2", "1"):
        weak_text = AHL_BASE.replace("{BETA}", beta).replace(
            "{BODY}",
            "weak " + beta + " : true => (x != 0) && (y != 0) {\n"
            + body + "\n}")
        code, _ = _write_and_run(tmp_path, capsys, "weak.ahl", weak_text)
        assert code == 0, beta

    saturated = """
var x : int[0..9]
var y : int[0..9]

conclude 1 : true => (y > 4)

seq {
  rand x 0 9 : 7/10 : true => (x > 6);
  rand y 0 9 : 5/10 : (x > 6) => (y > 4)
}
"""
    code, out = _write_and_run(tmp_path, capsys, "sat.ahl", saturated)
    assert code == 0 and "conclusion: |-1 :" in out
    _pass("criterion 5: exact 19/100; 2/10 accepted, 1/10 rejected; "
          "weakening to 1/5, 3/10, 1/2, 1 accepted; 7/10 + 5/10 saturates to 1")


# --- criterion 6: dinaturality ---

def test_criterion_6_dinaturality():
    # both squares, morphism-exhaustive up to |S| = 3; payload-exhaustive
    # over the 2-element sets
    for sets, alphabet in ((({"A": 2, "B": 2}), (vint(0), vint(1))),
                           (({"A": 3, "B": 2}), (vint(0),))):
        P = typed_state_param(sets)
        cat = P.index_cat
        objs = cat.object_ids()
        vals = {o: cat.carrier(o) for o in objs}
        for f in cat.morphisms():
            i, j = f.src, f.tgt
            for a in alphabet:
                lhs = P.morph_map_fn(cat.identity(i), f, lambda v: v, P.eta_fn(i, a))
                rhs = P.morph_map_fn(f, cat.identity(j), lambda v: v, P.eta_fn(j, a))
                assert lhs == rhs
        for g in cat.morphisms():
            j, j2 = g.src, g.tgt
            for i in objs:
                for k in objs:
                    inners = list(_all_tables(vals[j2], vals[k], alphabet))
                    cells = [vpair(inner, sj) for inner in inners[:4]
                             for sj in vals[j]]
                    idi, idk = cat.identity(i), cat.identity(k)
                    for combo in itertools.product(cells, repeat=len(vals[i])):
                        nested = table(dict(zip(vals[i], combo)))
                        lhs = P.mu_fn(i, j2, k,
                                      P.morph_map_fn(idi, g, lambda v: v, nested))
                        rhs = P.mu_fn(i, j, k, P.value_map_fn(
                            i, j,
                            lambda q: P.morph_map_fn(g, idk, lambda v: v, q),
                            nested))
                        assert lhs == rhs

    # disabling the morphism mapping reproduces the discrete story
    Pd = typed_state_param({"A": 2, "B": 2}, discrete=True)
    Td = discrete_param_to_catgraded(Pd)
    Qd = catgraded_to_discrete_param(Td)
    objs = (ObjectId("A"), ObjectId("B"))
    rng = Rng(5)
    for n, (i, j) in enumerate(itertools.product(objs, objs)):
        for a in (vint(0), vint(1)):
            assert Qd.eta_fn(i, a) == Pd.eta_fn(i, a)
        p = Pd.sampler(i, j, rng.fork(n))
        fn = lambda v: vpair(v, v)
        assert Qd.value_map_fn(i, j, fn, p) == Pd.value_map_fn(i, j, fn, p)
        for k in objs:
            outer = Pd.sampler(i, j, rng.fork(n, 1))
            inner = Pd.sampler(j, k, rng.fork(n, 2))
            nested = Pd.value_map_fn(i, j, lambda _a: inner, outer)
            assert Qd.mu_fn(i, j, k, nested) == Pd.mu_fn(i, j, k, nested)
    _pass("criterion 6: both dinaturality squares hold (morphism-exhaustive "
          "to |S|=3); discrete round trip is the identity")


# --- criterion 7: end construction ---

Z2 = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}


def test_criterion_7_end_construction():
    P = typed_state_param({"e": 2, "a": 2}, discrete=True)
    G = end_graded_from_param(P, Z2, "e")
    report = check_graded_laws(G, samples=200, seed=0)
    assert report.ok(), report.render_text()
    # the discrete end is the plain product: every componentwise-valid
    # family validates, and projections recover the components
    e, a = ObjectId("e"), ObjectId("a")
    comps_e = [P.sampler(e, a, Rng(i)) for i in range(4)]
    comps_a = [P.sampler(a, e, Rng(i + 50)) for i in range(4)]
    for ce in comps_e:
        for ca in comps_a:
            fam = table({vstr("e"): ce, vstr("a"): ca})
            assert G.validator("a", fam)
            assert fam.get(vstr("e")) == ce and fam.get(vstr("a")) == ca
    assert not G.validator("a", table({vstr("e"): comps_e[0]}))
    # trivial monoid: the family is exactly one unit component
    P1 = typed_state_param({"e": 2}, discrete=True)
    G1 = end_graded_from_param(P1, {("e", "e"): "e"}, "e")
    assert G1.unit_fn(vint(3)) == table({vstr("e"): P1.eta_fn(e, vint(3))})
    _pass("criterion 7: end-built graded monad lawful over the 2-element "
          "monoid; discrete end coincides with the plain product")


# --- criterion 8: determinism ---

def test_criterion_8_determinism(tmp_path, capsys):
    gp = tmp_path / "lock.gp"
    gp.write_text(LOCK_GP)
    ahl = tmp_path / "s.ahl"
    ahl.write_text(AHL_BASE.replace("{BETA}", "1/5").replace("{BODY}", AHL_SEQ))
    commands = [
        ["laws", "identity", "--samples", "30", "--seed", "9"],
        ["laws", "glist", "--samples", "30", "--seed", "9"],
        ["laws", "concst", "--samples", "30", "--seed", "9"],
        ["laws", "tstate", "--samples", "30", "--seed", "9"],
        ["laws", "ahl", "--samples", "30", "--seed", "9", "--format", "machine"],
        ["laws", "broken-glist", "--samples", "30", "--seed", "9"],
        ["run", str(gp), "--store", "2"],
        ["ahl", str(ahl)],
        ["roundtrip", "--states", "2", "--samples", "15", "--seed", "4"],
        ["translate", "param", "catgraded", "tstate"],
    ]
    for argv in commands:
        outs = []
        codes = []
        for _ in range(2):
            codes.append(cli_main(list(argv)))
            outs.append(capsys.readouterr().out)
        assert codes[0] == codes[1], argv
        assert outs[0] == outs[1], argv
    _pass(f"criterion 8: {len(commands)} commands byte-identical across runs")
