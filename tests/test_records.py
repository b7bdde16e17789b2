"""The record representation: start-up cost, reprs, equality and hashing.

Every immutable record in cgm is a tuple tagged with its class name and
built without generated code; bundles and categories are plain classes.
"""

import copy
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cgm import ahlcheck as ah, core, formulas as fo, indexcat as ic, metalang as ml, values
from cgm.cli import main
from cgm.instances import instance_names
from cgm.values import vbool, vint, vstr

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")


def test_importing_the_cli_generates_no_code():
    # -S: no site hooks, so whatever is loaded, cgm.cli loaded it
    code = ("import sys, cgm.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# --- one instance of every record class, with its repr as it was when the
# records were dataclasses ---

A, B = ic.ObjectId("a"), ic.ObjectId("b")
F = ic.Morphism(A, B, ic.WPath(("x", "y")))
POS = ml.Pos(3, 4)
PHI = fo.FCmp("<=", fo.EVar("x"), fo.EInt(2))
SKIP = ah.DSkip(PHI)
JUDGEMENT = ah.Judgement(Fraction(1, 5), PHI, fo.TRUE)
NODE = ah.NodeReport("skip", JUDGEMENT, Fraction(0))

_OBJ_A = "ObjectId(name='a')"
_F = f"Morphism(src={_OBJ_A}, tgt=ObjectId(name='b'), word=WPath(gens=('x', 'y')))"
_PHI = "FCmp(op='<=', lhs=EVar(name='x'), rhs=EInt(n=2))"
_SKIP = f"DSkip(pre={_PHI})"
_NOPOS = "pos=Pos(line=0, col=0)"
_JUDGEMENT = f"Judgement(beta=Fraction(1, 5), pre={_PHI}, post=FBool(b=True))"
_NODE = f"NodeReport(rule='skip', judgement={_JUDGEMENT}, failure=Fraction(0, 1))"

SAMPLES = [
    (A, _OBJ_A),
    (ic.pair_object(A, B), "ObjectId(name='<a|b>')"),
    (ic.WIdentity(A), f"WIdentity(obj={_OBJ_A})"),
    (ic.WPath(("x", "y")), "WPath(gens=('x', 'y'))"),
    (ic.WElem(Fraction(1, 2)), "WElem(value=Fraction(1, 2))"),
    (ic.WPair(A, B), f"WPair(src={_OBJ_A}, tgt=ObjectId(name='b'))"),
    (ic.WInj1(F), f"WInj1(inner={_F})"),
    (ic.WInj2(A, B), f"WInj2(src={_OBJ_A}, tgt=ObjectId(name='b'))"),
    (ic.WTuple(F, F), f"WTuple(left={_F}, right={_F})"),
    (ic.WFn(((vint(0), vint(1)),)), "WFn(graph=((VInt(n=0), VInt(n=1)),))"),
    (F, _F),
    (core.GradedComputation(F, vint(1)), f"GradedComputation(index={_F}, payload=VInt(n=1))"),
    (core.LawFailure("assoc", (F,), vint(1), vint(2), None, "n"),
     f"LawFailure(law='assoc', indices=({_F},), input_value=VInt(n=1), lhs=VInt(n=2), "
     "rhs=None, note='n')"),
    (core.LawReport((("assoc", 3),), ()), "LawReport(counts=(('assoc', 3),), failures=())"),
    (POS, "Pos(line=3, col=4)"),
    (ml.PLit(vint(1)), "PLit(value=VInt(n=1))"),
    (ml.PPairE(fo.EVar("v"), fo.EVar("w")), "PPairE(fst=EVar(name='v'), snd=EVar(name='w'))"),
    (ml.TVar("v", POS), "TVar(name='v', pos=Pos(line=3, col=4))"),
    (ml.TPure(fo.EVar("v"), POS), "TPure(expr=EVar(name='v'), pos=Pos(line=3, col=4))"),
    (ml.TPrim("put", (fo.EVar("v"),), None, POS),
     "TPrim(name='put', args=(EVar(name='v'),), body=None, pos=Pos(line=3, col=4))"),
    (ml.TLet("v", ml.TPrim("get"), ml.TVar("v"), POS),
     f"TLet(var='v', bound=TPrim(name='get', args=(), body=None, {_NOPOS}), "
     f"body=TVar(name='v', {_NOPOS}), pos=Pos(line=3, col=4))"),
    (ml.Program("concst", "free", (0, 7), ml.TPrim("lock")),
     "Program(instance='concst', start='free', store=(0, 7), "
     f"body=TPrim(name='lock', args=(), body=None, {_NOPOS}))"),
    (ml.GradedType(F, ("pair", "int", "unit")),
     f"GradedType(index={_F}, shape=('pair', 'int', 'unit'))"),
    (ml._LetInfo(F, ("v",), True), f"_LetInfo(cont={_F}, carried=('v',), reads_var=True)"),
    (fo.EInt(2), "EInt(n=2)"),
    (fo.EVar("x"), "EVar(name='x')"),
    (fo.EBin("+", fo.EVar("x"), fo.EInt(1)), "EBin(op='+', lhs=EVar(name='x'), rhs=EInt(n=1))"),
    (fo.TRUE, "FBool(b=True)"),
    (PHI, _PHI),
    (fo.FAnd(PHI, fo.TRUE), f"FAnd(lhs={_PHI}, rhs=FBool(b=True))"),
    (fo.FOr(PHI, fo.TRUE), f"FOr(lhs={_PHI}, rhs=FBool(b=True))"),
    (fo.FNot(PHI), f"FNot(body={_PHI})"),
    (fo.VarDecl("x", 0, 9), "VarDecl(name='x', lo=0, hi=9)"),
    (fo.Token("op", "<=", 1, 2), "Token(kind='op', text='<=', line=1, col=2)"),
    (SKIP, _SKIP),
    (ah.DAssign("x", fo.EInt(1), PHI), f"DAssign(var='x', expr=EInt(n=1), post={_PHI})"),
    (ah.DRand("x", 0, 9, Fraction(1, 10), PHI, fo.TRUE),
     f"DRand(var='x', lo=0, hi=9, beta=Fraction(1, 10), pre={_PHI}, post=FBool(b=True))"),
    (ah.DSeq(SKIP, SKIP), f"DSeq(first={_SKIP}, second={_SKIP})"),
    (ah.DWeak(SKIP, Fraction(1, 5), PHI, fo.TRUE),
     f"DWeak(child={_SKIP}, beta=Fraction(1, 5), pre={_PHI}, post=FBool(b=True))"),
    (JUDGEMENT, _JUDGEMENT),
    (NODE, _NODE),
    (ah.AhlVerdict(True, (NODE,), JUDGEMENT, "m"),
     f"AhlVerdict(valid=True, nodes=({_NODE},), conclusion={_JUDGEMENT}, message='m')"),
    (ah.AhlFile((fo.VarDecl("x", 0, 9),), JUDGEMENT, SKIP),
     f"AhlFile(decls=(VarDecl(name='x', lo=0, hi=9),), claimed={_JUDGEMENT}, "
     f"derivation={_SKIP})"),
]

# fields kept outside the tuple, so equality and hash ignore them
OUTSIDE = {(cls, "pos") for cls in (ml.TVar, ml.TPure, ml.TPrim, ml.TLet)}


def _record_classes():
    out, todo = set(), [values.Record]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if not issubclass(cls, values.Value) and cls is not values.Record:
            out.add(cls)
    return out


def test_every_record_class_has_a_sample_with_its_dataclass_repr():
    assert {type(r) for r, _ in SAMPLES} == _record_classes()
    for r, text in SAMPLES:
        assert repr(r) == text
        assert type(r)._tag == type(r).__name__


def test_equality_and_hash_ignore_exactly_the_outside_fields():
    other = object()
    for r, _ in SAMPLES:
        cls = type(r)
        for name in cls._fields:
            changed = cls(*(other if f == name else getattr(r, f) for f in cls._fields))
            if (cls, name) in OUTSIDE:
                assert changed == r and hash(changed) == hash(r), (cls, name)
            else:
                assert changed != r, (cls, name)
    # a product object's pair is not a field at all
    ab = ic.pair_object(A, B)
    bare = ic.ObjectId(ab.name)
    assert ab.pair == (A, B) and bare.pair is None
    assert bare == ab and hash(bare) == hash(ab) and repr(bare) == repr(ab)


def test_records_of_different_classes_or_values_never_equal():
    assert fo.FAnd(PHI, fo.TRUE) != fo.FOr(PHI, fo.TRUE)
    assert ic.WPair(A, B) != ic.WInj2(A, B)
    assert fo.EVar("x") != ml.TVar("x")
    assert fo.EInt(1) != vint(1) and fo.TRUE != vbool(True) and ml.TVar("x") != vstr("x")
    shapes = (values.VInt, values.VPair, values.VTag, values.VDist)
    for r, _ in SAMPLES:
        fields = tuple(r)[1:]
        for cls in _record_classes() - {type(r)}:
            if cls._arity == len(fields):
                assert tuple.__new__(cls, (cls._tag, *fields)) != r, (cls, r)
        for shape in shapes:
            if len(shape._fields) == len(fields):
                assert tuple.__new__(shape, (shape._tag, *fields)) != r, (shape, r)


# --- categories: plain classes compared by identity ---

def _categories():
    free = ic.free_category(["a", "b"], [("f", "a", "b")])
    disc = ic.DiscreteCategory((A, B))
    return [
        ic.tabulate_free(free),
        free,
        ic.MonoidCategory(op=lambda x, y: x + y, unit=0, sample=(1, 2)),
        disc,
        ic.IndiscreteCategory((A, B)),
        ic.PairCompletionCategory(disc),
        ic.ProductCategory(disc, disc),
        ic.func_category({"A": [vint(0), vint(1)]}),
        ic.TwoCategory(disc, lambda f, g: True),
        ic.WideSubcategory(disc, lambda m: True),
    ]


def test_a_category_equals_only_itself():
    for cat in _categories():
        twin = copy.copy(cat)
        assert cat == cat and hash(cat) == hash(cat)
        assert cat != twin, type(cat)
    # same unit and sample, different operation: 1 and 2 compose to 3 and to 2
    plus = ic.monoid_to_category(lambda a, b: a + b, 0, (0, 1, 2))
    top = ic.monoid_to_category(max, 0, (0, 1, 2))
    assert plus.compose(plus.elem(2), plus.elem(1)) != top.compose(top.elem(2), top.elem(1))
    assert plus != top


# (argv, exit code, sha256 of stdout) with category equality and hashing
# made to raise: no command may compare or hash a category
_WITHOUT_CATEGORY_EQUALITY = [
    (("laws", "identity", "--samples", "3"), 0,
     "d52e2dc636168ad058f0d5a0089ed5af3e368f15e59689496963a2422e7f1d6c"),
    (("laws", "glist", "--samples", "3"), 0,
     "dcab995bf9661c107f2d85a7c7827e025f579b303463da6b5ab7f32740c75178"),
    (("laws", "broken-glist", "--samples", "3"), 1,
     "ba10c2c9fdca2e3d44b809ec70229311bb193b2476be59d2ecfcd74b4ac8c844"),
    (("laws", "concst", "--samples", "3"), 0,
     "8dc2a0efa4f341f5d29766b1cccde42659304626977bafef3fc867c75cfbf0e2"),
    (("laws", "tstate", "--samples", "3"), 0,
     "69f76a25e7151cee0dc236de997d3e9a158bb4a794ba48924f81db00ef70fa9a"),
    (("laws", "ahl", "--samples", "3"), 0,
     "5daa650cac03886437897d56ed1ff71d8c4d1c13efab466ad92aaaddefd5bbb7"),
    (("laws", "broken-ahl", "--samples", "3"), 1,
     "8173f1ec33a81809bd13a2e96765fd30b82987272fde291033c2c217a901747c"),
    (("laws", "identity", "--category", "programs/lock.cat", "--samples", "3"), 0,
     "d52e2dc636168ad058f0d5a0089ed5af3e368f15e59689496963a2422e7f1d6c"),
    (("roundtrip", "--states", "2", "--samples", "3"), 0,
     "363f5f192fc70959037df5553c6e77c43d37b840bf7c000cbbdd8753ebc77fe5"),
    (("translate", "discrete-param", "catgraded", "tstate"), 0,
     "5c3de93feb007098056f187fc76954b75e69bac41e4b228709a652ae45ecb51b"),
    (("run", "programs/lock.gp"), 0,
     "8133901a75aab77dccfa16bf4ec79ad4d7644498a3f7dc9fb22456ea5f0bbeb6"),
    (("ahl", "programs/two_samplers.ahl"), 0,
     "ee23b7b2cef44e5744d0d42b1ede951b80879ee4b2f9b1f5b3d294ad0d81e9a4"),
]


def test_no_command_compares_or_hashes_a_category(capsys, monkeypatch):
    def refuse(self, *_):
        raise AssertionError(f"a {type(self).__name__} was compared or hashed")

    for cls in (ic.IndexCategory, ic.TwoCategory, ic.WideSubcategory):
        monkeypatch.setattr(cls, "__eq__", refuse)
        monkeypatch.setattr(cls, "__hash__", refuse)
    monkeypatch.chdir(REPO)
    laws = {argv[1] for argv, _, _ in _WITHOUT_CATEGORY_EQUALITY if argv[0] == "laws"}
    assert laws == set(instance_names())
    for argv, exit_code, digest in _WITHOUT_CATEGORY_EQUALITY:
        code = main(list(argv))
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest), argv


# --- outputs do not depend on the string hash seed ---

_COMMANDS = [
    ["laws", "ahl"],
    ["laws", "concst"],
    ["laws", "broken-ahl"],
    ["run", "programs/lock.gp", "--store", "3"],
    ["ahl", "programs/two_samplers.ahl"],
    ["translate", "param", "catgraded", "tstate"],
]

_RUN_ALL = f"""
import contextlib, io, sys
from cgm.cli import main
for argv in {_COMMANDS!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(argv, code, out.getvalue())
"""


def test_stdout_does_not_depend_on_the_hash_seed():
    # tagged records hash with their class name, a string, so no record's
    # hash is seed-independent any more; nothing printed may follow it
    procs = [subprocess.Popen([sys.executable, "-c", _RUN_ALL], cwd=REPO, text=True,
                              stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed))
             for seed in ("0", "4242")]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert outs[0] == outs[1]
    assert outs[0].count("['laws', 'broken-ahl'] 1") == 1
