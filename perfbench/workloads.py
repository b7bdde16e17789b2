"""Workload generators and their independent references.

Each workload is a fixed, ordered list of `cgm` command lines.  Inputs
that are not repository programs are generated from the seed: the seed
is the `--seed` of the law checks and picks the `--store` start values
and the constants in `.ahl` formulas, never sizes, so every seed asks for
the same amount of work.  Every item carries the answer it must
produce, computed here in closed form without importing cgm.

Workloads:

* laws -- the law-harness traffic: every instance's law suite, a `.cat`
  file, the five translations and the typed-state round trip.
* gp   -- generated `.gp` programs that stress the metalanguage and the
  lock instance (bind chains of growing length and store size, shared
  continuations, long bind-free programs).
* ahl  -- generated `.ahl` derivations that stress the derivation
  checker, formulas and large value tables (growing state spaces, rand
  chains, and re-checks of one program in a warm process).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("laws", "gp", "ahl")

WHY = {
    "laws": "law harness: 7 instances at 200 samples, a .cat file, 5 translations, round "
            "trip; stresses core, instances, indexcat, values; fresh interpreter per pass as "
            "caches carry over",
    "gp": ".gp bind chains k=1..5 over stores of 8/16/32, bind-free programs of 60/180/270 "
          "statements; stresses metalang and the lock instance; formulas and ahlcheck idle",
    "ahl": ".ahl derivations over 10..1000 states (10^4 left out for run length), rand "
           "chains, warm re-checks; stresses ahlcheck, formulas, the ahl instance, big tables",
}


@dataclass
class Item:
    """One command of a workload and the answer it must give."""

    name: str
    argv: list[str]
    code: int
    stdout: str | None = None          # exact expected stdout, when known
    laws: dict | None = None           # law-report expectation, see check_laws_output
    known_defect: str | None = None    # exception name the seed code is known to raise
    files: dict[str, str] = field(default_factory=dict)  # relpath -> content to write


# --- laws ---

MONAD = ("payload.validity", "functor.identity", "functor.composition", "unit.left",
         "unit.right", "assoc", "naturality.unit", "naturality.mult",
         "bind.left_unit", "bind.right_unit", "bind.assoc")
APPROX = ("approx.identity", "approx.vertical", "approx.unit", "approx.horizontal")
GENUNIT = ("genunit.compose", "genunit.identity", "genunit.naturality")
PARAM = ("punit.left", "punit.right", "passoc", "pdinat.mu", "pdinat.unit",
         "pbifunctor.identity", "pbifunctor.compose")
ROUNDTRIP = ("roundtrip.eta", "roundtrip.mu", "roundtrip.value_map", "roundtrip.morph_map")

# instance -> (law structure, lawful?)
INSTANCES = {
    "identity": (MONAD, True),
    "glist": (MONAD + APPROX, True),
    "broken-glist": (MONAD + APPROX, False),
    "concst": (MONAD, True),
    "tstate": (MONAD + GENUNIT, True),
    "ahl": (MONAD + APPROX + GENUNIT, True),
    "broken-ahl": (MONAD + APPROX + GENUNIT, False),
}

TRANSLATIONS = (
    ("monad", "catgraded", "list", [(MONAD, 200)]),
    ("graded", "catgraded", "glist", [(MONAD, 200)]),
    ("pograded", "2catgraded", "glist", [(MONAD + APPROX, 200)]),
    ("discrete-param", "catgraded", "tstate", [(MONAD, 200)]),
    ("param", "catgraded", "tstate", [(PARAM, 60), (MONAD, 60), (GENUNIT, 60)]),
)

SAMPLES = 200


def _laws_items(seed: int) -> list[Item]:
    items = []
    header = lambda name: [f"instance: {name}", f"samples: {SAMPLES}", f"seed: {seed}"]
    for inst, (laws, lawful) in INSTANCES.items():
        items.append(Item(
            inst, ["laws", inst, "--seed", str(seed)], 0 if lawful else 1,
            laws={"header": header(inst), "runs": [(n, SAMPLES) for n in laws],
                  "lawful": lawful}))
    items.append(Item(
        "identity_cat",
        ["laws", "identity", "--category", "programs/lock.cat", "--seed", str(seed)], 0,
        laws={"header": header("identity"), "runs": [(n, SAMPLES) for n in MONAD],
              "lawful": True}))
    for src, tgt, inst, groups in TRANSLATIONS:
        items.append(Item(
            f"translate_{src}", ["translate", src, tgt, inst], 0,
            laws={"header": [f"translate: {src} -> {tgt} ({inst})"],
                  "runs": [(n, k) for names, k in groups for n in names],
                  "lawful": True}))
    for n in (1, 2, 3):
        items.append(Item(
            f"roundtrip{n}", ["roundtrip", "--states", str(n), "--seed", str(seed)], 0,
            laws={"header": [f"states: {n}"], "runs": [(r, 50) for r in ROUNDTRIP],
                  "lawful": True}))
    return items


def check_laws_output(expect: dict, stdout: str) -> str | None:
    """A lawful report runs `samples` instantiations of every law with no
    failure; a mutant's report runs them all and shows at least one, with
    one FAIL block per failed instantiation."""
    lines = stdout.split("\n")
    head = len(expect["header"])
    if lines[:head] != expect["header"]:
        return f"header {lines[:head]!r}"
    runs = expect["runs"]
    law_lines = lines[head:head + len(runs)]
    if len(law_lines) < len(runs):
        return "report is missing law lines"
    failed_runs = 0
    for (name, k), line in zip(runs, law_lines):
        prefix = f"law {name}: "
        if not line.startswith(prefix):
            return f"expected law {name}, got {line!r}"
        passed, _, run = line[len(prefix):].partition("/")
        if run != str(k) or not passed.isdigit() or int(passed) > k:
            return f"law {name}: {line!r}, expected {k} runs"
        failed_runs += k - int(passed)
    rest = lines[head + len(runs):]
    if len(rest) < 2 or rest[-1] != "" or rest[-2] != f"failures: {failed_runs}":
        return f"failure count does not match the law lines ({failed_runs} failed)"
    blocks = sum(1 for line in rest if line.startswith("FAIL "))
    if blocks != failed_runs:
        return f"{blocks} FAIL blocks for {failed_runs} failures"
    if expect["lawful"] and failed_runs:
        return f"lawful instance reported {failed_runs} failures"
    if not expect["lawful"] and not failed_runs:
        return "mutant reported no failure"
    return None


# --- gp ---

def _gp_program(hi: int, stmts: list[str]) -> str:
    body = ";\n".join(f"  {s}" for s in stmts)
    return f"instance concst\nstart free\nstore int[0..{hi}]\n\ndo {{\n{body}\n}}\n"


def _grade(prims: list[str]) -> str:
    return f"grade: {';'.join(prims)} : free -> free"


def _table(entries: list[tuple[int, int]]) -> str:
    return "{" + "; ".join(f"{s} -> ((), {v})" for s, v in entries) + "}"


def _gp_chain(name: str, k: int, hi: int, write: str | None, store: int | None) -> Item:
    """k x `x <- get; put(x + 1)` (or `put(c)` when write is a constant)."""
    put = write if write is not None else "x + 1"
    stmts = ["lock"] + [s for _ in range(k) for s in ("x <- get", f"put({put})")] + ["unlock"]
    path = f"{name}.gp"
    grade = _grade(["lock"] + ["get", "put"] * k + ["unlock"])
    final = (lambda s: int(write)) if write is not None else (lambda s: s + k)
    if store is None:
        out = f"result: {_table([(s, final(s)) for s in range(hi + 1) if final(s) <= hi])}"
        argv = ["run", path]
    else:
        out = f"store {store}: result (), final {final(store)}"
        argv = ["run", path, "--store", str(store)]
    return Item(name, argv, 0, stdout=f"{grade}\n{out}\n",
                files={path: _gp_program(hi, stmts)})


def _gp_bindfree(name: str, rounds: int, known_defect: str | None = None) -> Item:
    """`lock; put(1); unlock` repeated: 3 * rounds statements, no binds."""
    stmts = ["lock", "put(1)", "unlock"] * rounds
    path = f"{name}.gp"
    grade = _grade(["lock", "put", "unlock"] * rounds)
    out = f"result: {_table([(s, 1) for s in range(8)])}"
    return Item(name, ["run", path], 0, stdout=f"{grade}\n{out}\n",
                known_defect=known_defect, files={path: _gp_program(7, stmts)})


def _gp_items(seed: int) -> list[Item]:
    rng = random.Random(f"gp/{seed}")
    items = [_gp_chain(f"k{k}", k, 7, None, None) for k in range(1, 6)]
    items.append(_gp_chain("s16k3", 3, 15, None, rng.randint(0, 12)))
    items.append(_gp_chain("s32k2", 2, 31, None, rng.randint(0, 29)))
    items.append(_gp_chain("const4", 4, 7, "0", None))
    items.append(_gp_bindfree("stmt60", 20))
    items.append(_gp_bindfree("stmt180", 60))
    store = rng.randint(0, 6)
    items.append(Item(
        "lockgp", ["run", "programs/lock.gp", "--store", str(store)], 0,
        stdout=f"{_grade(['lock', 'get', 'put', 'unlock'])}\n"
               f"store {store}: result (), final {store + 1}\n"))
    # Evaluation recurses a few frames per statement and overflows the
    # default stack between 246 and 249 statements; 270 leaves a margin so
    # the crash does not hinge on the caller's stack depth.  Last, so the
    # crash cannot disturb the items before it.
    items.append(_gp_bindfree("stmt270", 90, known_defect="RecursionError"))
    return items


# --- ahl ---

def _conj(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        out = f"({out} && {p})"
    return out


def _ahl_file(nvars: int, hi: int, conclude: str, derivation: str) -> str:
    decls = "".join(f"var x{i} : int[0..{hi}]\n" for i in range(nvars))
    return f"{decls}\nconclude {conclude}\n\n{derivation}\n"


def _node(rule: str, beta, pre: str, post: str, failure) -> str:
    return f"node {rule}: beta {beta}, pre {pre}, post {post}, failure {failure}"


def _ahl_item(name: str, text: str, nodes: list[str], beta, pre: str, post: str,
              reason: str | None = None) -> Item:
    lines = nodes + [f"conclusion: |-{beta} : {pre} => {post}"]
    if reason:
        lines.append(f"reason: {reason}")
    lines.append(f"verdict: {'invalid' if reason else 'valid'}")
    path = f"{name}.ahl"
    return Item(name, ["ahl", path], 1 if reason else 0,
                stdout="\n".join(lines) + "\n", files={path: text})


# Formulas constrain the variables that sort last, so the states they
# select are spread evenly through the checker's state tables and the
# seed-chosen constants do not change how far a table lookup scans.

def _skip(name: str, nvars: int, c: int) -> Item:
    phi = f"(x{nvars - 1} != {c})"
    text = _ahl_file(nvars, 9, f"0 : {phi} => {phi}", f"skip : {phi}")
    return _ahl_item(name, text, [_node("skip", 0, phi, phi, 0)], 0, phi, phi)


def _weak_skip(name: str, nvars: int, c: int, d: int) -> Item:
    """`weak` strengthens the pre-condition of a `skip`; c != d."""
    x = f"x{nvars - 1}"
    pre, mid = f"({x} == {c})", f"({x} != {d})"
    text = _ahl_file(nvars, 9, f"0 : {pre} => {mid}",
                     f"weak 0 : {pre} => {mid} {{ skip : {mid} }}")
    nodes = [_node("skip", 0, mid, mid, 0), _node("weak", 0, pre, mid, 0)]
    return _ahl_item(name, text, nodes, 0, pre, mid)


def _rand_chain(nvars: int, r: int, cs: list[int], beta: Fraction):
    """seq of `rand x 0 r` over the variables from the last to the first,
    node j claiming beta and adding (x != cs[j]) to the post.

    Each rand node fails with probability 1/(r+1); the prefix of j nodes
    fails with probability 1 - (r/(r+1))^j and claims j * beta (the union
    bound saturating at 1).  Returns (derivation text, node lines,
    conclusion bound, conclusion post, the first node over its bound)."""
    p = Fraction(1, r + 1)
    xs = [f"x{nvars - 1 - j}" for j in range(nvars)]
    posts = [_conj([f"({xs[i]} != {cs[i]})" for i in range(j + 1)]) for j in range(nvars)]
    steps, nodes = [], []
    first_bad = None
    for j in range(nvars):
        pre = "true" if j == 0 else posts[j - 1]
        steps.append(f"  rand {xs[j]} 0 {r} : {beta} : {pre} => {posts[j]}")
        nodes.append(_node("rand", beta, pre, posts[j], p))
        if p > beta and first_bad is None:
            first_bad = ("rand", p, beta)
        if j > 0:
            seq_beta = min((j + 1) * beta, Fraction(1))
            seq_fail = 1 - (1 - p) ** (j + 1)
            nodes.append(_node("seq", seq_beta, "true", posts[j], seq_fail))
            if seq_fail > seq_beta and first_bad is None:
                first_bad = ("seq", seq_fail, seq_beta)
    text = "seq {\n" + ";\n".join(steps) + "\n}"
    return text, nodes, min(nvars * beta, Fraction(1)), posts[-1], first_bad


def _chain(name: str, nvars: int, r: int, cs: list[int], beta: Fraction) -> Item:
    deriv, nodes, total, post, bad = _rand_chain(nvars, r, cs, beta)
    text = _ahl_file(nvars, r, f"{total} : true => {post}", deriv)
    reason = None
    if bad:
        rule, fail, bound = bad
        reason = (f"{rule} node: failure probability {fail} "
                  f"exceeds bound {bound}")
    return _ahl_item(name, text, nodes, total, "true", post, reason)


def _chain_weak(name: str, r: int, cs: list[int], bound: Fraction) -> Item:
    """The two-node chain under `weak bound : true => (x1 != cs[0])`."""
    p = Fraction(1, r + 1)
    deriv, nodes, _total, _post, _bad = _rand_chain(2, r, cs, p)
    post = f"(x1 != {cs[0]})"
    text = _ahl_file(2, r, f"{bound} : true => {post}",
                     f"weak {bound} : true => {post} {{\n{deriv}\n}}")
    nodes = nodes + [_node("weak", bound, "true", post, p)]
    return _ahl_item(name, text, nodes, bound, "true", post)


TWO_SAMPLERS = """\
node rand: beta 1/10, pre true, post (x != 0), failure 1/10
node rand: beta 1/10, pre (x != 0), post ((x != 0) && (y != 0)), failure 1/10
node seq: beta 1/5, pre true, post ((x != 0) && (y != 0)), failure 19/100
conclusion: |-1/5 : true => ((x != 0) && (y != 0))
verdict: valid
"""


def _ahl_items(seed: int) -> list[Item]:
    rng = random.Random(f"ahl/{seed}")
    items = []
    for nvars in (1, 2, 3):
        items.append(_skip(f"skip{10 ** nvars}", nvars, rng.randint(0, 9)))
    for nvars in (1, 2, 3):
        c = rng.randint(0, 9)
        items.append(_weak_skip(f"weakskip{10 ** nvars}", nvars, c, (c + 1 + rng.randint(0, 8)) % 10))
    items.append(_chain("chain216", 3, 5, [rng.randint(0, 5) for _ in range(3)],
                        Fraction(1, 6)))
    items.append(Item("two_samplers", ["ahl", "programs/two_samplers.ahl"], 0,
                      stdout=TWO_SAMPLERS))
    # The plain 100-state chain, then two re-checks of the same program in
    # the same warm process: a weakened claim and an under-bounded one.
    cs = [rng.randint(0, 9) for _ in range(2)]
    items.append(_chain("chain100", 2, 9, cs, Fraction(1, 10)))
    items.append(_chain_weak("chain100_weak", 9, cs, Fraction(1, 4)))
    items.append(_chain("chain100_under", 2, 9, cs, Fraction(1, 20)))
    return items


def build(workload: str, seed: int) -> list[Item]:
    if workload == "laws":
        return _laws_items(seed)
    if workload == "gp":
        return _gp_items(seed)
    if workload == "ahl":
        return _ahl_items(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def write_inputs(items: list[Item], workdir: str) -> list[Item]:
    """Write generated files under workdir; rewrite argv paths to match."""
    out = []
    for it in items:
        argv = list(it.argv)
        for rel, text in it.files.items():
            path = os.path.join(workdir, rel)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [path if a == rel else a for a in argv]
        out.append(dataclasses.replace(it, argv=argv))
    return out


def digest_key(argv: list[str]) -> str:
    """Names a command by its arguments and the content of its input files,
    so the key is the same wherever the files were written."""
    h = hashlib.sha256()
    for a in argv:
        if a.endswith((".gp", ".ahl", ".cat")) and os.path.isfile(a):
            with open(a, "rb") as fh:
                a = "file:" + os.path.basename(a) + ":" + hashlib.sha256(fh.read()).hexdigest()
        h.update(a.encode() + b"\0")
    return h.hexdigest()


def check(item: Item, outcome: dict, digests: dict[str, str]) -> str | None:
    """None when the outcome matches the reference, else why it does not."""
    if outcome.get("error"):
        return outcome["error"].strip().splitlines()[-1]
    if "Traceback" in outcome["stdout"] or "Traceback" in outcome["stderr"]:
        return "traceback in output"
    if outcome["code"] != item.code:
        return f"exit code {outcome['code']}, expected {item.code}"
    if item.stdout is not None and outcome["stdout"] != item.stdout:
        return "stdout differs from the closed-form reference"
    if item.laws is not None:
        why = check_laws_output(item.laws, outcome["stdout"])
        if why:
            return why
    want = digests.get(outcome["key"])
    if want is not None and want != hashlib.sha256(outcome["stdout"].encode()).hexdigest():
        return "stdout differs from the recorded digest"
    return None
