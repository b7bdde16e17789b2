"""The cgm benchmark.

    python3 perfbench/run.py --workload {laws,gp,ahl} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --compare BASE NEW
    python3 perfbench/run.py --record-digests

Run from the root of a cgm checkout.  A run generates the workload's
inputs from the seed, then drives its fixed command list through
`cgm.cli.main`, one pass per fresh interpreter (perfbench/worker.py),
passes repeated until --seconds have been measured.  The load is a
closed loop with one client: one process, no threads, each command
starting after the previous one ends.  A fresh interpreter per pass and
a fixed command order are required because a command's time depends on
what ran before it in the same process (the value layer's sort-key
cache fills up and is hit with equal but not identical keys).

Every command's exit code and stdout are checked against the
closed-form reference in workloads.py and, where one was recorded for
the same command and inputs, against the stdout digest in
digests.json.

Times are wall times in reference seconds: each is scaled by the
host-speed probe (speed.py) to the machine's uncontended speed, because
this shared machine's speed drifts by up to half over minutes.  The
record keeps the raw wall times too.

--trace 0 reports the end-to-end metrics:
  setup_s      median time of a fresh interpreter importing cgm.cli,
               timed a few times before each pass and after the last
  wall_s       median over the passes of the whole command list's time
  cmd_s.p50    median over the commands of each command's median time
               over the passes
  peak_rss_mb  median over the passes of the process's peak resident set
--trace 1 runs one pass with the layers traced (tracer.py) and at least
one untraced pass, and reports the per-layer metrics; cli.<workload>.
<item>.s, fail_ratio and the denominator of trace.overhead come from the
untraced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Items marked as a known defect of the
program (workloads.Item.known_defect) that fail in exactly that way
count in fail_ratio but not in failed; any other mismatch counts in
both.  The full record of the run, with the Python version, platform,
commit, nproc and src/ line count, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join("perfbench", "out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_SPAWNS = 3  # before each pass and after the last
DEADLINE_S = 165.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

_LAYER_FIXED = (
    "values.table.calls", "values.table.self_s",
    "values.dist.calls", "values.dist.self_s",
    "values.vtable_get.calls", "values.vtable_get.self_s", "values.vtable_get.table_len_mean",
    "indexcat.compose.calls", "indexcat.compose.self_s",
    "indexcat.identity.calls", "indexcat.identity.self_s",
    "indexcat.contains.calls", "indexcat.contains.self_s",
    "indexcat.morphisms.self_s",
    "core.unit.calls", "core.unit.self_s",
    "core.mult.calls", "core.mult.self_s",
    "core.fmap.calls", "core.fmap.self_s",
    "core.check_laws.s",
) + tuple(f"core.law.{law}.s" for law in dict.fromkeys(
    workloads.MONAD + workloads.APPROX + workloads.GENUNIT + workloads.PARAM
    + workloads.ROUNDTRIP)) + tuple(
    f"instances.{f}.{k}" for f in tracer.INSTANCE_FIELDS for k in ("calls", "self_s")) + (
    "instances.ahl.seq.self_s", "instances.ahl.failure_prob.self_s",
    "translations.roundtrip_param.s", "translations.check_param_laws.s",
    "translations.check_graded_laws.s", "translations.check_plain_laws.s",
    "metalang.parse_program.s", "metalang.infer_grade.calls", "metalang.infer_grade.self_s",
    "metalang.eval_term.s",
    "formulas.eval_formula.calls", "formulas.eval_formula.self_s",
    "formulas.valid_implication.s",
    "ahlcheck.parse_ahl_file.s", "ahlcheck.conclusion.s", "ahlcheck.interpret.s",
    "gc.collect.s",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order.  The cli rows of
    all workloads are listed; a run reports 0 s for other workloads' items."""
    cli_rows = [f"cli.{w}.{it.name}.s" for w in workloads.WORKLOADS
                for it in workloads.build(w, 0)]
    return list(_LAYER_FIXED) + cli_rows + ["trace.overhead", "fail_ratio"]


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".table_len_mean"):
        return "entries"
    if name in ("trace.overhead", "fail_ratio"):
        return "ratio"
    return "s"


# --- running passes ---

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    # Fixed string hashing makes set and dict layouts, and so timings,
    # repeat across passes; stdout does not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 1:
        raise TimeoutError("the run would exceed its time limit")
    return left


def time_setup(t_start: float, spawns: int) -> list[float]:
    """Wall times of fresh interpreters importing cgm.cli, in reference
    seconds (speed.py)."""
    cmd = [sys.executable, "-c", "import cgm.cli"]
    times = []
    for _ in range(spawns):
        with speed.Probe() as probe:
            t0 = time.perf_counter()
            subprocess.run(cmd, env=_env(), check=True, timeout=_remaining(t_start))
            t1 = time.perf_counter()
        times.append((t1 - t0 - probe.overhead_s) * probe.scale())
    return times


def run_pass(workdir: str, t_start: float, spans: str | None = None) -> dict:
    result = os.path.join(workdir, "pass.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           os.path.join(workdir, "commands.json"), result]
    if spans is not None:
        cmd.append(spans)
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=_remaining(t_start))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(result)
    return out


def run_passes(workdir: str, seconds: float, t_start: float,
               setup: list[float] | None = None) -> list[dict]:
    """Untraced passes until `seconds` are measured; at least one.  With a
    setup list, SETUP_SPAWNS set-up timings are appended before each pass
    and after the last, so they sample the whole run."""
    passes, t0 = [], time.perf_counter()
    while True:
        if setup is not None:
            setup += time_setup(t_start, SETUP_SPAWNS)
        passes.append(run_pass(workdir, t_start))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            if setup is not None:
                setup += time_setup(t_start, SETUP_SPAWNS)
            return passes


# --- checking ---

def check_passes(items, keys, passes, digests) -> dict:
    attempted = failed = mismatched = 0
    problems: dict[str, str] = {}
    for p in passes:
        for it, key, outcome in zip(items, keys, p["outcomes"]):
            outcome["key"] = key
            why = workloads.check(it, outcome, digests)
            attempted += 1
            if why is None:
                continue
            mismatched += 1
            known = it.known_defect is not None and why.startswith(it.known_defect)
            failed += not known
            problems[it.name] = ("known defect: " if known else "") + why
    gated = attempted - sum(1 for it in items if it.known_defect) * len(passes)
    return {"attempted_all": attempted, "mismatched": mismatched,
            "attempted": gated, "failed": failed, "problems": problems}


# --- metrics ---

def pass_wall(p: dict, key: str = "seconds") -> float:
    return sum(o[key] for o in p["outcomes"])


def command_times(passes: list[dict], key: str = "ref_seconds") -> list[float]:
    """Each command's median time over the passes."""
    return [statistics.median([p["outcomes"][i][key] for p in passes])
            for i in range(len(passes[0]["outcomes"]))]


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median([pass_wall(p, "ref_seconds") for p in passes]),
        "cmd_s.p50": statistics.median(command_times(passes)),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(workload: str, passes: list[dict], traced: dict, spans: dict,
              fail_ratio: float) -> dict[str, float]:
    stats = tracer.aggregate(spans)
    out = {}
    for name in per_layer_names():
        if name.startswith("cli."):
            continue
        if name in ("trace.overhead", "fail_ratio"):
            continue
        layer, _, kind = name.rpartition(".")
        out[name] = float(stats.get(layer, {}).get(kind, 0))
    times = command_times(passes)
    for w in workloads.WORKLOADS:
        for i, it in enumerate(workloads.build(w, 0)):
            out[f"cli.{w}.{it.name}.s"] = times[i] if w == workload else 0.0
    out["trace.overhead"] = pass_wall(traced) / statistics.median([pass_wall(p) for p in passes])
    out["fail_ratio"] = fail_ratio
    return out


# --- provenance ---

def provenance() -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = 0
    for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "platform": platform.platform(),
            "commit": commit, "nproc": os.cpu_count(), "src_lines": src_lines}


# --- modes ---

def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload: str, seed: int):
    if not os.path.isfile(os.path.join("src", "cgm", "cli.py")):
        raise FileNotFoundError("run from the root of a cgm checkout (no src/cgm/cli.py)")
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    items = workloads.write_inputs(workloads.build(workload, seed), workdir)
    for it in items:
        for a in it.argv:
            if a.endswith((".gp", ".ahl", ".cat")) and not os.path.isfile(a):
                raise FileNotFoundError(f"input {a} of item {it.name} is missing")
    keys = [workloads.digest_key(it.argv) for it in items]
    with open(os.path.join(workdir, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump([{"name": it.name, "argv": it.argv} for it in items], fh)
    return workdir, items, keys


def run(args) -> int:
    t_start = time.perf_counter()
    workdir, items, keys = prepare(args.workload, args.seed)
    try:
        digests = load_digests()
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "provenance": provenance(),
                  "items": [it.name for it in items]}
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.pickle")
            traced = run_pass(workdir, t_start, spans=spans_path)
            spent = time.perf_counter() - t_start
            passes = run_passes(workdir, max(args.seconds - spent, 0), t_start)
            checked = check_passes(items, keys, passes + [traced], digests)
            untraced = check_passes(items, keys, passes, digests)
            metrics = per_layer(args.workload, passes, traced, tracer.load(spans_path),
                                untraced["mismatched"] / untraced["attempted_all"])
            units = {n: layer_unit(n) for n in metrics}
            record["spans"] = spans_path
        else:
            time_setup(t_start, 1)  # compiles the bytecode cache
            setup: list[float] = []
            passes = run_passes(workdir, args.seconds, t_start, setup)
            checked = check_passes(items, keys, passes, digests)
            metrics = end_to_end(setup, passes)
            record["setup_seconds"] = setup
            units = dict(END_TO_END)
        record.update({"passes": len(passes), "commands": len(items),
                       "raw_wall_s": [pass_wall(p) for p in passes],
                       "item_seconds": {it.name: [p["outcomes"][i]["seconds"] for p in passes]
                                        for i, it in enumerate(items)},
                       "item_ref_seconds": {
                           it.name: [p["outcomes"][i]["ref_seconds"] for p in passes]
                           for i, it in enumerate(items)},
                       "check": checked, "metrics": metrics})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-t{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"commands {len(items)}  python {record['provenance']['python']}")
    for name, problem in checked["problems"].items():
        print(f"mismatch {name}: {problem}")
    for name, value in metrics.items():
        extra = f"  (over {len(items)} commands)" if name == "cmd_s.p50" else ""
        print(f"{name:<40} {value:.6g} {units[name]}{extra}")
    print(f"record {out_path}")
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def record_digests() -> int:
    """Record the stdout digest of every command of every workload at the
    default seed, from the code in this checkout.  Only outputs that pass
    the closed-form checks are recorded."""
    t_start = time.perf_counter()
    digests = {}
    for w in workloads.WORKLOADS:
        workdir, items, keys = prepare(w, 0)
        try:
            p = run_pass(workdir, t_start)
            checked = check_passes(items, keys, [p], {})
            for it, key, o in zip(items, keys, p["outcomes"]):
                if it.name not in checked["problems"]:
                    digests[key] = hashlib.sha256(o["stdout"].encode()).hexdigest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        t_start = time.perf_counter()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


def _load_results(path: str) -> list[dict]:
    paths = (sorted(glob.glob(os.path.join(path, "result-*.json")))
             if os.path.isdir(path) else [path])
    out = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def compare(base_path: str, new_path: str) -> int:
    """Ratio new/base of the median of every metric, per workload."""
    def medians(records):
        by = {}
        for r in records:
            for name, v in r["metrics"].items():
                by.setdefault(r["workload"], {}).setdefault(name, []).append(v)
        return {w: {n: statistics.median(vs) for n, vs in ms.items()} for w, ms in by.items()}

    base, new = medians(_load_results(base_path)), medians(_load_results(new_path))
    print(f"{'workload':<8} {'metric':<40} {'base':>12} {'new':>12} {'new/base':>9}")
    for w in sorted(set(base) & set(new)):
        for name in sorted(set(base[w]) & set(new[w])):
            b, n = base[w][name], new[w][name]
            ratio = f"{n / b:.3f}" if b else "n/a"
            print(f"{w:<8} {name:<40} {b:>12.6g} {n:>12.6g} {ratio:>9}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="result files, or directories of them, to compare")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except (OSError, RuntimeError, TimeoutError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
