"""Checks of the benchmark itself: its references, its metric list, and
that the traced layer metrics see the mechanisms they are meant to see.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _outcome(stdout: str, code: int = 0) -> dict:
    return {"error": None, "stdout": stdout, "stderr": "", "code": code, "key": ""}


def traced(tmp_path, workload: str, names: list[str]) -> tuple[dict, dict]:
    """Run the named items of a workload (seed 0) in one traced worker;
    returns per-item layer stats and per-item outcomes."""
    items = {it.name: it for it in workloads.write_inputs(workloads.build(workload, 0),
                                                          str(tmp_path))}
    chosen = [items[n] for n in names]
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps([{"name": it.name, "argv": it.argv} for it in chosen]))
    result, spans = tmp_path / "result.json", tmp_path / "spans.pickle"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(commands),
                    str(result), str(spans)],
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"), check=True, timeout=120)
    outcomes = json.loads(result.read_text())["outcomes"]
    data = tracer.load(str(spans))
    stats = {it.name: tracer.aggregate(data, commands={i}) for i, it in enumerate(chosen)}
    checks = {it.name: workloads.check(it, dict(o, key=""), {})
              for it, o in zip(chosen, outcomes)}
    return stats, checks


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.layer_unit(n)) for n in run.per_layer_names()]
    assert len(spec["per_layer"]) <= 128


def test_seed_changes_constants_not_sizes():
    for w in workloads.WORKLOADS:
        a, b = workloads.build(w, 1), workloads.build(w, 2)
        assert [it.name for it in a] == [it.name for it in b]
        for x, y in zip(a, b):
            assert [t.count("\n") for t in x.files.values()] == \
                [t.count("\n") for t in y.files.values()]
        assert [it.files for it in a] == [it.files for it in workloads.build(w, 1)]


def test_references_reject_wrong_answers():
    gp = {it.name: it for it in workloads.build("gp", 0)}
    k2 = gp["k2"]
    assert workloads.check(k2, _outcome(k2.stdout), {}) is None
    assert workloads.check(k2, _outcome(k2.stdout.replace("((), 2)", "((), 3)")), {})
    assert workloads.check(k2, _outcome(k2.stdout, code=2), {})
    assert workloads.check(k2, _outcome(k2.stdout), {"": "0" * 64})

    ahl = {it.name: it for it in workloads.build("ahl", 0)}
    assert ahl["chain100_under"].code == 1
    assert "verdict: invalid" in ahl["chain100_under"].stdout
    assert "failure 19/100" in ahl["chain100"].stdout
    assert "failure 91/216" in ahl["chain216"].stdout

    laws = {it.name: it for it in workloads.build("laws", 0)}
    lines = ["instance: glist", "samples: 200", "seed: 0"]
    lines += [f"law {n}: 200/200" for n in workloads.MONAD + workloads.APPROX]
    good = "\n".join(lines + ["failures: 0", ""])
    assert workloads.check(laws["glist"], _outcome(good), {}) is None
    assert workloads.check(laws["glist"], _outcome(good.replace("assoc: 200/", "assoc: 199/")),
                           {})
    assert workloads.check(laws["broken-glist"], _outcome(good, code=1), {})


def test_vtable_get_sees_the_state_count(tmp_path):
    stats, checks = traced(tmp_path, "ahl", ["skip10", "skip1000", "weakskip1000"])
    assert checks == {"skip10": None, "skip1000": None, "weakskip1000": None}
    assert stats["skip10"]["values.vtable_get"]["table_len_mean"] == pytest.approx(10, rel=0.1)
    for name in ("skip1000", "weakskip1000"):
        assert stats[name]["values.vtable_get"]["table_len_mean"] == pytest.approx(1000, rel=0.1)


def test_mult_calls_rise_with_k(tmp_path):
    names = ["k1", "k2", "k3", "k4"]
    stats, checks = traced(tmp_path, "gp", names)
    assert all(v is None for v in checks.values())
    calls = [stats[n]["core.mult"]["calls"] for n in names]
    assert all(a < b for a, b in zip(calls, calls[1:])), calls


def test_grade_inference_grows_faster_than_linearly(tmp_path):
    stats, checks = traced(tmp_path, "gp", ["stmt60", "stmt180"])
    assert checks == {"stmt60": None, "stmt180": None}
    ratio = (stats["stmt180"]["metalang.infer_grade"]["self_s"]
             / stats["stmt60"]["metalang.infer_grade"]["self_s"])
    assert ratio > 3 * 1.5, ratio  # 3x the statements, well over 3x the time


def test_tracing_keeps_the_stack_limit(tmp_path):
    _, checks = traced(tmp_path, "gp", ["stmt180", "stmt270"])
    assert checks["stmt180"] is None
    assert checks["stmt270"].startswith("RecursionError")
