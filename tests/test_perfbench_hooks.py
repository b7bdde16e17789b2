"""The benchmark's layer tracer still finds every hook it patches.

perfbench/tracer.py wraps cgm functions and methods by name from outside
the package; a rename inside cgm would otherwise surface only as a failed
benchmark run.
"""

import gc
import importlib.util
import sys
import time
from pathlib import Path

import cgm.cli  # noqa: F401  (loads every layer, as the tracer does)
from cgm import core, indexcat

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hooks_resolve_and_uninstall_to_the_originals():
    start = time.perf_counter()
    tracer = _load_tracer()
    for _, mod, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules[mod], attr, None)), (mod, attr)
    for _, cls_path, meth in tracer.METHODS:
        assert meth in vars(tracer._resolve(cls_path)), (cls_path, meth)
    classes, todo = [], [indexcat.IndexCategory]
    while todo:
        classes.append(todo.pop())
        todo.extend(classes[-1].__subclasses__())
    for meth in tracer.INDEXCAT_METHODS:
        assert any(meth in vars(c) for c in classes), meth

    tr = tracer.Tracer()
    tr.install()
    try:
        patches = list(tr._patches)
        assert getattr(core.Runner.law, "__perfbench_span__", None) == "core.law"
    finally:
        tr.uninstall()
    assert patches
    for owner, attr, orig in patches:
        assert getattr(owner, attr) is orig, (owner, attr)
    assert not hasattr(core.Runner.law, "__perfbench_span__")
    assert tr._gc_span not in gc.callbacks
    assert time.perf_counter() - start < 1.0
