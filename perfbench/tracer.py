"""Layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each cgm layer and
rebinds every wrapper wherever the function is reachable by name: in
each `cgm` module that imported it, on the classes that define it, and
on each instance's unit/mult/map/validator/sampler.  Every call to a
wrapped function records one span (name, start, end, parent span,
command id) in memory; `dump()` writes them out at the end and
`aggregate()` turns them into per-layer counts and times.

Rules the wrappers keep:

* recursive functions (`eval_formula`, `conclusion`, `interpret`) record
  only their outermost call;
* `sort_key` and `Value.__eq__` are not wrapped: they run millions of
  times and the wrapper would dominate what it measures;
* cyclic garbage collections get spans of their own (`gc.collect`), so
  a collection that happens to start inside a layer does not count as
  that layer's own time;
* each wrapper frame raises the interpreter's recursion limit by one
  while it is on the stack, so a program that overflows the stack
  untraced overflows at the same depth traced, and one that does not
  overflow untraced does not overflow traced.
"""

from __future__ import annotations

import gc
import pickle
import sys
from array import array
from time import perf_counter_ns

SPAN_FILE_VERSION = 1

# (span name, module, attribute): module-level functions, rebound by identity
# in every cgm module.  Names marked True record only the outermost call.
FUNCTIONS = (
    ("values.table", "cgm.values", "table", False),
    ("values.dist", "cgm.values", "dist", False),
    ("core.unit", "cgm.core", "unit", False),
    ("core.mult", "cgm.core", "mult", False),
    ("core.fmap", "cgm.core", "fmap", False),
    ("core.check_laws", "cgm.core", "check_laws", False),
    ("translations.roundtrip_param", "cgm.translations", "roundtrip_param", False),
    ("translations.check_param_laws", "cgm.translations", "check_param_laws", False),
    ("translations.check_graded_laws", "cgm.translations", "check_graded_laws", False),
    ("translations.check_plain_laws", "cgm.translations", "check_plain_laws", False),
    ("metalang.parse_program", "cgm.metalang", "parse_program", False),
    ("metalang.infer_grade", "cgm.metalang", "infer_grade", False),
    ("metalang.eval_term", "cgm.metalang", "eval_term", False),
    ("formulas.eval_formula", "cgm.formulas", "eval_formula", True),
    ("formulas.valid_implication", "cgm.formulas", "valid_implication", False),
    ("ahlcheck.parse_ahl_file", "cgm.ahlcheck", "parse_ahl_file", False),
    ("ahlcheck.conclusion", "cgm.ahlcheck", "conclusion", True),
    ("ahlcheck.interpret", "cgm.ahlcheck", "interpret", True),
)

# (span name, class path, method)
METHODS = (
    ("values.vtable_get", "cgm.values:VTable", "get"),
    ("instances.ahl.seq", "cgm.instances.ahl:AhlMonad", "seq"),
    ("instances.ahl.failure_prob", "cgm.instances.ahl:AhlMonad", "failure_prob"),
)

INDEXCAT_METHODS = ("compose", "identity", "contains", "morphisms")
INSTANCE_FIELDS = ("unit_fn", "mult_fn", "map_fn", "validator", "sampler")


def _resolve(path: str):
    mod, _, cls = path.partition(":")
    return getattr(sys.modules[mod], cls)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("H")
        self.parent = array("i")
        self.cmd = array("H")
        self.start = array("q")
        self.end = array("q")
        self.command = 0
        self.vtable_len_sum: dict[int, int] = {}  # command id -> summed table lengths
        self._stack: list[int] = []
        self._frames = 0
        self._base_limit = sys.getrecursionlimit()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, outermost_only: bool = False, label_arg: int | None = None,
             on_call=None):
        """A wrapper recording one span per call of fn.  With label_arg, the
        span is named `name.<args[label_arg]>`."""
        if getattr(fn, "__perfbench_span__", None) is not None:
            return fn
        tr = self
        nid_fixed = self._name_id(name) if label_arg is None else None
        nid_arr, parent, cmd, start, end = self.nid, self.parent, self.cmd, self.start, self.end
        stack = self._stack
        active = [0]
        setlimit = sys.setrecursionlimit

        def wrapper(*args, **kwargs):
            tr._frames += 1
            setlimit(tr._base_limit + tr._frames)
            try:
                if outermost_only and active[0]:
                    return fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args)
                nid = nid_fixed if label_arg is None else tr._name_id(f"{name}.{args[label_arg]}")
                idx = len(nid_arr)
                nid_arr.append(nid)
                parent.append(stack[-1] if stack else -1)
                cmd.append(tr.command)
                end.append(0)
                stack.append(idx)
                active[0] += 1
                start.append(perf_counter_ns())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = perf_counter_ns()
                    active[0] -= 1
                    stack.pop()
            finally:
                tr._frames -= 1
                try:
                    setlimit(tr._base_limit + tr._frames + 1)
                except RecursionError:
                    pass  # the stack is too deep to lower the limit yet; the next call will

        wrapper.__perfbench_span__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _gc_span(self, phase: str, _info) -> None:
        if phase == "start":
            stack = self._stack
            idx = len(self.nid)
            self.nid.append(self._name_id("gc.collect"))
            self.parent.append(stack[-1] if stack else -1)
            self.cmd.append(self.command)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
        else:
            self.end[self._stack.pop()] = perf_counter_ns()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import cgm.cli  # noqa: F401  (loads every layer)
        from cgm import core, indexcat

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cgm" or n.startswith("cgm.")) and m is not None]
        for name, mod, attr, outer in FUNCTIONS:
            orig = getattr(sys.modules[mod], attr)
            w = self.wrap(name, orig, outermost_only=outer)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, w)

        def count_len(args) -> None:
            lens = self.vtable_len_sum
            lens[self.command] = lens.get(self.command, 0) + len(args[0].entries)

        for name, cls_path, meth in METHODS:
            cls = _resolve(cls_path)
            on_call = count_len if name == "values.vtable_get" else None
            self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], on_call=on_call))

        classes, todo = [], [indexcat.IndexCategory]
        while todo:
            c = todo.pop()
            classes.append(c)
            todo.extend(c.__subclasses__())
        for cls in classes:
            for meth in INDEXCAT_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self.wrap(f"indexcat.{meth}", cls.__dict__[meth]))

        self._patch(core.Runner, "law", self.wrap("core.law", core.Runner.law, label_arg=1))

        init = core.CatGradedMonad.__init__
        tr = self

        def traced_init(monad, *args, **kwargs):
            init(monad, *args, **kwargs)
            for f in INSTANCE_FIELDS:
                fn = getattr(monad, f)
                if fn is not None:
                    setattr(monad, f, tr.wrap(f"instances.{f}", fn))

        self._patch(core.CatGradedMonad, "__init__", traced_init)
        gc.callbacks.append(self._gc_span)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_span)
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump({"version": SPAN_FILE_VERSION, "names": self.names,
                         "nid": self.nid, "parent": self.parent, "cmd": self.cmd,
                         "start": self.start, "end": self.end,
                         "vtable_len_sum": self.vtable_len_sum}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)


def load(path: str) -> dict:
    """Read a span file this module wrote."""
    with open(path, "rb") as fh:
        spans = pickle.load(fh)
    if spans.get("version") != SPAN_FILE_VERSION:
        raise ValueError(f"{path}: unknown span file version")
    return spans


def aggregate(spans: dict, commands=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (time covered by its outermost spans) and
    self_s (each span's duration minus what its direct children cover),
    over the spans of the given command ids (default: all)."""
    names, nid, parent, cmd = spans["names"], spans["nid"], spans["parent"], spans["cmd"]
    start, end = spans["start"], spans["end"]
    n = len(nid)
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    outer_end = [-1] * len(names)
    for i in range(n):
        if commands is not None and cmd[i] not in commands:
            continue
        k = nid[i]
        st = stats[names[k]]
        d = end[i] - start[i]
        st["calls"] += 1
        st["self_s"] += (d - child[i]) / 1e9
        if start[i] >= outer_end[k]:
            st["s"] += d / 1e9
            outer_end[k] = end[i]
    get = stats.get("values.vtable_get")
    if get is not None and get["calls"]:
        lens = spans["vtable_len_sum"]
        total = sum(v for c, v in lens.items() if commands is None or c in commands)
        get["table_len_mean"] = total / get["calls"]
    return stats
