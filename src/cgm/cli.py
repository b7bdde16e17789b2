"""Command-line front end.

    cgm laws <instance> [--samples N] [--seed S] [--format text|machine] [--category file.cat]
    cgm run <file.gp> [--store N]
    cgm ahl <file.ahl>
    cgm roundtrip --states N [--samples N] [--seed S] [--format text|machine]
    cgm translate <from> <to> <instance> [--format text|machine]

Exit codes: 0 success/valid, 1 law-or-verification failure,
2 type/grade/config error, 3 parse error.  Identical inputs and seeds
produce byte-identical output.

Commands raise their errors; `main` alone turns one into a single
stdout line and an exit code, through the first row of `_ERRORS` that
matches it: `parse error: ...` (3), `grade error: ...` (2) or
`error: ...` (2).  The exception is a derivation that parses but fails
to check: that is a failed verification, so `ahl` prints
`<ErrorClass>: ...` and `verdict: invalid` and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .ahlcheck import check_ahl, parse_ahl_file
from .catfile import parse_cat_file
from .core import LawReport, check_laws
from .errors import (
    CgmError,
    CompositionMismatch,
    ConfigError,
    GradeMismatch,
    ParseError,
    SpawnGradeError,
    UnknownPrim,
)
from .instances import (
    AhlMonad,
    build_instance,
    graded_list_graded_monad,
    list_monad,
    typed_state_param,
)
from .metalang import eval_term, infer_program, parse_program, start_object
from .translations import (
    check_param_laws,
    discrete_param_to_catgraded,
    graded_to_catgraded,
    monad_to_catgraded,
    param_to_catgraded_genunit,
    pograded_to_2catgraded,
    roundtrip_param,
)
from .values import VTable, vint


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}")


def _report_exit(report: LawReport, fmt: str) -> int:
    _emit(report.render_machine() if fmt == "machine" else report.render_text())
    return 0 if report.ok() else 1


def cmd_laws(args) -> int:
    name = args.instance
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    # the .cat file is read and parsed before the instance name is checked
    cat = None if args.category is None else parse_cat_file(_read(args.category))
    bundle = build_instance(name, category=cat)
    _emit(f"instance: {name}")
    _emit(f"samples: {args.samples}")
    _emit(f"seed: {args.seed}")
    return _report_exit(bundle.law_report(samples=args.samples, seed=args.seed),
                        args.format)


def cmd_run(args) -> int:
    program = parse_program(_read(args.path))
    bundle = build_instance(program.instance, program.store)
    start, inferred = start_object(bundle, program), infer_program(bundle, program)
    _emit(f"grade: {inferred.index}")
    states = None if args.store is None else {vint(args.store)}
    payload = eval_term(bundle, program.body, {}, start, inferred, states).payload
    if args.store is None:
        _emit(f"result: {payload.show()}")
        return 0
    if not isinstance(payload, VTable):
        raise ConfigError(f"--store needs a store-passing instance; "
                          f"the result of {program.instance} is not a table")
    key = vint(args.store)
    if not payload.has(key):
        _emit(f"store {args.store}: undefined (branch left the store domain)")
        return 2
    step = payload.get(key)
    _emit(f"store {args.store}: result {step.fst.show()}, final {step.snd.show()}")
    return 0


def cmd_ahl(args) -> int:
    f = parse_ahl_file(_read(args.path))
    try:
        verdict = check_ahl(AhlMonad(f.decls), f.derivation, claimed=f.claimed)
    except CgmError as exc:  # the derivation parses but does not check: not verified
        _emit(f"{type(exc).__name__}: {exc}")
        _emit("verdict: invalid")
        return 1
    _emit(verdict.render())
    return 0 if verdict.valid else 1


def cmd_roundtrip(args) -> int:
    n = args.states
    if not 1 <= n <= 3:
        raise ConfigError(f"--states must be between 1 and 3, got {n}")
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    P = typed_state_param({"A": n, "B": max(1, n - 1)})
    report = roundtrip_param(P, samples=args.samples, seed=args.seed)
    _emit(f"states: {n}")
    return _report_exit(report, args.format)


_TRANSLATIONS = {
    ("monad", "catgraded"): ("list", lambda: check_laws(
        monad_to_catgraded(list_monad()))),
    ("graded", "catgraded"): ("glist", lambda: check_laws(
        graded_to_catgraded(graded_list_graded_monad()))),
    ("pograded", "2catgraded"): ("glist", lambda: check_laws(
        pograded_to_2catgraded(graded_list_graded_monad()))),
    ("discrete-param", "catgraded"): ("tstate", lambda: check_laws(
        discrete_param_to_catgraded(typed_state_param({"A": 2, "B": 2},
                                                      discrete=True)))),
    ("param", "catgraded"): ("tstate", lambda: _param_forward_report()),
}


def _param_forward_report() -> LawReport:
    P = typed_state_param({"A": 2, "B": 2})
    T, G = param_to_catgraded_genunit(P)
    return check_param_laws(P, samples=60).merge(
        check_laws(T, samples=60)).merge(check_laws(G, samples=60))


def cmd_translate(args) -> int:
    key = (args.source, args.target)
    if key not in _TRANSLATIONS:
        known = ", ".join(f"{a}->{b}" for a, b in _TRANSLATIONS)
        raise ConfigError(f"unsupported translation {args.source} -> {args.target}; "
                          f"known: {known}")
    expected_instance, runner = _TRANSLATIONS[key]
    if args.instance != expected_instance:
        raise ConfigError(f"translation {args.source} -> {args.target} is built in "
                          f"for instance {expected_instance!r}")
    _emit(f"translate: {args.source} -> {args.target} ({args.instance})")
    return _report_exit(runner(), args.format)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cgm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("laws", help="run an instance's law suite")
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--category", default=None,
                   help=".cat file for the identity instance")
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("run", help="typecheck and evaluate a program file")
    p.add_argument("path")
    p.add_argument("--store", type=int, default=None,
                   help="apply the computation to this initial store")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ahl", help="verify a derivation file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_ahl)

    p = sub.add_parser("roundtrip", help="typed-state forward/backward comparison")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("translate", help="build a translation and check its laws")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("instance")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(fn=cmd_translate)

    return parser


# built on the first `main` call and reused by every later one in the process
_parser = functools.cache(make_parser)


# (error classes, stdout prefix, exit code); the first matching row wins
_ERRORS = (
    ((ParseError,), "parse error", 3),
    ((GradeMismatch, UnknownPrim, SpawnGradeError, CompositionMismatch), "grade error", 2),
    ((CgmError, OSError), "error", 2),
)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CgmError, OSError) as exc:
        prefix, code = next((p, c) for kinds, p, c in _ERRORS if isinstance(exc, kinds))
        _emit(f"{prefix}: {exc}")
        return code


if __name__ == "__main__":
    sys.exit(main())
