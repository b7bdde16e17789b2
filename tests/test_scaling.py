"""Scaling rows: how the work of one command grows with its input.

Each row runs one in-process `cli.main` at sizes n and 4n and counts the
Python-level `call` events it makes (`sys.setprofile`).  A count is the
same on every run and machine, where a timing is not, so a row can
gate growth: a linear command makes about 4 times the calls at 4n, and
a row fails above 4.6.  Each size is run once before it is counted, so
caches that one call fills for the rest of the process (the argument
parser, say) are counted in no row.  Work inside one frame, a loop or a
C-level tuple concatenation, is not a call, so a row does not see it.
"""

import contextlib
import io
import sys

import pytest

from cgm.cli import main

LINEAR = 4.6


def _calls(argv) -> int:
    """The `call` events of one `main(argv)`, which must exit 0."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        n += event == "call"

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)  # warm-up: fills the per-process caches
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
    assert code == 0, out.getvalue()
    return n


def _lock_rounds(tmp_path, rounds):
    gp = tmp_path / f"rounds{rounds}.gp"
    gp.write_text("instance concst\nstart free\ndo {\n"
                  + "lock; put(1); unlock;\n" * rounds + "pure ()\n}\n")
    return ["run", str(gp)]


def _skip_conjuncts(tmp_path, conjuncts):
    c = " && ".join(f"(x != {i % 10})" for i in range(conjuncts))  # left-nested
    ahl = tmp_path / f"conjuncts{conjuncts}.ahl"
    ahl.write_text(f"var x : int[0..9]\nconclude 0 : {c} => {c}\nskip : {c}\n")
    return ["ahl", str(ahl)]


@pytest.mark.parametrize("build, n", [
    (_lock_rounds, 50),       # row 1: `run` of n rounds of `lock; put(1); unlock`
    (_skip_conjuncts, 100),   # row 2: `ahl` of `skip : c`, c of n conjuncts
], ids=["run-lock-rounds", "ahl-skip-conjuncts"])
def test_calls_grow_linearly(tmp_path, build, n):
    small, large = _calls(build(tmp_path, n)), _calls(build(tmp_path, 4 * n))
    assert large <= LINEAR * small, (small, large, large / small)
