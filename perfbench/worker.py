"""Run one workload's command list in this fresh interpreter.

    python perfbench/worker.py <commands.json> <result.json> [<spans-file>]

The command list is driven in-process through `cgm.cli.main`, one
command at a time and in the given order, with stdout and stderr
captured.  Only the `cli.main` calls are timed, each both raw and scaled
to reference seconds by the host-speed probe (speed.py); the outputs are
checked by the caller.  With a spans file, the layers are traced (see
tracer.py), only raw times are taken, and the spans are written there at
the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    commands_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    if not os.path.isfile(os.path.join("src", "cgm", "cli.py")):
        print("error: run from the root of a cgm checkout (no src/cgm/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    from cgm import cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed

    tracer = None
    if spans_path is not None:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    # The traced pass is timed raw: probe ticks inside spans would count
    # as the layers' own time.
    probe = speed.Probe() if tracer is None else contextlib.nullcontext()
    outcomes = []
    for i, cmd in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.command = i
        with probe:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a result to report, not a reason to stop
                code = None
                error = traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
        seconds = t1 - t0
        if tracer is None:
            seconds -= probe.overhead_s
        outcomes.append({"seconds": seconds,
                         "ref_seconds": seconds * probe.scale() if tracer is None else None,
                         "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                         "error": error})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"outcomes": outcomes, "peak_rss_mb": rss_mb}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
