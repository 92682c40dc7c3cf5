"""Instrumented `qetsim` invocation for cli-cold's traced run.

Usage: python -X importtime perfbench/cli_child.py <qetsim arguments...>

Times `import qetsim.cli` and `main(argv)` inside the child, records spans
of the wrapped layer functions, and prints one JSON report on stdout: the
CLI's own stdout, its exit code, the monotonic clock at interpreter start
(the parent subtracts its spawn time), both timings and the spans.
"""

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main(argv) -> None:
    t0 = time.perf_counter()
    import qetsim.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer), contextlib.redirect_stdout(io.StringIO()) as out:
        tracer.begin_op(0)
        t0 = time.perf_counter()
        try:
            returncode = qetsim.cli.main(argv)
        finally:
            main_s = time.perf_counter() - t0
            tracer.end_op()
    report = {
        "returncode": returncode,
        "stdout": out.getvalue(),
        "started": STARTED,
        "import_s": import_s,
        "main_s": main_s,
        "spans": tracer.export(),
    }
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
