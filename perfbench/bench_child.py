"""One g24verify invocation, timed from inside the child process.

Usage: python3 bench_child.py RECORD TRACE [CLI ARGS...]

Imports ``g24verify.cli``, timing the import (the set-up cost: whatever the
package imports, numpy included if it imports numpy), then calls
``cli.main(args)``, exactly as the ``g24verify`` console script does.  With
TRACE=1 the package's modules are wrapped by `bench_trace.Tracer` first.
Timings, and with TRACE=1 the spans and the report's stage table, are
written as JSON to RECORD; the CLI's own output goes to stdout as usual.
The exit code is the CLI's.

The set-up time is the CPU time of this thread during the import
(`time.thread_time`).  Its wall time is recorded too, but on a shared host
it follows the host's load for minutes at a time, and preemption by other
threads (numpy's BLAS pool starts during the import) lands in it.
"""

import sys
import time

w0, c0 = time.perf_counter(), time.thread_time()
from g24verify import cli  # noqa: E402

w1, c1 = time.perf_counter(), time.thread_time()
numpy_imported = "numpy" in sys.modules

import importlib  # noqa: E402
import json  # noqa: E402

import bench_trace  # noqa: E402

LAYERS = ("cli", "pipeline", "gf16", "hermitian", "graph", "euclid", "cliques")


def _layer_modules() -> dict:
    """The package's layer modules; a module that no longer exists is skipped,
    so its functions are reported absent rather than failing the run."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"g24verify.{layer}")
        except ModuleNotFoundError:
            pass
    return modules


def _report(report) -> dict:
    """The report's overall status and stage table; None where it has none."""
    stages = getattr(report, "stages", None)
    return {
        "overall": getattr(report, "overall_status", None),
        "stages": None if stages is None else [
            {"name": s.name, "status": s.status, "elapsed_s": s.elapsed_ms / 1000.0,
             "detail": s.detail}
            for s in stages
        ],
    }


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    record = {
        "setup_s": c1 - c0,
        "setup_wall_s": w1 - w0,
        "numpy_imported": numpy_imported,
    }
    tracer = None
    if trace:
        tracer = bench_trace.Tracer(_layer_modules())
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        record["main_s"] = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            record["traced"] = tracer.names
            record["spans"] = tracer.spans
            record.update(_report(tracer.root_result))
        with open(record_path, "w") as fh:
            json.dump(record, fh, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
