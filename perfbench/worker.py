"""One benchmark process: a set-up probe or one CLI call.

The benchmark starts a fresh interpreter for every probe and every CLI
call, so each pays the import a user pays. Usage (run.py does this):

    python3 perfbench/worker.py setup <task|-> <result.json>
    python3 perfbench/worker.py cli <trace 0|1> <result.json> <spans.json|-> -- <argv...>

The CLI call runs in the current directory and writes its artifacts to
the out= directory named in argv. The result file receives timings, peak
resident memory and, for a traced call, the per-layer metrics.
"""

import json
import os
import platform
import resource
import sys
from time import perf_counter


def _facts():
    import numpy
    import scipy
    from delayrc import _backend
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": _backend.active_backend(), "numba_importable": have_numba}


def setup(task):
    t0 = perf_counter()
    import delayrc.cli  # noqa: F401  (the workloads drive the CLI)
    from delayrc import pipeline
    if task != "-":
        pipeline.make_eval(task)
    setup_s = perf_counter() - t0
    return {"setup_s": setup_s, "facts": _facts()}


def cli_call(trace, spans_path, argv):
    from delayrc import _backend, cli, dynamics, hyperopt, pipeline, tasks
    out = {}
    if trace:
        from tracer import Tracer  # perfbench/ is sys.path[0]
        tracer = Tracer()
        tracer.install({"cli": cli, "dynamics": dynamics, "hyperopt": hyperopt,
                        "pipeline": pipeline, "tasks": tasks,
                        "_backend": _backend})
        t0 = perf_counter()
        rc = tracer.call("cli.main", "cli", cli.main, argv)
        out["cli_s"] = perf_counter() - t0
        out["layers"] = tracer.layer_metrics()
        _, by_name = tracer.self_ms()
        out["self_ms_by_name"] = dict(by_name)
        out["missing_bindings"] = tracer.missing
        if spans_path != "-":
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["id", "parent", "name", "stage",
                                      "t0_s", "t1_s"],
                           "spans": tracer.spans}, fh)
    else:
        t0 = perf_counter()
        rc = cli.main(argv)
        out["cli_s"] = perf_counter() - t0
    out["rc"] = rc
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(args):
    mode = args[0]
    if mode == "setup":
        result_path = args[2]
        out = setup(args[1])
    elif mode == "cli":
        trace, result_path, spans_path = args[1] == "1", args[2], args[3]
        if args[4] != "--":
            raise SystemExit(f"usage: {__doc__}")
        out = cli_call(trace, spans_path, args[5:])
    else:
        raise SystemExit(f"usage: {__doc__}")
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
