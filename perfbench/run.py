#!/usr/bin/env python3
"""delayrc benchmark: three closed-loop workloads driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src; nothing is installed). One process at a time: every set-up probe
and every CLI call is a fresh interpreter running perfbench/worker.py,
which calls delayrc.cli.main(argv). Calls follow one another until
about --seconds have been spent in them, rounded to whole calls (closed
loop, one client). Every call's artifacts are compared with the sha256
digests in expected.json, recorded from the package as it stood when the
benchmark was defined; the package's own rule is that these files stay
byte-identical.

Workload inputs are pinned to the CLI's default seeds, which is what
makes the digests and `result_error` exact. --seed is accepted and
reported but changes no input, so equal seeds give equal inputs.

--trace 0 prints the end-to-end metrics (tracing off). --trace 1
alternates untraced and traced calls and prints per-layer metrics from
the traced ones (see tracer.py), plus the tracing overhead: the median
traced call minus the median untraced call. Each per-layer value is the
median over traced calls of a per-CLI-call figure. The last traced
call's spans are kept in .perfbench_runs/<workload>.spans.json.

The last stdout line is the result object; the line before it gives the
machine facts. stderr gets a readable table of the same numbers.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
DEADLINE_S = 160          # a run must end within 180 s
SETUP_PROBES = 7          # timed, after one untimed warm-up probe

# Why each workload exists is in BENCHMARK.json. ops = operations per CLI
# call: study trials, sweep evaluations (grid points x repeats), axis values.
WORKLOADS = {
    "narma10-study": {
        "argv": ["optimize", "task=narma10", "optimize.budget=60"],
        "task": "narma10", "ops": 60,
        "artifacts": ("study.jsonl", "best.cfg", "effective.cfg")},
    "sine_square-sweep": {
        "argv": ["sweep-delay", "task=sine_square",
                 "sweep.grid=0.25:2.0:0.25", "sweep.repeats=3"],
        "task": "sine_square", "ops": 8 * 3,
        "artifacts": ("sweep.csv", "effective.cfg")},
    "bifurcation": {
        "argv": ["dynamics", "bifurcation", "dynamics.steps=31"],
        "task": "-", "ops": 31,
        "artifacts": ("bifurcation.csv", "effective.cfg")},
}

# ops_per_s: operations per second of a CLI call, median over calls.
# setup_s: fresh-process import of delayrc plus building the workload's
#   evaluator (pipeline.make_eval), median over probes.
# peak_rss_mb: peak resident memory of a CLI call's process, median.
# ok_frac: operations that completed with status ok and correct output,
#   over those attempted (failed study trials count against it).
# result_error: best study NMSE, mean sweep NMSE, or the largest
#   fixed-point residual of the bifurcation; read from the artifacts.
#
# Which end-to-end figure each layer should move, and where:
#   tasks.*            ops_per_s, setup_s on narma10-study; nothing on the sweep
#   reservoir.*        ops_per_s on sine_square-sweep, then narma10-study;
#                      peak_rss_mb if the recursion is batched
#   readout.*          ~1% of a trial each, kept so a regression shows
#   pipeline.*         setup_s and ops_per_s on both reservoir workloads
#   hyperopt.*         ops_per_s and ok_frac on narma10-study
#   dynamics.*         ops_per_s on bifurcation
#   cli.*              ops_per_s on bifurcation and sine_square-sweep
# delayline is not measured: no workload calls it.
# Names and units of both metric sets are read from BENCHMARK.json.

# study status reasons, grouped as the per-layer failure counters
_CONFIG_FAILURES = ("ConfigurationError", "DataFormatError")
_NUMERIC_FAILURES = ("NumericsError", "SingularMatrixError", "LinAlgError",
                     "FloatingPointError", "non-finite loss")

# result_error when the artifacts cannot be read at all
_UNREADABLE = 1e9


class HarnessError(Exception):
    """The benchmark could not run (as opposed to the program failing)."""


# ------------------------------------------------------------------ workers

def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # numba is not the path under test; pin the numpy block recursion
    env["DELAYRC_BACKEND"] = "numpy"
    # one load-generating process with one BLAS thread stays within nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, cwd, env, timeout):
    """Run worker.py; return (result dict or None, stderr tail)."""
    result_path = os.path.join(cwd, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args[0],
           args[1], result_path] + list(args[2:])
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return None, proc.stderr[-2000:]
    with open(result_path) as fh:
        return json.load(fh), proc.stderr[-2000:]


# -------------------------------------------------------------- output check

def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def _study_figures(out):
    trials = []
    with open(os.path.join(out, "study.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("record") == "trial":
                trials.append(rec)
    losses = [t["loss"] for t in trials if t["status"] == "ok"]
    reasons = [t["status"].split(":")[1].strip()
               for t in trials if t["status"] != "ok"]
    return (min(losses) if losses else _UNREADABLE), reasons


def _sweep_figure(out):
    rows = _csv_rows(os.path.join(out, "sweep.csv"))
    return statistics.fmean(float(r["nmse_mean"]) for r in rows)


def _effective(out):
    cfg = {}
    with open(os.path.join(out, "effective.cfg")) as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            cfg[key] = val
    return cfg


def _bifurcation_figure(out):
    """Largest |f^q(x*) - x*| over the listed period-q points, with f the
    map (G/2)(1 + M sin(pi (x + x_b))) evaluated here, not by delayrc."""
    cfg = _effective(out)
    M, x_b = float(cfg["dynamics.M"]), float(cfg["dynamics.x_b"])
    worst = 0.0
    for r in _csv_rows(os.path.join(out, "bifurcation.csv")):
        if r["branch_id"] == "-1":
            continue
        G, x_star = float(r["axis_value"]), float(r["x_star"])
        x = x_star
        for _ in range(int(r["period"])):
            x = 0.5 * G * (1.0 + M * math.sin(math.pi * (x + x_b)))
        worst = max(worst, abs(x - x_star))
    return worst


def check_call(name, call_dir, expected):
    """Compare a call's artifacts with the recorded digests and read its
    result figures. Returns a dict: correct, mismatched, result, reasons,
    bytes."""
    out = os.path.join(call_dir, "out")
    mismatched = [a for a in WORKLOADS[name]["artifacts"]
                  if not os.path.isfile(os.path.join(out, a))
                  or _sha256(os.path.join(out, a)) != expected[a]]
    res = {"correct": not mismatched, "mismatched": mismatched,
           "result": _UNREADABLE, "reasons": [], "study_bytes": 0,
           "csv_bytes": 0}
    try:
        if name == "narma10-study":
            res["result"], res["reasons"] = _study_figures(out)
            res["study_bytes"] = os.path.getsize(os.path.join(out, "study.jsonl"))
        elif name == "sine_square-sweep":
            res["result"] = _sweep_figure(out)
        else:
            res["result"] = _bifurcation_figure(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        res["correct"] = False
        res["mismatched"].append(f"unreadable: {exc}")
    if os.path.isdir(out):
        res["csv_bytes"] = sum(os.path.getsize(os.path.join(out, f))
                               for f in os.listdir(out) if f.endswith(".csv"))
    return res


# ---------------------------------------------------------------------- run

def run_calls(name, run_dir, env, seconds, trace, t_start, spans_path):
    """Closed loop of CLI calls while less than half a call's time is
    left of `seconds`, so a run holds a whole number of calls. With trace,
    calls alternate untraced/traced, starting untraced."""
    spec = WORKLOADS[name]
    calls = []
    spent, longest = 0.0, 0.0
    while True:
        traced = trace and len(calls) % 2 == 1
        if calls:
            enough = spent + 0.5 * spent / len(calls) >= seconds
            if enough and (not trace or any(c["traced"] for c in calls)):
                break
        remaining = DEADLINE_S - (time.perf_counter() - t_start)
        if calls and remaining < 1.5 * longest:
            break
        call_dir = os.path.join(run_dir, f"call-{len(calls)}")
        os.mkdir(call_dir)
        t0 = time.perf_counter()
        res, err = _worker(["cli", "1" if traced else "0",
                            spans_path if traced else "-", "--",
                            *spec["argv"], "out=out"],
                           call_dir, env, max(remaining, 1.0))
        elapsed = time.perf_counter() - t0
        spent += elapsed
        longest = max(longest, elapsed)
        calls.append({"dir": call_dir, "traced": traced, "worker": res,
                      "stderr": err})
        if res is None:
            break      # crashed or timed out: later calls would too
    return calls


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(name, calls, expected):
    """Per-call checks, operation counts and failure reasons."""
    ops = WORKLOADS[name]["ops"]
    attempted = failed = ok_ops = 0
    for c in calls:
        attempted += ops
        w = c["worker"]
        if w is None or w["rc"] != 0:
            c["check"] = {"correct": False, "result": _UNREADABLE,
                          "mismatched": ["cli call failed: " + c["stderr"]],
                          "reasons": [], "study_bytes": 0, "csv_bytes": 0}
        else:
            c["check"] = check_call(name, c["dir"], expected)
        if c["check"]["correct"]:
            ok_ops += ops - len(c["check"]["reasons"])
        else:
            failed += ops
    return attempted, failed, ok_ops


def end_to_end(name, calls, setup_times, attempted, ok_ops):
    done = [c for c in calls if c["worker"] is not None]
    ops = WORKLOADS[name]["ops"]
    return {
        "ops_per_s": _median([ops / c["worker"]["cli_s"] for c in done]),
        "setup_s": _median(setup_times),
        "peak_rss_mb": _median([c["worker"]["peak_rss_mb"] for c in done]),
        "ok_frac": ok_ops / attempted,
        "result_error": _median([c["check"]["result"] for c in calls]),
    }


def per_layer(calls, attempted, ok_ops):
    traced = [c for c in calls if c["traced"] and c["worker"] is not None]
    plain = [c for c in calls if not c["traced"] and c["worker"] is not None]
    keys = traced[0]["worker"]["layers"].keys() if traced else ()
    m = {k: _median([c["worker"]["layers"][k] for c in traced]) for k in keys}
    reasons = [r for c in calls for r in c["check"]["reasons"]]
    n_calls = max(len(calls), 1)
    config = sum(r in _CONFIG_FAILURES for r in reasons)
    numerical = sum(r in _NUMERIC_FAILURES for r in reasons)
    m.update({
        "hyperopt.io_bytes": _median([c["check"]["study_bytes"] for c in traced]),
        "hyperopt.failed_trials": len(reasons) / n_calls,
        "hyperopt.failed_config": config / n_calls,
        "hyperopt.failed_numerical": numerical / n_calls,
        "hyperopt.failed_other": (len(reasons) - config - numerical) / n_calls,
        "failed_frac": 1.0 - ok_ops / attempted,
        "cli.csv_bytes": _median([c["check"]["csv_bytes"] for c in traced]),
        "trace.wall_ms": 1e3 * _median([c["worker"]["cli_s"] for c in traced]),
        "trace.untraced_wall_ms":
            1e3 * _median([c["worker"]["cli_s"] for c in plain]),
    })
    m["trace.overhead_ms"] = m["trace.wall_ms"] - m["trace.untraced_wall_ms"]
    return m


def _report(name, seed, facts, calls, metrics, units, by_name):
    err = sys.stderr
    print(f"workload {name} seed {seed} (inputs pinned), {len(calls)} CLI "
          f"calls, {sum(c['traced'] for c in calls)} traced", file=err)
    print("machine " + json.dumps(facts), file=err)
    for c in calls:
        chk = c["check"]
        if not chk["correct"]:
            print(f"OUTPUT CHECK FAILED {os.path.basename(c['dir'])}: "
                  f"{chk['mismatched']}", file=err)
    reasons = Counter(r for c in calls for r in c["check"]["reasons"])
    if reasons:
        print(f"failed trials by reason over all calls: {dict(reasons)}",
              file=err)
    for k, unit in units.items():
        print(f"  {k:<30} {metrics.get(k, 0.0):>16.6g} {unit}", file=err)
    if by_name:
        print("  self time by span (ms, last traced call):", file=err)
        for k, v in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"    {k:<36} {v:>12.1f}", file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)
    t_start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "delayrc", "cli.py")):
        raise HarnessError("src/delayrc not found: run from the root of a "
                           "delayrc source checkout")
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[ns.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if ns.trace else "end_to_end"]}
    env = _env(root)
    os.makedirs(os.path.join(root, RUNS_DIR), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=ns.workload + "-",
                               dir=os.path.join(root, RUNS_DIR))
    spans_path = os.path.join(root, RUNS_DIR, ns.workload + ".spans.json")
    try:
        # set-up: fresh-process import plus the workload's evaluator
        n_probes = 1 + (SETUP_PROBES if ns.trace == 0 else 0)
        setup_times, facts = [], None
        for i in range(n_probes):
            probe_dir = os.path.join(run_dir, f"setup-{i}")
            os.mkdir(probe_dir)
            res, err = _worker(["setup", WORKLOADS[ns.workload]["task"]],
                               probe_dir, env, 60)
            if res is None:
                raise HarnessError(f"set-up probe failed:\n{err}")
            facts = facts or res["facts"]
            if i > 0:
                setup_times.append(res["setup_s"])

        calls = run_calls(ns.workload, run_dir, env, ns.seconds,
                          ns.trace == 1, t_start, spans_path)
        attempted, failed, ok_ops = summarize(ns.workload, calls, expected)
        by_name = {}
        if ns.trace == 0:
            metrics = end_to_end(ns.workload, calls, setup_times, attempted,
                                 ok_ops)
        else:
            metrics = per_layer(calls, attempted, ok_ops)
            last = [c for c in calls if c["traced"] and c["worker"]]
            if last:
                by_name = last[-1]["worker"]["self_ms_by_name"]
                missing = last[-1]["worker"]["missing_bindings"]
                if missing:
                    print(f"bindings not found (layer reads 0): {missing}",
                          file=sys.stderr)
        correct = all(c["check"]["correct"] for c in calls)
        _report(ns.workload, ns.seed, facts, calls, metrics, units, by_name)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
