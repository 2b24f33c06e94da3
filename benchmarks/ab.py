#!/usr/bin/env python3
"""A/B comparison of two git revisions, in alternated pairs.

perfbench mode exports both revisions into a temporary directory (git
archive; nothing is fetched) and runs each tree's own

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

from the root of that tree, one process at a time. Pair N (seed N) runs
every workload on both sides; odd pairs run the parent first, even pairs
the change. Each run's values are run.py's medians over its calls. The
result is a BENCH_*.json "perfbench" section: per pair, both sides'
end-to-end metrics, correct and attempted/failed; per workload and metric,
the median and inclusive quartiles over runs of each side, the change's
relative worsening in the metric's direction against the bound that
BENCHMARK.json fixes, the parent's own spread (interquartile range over
median), the pairs the change wins (ties count for neither), and whether
the gain rule holds: the change wins at least 9 of 10 pairs and its median
is better than the parent's by more than the parent's interquartile
range. A metric whose median is within its bound reads "unresolved",
not "within bound", when the parent's own spread is wider than the bound
and not every change run beats every parent run. The workloads, metric
names, directions and bounds, the command and the run length are read
from the change's BENCHMARK.json, and every declared workload is run;
perfbench/ and BENCHMARK.json are read, never written.

calls mode imports the package of both trees into one process, under two
package names, and times one statement on each, alternating which side
goes first in every round, so that host drift reaches both sides alike.
The statement sees the package as `pkg`, every submodule imported, the
names the setup statement defines, which runs once per side, and
load_calls and replay below. Where both sides' statements set `out`, the
two are compared bit for bit after the last round (bits below); replay's
digests compare the states bit for bit.

capture mode runs one CLI call of this checkout in this process, its
artifacts written to a temporary directory, and saves the inputs of every
_backend.evolve_samples call it makes to an .npz file. Its recursions are
replayed on both trees by

  --setup "calls = load_calls('FILE.npz')" --stmt "out = replay(pkg, calls)"

Usage:
  python3 benchmarks/ab.py perfbench PARENT CHANGE [--pairs N] [--out FILE]
  python3 benchmarks/ab.py calls PARENT CHANGE --stmt STMT [--setup STMT]
      [--rounds N] [--out FILE]
  python3 benchmarks/ab.py capture FILE.npz -- CLI_ARGS...

PARENT and CHANGE are git revisions of this repository (`git stash create`
names the working tree's tracked files as one). To time one tree, give
the same revision twice (calls HEAD HEAD --stmt ...): each side runs its
own export of it, so the change/parent ratios read the round-to-round
spread, and `out` must come out bitwise.
"""

import argparse
import hashlib
import importlib.util
import json
import pkgutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(rev, dest):
    """Write the tree of git revision rev into the new directory dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_perfbench(tree, workload, seed, seconds, command):
    """One benchmark run from the root of tree: run.py's result object (its
    last stdout line)."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs, metrics):
    """Per metric of BENCHMARK.json's end_to_end list: both sides' medians
    and quartiles, worsening against the bound, parent spread, wins and
    the gain rule and the status over the pairs of one workload."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        vals = {s: [p[s][name] for p in pairs.values()] for s in SIDES}
        med = {s: statistics.median(vals[s]) for s in SIDES}
        quart = {s: _quartiles(vals[s]) for s in SIDES}
        iqr = quart["parent"][1] - quart["parent"][0]
        worse = (sign * (med["parent"] - med["change"]) / abs(med["parent"])
                 if med["parent"] else 0.0)
        wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0
                   for p in pairs.values())
        spread = iqr / abs(med["parent"]) if med["parent"] else 0.0
        # a bound inside the parent's own spread resolves nothing, unless
        # every change run beats every parent run
        resolved = (spread <= m["bound"]
                    or min(sign * v for v in vals["change"])
                    > max(sign * v for v in vals["parent"]))
        out[name] = {
            "parent_median": round(med["parent"], 4),
            "parent_quartiles": [round(v, 4) for v in quart["parent"]],
            "change_median": round(med["change"], 4),
            "change_quartiles": [round(v, 4) for v in quart["change"]],
            "relative_worsening": round(worse, 4),
            "bound": m["bound"],
            "parent_spread_rel": round(spread, 4),
            "change_wins": f"{wins}/{len(pairs)}",
            "gain_rule": (10 * wins >= 9 * len(pairs)
                          and sign * (med["change"] - med["parent"]) > iqr),
            "status": ("worse than bound" if worse > m["bound"]
                       else "within bound" if resolved else "unresolved"),
        }
    return out


def perfbench(parent, change, pairs, runner=run_perfbench, log=sys.stderr):
    """Alternated pairs of perfbench runs of the trees parent and change:
    the "perfbench" section of a BENCH file."""
    declared = json.loads((Path(change) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    command = declared["command"]
    metrics = declared["end_to_end"]
    trees = {"parent": parent, "change": change}
    result = {w: {"pairs": {}} for w in workloads}
    for i in range(1, pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        for w in workloads:
            pair = {"first": order[0], "correct": {}, "attempted_failed": {}}
            for side in order:
                res = runner(trees[side], w, i, seconds, command)
                pair[side] = {m["name"]: round(res["metrics"][m["name"]]
                                               ["value"], 4)
                              for m in metrics}
                pair["correct"][side] = res["correct"]
                pair["attempted_failed"][side] = [res["attempted"],
                                                  res["failed"]]
                print(f"pair {i} {w} {side}: "
                      + json.dumps({"correct": res["correct"], **pair[side]}),
                      file=log, flush=True)
            result[w]["pairs"][str(i)] = pair
    for w in workloads:
        result[w]["summary"] = summarize(result[w]["pairs"], metrics)
    return {
        "command": " ".join(command) + f" --workload W --seed N --seconds "
                   f"{seconds} --trace 0",
        "protocol": "parent and change alternated per pair (odd pairs parent "
                    "first, even pairs change first), each side from its own "
                    "exported tree, fresh processes, one run at a time; pairs "
                    f"1..{pairs} per workload (seed = pair), the workloads "
                    "interleaved within each pair; per-run values are "
                    "run.py's medians over its calls; median and quartiles "
                    "(inclusive) are over runs; relative_worsening > 0 means "
                    "worse in the metric's direction; parent_spread_rel = "
                    "parent interquartile range over parent median; "
                    "gain_rule: the change wins at least 9/10 of the pairs "
                    "and its median beats the parent's by more than the "
                    "parent's interquartile range; status: worse than "
                    "bound past the bound, else unresolved where "
                    "parent_spread_rel exceeds the bound and not every "
                    "change run beats every parent run, else within bound",
        "workloads": result,
    }


def import_tree(tree, name):
    """The package src/delayrc of tree, imported as `name` with every
    submodule but __main__, which would run the CLI."""
    pkg_dir = Path(tree) / "src" / "delayrc"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in pkgutil.iter_modules([str(pkg_dir)]):
        if sub.name != "__main__":
            importlib.import_module(f"{name}.{sub.name}")
    return module


def capture(path, argv):
    """Run the CLI of this checkout on argv, its artifacts in a temporary
    directory, and save the inputs of its _backend.evolve_samples calls to
    path (.npz). Returns the number of calls."""
    sys.path.insert(0, str(ROOT / "src"))
    from delayrc import _backend, cli
    saved = []
    evolve = _backend.evolve_samples

    def recorded(J, d, G, M, beta, rho, Phi0, history):
        saved.append({"u": J.u, "mask": J.mask,
                      "history": np.asarray(history, dtype=float),
                      "args": np.array([d, G, M, beta, rho, Phi0])})
        return evolve(J, d, G, M, beta, rho, Phi0, history)

    _backend.evolve_samples = recorded
    try:
        with tempfile.TemporaryDirectory(prefix="ab-capture-") as tmp:
            rc = cli.main([*argv, f"out={tmp}"])
    finally:
        _backend.evolve_samples = evolve
    if rc:
        raise SystemExit(f"the CLI call exited with {rc}")
    np.savez(path, **{f"{name}{i}": a for i, call in enumerate(saved)
                      for name, a in call.items()})
    return len(saved)


def load_calls(path):
    """The evolve_samples calls saved by capture: per call, (u, mask, d,
    (G, M, beta, rho, Phi0), history)."""
    with np.load(path) as f:
        return [(f[f"u{i}"], f[f"mask{i}"], int(f[f"args{i}"][0]),
                 tuple(f[f"args{i}"][1:].tolist()), f[f"history{i}"])
                for i in range(len(f.files) // 4)]


def digest(states):
    """The shape and sha256 of an array's bits."""
    return states.shape, hashlib.sha256(np.ascontiguousarray(states)).digest()


def bits(value):
    """A key of value that equals another value's key exactly where the
    two hold the same bits: arrays and floats by dtype, shape and bytes
    (== takes -0.0 for 0.0 and never nan for nan), lists and tuples item
    by item."""
    if isinstance(value, (np.ndarray, np.generic, float)):
        a = np.asarray(value)
        return a.dtype.str, a.shape, a.tobytes()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def replay(pkg, captured):
    """Run the captured calls on package pkg: the digest of each call's
    states. A digest, not the states, so that a replay holds one call's
    states at a time; hashing adds about 3 ms per 400,000 samples to both
    sides."""
    return [digest(pkg._backend.evolve_samples(
                pkg._kernels.HeldInput(u, mask), d, *params, history))
            for u, mask, d, params, history in captured]


def calls(parent, change, stmt, setup="", rounds=20, log=sys.stdout):
    """Time stmt on both trees' packages in one process, alternating which
    side goes first each round. Returns the seconds per round of each
    side, their ratios and, where both statements set `out`, whether the
    two are equal (else None)."""
    spaces = {}
    for side, tree in (("parent", parent), ("change", change)):
        spaces[side] = {"pkg": import_tree(tree, f"delayrc_{side}"),
                        "load_calls": load_calls, "replay": replay}
        exec(setup, spaces[side])
    code = compile(stmt, "<stmt>", "exec")
    times = {s: [] for s in SIDES}
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            exec(code, spaces[side])
            times[side].append(time.perf_counter() - t0)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    bitwise = (bits(spaces["parent"]["out"]) == bits(spaces["change"]["out"])
               if all("out" in spaces[s] for s in SIDES) else None)
    print(f"{rounds} alternated rounds: parent median "
          f"{statistics.median(times['parent']) * 1e3:.2f} ms, change median "
          f"{statistics.median(times['change']) * 1e3:.2f} ms, change/parent "
          f"per round: median {statistics.median(ratios):.3f}, range "
          f"{min(ratios):.3f}-{max(ratios):.3f}"
          + {None: "", True: ", out bitwise", False: ", out DIFFER"}[bitwise],
          file=log)
    return {"stmt": stmt, "setup": setup, "rounds": rounds,
            **{f"{s}_s": [round(t, 6) for t in times[s]] for s in SIDES},
            "ratios": [round(x, 4) for x in ratios], "bitwise": bitwise}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["capture"]:
        if len(argv) < 4 or argv[2] != "--":
            raise SystemExit("usage: ab.py capture FILE.npz -- CLI_ARGS...")
        n = capture(argv[1], argv[3:])
        print(f"{n} evolve_samples calls saved to {argv[1]}")
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("perfbench", "calls"))
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write the section as JSON here")
    ap.add_argument("--stmt")
    ap.add_argument("--setup", default="")
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.mode == "calls" and not args.stmt:
        ap.error("calls mode needs --stmt")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {}
        for side in SIDES:
            trees[side] = Path(tmp, side)
            export(getattr(args, side), trees[side])
        if args.mode == "calls":
            section = calls(trees["parent"], trees["change"], args.stmt,
                            args.setup, args.rounds)
        else:
            section = perfbench(trees["parent"], trees["change"], args.pairs)
    text = json.dumps(section, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    elif args.mode == "perfbench":
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
