#!/usr/bin/env python3
"""Timing of the sample-recursion kernels and of the map-dynamics stages.

The reservoir update is an inherently sequential recursion (each sample
feeds back d steps later). The numpy kernel, evolve_samples_numpy, takes
the held input u and the mask and forms the masked input chunk by chunk;
u holds rows x cycles (one stream is one row), and rows run in lockstep,
interleaved in one buffer. Each chunk runs as a per-sample loop on Python
floats when the block width d*rows is below _kernels._LOOP_BELOW, and as
a block recursion that advances d samples of every row per round of numpy
calls otherwise; the numba kernel compiles the plain loop. All of them
produce bitwise-identical streams. This script times each strategy by
setting _kernels._LOOP_BELOW for the call (0 runs blocks only, 10**9 the
loop only) and restoring it. The recursion section times both strategies
on one stream at several delays, checks that they agree, and scans d for
the block width from which the blocks are faster than the loop on one
stream.

The lockstep section times R rows driven together against the same R
rows one at a time, per row, for R = 1..5, and scans d at block widths
d*R up to 48 for the crossover width at each R, and their median: what
_LOOP_BELOW is set from. It also prints the groups of rows that a delay
sweep over seeds 0-4 of the default sine_square stream drives in
lockstep (hyperopt._lockstep_groups under hyperopt._LOCKSTEP_BYTES).

The dynamics section times the stages of a bifurcation diagram:
fixed_points_of_iterate for each N = 1..8 at a few gains, the transient
iterate behind each orbit, and a 31-value sweep over the CLI's default
range (G over [0.1, 1.6]), also given per axis value, then the same sweep
with its CSV written, split into the grid images, bisection, period check
(with the orbit multipliers where the module forms them in one batch),
orbits and CSV emission; that CSV must be bitwise the one an unwrapped
run writes. It also times an integrate_dde call of 5 * n_samples steps
(2,000,000 by default). Run it with PYTHONPATH pointing at another
checkout's src to time that version.

Usage: python3 benchmarks/bench_kernels.py [n_samples] [--section S]
  S is recursion, lockstep, dynamics or all (default). n_samples is per
  stream (default 400,000).
"""

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from delayrc import _kernels, dynamics, hyperopt, pipeline

PARAMS = (0.9, 0.983, 0.85, 0.9, 0.63)   # G, M, beta, rho, Phi0
K = 50                                   # samples per cycle


def held_input(rows, n, seed=0):
    """HeldInput of rows x (n // K) cycles."""
    rng = np.random.default_rng(seed)
    return _kernels.HeldInput(rng.uniform(-1.0, 1.0, (rows, n // K)),
                              rng.uniform(-1.0, 1.0, K))


def bench(fn, J, d, history, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(J, d, *PARAMS, history)
        best = min(best, time.perf_counter() - t0)
    return best, out


def strategy(loop_below):
    """evolve_samples_numpy with _kernels._LOOP_BELOW set to loop_below for
    the call and restored after it."""
    def run(*args):
        saved = _kernels._LOOP_BELOW
        _kernels._LOOP_BELOW = loop_below
        try:
            return _kernels.evolve_samples_numpy(*args)
        finally:
            _kernels._LOOP_BELOW = saved
    return run


loop, blocks = strategy(10**9), strategy(0)


def crossover(J, ds):
    """Blocks-to-loop time ratio at each d in ds, and the first d from
    which the blocks are faster at every larger d scanned (None if they
    never are)."""
    ratios = [bench(blocks, J, d, np.zeros(d))[0]
              / bench(loop, J, d, np.zeros(d))[0]
              for d in ds]
    for i in range(len(ds)):
        if all(r < 1.0 for r in ratios[i:]):
            return ratios, ds[i]
    return ratios, None


def best_ms(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


# dynamics function -> the sweep stage its calls belong to. Versions of the
# module differ in which of these exist: the grid is mapped once per
# parameter set for every N (_image_stack), or once per N with the images
# of the last parameters kept (_grid_image); the batched classifier
# (_classify_all) checks the periods and forms the orbit multipliers of all
# roots at once; older ones check each root's period on its own
# (_iterate_n_float) and count its multiplier as "other", bisect each cell
# on its own (_bisect), and older still map the grid and check periods
# through iterate_n, whose calls are told apart by their argument (an array
# is the grid, a scalar a period check). Missing names are skipped.
SWEEP_STAGES = {
    "_image_stack": "grid",
    "_grid_image": "grid",
    "_bisect_all": "bisection",
    "_bisect": "bisection",
    "_classify_all": "period check",
    "_iterate_n_float": "period check",
    "iterate_n": lambda x, *_: "grid" if np.ndim(x) else "period check",
    "iterate": "orbit",
    "bifurcation_to_csv": "csv",
}


def split_sweep(sweep):
    """Run sweep() once with SWEEP_STAGES wrapped; return (total ms,
    {stage: ms}). A call made inside another wrapped call counts toward the
    outer one, so bisection includes the maps it evaluates."""
    ms = dict.fromkeys(("grid", "bisection", "period check", "orbit", "csv"),
                       0.0)
    depth = [0]

    def wrap(fn, stage):
        def timed(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                name = stage(*args) if callable(stage) else stage
                ms[name] += (time.perf_counter() - t0) * 1e3
                depth[0] -= 1
        return timed

    saved = {n: getattr(dynamics, n) for n in SWEEP_STAGES
             if hasattr(dynamics, n)}
    try:
        for name, fn in saved.items():
            setattr(dynamics, name, wrap(fn, SWEEP_STAGES[name]))
        t0 = time.perf_counter()
        sweep()
        total = (time.perf_counter() - t0) * 1e3
    finally:
        for name, fn in saved.items():
            setattr(dynamics, name, fn)
    return total, ms


def bench_dynamics(n_samples):
    gains = (0.56, 0.93, 1.2, 1.49)
    print(f"fixed_points_of_iterate, {dynamics._GRID_CELLS} grid cells, "
          "best of 5, ms per call (roots found); a version that keeps the "
          "grid images of the last parameters maps the grid in the first "
          "call only, one that does not maps it N times per call")
    print(f"{'G':>6} " + " ".join(f"{f'N={N}':>13}" for N in range(1, 9)))
    for G in gains:
        p = dynamics.OscillatorParams(G=G)
        cells = [f"{best_ms(dynamics.fixed_points_of_iterate, p, N):7.2f} "
                 f"({len(dynamics.fixed_points_of_iterate(p, N)):>3})"
                 for N in range(1, 9)]
        print(f"{G:>6} " + " ".join(f"{c:>13}" for c in cells))

    print("\ntransient iterate, 10,000 + 128 steps, best of 5")
    for G in gains:
        t = best_ms(dynamics.iterate, 0.1, 10_128,
                    dynamics.OscillatorParams(G=G))
        print(f"  G={G}: {t:.2f} ms")

    steps = 31
    args = ("G", (0.1, 1.6), steps, dynamics.OscillatorParams(G=0.56))
    t = best_ms(dynamics.bifurcation_sweep, *args, repeats=3)
    print(f"\nbifurcation_sweep G over [0.1, 1.6], {steps} axis values, "
          f"N_max 8, best of 3: {t:.1f} ms, {t / steps:.1f} ms per value")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{i}.csv") for i in range(2)]

        def sweep_to_csv(path):
            dynamics.bifurcation_to_csv(dynamics.bifurcation_sweep(*args),
                                        path)
        sweep_to_csv(paths[0])
        total, ms = split_sweep(lambda: sweep_to_csv(paths[1]))
        csv = [p.read_bytes() for p in paths]
    print(f"one more sweep with its CSV ({len(csv[1]):,} B, "
          f"{'bitwise' if csv[0] == csv[1] else 'DIFFER'} to an unwrapped "
          f"run), split by stage (wrapped, {total:.1f} ms): "
          + ", ".join(f"{k} {v:.1f}" for k, v in ms.items())
          + f", other {total - sum(ms.values()):.1f} ms")

    n = 5 * n_samples
    p = dynamics.OscillatorParams(G=0.56, P_max=0.3e-3, G_star=0.56 / 0.3e-3,
                                  T_R=0.01)
    args = (p, lambda _t: 0.1, n * 1e-3, 1e-3)
    t = best_ms(dynamics.integrate_dde, *args, repeats=3)
    euler = dynamics._backend.dde_euler
    try:   # the same call with the Euler stepping left out
        dynamics._backend.dde_euler = lambda n_steps, *_: np.zeros(n_steps + 1)
        t_pre = best_ms(dynamics.integrate_dde, *args, repeats=3)
    finally:
        dynamics._backend.dde_euler = euler
    print(f"\nintegrate_dde, {n:,} steps of 1e-3 (tau 1, T_R 0.01), best "
          f"of 3: {t:.0f} ms; without the Euler stepping (history pre-fill "
          f"and checks): {t_pre:.1f} ms")


def bench_recursion(n):
    J = held_input(1, n)
    below = _kernels._LOOP_BELOW

    if _kernels.HAVE_NUMBA:
        # trigger compilation outside the timed region
        _kernels.evolve_samples_numba(np.zeros(64), 2, *PARAMS, np.zeros(2))
    else:
        print("numba not importable; showing the numpy path only")

    print(f"sample recursion, n={J.size:,} samples, "
          f"numpy path picks the loop for d*rows < {below}")
    print(f"{'d':>6} {'loop (ms)':>12} {'blocks (ms)':>12} {'picked':>7} "
          f"{'numba (ms)':>11}  match")
    for d in (1, 8, 14, below - 1, below, 62, 1000):
        history = np.zeros(d)
        t_lp, out_lp = bench(loop, J, d, history)
        t_bl, out_bl = bench(blocks, J, d, history)
        same = np.array_equal(out_lp, out_bl)
        nb = "-"
        if _kernels.HAVE_NUMBA:
            t_nb, out_nb = bench(_kernels.evolve_samples_compiled, J, d,
                                 history)
            same = same and np.array_equal(out_lp, out_nb)
            nb = f"{t_nb * 1e3:.1f}"
        picked = "loop" if d < below else "blocks"
        print(f"{d:>6} {t_lp * 1e3:>12.1f} {t_bl * 1e3:>12.1f} {picked:>7} "
              f"{nb:>11}  {'bitwise' if same else 'DIFFER'}")

    ds = list(range(4, 49, 2))
    ratios, cross = crossover(J, ds)
    print("\nblocks/loop time ratio: "
          + " ".join(f"{d}:{r:.2f}" for d, r in zip(ds, ratios)))
    print(f"blocks faster from block width {cross}")

    dde_n = 200_000
    pre = np.zeros(dde_n + 1)
    args = (dde_n, 1e-3, 1000.0, 0.01, 0.28, 0.983, 1.0, 0.0, pre, 0.1)
    t0 = time.perf_counter()
    v_np = _kernels.dde_euler_loop(*args)
    t_np = time.perf_counter() - t0
    if _kernels.HAVE_NUMBA:
        _kernels.dde_euler_numba(1000, *args[1:])
        t0 = time.perf_counter()
        v_nb = _kernels.dde_euler_numba(*args)
        t_nb = time.perf_counter() - t0
        same = np.array_equal(v_np, v_nb)
        print(f"\ndde euler, {dde_n:,} steps: numpy {t_np * 1e3:.1f} ms, "
              f"numba {t_nb * 1e3:.1f} ms, speedup {t_np / t_nb:.1f}x, "
              f"{'bitwise' if same else 'DIFFER'}")
    else:
        print(f"\ndde euler, {dde_n:,} steps: numpy {t_np * 1e3:.1f} ms")


def bench_lockstep(n):
    """R rows in lockstep against the same rows one at a time, and the
    loop/blocks crossover width at each R."""
    rows = (1, 2, 3, 4, 5)
    print(f"lockstep recursion, {n // K * K:,} samples per row, k={K}, "
          "best of 3, ms per row (numpy dispatch at each d)")
    print(f"{'R':>3} {'d':>5} {'lockstep':>9} {'one by one':>11} "
          f"{'speedup':>8}  match")
    for R in rows:
        J = held_input(R, n, seed=R)
        for d in (12, 25, 50, 100):
            history = np.zeros(d)
            t_lock, S = bench(_kernels.evolve_samples_numpy, J, d, history)
            t_one, same = 0.0, True
            for i, s in enumerate(S):
                t, s1 = bench(_kernels.evolve_samples_numpy,
                              _kernels.HeldInput(J.u[i:i + 1], J.mask), d,
                              history)
                t_one += t
                same = same and np.array_equal(s, s1[0])
            print(f"{R:>3} {d:>5} {t_lock * 1e3 / R:>9.1f} "
                  f"{t_one * 1e3 / R:>11.1f} {t_one / t_lock:>7.2f}x  "
                  f"{'bitwise' if same else 'DIFFER'}")

    n_scan = n // 4
    print(f"\nblocks/loop time ratio by rows at each d, {n_scan // K * K:,} "
          "samples per row; crossover: first block width d*R from which the "
          "blocks are faster at every larger d scanned")
    widths = []
    for R in rows:
        ds = list(range(max(1, 4 // R), 48 // R + 1))
        ratios, cross = crossover(held_input(R, n_scan, seed=R), ds)
        if cross is not None:
            widths.append(cross * R)
        print(f"R={R}: crossover width "
              f"{'-' if cross is None else cross * R}; "
              + " ".join(f"{d}:{r:.2f}" for d, r in zip(ds, ratios)))
    median = statistics.median(widths) if widths else None
    print(f"median crossover width {median} (_LOOP_BELOW "
          f"{_kernels._LOOP_BELOW})")

    t, _, data = pipeline.task_setup("sine_square")
    groups = hyperopt._lockstep_groups(data, range(5), t["k"])
    print(f"\nhyperopt._LOCKSTEP_BYTES = {hyperopt._LOCKSTEP_BYTES:,} B: "
          "lockstep groups of the default sine_square stream's seeds 0-4 "
          f"{[len(g) for g in groups]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("n_samples", nargs="?", type=int, default=400_000)
    ap.add_argument("--section",
                    choices=("recursion", "lockstep", "dynamics", "all"),
                    default="all")
    args = ap.parse_args()
    sections = {"recursion": lambda: bench_recursion(args.n_samples),
                "lockstep": lambda: bench_lockstep(args.n_samples),
                "dynamics": lambda: bench_dynamics(args.n_samples)}
    run = list(sections) if args.section == "all" else [args.section]
    for i, name in enumerate(run):
        if i:
            print()
        sections[name]()


if __name__ == "__main__":
    main()
