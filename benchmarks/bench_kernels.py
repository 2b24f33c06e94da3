#!/usr/bin/env python3
"""Timing of the sample-recursion kernels and of the map-dynamics stages.

The reservoir update is an inherently sequential recursion (each sample
feeds back d steps later). The numpy kernel, evolve_samples_numpy, takes
the held input u and the mask and forms the masked input chunk by chunk;
u holds rows x cycles (one stream is one row), and rows run in lockstep,
interleaved in one buffer. Narrow rows are cut into time segments that
run as more lockstep rows and are kept where they merge bit for bit with
a run from the exact history. Each chunk runs as a block recursion that
advances d samples of every row per round of numpy calls; the numba
kernel compiles the plain loop, evolve_samples_loop. All of them produce
bitwise-identical streams. The recursion section times the numpy kernel
on one stream at several delays against that plain loop (one run of it)
and numba where it is importable, checks that they agree, and times the
DDE's Euler loop the same way.

The lockstep section times R rows driven together against the same R
rows one at a time, per row, for R = 1..5, and prints the groups of rows
that a delay sweep over seeds 0-4 of the default sine_square stream
drives in lockstep (hyperopt._lockstep_groups under
hyperopt._LOCKSTEP_BYTES).

The segments section times the README's narma10 reservoir on the narma10
series (n_samples of it) at twelve delays, and the default sine_square
sweep's first lockstep group (seeds 0-2, the CLI's default reservoir) at
the sweep's eight delays, run whole against segmented. It prints the
segment count S, the samples stepped per sample (first runs, restarts and
fallbacks), the merge sample counts (from a later segment's start until a
run of it from zero history agrees bitwise with the exact states on d
samples), the rows that fell back, and whether the two runs are bitwise
equal.

The dynamics section times the stages of a bifurcation diagram:
fixed_points_of_iterate for each N = 1..8 at a few gains, the transient
iterate behind each orbit, and a 31-value sweep over the CLI's default
range (G over [0.1, 1.6]), also given per axis value, then the same sweep
with its CSV written, split into the grid images, bisection, period check
(with the orbit multipliers), orbits and CSV emission; that CSV must be
bitwise the one an unwrapped run writes. It also times an integrate_dde
call of 5 * n_samples steps (2,000,000 by default). It times the package
it imports, as it is; tables from two processes on a shared host drift
apart, so to compare two versions of a call, time both in one process
with benchmarks/ab.py calls.

Usage: python3 benchmarks/bench_kernels.py [n_samples] [--section S]
  S is recursion, lockstep, segments, dynamics or all (default).
  n_samples is per stream (default 400,000).
"""

import argparse
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from delayrc import _kernels, dynamics, hyperopt, pipeline, reservoir

PARAMS = (0.9, 0.983, 0.85, 0.9, 0.63)   # G, M, beta, rho, Phi0
K = 50                                   # samples per cycle


def held_input(rows, n, seed=0):
    """HeldInput of rows x (n // K) cycles."""
    rng = np.random.default_rng(seed)
    return _kernels.HeldInput(rng.uniform(-1.0, 1.0, (rows, n // K)),
                              rng.uniform(-1.0, 1.0, K))


def bench(fn, J, d, history, repeats=3, params=PARAMS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(J, d, *params, history)
        best = min(best, time.perf_counter() - t0)
    return best, out


def whole(*args):
    """evolve_samples_numpy with the rows run whole: segmentation off
    (_SEGMENT_WIDTH 0) for the call."""
    width = _kernels._SEGMENT_WIDTH
    _kernels._SEGMENT_WIDTH = 0
    try:
        return _kernels.evolve_samples_numpy(*args)
    finally:
        _kernels._SEGMENT_WIDTH = width


def best_ms(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


# dynamics function -> the sweep stage its calls belong to; the batched
# classifier (_classify_all) checks the periods and forms the orbit
# multipliers of all roots at once
SWEEP_STAGES = {
    "_image_stack": "grid",
    "_bisect_all": "bisection",
    "_classify_all": "period check",
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
                ms[stage] += (time.perf_counter() - t0) * 1e3
                depth[0] -= 1
        return timed

    saved = {n: getattr(dynamics, n) for n in SWEEP_STAGES}
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
        dynamics._backend.dde_euler = lambda V, *_: V.fill(0.0)
        t_pre = best_ms(dynamics.integrate_dde, *args, repeats=3)
    finally:
        dynamics._backend.dde_euler = euler
    print(f"\nintegrate_dde, {n:,} steps of 1e-3 (tau 1, T_R 0.01), best "
          f"of 3: {t:.0f} ms; without the Euler stepping (history pre-fill "
          f"and checks): {t_pre:.1f} ms")


def bench_recursion(n):
    J = held_input(1, n)
    J_formed = _kernels.masked(J.u[0], J.mask)

    if _kernels.HAVE_NUMBA:
        # trigger compilation outside the timed region
        _kernels.evolve_samples_numba(np.zeros(64), 2, *PARAMS, np.zeros(2))
    else:
        print("numba not importable; showing the numpy path and the loop")

    print(f"sample recursion, n={J.size:,} samples, numpy best of 3, the "
          "plain loop (evolve_samples_loop) one run; match: both against "
          "the loop")
    print(f"{'d':>6} {'numpy (ms)':>11} {'loop (ms)':>10} {'numba (ms)':>11}"
          "  match")
    for d in (1, 8, 14, 20, 62, 1000):
        history = np.zeros(d)
        t_np, out_np = bench(_kernels.evolve_samples_numpy, J, d, history)
        t_lp, ref = bench(_kernels.evolve_samples_loop, J_formed, d, history,
                          repeats=1)
        same = np.array_equal(out_np[0], ref)
        nb = "-"
        if _kernels.HAVE_NUMBA:
            t_nb, out_nb = bench(_kernels.evolve_samples_compiled, J, d,
                                 history)
            same = same and np.array_equal(out_nb[0], ref)
            nb = f"{t_nb * 1e3:.1f}"
        print(f"{d:>6} {t_np * 1e3:>11.1f} {t_lp * 1e3:>10.1f} {nb:>11}  "
              f"{'bitwise' if same else 'DIFFER'}")

    dde_n = 200_000
    pre = np.zeros(dde_n + 1)
    params = (1e-3, 1000.0, 0.01, 0.28, 0.983, 1.0, 0.0)

    def dde(euler, n=dde_n):
        """The time and the trace of n Euler steps from V(0) = 0.1."""
        V = np.empty(n + 1)
        V[0] = 0.1
        t0 = time.perf_counter()
        euler(V)
        return time.perf_counter() - t0, V

    # the numpy backend's call: Python floats through memoryviews
    t_np, v_np = dde(lambda V: _kernels.dde_euler_loop(
        memoryview(V), memoryview(pre), *params))
    if _kernels.HAVE_NUMBA:
        dde(lambda V: _kernels.dde_euler_numba(V, pre, *params), n=1000)
        t_nb, v_nb = dde(lambda V: _kernels.dde_euler_numba(V, pre, *params))
        same = v_np.tobytes() == v_nb.tobytes()
        print(f"\ndde euler, {dde_n:,} steps: numpy {t_np * 1e3:.1f} ms, "
              f"numba {t_nb * 1e3:.1f} ms, speedup {t_np / t_nb:.1f}x, "
              f"{'bitwise' if same else 'DIFFER'}")
    else:
        print(f"\ndde euler, {dde_n:,} steps: numpy {t_np * 1e3:.1f} ms")


def bench_lockstep(n):
    """R rows in lockstep against the same rows one at a time."""
    print(f"lockstep recursion, {n // K * K:,} samples per row, k={K}, "
          "best of 3, ms per row (numpy dispatch at each d)")
    print(f"{'R':>3} {'d':>5} {'lockstep':>9} {'one by one':>11} "
          f"{'speedup':>8}  match")
    for R in (1, 2, 3, 4, 5):
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

    t, _, data = pipeline.task_setup("sine_square")
    groups = hyperopt._lockstep_groups(data, range(5), t["k"])
    print(f"\nhyperopt._LOCKSTEP_BYTES = {hyperopt._LOCKSTEP_BYTES:,} B: "
          "lockstep groups of the default sine_square stream's seeds 0-4 "
          f"{[len(g) for g in groups]}")


def merge_sample(a, b, d):
    """Samples from the start of a and b until they agree bitwise on d
    consecutive samples, or None if they never do."""
    same = np.concatenate(([0], np.cumsum(a.view(np.int64)
                                          == b.view(np.int64))))
    hits = np.flatnonzero(same[d:] - same[:-d] == d)
    return int(hits[0]) + d if hits.size else None


def segmented(J, d, params):
    """(best-of-3 seconds segmented, the same run whole, the segmented
    states, the whole ones, rows that fell back, steps per sample):
    fallbacks are the rows whose frontier _kernels._segments left before
    its last segment; steps are the samples _kernels._steps ran in one
    segmented call, first runs, restarts and fallbacks together, per
    sample of J."""
    fallbacks, steps = [0], [0]
    segments, stepper = _kernels._segments, _kernels._steps

    def watched(J, d, p, histories, out, S):
        frontier = segments(J, d, p, histories, out, S)
        fallbacks[0] = int((frontier < J.u.shape[1] // S * S).sum())
        return frontier

    def counted(u, mask, *args):
        steps[0] += u.size * mask.size
        return stepper(u, mask, *args)

    history = np.zeros(d)
    t_whole, ref = bench(whole, J, d, history, params=params)
    _kernels._segments, _kernels._steps = watched, counted
    try:
        t_seg, out = bench(_kernels.evolve_samples_numpy, J, d, history,
                           params=params)
    finally:
        _kernels._segments, _kernels._steps = segments, stepper
    return t_seg, t_whole, out, ref, fallbacks[0], steps[0] / (3 * J.size)


def merges(J, d, params, exact):
    """Merge samples of every segment after the first of every row: a
    zero-history run of the segment against the exact states there."""
    R, cycles = J.u.shape
    k = J.mask.size
    S = _kernels._segment_count(d, R, cycles, k)
    L = cycles // S
    if S < 2:
        return []
    u = J.u[:, L:S * L].reshape(R * (S - 1), L)
    zero = whole(_kernels.HeldInput(u, J.mask), d, *params, np.zeros(d))
    ref = exact[:, L * k:S * L * k].reshape(R * (S - 1), L * k)
    return [merge_sample(a, b, d) for a, b in zip(zero, ref)]


def bench_segments(n):
    """One stream, and the sweep's 3-row lockstep group, cut into time
    segments against the same rows run whole."""
    mask = reservoir.make_input_mask(K, 0)
    _, _, data = pipeline.task_setup("narma10", options={"length": n // K})
    narma = _kernels.HeldInput(data(0)[0].u[None], mask)
    # README's narma10 reservoir (G, M, beta, rho, Phi0)
    narma_params = (0.54, 0.983, 1.0, 0.22, 3.12)
    _, _, data = pipeline.task_setup("sine_square")
    us = [data(seed)[0].u[:n // K] for seed in range(3)]
    group = np.zeros((3, max(u.size for u in us)))
    for row, u in zip(group, us):
        row[:u.size] = u
    sweep = _kernels.HeldInput(group, mask)
    # the CLI's default reservoir, which a delay sweep holds fixed
    sweep_params = (0.39, 0.983, 1.0, 0.19, 0.67 * np.pi)
    print(f"time-segmented recursion, up to {n // K * K:,} samples per row, "
          f"k={K}, best of 3: the rows run whole (segmentation off) against "
          f"cut into S segments (_SEGMENT_WIDTH {_kernels._SEGMENT_WIDTH}, "
          f"segments of at least {_kernels._MIN_TRIPS} round trips of d; "
          "each later segment restarts from the one before over windows of "
          f"at first {_kernels._WINDOW} cycles that double, each continuing "
          f"the last, up to 1/{_kernels._WINDOW_SHARE} of the segment). "
          "steps: samples stepped per sample of the rows, first "
          "runs, restarts and fallbacks together. merge: samples from a "
          "later segment's start until its zero-history run agrees bitwise "
          "with the exact states on d samples, min/median/max over segments, "
          "and how many never do within the segment; fallbacks: rows run "
          "again from a segment that did not merge")
    print(f"{'stream':>12} {'rows':>4} {'d':>4} {'whole ms':>9} "
          f"{'segmented':>9} {'speedup':>8} {'S':>3} {'steps':>5} "
          f"{'merge min/med/max, never':>26} {'fallbacks':>9}  match")
    cases = ([("narma10", narma, d, narma_params)
              for d in (1, 2, 3, 4, 8, 14, 17, 41, 50, 62, 114, 200)]
             + [("sine_square", sweep, d, sweep_params)
                for d in (12, 25, 38, 50, 62, 75, 88, 100)])
    for name, J, d, params in cases:
        t_seg, t_whole, out, ref, fallbacks, steps = segmented(J, d, params)
        S = _kernels._segment_count(d, *J.u.shape, K)
        ms = merges(J, d, params, ref)
        done = sorted(m for m in ms if m is not None)
        merge = "-"          # not segmented
        if ms:
            merge = (f"{done[0]}/{int(statistics.median(done))}/{done[-1]}"
                     if done else "-") + f", {len(ms) - len(done)}"
        same = np.array_equal(out.view(np.int64), ref.view(np.int64))
        print(f"{name:>12} {J.u.shape[0]:>4} {d:>4} {t_whole * 1e3:>9.1f} "
              f"{t_seg * 1e3:>9.1f} {t_whole / t_seg:>7.2f}x {S:>3} "
              f"{steps:>5.2f} {merge:>26} {fallbacks:>9}  "
              f"{'bitwise' if same else 'DIFFER'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("n_samples", nargs="?", type=int, default=400_000)
    ap.add_argument("--section",
                    choices=("recursion", "lockstep", "segments", "dynamics",
                             "all"),
                    default="all")
    args = ap.parse_args()
    sections = {"recursion": lambda: bench_recursion(args.n_samples),
                "lockstep": lambda: bench_lockstep(args.n_samples),
                "segments": lambda: bench_segments(args.n_samples),
                "dynamics": lambda: bench_dynamics(args.n_samples)}
    run = list(sections) if args.section == "all" else [args.section]
    for i, name in enumerate(run):
        if i:
            print()
        sections[name]()


if __name__ == "__main__":
    main()
