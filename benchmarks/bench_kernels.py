#!/usr/bin/env python3
"""Timing of the sample-recursion kernels and of the map-dynamics stages.

The reservoir update is an inherently sequential recursion (each sample
feeds back d steps later). The numpy path has two strategies: a per-sample
loop on Python floats, and a block recursion that advances d samples per
round of numpy calls. evolve_samples_numpy runs the loop for
d < _kernels._SCALAR_BELOW and the block recursion otherwise; the numba
kernel compiles the plain loop. All of them produce bitwise-identical
streams. This script times each strategy at several delays, checks that
they agree, and scans d for the delay from which the block recursion is
faster than the loop: the crossover _SCALAR_BELOW is set from.

The dynamics section times the stages of a bifurcation diagram:
fixed_points_of_iterate for each N = 1..8 at a few gains, the transient
iterate behind each orbit, and a 31-value sweep over the CLI's default
range (G over [0.1, 1.6]), also given per axis value. Run it with
PYTHONPATH pointing at another checkout's src to time that version.

Usage: python3 benchmarks/bench_kernels.py [n_samples] [--section S]
  S is recursion, dynamics or all (default).
"""

import argparse
import time

import numpy as np

from delayrc import _kernels, dynamics

PARAMS = (0.9, 0.983, 0.85, 0.9, 0.63)   # G, M, beta, rho, Phi0


def bench(fn, J, d, history, repeats=3):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(J, d, *PARAMS, history)
        best = min(best, time.perf_counter() - t0)
    return best, out


def crossover(J, ds):
    """Block-to-scalar time ratio at each d in ds, and the first d from
    which the block recursion is faster at every larger d scanned (None if
    it never is)."""
    ratios = [bench(_kernels.evolve_samples_block, J, d, np.zeros(d))[0]
              / bench(_kernels.evolve_samples_scalar, J, d, np.zeros(d))[0]
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


def bench_dynamics():
    gains = (0.56, 0.93, 1.2, 1.49)
    print(f"fixed_points_of_iterate, {dynamics._GRID_CELLS} grid cells, "
          "best of 5, ms per call (roots found)")
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
    t = best_ms(dynamics.bifurcation_sweep, "G", (0.1, 1.6), steps,
                dynamics.OscillatorParams(G=0.56), repeats=3)
    print(f"\nbifurcation_sweep G over [0.1, 1.6], {steps} axis values, "
          f"N_max 8, best of 3: {t:.1f} ms, {t / steps:.1f} ms per value")


def bench_recursion(n):
    rng = np.random.default_rng(0)
    J = rng.uniform(-1.0, 1.0, n)
    below = _kernels._SCALAR_BELOW

    if _kernels.HAVE_NUMBA:
        # trigger compilation outside the timed region
        _kernels.evolve_samples_numba(J[:64], 2, *PARAMS, np.zeros(2))
    else:
        print("numba not importable; showing the numpy path only")

    print(f"sample recursion, n={n:,} samples, "
          f"numpy path picks scalar for d < {below}")
    print(f"{'d':>6} {'scalar (ms)':>12} {'block (ms)':>12} {'picked':>7} "
          f"{'numba (ms)':>11}  match")
    for d in (1, 8, 14, below - 1, below, 62, 1000):
        history = np.zeros(d)
        t_sc, out_sc = bench(_kernels.evolve_samples_scalar, J, d, history)
        t_bl, out_bl = bench(_kernels.evolve_samples_block, J, d, history)
        same = np.array_equal(out_sc, out_bl)
        nb = "-"
        if _kernels.HAVE_NUMBA:
            t_nb, out_nb = bench(_kernels.evolve_samples_numba, J, d, history)
            same = same and np.array_equal(out_sc, out_nb)
            nb = f"{t_nb * 1e3:.1f}"
        picked = "scalar" if d < below else "block"
        print(f"{d:>6} {t_sc * 1e3:>12.1f} {t_bl * 1e3:>12.1f} {picked:>7} "
              f"{nb:>11}  {'bitwise' if same else 'DIFFER'}")

    ds = list(range(16, 65, 4))
    ratios, cross = crossover(J, ds)
    print("\nblock/scalar time ratio: "
          + " ".join(f"{d}:{r:.2f}" for d, r in zip(ds, ratios)))
    print(f"block recursion faster from d = {cross}")

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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("n_samples", nargs="?", type=int, default=400_000)
    ap.add_argument("--section", choices=("recursion", "dynamics", "all"),
                    default="all")
    args = ap.parse_args()
    if args.section in ("recursion", "all"):
        bench_recursion(args.n_samples)
    if args.section in ("dynamics", "all"):
        if args.section == "all":
            print()
        bench_dynamics()


if __name__ == "__main__":
    main()
