#!/usr/bin/env python3
"""Timing of the sample-recursion kernels.

The reservoir update is an inherently sequential recursion (each sample
feeds back d steps later). The numpy path has two strategies: a per-sample
loop on Python floats, and a block recursion that advances d samples per
round of numpy calls. evolve_samples_numpy runs the loop for
d < _kernels._SCALAR_BELOW and the block recursion otherwise; the numba
kernel compiles the plain loop. All of them produce bitwise-identical
streams. This script times each strategy at several delays, checks that
they agree, and scans d for the delay from which the block recursion is
faster than the loop: the crossover _SCALAR_BELOW is set from.

Usage: python3 benchmarks/bench_kernels.py [n_samples]
"""

import sys
import time

import numpy as np

from delayrc import _kernels

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


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 400_000
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


if __name__ == "__main__":
    main()
