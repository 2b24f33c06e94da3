"""Hot numerical loops, written once and compiled with numba when available.

The sample recursion has a numpy-path twin that produces bitwise-identical
output. It runs one of two strategies, chosen by the delay d: for d below
_SCALAR_BELOW a per-sample loop on Python floats, otherwise a block
recursion in steps of d samples, inside which all dependencies are already
resolved. The block recursion makes about eight numpy calls per d samples,
so at short delays their call overhead costs more than the plain loop.
Backend selection lives in _backend.
"""

import math

import numpy as np

# d below which evolve_samples_numpy steps sample by sample: the two
# strategies take equal time near d = 36 (400k samples, numpy 2.4, 2-core
# x86 host; benchmarks/bench_kernels.py, BENCH_3.json)
_SCALAR_BELOW = 36
# samples per chunk of the scalar loop: bounds its Python lists to
# _CHUNK + d floats whatever the stream length
_CHUNK = 4096


def evolve_samples_loop(J, d, G, M, beta, rho, Phi0, history):
    # s_ext[0:d] holds the pre-stream samples s(-d)..s(-1)
    n = J.size
    s_ext = np.empty(n + d)
    s_ext[:d] = history
    for m in range(n):
        fb = s_ext[m]
        s_ext[m + d] = 0.5 * G * (1.0 + M * np.sin(np.pi * (beta * fb + rho * J[m]) + Phi0))
    return s_ext[d:]


def evolve_samples_numpy(J, d, G, M, beta, rho, Phi0, history):
    """The numpy-path sample recursion: the scalar loop for d below
    _SCALAR_BELOW, the block recursion otherwise."""
    kernel = evolve_samples_scalar if d < _SCALAR_BELOW else evolve_samples_block
    return kernel(J, d, G, M, beta, rho, Phi0, history)


def evolve_samples_scalar(J, d, G, M, beta, rho, Phi0, history):
    # per-sample loop over chunks; s holds the d samples carried from the
    # previous chunk, then this chunk's samples, so s[-d] is s(m - d)
    n = J.size
    out = np.empty(n)
    half_G, M, beta, Phi0 = 0.5 * float(G), float(M), float(beta), float(Phi0)
    pi, sin = math.pi, math.sin
    carry = np.asarray(history, dtype=float).tolist()
    for c in range(0, n, _CHUNK):
        s = carry
        for x in (rho * J[c:c + _CHUNK]).tolist():
            s.append(half_G * (1.0 + M * sin(pi * (beta * s[-d] + x) + Phi0)))
        out[c:c + len(s) - d] = s[d:]
        carry = s[-d:]
    return out


def evolve_samples_block(J, d, G, M, beta, rho, Phi0, history):
    # block recursion: samples [b, b+d) depend only on samples < b
    n = J.size
    s_ext = np.empty(n + d)
    s_ext[:d] = history
    for b in range(0, n, d):
        e = min(b + d, n)
        s_ext[b + d:e + d] = 0.5 * G * (
            1.0 + M * np.sin(np.pi * (beta * s_ext[b:e] + rho * J[b:e]) + Phi0)
        )
    return s_ext[d:]


def dde_euler_loop(n_steps, dt, q, T_R, gs_pmax_half, M, inv_V_pi, x_b, pre, V0):
    """First-order integration of V + T_R dV/dt = G* P[V(t - tau)].

    q = tau/dt (float, >= 1). pre[j] carries the already-evaluated history
    term for steps whose lookback lands before t=0; for later steps the
    lookback is linearly interpolated from the trace being built.
    """
    V = np.empty(n_steps + 1)
    V[0] = V0
    for j in range(1, n_steps + 1):
        # lookback time index for the drive term
        if T_R > 0.0:
            jj = (j - 1) - q
        else:
            jj = j - q
        if jj < 0.0:
            vp = pre[j]
        else:
            i0 = int(jj)
            w = jj - i0
            vp = V[i0] * (1.0 - w) + V[i0 + 1] * w if w > 0.0 else V[i0]
        drive = gs_pmax_half * (1.0 + M * np.sin(np.pi * (vp * inv_V_pi + x_b)))
        if T_R > 0.0:
            V[j] = V[j - 1] + (dt / T_R) * (drive - V[j - 1])
        else:
            V[j] = drive
    return V


try:  # pragma: no cover - exercised via _backend
    import numba

    _jit = numba.njit(cache=True, nogil=True)
    evolve_samples_numba = _jit(evolve_samples_loop)
    dde_euler_numba = _jit(dde_euler_loop)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    evolve_samples_numba = None
    dde_euler_numba = None
    HAVE_NUMBA = False
