"""Hot numerical loops, written once and compiled with numba when available.

The sample recursion is driven by the masked input J(i + n k) = mask[i] u(n)
of the held input u. The kernels take J as a HeldInput: u and the mask, not
their product. u holds rows of equally long streams (rows x cycles; one
stream is one row); rows are independent recursions that advance in
lockstep, so one round of numpy calls serves them all. Each kernel returns
a new C-contiguous rows x samples array, so every row reshapes into its
states as a view. The numpy path never forms J whole: it forms
rho*(u*mask), the product rho*J gave, one chunk of whole cycles at a time,
the rows interleaved sample-major (sample m of row r at m*rows + r).

The numpy path keeps the d*rows samples it reads back and the chunk it
writes in one buffer in that same layout, so the sample d back of a row
sits d*rows entries back. Each chunk runs one of two strategies on that
buffer, picked by the block width d*rows alone: below _LOOP_BELOW a
per-sample loop on Python floats over the interleaved chunk; otherwise a
block recursion in steps of d*rows entries, inside which all dependencies
are already resolved, making the eight numpy calls of the loop's eight
operations per block and allocating nothing. A block no longer than d
samples reads only earlier samples, so blocks may restart at any chunk
boundary. At narrow blocks the call overhead costs more than the plain
loop. numba compiles the plain loop and runs it row by row on the formed
J. All strategies and both backends give bitwise-identical samples.
Backend selection lives in _backend.

A state that leaves the finite range comes out as nan on every path,
where the plain loop's np.sin(inf) gives it: a chunk in which math.sin(inf)
raises runs again as blocks. Callers check the samples they keep.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

# block width d*rows below which evolve_samples_numpy steps a chunk sample
# by sample: the two strategies take equal time near it at every row count
# (numpy 2.4, 2-core x86 host; median of three benchmarks/bench_kernels.py
# --section lockstep scans, BENCH_9.json)
_LOOP_BELOW = 20
# samples per chunk of formed input: bounds the loop's Python list and the
# recursion's buffer to about _CHUNK + d floats per row
_CHUNK = 4096


class HeldInput(NamedTuple):
    """The masked input J(i + n k) = mask[i] u(n), kept as its factors."""

    u: np.ndarray      # rows x cycles
    mask: np.ndarray   # k values

    @property
    def size(self) -> int:
        """Samples it drives, over all rows."""
        return self.u.size * self.mask.size


def masked(u, mask) -> np.ndarray:
    """J of held input u (cycles, or rows x cycles): mask[i] u(n) at
    sample i + n k of each row."""
    x = u[..., None] * mask
    return x.reshape(x.shape[:-2] + (-1,))


def evolve_samples_loop(J, d, G, M, beta, rho, Phi0, history):
    # s_ext[0:d] holds the pre-stream samples s(-d)..s(-1)
    n = J.size
    s_ext = np.empty(n + d)
    s_ext[:d] = history
    for m in range(n):
        fb = s_ext[m]
        s_ext[m + d] = 0.5 * G * (1.0 + M * np.sin(np.pi * (beta * fb + rho * J[m]) + Phi0))
    return s_ext[d:]


def _chunk_cycles(k: int) -> int:
    return max(1, _CHUNK // k)


def _chunks(J, rho):
    """(first sample, rho*J over it) for consecutive chunks of whole cycles,
    the rows interleaved sample-major: sample m of row r at [m*rows + r]."""
    step = _chunk_cycles(J.mask.size)
    for c in range(0, J.u.shape[1], step):
        u = J.u[:, c:c + step].T
        yield c * J.mask.size, rho * (u[:, None, :] * J.mask[:, None]).ravel()


def _output(J, d, history):
    """The rows x n states to fill, and each row's history s(-d)..s(-1)."""
    rows, cycles = J.u.shape
    return (np.empty((rows, cycles * J.mask.size)),
            np.broadcast_to(history, (rows, d)))


def _loop(buf, x, dR, half_G, M, beta, Phi0):
    """Step the chunk x sample by sample on Python floats into buf after
    its dR carried samples; False, with buf untouched, where math.sin(inf)
    raises."""
    s = buf[:dR].tolist()
    pi, sin = math.pi, math.sin
    try:
        for xm in x.tolist():
            s.append(half_G * (1.0 + M * sin(pi * (beta * s[-dR] + xm) + Phi0)))
    except ValueError:
        return False
    buf[dR:dR + x.size] = s[dR:]
    return True


def evolve_samples_numpy(J, d, G, M, beta, rho, Phi0, history):
    """The numpy-path sample recursion of every row of J. Returns samples
    s(0).. of each row (rows x n)."""
    # buf: the d*R entries read back, then the chunk, sample m of row r at
    # m*R + r. A block makes the loop's eight operations in its order, on
    # 0-d constants into the scratch t, so it allocates nothing.
    out, histories = _output(J, d, history)
    R, n = out.shape
    w = min(n, _chunk_cycles(J.mask.size) * J.mask.size) * R   # per chunk
    dR = d * R
    buf = np.empty(dR + w)
    x = np.empty(w)
    t = np.empty(min(dR, w))
    buf[:dR].reshape(d, R)[...] = histories.T
    half_G, M, beta, Phi0 = 0.5 * float(G), float(M), float(beta), float(Phi0)
    c_beta, c_pi, c_Phi0, c_M, c_one, c_half_G = (
        np.array(v) for v in (beta, math.pi, Phi0, M, 1.0, half_G))
    multiply, add, sin = np.multiply, np.add, np.sin

    @functools.cache
    def blocks(m):
        """Per block of the first m entries of a chunk: the entries d*R
        back, its rho*J, the scratch and the entries it writes."""
        spans = [(b, min(b + dR, m)) for b in range(0, m, dR)]
        return [(buf[b:e], x[b:e], t[:e - b], buf[b + dR:e + dR])
                for b, e in spans]

    with np.errstate(over="ignore", invalid="ignore"):
        for c, xc in _chunks(J, rho):
            m = xc.size
            if not (dR < _LOOP_BELOW
                    and _loop(buf, xc, dR, half_G, M, beta, Phi0)):
                x[:m] = xc
                for s, xs, ts, s_new in blocks(m):
                    multiply(s, c_beta, ts)
                    add(ts, xs, ts)
                    multiply(ts, c_pi, ts)
                    add(ts, c_Phi0, ts)
                    sin(ts, ts)
                    multiply(ts, c_M, ts)
                    add(ts, c_one, ts)
                    multiply(ts, c_half_G, s_new)
            out[:, c:c + m // R] = buf[dR:dR + m].reshape(-1, R).T
            buf[:dR] = buf[m:m + dR]
    return out


def evolve_samples_compiled(J, d, G, M, beta, rho, Phi0, history):
    """The numba-path sample recursion: the compiled loop on each row's J."""
    out, histories = _output(J, d, history)
    for u, row, h in zip(J.u, out, histories):
        row[:] = evolve_samples_numba(masked(u, J.mask), d, G, M, beta, rho,
                                      Phi0, h.copy())
    return out


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
