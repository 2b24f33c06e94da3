"""Hot numerical loops, written once and compiled with numba when available.

The sample recursion is driven by the masked input J(i + n k) = mask[i] u(n)
of the held input u. The kernels take J as a HeldInput: u and the mask, not
their product. u is one stream (1-d) or rows of equally long streams (rows
x cycles); rows are independent recursions that advance in lockstep, so
one round of numpy calls serves them all. The numpy path never forms J
whole: it forms rho*(u*mask), the product rho*J gave, one chunk of whole
cycles at a time.

Within a chunk the numpy path runs one of two strategies, chosen by the
delay d and the number of rows: for d below scalar_below(rows) a per-sample
loop on Python floats, row by row; otherwise a block recursion in steps of
at most d samples, inside which all dependencies are already resolved. A
block no longer than d reads only earlier samples, so blocks may restart at
any chunk boundary. The block recursion makes about eight numpy calls per
block, so at short delays their call overhead costs more than the plain
loop, and lockstep rows share that overhead. numba compiles the plain loop
and runs it row by row on the formed J. All strategies and both backends
give bitwise-identical samples. Backend selection lives in _backend.

A state that leaves the finite range comes out as nan on every path
(np.sin(inf) is nan; the scalar loop, where math.sin(inf) raises, fills
the rest of the row with nan); callers check the samples they keep.
"""

import math
from typing import NamedTuple

import numpy as np

# d below which evolve_samples_numpy steps sample by sample, for 1, 2, ...
# lockstep rows (the last entry holds for more rows): the two strategies
# take equal time near these delays (numpy 2.4, 2-core x86 host;
# benchmarks/bench_kernels.py --section lockstep, BENCH_6.json)
_SCALAR_BELOW = (36, 24, 16, 12, 10)
# samples per chunk of formed input: bounds the scalar loop's Python lists
# and the block recursion's rho*J to about _CHUNK + d floats per row
_CHUNK = 4096


class HeldInput(NamedTuple):
    """The masked input J(i + n k) = mask[i] u(n), kept as its factors."""

    u: np.ndarray      # cycles, or rows x cycles
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


def scalar_below(rows: int) -> int:
    return _SCALAR_BELOW[min(rows, len(_SCALAR_BELOW)) - 1]


def evolve_samples_loop(J, d, G, M, beta, rho, Phi0, history):
    # s_ext[0:d] holds the pre-stream samples s(-d)..s(-1)
    n = J.size
    s_ext = np.empty(n + d)
    s_ext[:d] = history
    for m in range(n):
        fb = s_ext[m]
        s_ext[m + d] = 0.5 * G * (1.0 + M * np.sin(np.pi * (beta * fb + rho * J[m]) + Phi0))
    return s_ext[d:]


def _extended(J, d, history, out):
    """The samples s(-d).. of every row, history filled in: a new array,
    or the leading columns of out (rows x at least n + d)."""
    shape = J.u.shape[:-1] + (J.u.shape[-1] * J.mask.size + d,)
    s_ext = np.empty(shape) if out is None else out[..., :shape[-1]]
    if s_ext.shape != shape:
        raise ValueError(f"out holds {s_ext.shape}, need {shape}")
    s_ext[..., :d] = history
    return s_ext


def _rows(a):
    return a.reshape(-1, a.shape[-1])


def _chunks(J, rho):
    """(first sample, rho*J over it) for consecutive chunks of whole cycles."""
    k = J.mask.size
    step = max(1, _CHUNK // k)
    for c in range(0, J.u.shape[-1], step):
        yield c * k, rho * masked(J.u[..., c:c + step], J.mask)


def evolve_samples_numpy(J, d, G, M, beta, rho, Phi0, history, out=None):
    """The numpy-path sample recursion of every row of J: the scalar loop
    for d below scalar_below(rows), the block recursion otherwise. Returns
    samples s(0).. (rows x n, or n), a view of out when given."""
    rows = math.prod(J.u.shape[:-1])
    kernel = evolve_samples_scalar if d < scalar_below(rows) else evolve_samples_block
    return kernel(J, d, G, M, beta, rho, Phi0, history, out)


def evolve_samples_scalar(J, d, G, M, beta, rho, Phi0, history, out=None):
    # per-sample loop over chunks, row by row; s holds the d samples
    # carried from the previous chunk, then this chunk's samples, so s[-d]
    # is s(m - d)
    s_ext = _extended(J, d, history, out)
    half_G, M, beta, Phi0 = 0.5 * float(G), float(M), float(beta), float(Phi0)
    pi, sin = math.pi, math.sin
    for u, row in zip(_rows(J.u), _rows(s_ext)):
        carry = row[:d].tolist()
        for c, x in _chunks(HeldInput(u, J.mask), rho):
            s = carry
            try:
                for xm in x.tolist():
                    s.append(half_G * (1.0 + M * sin(pi * (beta * s[-d] + xm) + Phi0)))
            except ValueError:   # math.sin(inf): nan here and after
                row[c + d:c + len(s)] = s[d:]
                row[c + len(s):] = np.nan
                break
            row[c + d:c + len(s)] = s[d:]
            carry = s[-d:]
    return s_ext[..., d:]


def evolve_samples_block(J, d, G, M, beta, rho, Phi0, history, out=None):
    # block recursion: samples [b, b+d) depend only on samples < b
    s_ext = _extended(J, d, history, out)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, x in _chunks(J, rho):
            s = s_ext[..., c:]
            n = x.shape[-1]
            for b in range(0, n, d):
                e = min(b + d, n)
                s[..., b + d:e + d] = 0.5 * G * (
                    1.0 + M * np.sin(np.pi * (beta * s[..., b:e] + x[..., b:e]) + Phi0)
                )
    return s_ext[..., d:]


def evolve_samples_compiled(J, d, G, M, beta, rho, Phi0, history, out=None):
    """The numba-path sample recursion: the compiled loop on each row's J."""
    s_ext = _extended(J, d, history, out)
    for u, row in zip(_rows(J.u), _rows(s_ext)):
        row[d:] = evolve_samples_numba(masked(u, J.mask), d, G, M, beta, rho,
                                       Phi0, row[:d].copy())
    return s_ext[..., d:]


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
