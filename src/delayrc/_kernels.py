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

Within a chunk the numpy path runs one of two strategies, chosen by the
delay d and the number of rows: for d below scalar_below(rows) a per-sample
loop on Python floats, row by row; otherwise a block recursion in steps of
at most d samples, inside which all dependencies are already resolved. A
block no longer than d reads only earlier samples, so blocks may restart at
any chunk boundary. The block recursion keeps the d samples it reads back
and the chunk it writes interleaved in one buffer, so a block of every row
is one contiguous slice, and it makes the eight numpy calls of the loop's
eight operations per block, allocating nothing. At short delays that call
overhead costs more than the plain loop, and lockstep rows share it. numba
compiles the plain loop and runs it row by row on the formed J. All
strategies and both backends give bitwise-identical samples. Backend
selection lives in _backend.

A state that leaves the finite range comes out as nan on every path
(np.sin(inf) is nan; the scalar loop, where math.sin(inf) raises, fills
the rest of the row with nan); callers check the samples they keep.
"""

import math
from typing import NamedTuple

import numpy as np

# d below which evolve_samples_numpy steps sample by sample, for 1, 2, ...
# lockstep rows (the last entry holds for more rows): the two strategies
# take equal time near these delays (numpy 2.4, 2-core x86 host; median of
# three benchmarks/bench_kernels.py --section lockstep scans, BENCH_8.json)
_SCALAR_BELOW = (20, 10, 6, 6, 4)
# samples per chunk of formed input: bounds the scalar loop's Python lists
# and the block recursion's buffer to about _CHUNK + d floats per row
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


def _chunk_cycles(k: int) -> int:
    return max(1, _CHUNK // k)


def _chunks(J, rho):
    """(first sample, rho*J over it) for consecutive chunks of whole cycles,
    the rows interleaved sample-major: sample m of row r at [m*rows + r]."""
    step = _chunk_cycles(J.mask.size)
    for c in range(0, J.u.shape[1], step):
        u = J.u[:, c:c + step].T
        yield c * J.mask.size, rho * (u[:, None, :] * J.mask[:, None]).ravel()


def evolve_samples_numpy(J, d, G, M, beta, rho, Phi0, history):
    """The numpy-path sample recursion of every row of J: the scalar loop
    for d below scalar_below(rows), the block recursion otherwise. Returns
    samples s(0).. of each row (rows x n)."""
    kernel = evolve_samples_scalar if d < scalar_below(len(J.u)) else evolve_samples_block
    return kernel(J, d, G, M, beta, rho, Phi0, history)


def _output(J, d, history):
    """The rows x n states to fill, and each row's history s(-d)..s(-1)."""
    rows, cycles = J.u.shape
    return (np.empty((rows, cycles * J.mask.size)),
            np.broadcast_to(history, (rows, d)))


def evolve_samples_scalar(J, d, G, M, beta, rho, Phi0, history):
    # per-sample loop over chunks, row by row; s holds the d samples
    # carried from the previous chunk, then this chunk's samples, so s[-d]
    # is s(m - d)
    out, histories = _output(J, d, history)
    half_G, M, beta, Phi0 = 0.5 * float(G), float(M), float(beta), float(Phi0)
    pi, sin = math.pi, math.sin
    for row, u, h in zip(out, J.u, histories):
        carry = h.tolist()
        for c, x in _chunks(HeldInput(u[None], J.mask), rho):
            s = carry
            try:
                for xm in x.tolist():
                    s.append(half_G * (1.0 + M * sin(pi * (beta * s[-d] + xm) + Phi0)))
            except ValueError:   # math.sin(inf): nan here and after
                row[c:c + len(s) - d] = s[d:]
                row[c + len(s) - d:] = np.nan
                break
            row[c:c + len(s) - d] = s[d:]
            carry = s[-d:]
    return out


def evolve_samples_block(J, d, G, M, beta, rho, Phi0, history):
    # block recursion: samples [b, b+d) depend only on samples < b. The rows
    # are interleaved sample-major in buf (sample m of row r at m*R + r,
    # the d history samples first), so a block of every row is one slice.
    # Each block makes the eight operations of the loop in its order, on
    # 0-d constants and into the scratch t, so it allocates nothing; the
    # slices are made once for a whole chunk and reused by every chunk.
    out, histories = _output(J, d, history)
    R, n = out.shape
    w = min(n, _chunk_cycles(J.mask.size) * J.mask.size) * R   # per chunk
    dR = d * R
    buf = np.empty(dR + w)
    x = np.empty(w)
    t = np.empty(min(dR, w))
    buf[:dR].reshape(d, R)[...] = histories.T
    c_beta, c_pi, c_Phi0, c_M, c_one, c_half_G = (
        np.array(float(v)) for v in (beta, np.pi, Phi0, M, 1.0, 0.5 * G))
    multiply, add, sin = np.multiply, np.add, np.sin

    def blocks(m):
        """Per block of the first m samples of a chunk: the samples d back,
        its rho*J, the scratch and the samples it writes."""
        spans = [(b, min(b + dR, m)) for b in range(0, m, dR)]
        return [(buf[b:e], x[b:e], t[:e - b], buf[b + dR:e + dR])
                for b, e in spans]

    full = blocks(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, xc in _chunks(J, rho):
            m = xc.size
            x[:m] = xc
            for s, xs, ts, s_new in (full if m == w else blocks(m)):
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
