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
sits d*rows entries back. Each chunk runs as a block recursion on that
buffer in steps of d*rows entries, inside which all dependencies are
already resolved, making the eight numpy calls of the loop's eight
operations per block and allocating nothing. A block no longer than d
samples reads only earlier samples, so blocks may restart at any chunk
boundary. At narrow blocks the call overhead dominates.

A narrow block is widened by cutting each row into S time segments of
whole cycles, S picked from d*rows and the stream length, that run as
lockstep rows of one recursion: the first from the row's history, the
others from zeros. Sample m depends only on sample m-d and the input, so
two runs that agree bitwise on d consecutive samples agree from then on,
and a contracting reservoir started from two histories gets there in a
finite number of samples (its echo state property shrinks the gap until
rounding closes it). Each later segment runs again from the last d
samples of the one before it, all such restarts as rows of one recursion,
over windows that double up to a fixed share of the segment, each one
continuing the last; a restart whose window ends on the first run's bits
has merged. The first segment is exact, so by induction every segment up
to a row's first unmerged one is exact; from there the row runs once more
as a plain row. The rows are written into the one output array, so a
recursion holds its states, chunk buffers and restart bookkeeping but no
second stream-sized array, and a stream that never merges steps under
2.25x its samples. numba compiles the plain loop and runs it row by row on
the formed J. Segmented or whole, and on both backends, the samples are
bitwise identical. Backend selection lives in _backend.

A state that leaves the finite range comes out as nan on every path,
where the plain loop gives it (np.sin(inf) is nan), and a restart that
ends on nan never merges. Callers check the samples they keep.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

# entries per chunk of formed input, over all rows, or four blocks where
# those are wider: bounds the recursion's buffers to about _CHUNK +
# 5 d*rows floats
_CHUNK = 4096
# a stream is cut into segments of whole cycles that run as lockstep rows
# until the block width d*rows reaches about _SEGMENT_WIDTH; each segment
# holds _WINDOW_SHARE windows of d samples and _MIN_TRIPS round trips of
# d samples, and restart windows of at first _WINDOW cycles double up to
# 1/_WINDOW_SHARE of a segment, so a stream that never merges steps under
# 2.25x its samples. Segments of README's narma10 reservoir merge after
# about 120 round trips, which a doubling window may overshoot by 2x, so a
# quarter of 1000 leaves room for it: shorter segments fell back and made
# streams of 800-3200 cycles slower than run whole. The values were
# picked by replaying the recursions of the narma10-study and
# sine_square-sweep benchmark calls, and narma10 streams of 400-8000
# cycles, in one process (numpy 2.4, 2-core x86 host; BENCH_17.json).
_SEGMENT_WIDTH = 400
_WINDOW = 40
_WINDOW_SHARE = 4
_MIN_TRIPS = 1000


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


def _output(J, d, history):
    """The rows x n states to fill, and each row's history s(-d)..s(-1)."""
    rows, cycles = J.u.shape
    return (np.empty((rows, cycles * J.mask.size)),
            np.broadcast_to(history, (rows, d)))


def _steps(u, mask, d, half_G, M, beta, rho, Phi0, histories):
    """The recursion of the rows x cycles held input u from the rows x d
    histories s(-d)..s(-1), one chunk of whole cycles at a time: yields
    each chunk's first sample and a rows x samples view of its states,
    valid until the next step."""
    # buf: the d*R entries read back, then the chunk, sample m of row r at
    # m*R + r. A block makes the loop's eight operations in its order, on
    # 0-d constants into the scratch t, so it allocates nothing.
    R, cycles = u.shape
    k = mask.size
    dR = d * R
    step = min(cycles, max(1, max(_CHUNK, 4 * dR) // (k * R)))
    w = step * k * R
    buf = np.empty(dR + w)
    x = np.empty(w)
    t = np.empty(min(dR, w))
    buf[:dR].reshape(d, R)[...] = histories.T
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

    for c in range(0, cycles, step):
        uc = u[:, c:c + step].T
        m = uc.size * k
        # rho*(u*mask), the loop's rho*J, in the same two roundings
        x3 = x[:m].reshape(-1, k, R)
        multiply(uc[:, None, :], mask[:, None], x3)
        multiply(x3, rho, x3)
        for s, xs, ts, s_new in blocks(m):
            multiply(s, c_beta, ts)
            add(ts, xs, ts)
            multiply(ts, c_pi, ts)
            add(ts, c_Phi0, ts)
            sin(ts, ts)
            multiply(ts, c_M, ts)
            add(ts, c_one, ts)
            multiply(ts, c_half_G, s_new)
        yield c * k, buf[dR:dR + m].reshape(-1, R).T
        buf[:dR] = buf[m:m + dR]


def _segment_count(d, rows, cycles, k):
    """Segments per row: as many as widen the block d*rows to about
    _SEGMENT_WIDTH, each long enough for _WINDOW_SHARE windows of d
    samples and for _MIN_TRIPS round trips of d samples."""
    shortest = max(_WINDOW_SHARE * -(-d // k), -(-_MIN_TRIPS * d // k))
    return max(1, min(_SEGMENT_WIDTH // (d * rows), cycles // shortest))


def _segments(J, d, p, histories, out, S):
    """Fill out by S segments of whole cycles per row and return each
    row's frontier: the cycle from which its samples are not yet exact.

    Every segment of every row runs as a lockstep row, the first from the
    row's history and the others from zeros. Each later segment then runs
    again from the last d samples of the one before it, over windows that
    double up to 1/_WINDOW_SHARE of the segment, each one continuing the
    last, until a window ends on the first run's bits: the recursion
    reads nothing older than d samples, so from there the first run is
    the restarted one. By induction from the exact first segment, every
    segment before a row's first unmerged one is exact, and so is that one
    up to its last window.
    """
    R, cycles = J.u.shape
    k = J.mask.size
    L = cycles // S
    Lk = L * k
    seg = out[:, :S * Lk].reshape(R, S, Lk)
    h = np.zeros((R, S, d))
    h[:, 0] = histories
    for c, block in _steps(J.u[:, :S * L].reshape(R * S, L), J.mask, d, *p,
                           h.reshape(R * S, d)):
        seg[:, :, c:c + block.shape[1]] = block.reshape(R, S, -1)
    # the unmerged restarts, by row r and segment j >= 1, each exact up to
    # cycle a of its segment
    r, j = np.divmod(np.arange(R * (S - 1)), S - 1)
    j += 1
    n = -(-d // k)          # cycles that hold d samples
    cap = L // _WINDOW_SHARE
    a, w = 0, max(_WINDOW, n)
    while True:
        # a window ends at the cap, or takes the rest up to it where that
        # holds under d samples: the d samples a window compares must all
        # be its own, and the first run's there is saved before it writes
        b = cap if cap - (a + w) < n else a + w
        bk = b * k
        first_run = seg[r, j, bk - d:bk].view(np.int64)
        last_d = out[r[:, None], (j * Lk + a * k)[:, None] + np.arange(-d, 0)]
        cols = j[:, None] * L + np.arange(a, b)
        for c, block in _steps(J.u[r[:, None], cols], J.mask, d, *p, last_d):
            seg[r, j, a * k + c:a * k + c + block.shape[1]] = block
        last = seg[r, j, bk - d:bk]
        # equal bits, not ==, which takes -0.0 for 0.0; and never on nan
        open_ = ~((last.view(np.int64) == first_run).all(axis=1)
                  & np.isfinite(last).all(axis=1))
        r, j = r[open_], j[open_]
        if not r.size or b == cap:
            break
        a, w = b, 2 * w
    frontier = np.full(R, S * L)
    rows, first_open = np.unique(r, return_index=True)
    frontier[rows] = j[first_open] * L + b
    return frontier


def evolve_samples_numpy(J, d, G, M, beta, rho, Phi0, history):
    """The numpy-path sample recursion of every row of J. Returns samples
    s(0).. of each row (rows x n)."""
    out, histories = _output(J, d, history)
    R, cycles = J.u.shape
    k = J.mask.size
    p = (0.5 * float(G), float(M), float(beta), rho, float(Phi0))
    S = _segment_count(d, R, cycles, k)
    with np.errstate(over="ignore", invalid="ignore"):
        frontier = (_segments(J, d, p, histories, out, S) if S > 1
                    else np.zeros(R, dtype=int))
        # the rest of each row runs from its frontier, rows that share
        # one in lockstep
        for f in np.unique(frontier[frontier < cycles]):
            rows = np.flatnonzero(frontier == f)
            fk = f * k
            h = histories[rows] if f == 0 else out[rows, fk - d:fk]
            for c, block in _steps(J.u[rows, f:], J.mask, d, *p, h):
                out[rows, fk + c:fk + c + block.shape[1]] = block
    return out


def evolve_samples_compiled(J, d, G, M, beta, rho, Phi0, history):
    """The numba-path sample recursion: the compiled loop on each row's J."""
    out, histories = _output(J, d, history)
    for u, row, h in zip(J.u, out, histories):
        row[:] = evolve_samples_numba(masked(u, J.mask), d, G, M, beta, rho,
                                      Phi0, h.copy())
    return out


def dde_euler_loop(V, pre, dt, q, T_R, gs_pmax_half, M, inv_V_pi, x_b):
    """First-order integration of V + T_R dV/dt = G* P[V(t - tau)] into V
    from V[0] = V(0). q = tau/dt (float, >= 1). pre[j] carries the
    already-evaluated history term for steps whose lookback lands before
    t=0; later lookbacks interpolate linearly in V. numba runs it on arrays,
    the numpy backend on their memoryviews, whose items are Python floats.
    """
    sin, pi = math.sin, math.pi
    filtered = T_R > 0.0
    shift = 1 if filtered else 0      # the filtered model looks back a step
    rate = dt / T_R if filtered else 0.0
    v = V[0]
    for j in range(1, len(V)):
        jj = (j - shift) - q
        if jj < 0.0:
            vp = pre[j]
        else:
            i0 = int(jj)
            w = jj - i0
            vp = V[i0] * (1.0 - w) + V[i0 + 1] * w if w > 0.0 else V[i0]
        drive = gs_pmax_half * (1.0 + M * sin(pi * (vp * inv_V_pi + x_b)))
        v = v + rate * (drive - v) if filtered else drive
        V[j] = v


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
