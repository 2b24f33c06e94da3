"""Discrete-time sinusoidal feedback map of the optoelectronic loop.

The loop (modulator, detector, delayed feedback) reduces, when the response
time is negligible against the delay, to the scalar map

    x_{n+1} = (G/2) (1 + M sin(pi (x_n + x_b)))

with net gain G, modulation depth M and normalized bias x_b. This module
provides the map itself, fixed-point and stability analysis for its
iterates, cobweb and bifurcation data, a regime classifier, and an explicit
integrator for the underlying delay-differential model used to validate the
discrete limit.

Three shortcuts keep every result bitwise what the plain loops give. An
orbit (iterate) ends at its first exact cycle: the map is a pure function
of x, so once a computed iterate equals an earlier computed one, the rest
of the orbit repeats that cycle and is copied, not computed. A
bifurcation sweep maps each axis value's grid once for all N and brackets
them in one pass; the period points of every (axis value, N) pair are
bisected in one vectorized pass (_bisect_all): each cell keeps its own
ends and stop rules, exactly those of a scalar bisection. The distinct
roots of all pairs are then classified in one more pass (_classify_all):
each root keeps its own parameters and N, takes the first period q that a
scalar check would take, and multiplies the factors |f'| of its orbit up
to that period, in the order a scalar loop multiplies them. Every pass
forms the map in step_map's operations (_phase, _map_from_phase) and the
derivative in map_derivative's, elementwise, and IEEE arithmetic rounds
each element as it rounds a scalar, so they equal the per-root ones
provided math.sin and math.cos round like np.sin and np.cos (the tests
check this).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _backend
from ._csvio import write_atomic, write_csv
from .exceptions import ConfigurationError, NumericsError

__all__ = [
    "OscillatorParams", "FixedPoint", "Regime",
    "step_map", "map_derivative", "net_gain", "iterate", "iterate_n",
    "cobweb", "fixed_points_of_iterate", "bifurcation_sweep",
    "classify_regime", "integrate_dde",
    "cobweb_to_csv", "bifurcation_to_csv", "regime_to_csv",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Dimensionless map parameters plus the physical quantities behind them.

    G: net gain of the open loop; M: modulation depth in (0, 1];
    x_b: bias voltage normalized by the half-wave voltage. V_pi, P_max and
    G_star connect back to volts and watts and are only needed by
    integrate_dde and net gain bookkeeping. T_R is the loop response time,
    tau the feedback delay (seconds).
    """

    G: float
    M: float = 0.983
    x_b: float = 0.0
    V_pi: float = 1.0
    P_max: float = 0.0
    G_star: float = 0.0
    T_R: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        for name in ("G", "M", "x_b", "V_pi", "P_max", "G_star", "T_R", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.G > 0:
            raise ConfigurationError(f"G must be positive, got {self.G}")
        if not 0 < self.M <= 1:
            raise ConfigurationError(f"M must be in (0, 1], got {self.M}")
        if not self.V_pi > 0:
            raise ConfigurationError(f"V_pi must be positive, got {self.V_pi}")
        if self.P_max < 0:
            raise ConfigurationError(f"P_max must be nonnegative, got {self.P_max}")
        if self.T_R < 0:
            raise ConfigurationError(f"T_R must be nonnegative, got {self.T_R}")
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class FixedPoint:
    x_star: float
    period: int
    stable: bool
    multiplier: float
    marginal: bool = False


@dataclass(frozen=True)
class Regime:
    kind: str            # "stable" | "periodic" | "chaotic"
    period: int          # 1 for stable, 0 if undetected (period > tail window)
    lyapunov: float


def net_gain(P_max, G_star, V_pi) -> float:
    """Dimensionless net gain from detector gain, optical power and V_pi."""
    if not (P_max > 0 and G_star > 0 and V_pi > 0):
        raise ConfigurationError("net_gain requires positive P_max, G_star, V_pi")
    return G_star * P_max / V_pi


def step_map(x, p: OscillatorParams):
    """One application of the map. Accepts scalars or arrays."""
    return 0.5 * p.G * (1.0 + p.M * np.sin(np.pi * (x + p.x_b)))


def map_derivative(x, p: OscillatorParams):
    return 0.5 * p.G * p.M * np.pi * np.cos(np.pi * (x + p.x_b))


# the longest orbit, and the most orbit samples in a diagram: 80 MB of doubles
_MAP_MAX_SAMPLES = 10_000_000
# the longest cycle iterate detects
_CYCLE_WINDOW = 4096
NON_FINITE_ORBIT = "map iterates left the finite range; lower G"


def iterate(x0: float, n: int, p: OscillatorParams) -> np.ndarray:
    """Trajectory [x0, x1, ..., xn] of length n + 1; n is at most
    _MAP_MAX_SAMPLES. An iterate whose phase overflows raises
    NumericsError (math.sin(inf) raises where np.sin would give nan).

    The map is a pure function of x, so an orbit that returns to an
    earlier value repeats exactly from there. Each new iterate is compared
    with a checkpoint, the last iterate of the window before it; windows
    double from 1 up to _CYCLE_WINDOW samples (Brent's cycle detection).
    At the first match the rest of the array is filled by repeating the
    cycle, which finds every cycle of period up to _CYCLE_WINDOW within
    two windows of entering it. Only computed iterates are compared, never
    x0, and nothing is held besides the output array.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if n > _MAP_MAX_SAMPLES:
        raise ConfigurationError(
            f"n asks for {n:,} steps, more than {_MAP_MAX_SAMPLES:,}")
    out = np.empty(n + 1)
    out[0] = x0
    x, chk = float(x0), math.nan    # nan equals no iterate
    # locals for the hot loop; Python multiplies left to right, so
    # half_g*(...) rounds exactly as step_map's 0.5*G*(...) does
    half_g, m, x_b, sin, pi = 0.5 * p.G, p.M, p.x_b, math.sin, math.pi
    o = memoryview(out)     # its items are Python floats
    i, width = 1, 1     # out[:i] is filled
    try:
        while i <= n:
            start = i
            for i in range(start, min(start + width, n + 1)):
                x = half_g * (1.0 + m * sin(pi * (x + x_b)))
                o[i] = x
                if x == chk:
                    break
            i += 1
            if x == chk:
                # x_(i-1) equals x_(start-1), so x_i, x_(i+1), ... repeat
                # x_start, x_(start+1), ...; each copy doubles the cycles
                while i <= n:
                    k = min(i - start, n + 1 - i)
                    out[i:i + k] = out[start:start + k]
                    i += k
            chk, width = x, min(2 * width, _CYCLE_WINDOW)
    except ValueError:   # math.sin(inf)
        raise NumericsError(NON_FINITE_ORBIT) from None
    return out


def iterate_n(x, N: int, p: OscillatorParams):
    """N-fold composition of the map, vectorized over x."""
    y = np.asarray(x, dtype=float)
    for _ in range(N):
        y = step_map(y, p)
    return y


def cobweb(x0: float, n: int, p: OscillatorParams) -> np.ndarray:
    """Cobweb polyline vertices, 2n points.

    Alternates vertical and horizontal segment endpoints
    (x0,x1),(x1,x1),(x1,x2),(x2,x2),... for overlay with the diagonal y=x.
    """
    if not math.isfinite(x0):
        raise ConfigurationError(f"x0 must be finite, got {x0!r}")
    traj = iterate(x0, n, p)
    pts = np.empty((2 * n, 2))
    pts[0::2, 0] = traj[:-1]
    pts[0::2, 1] = traj[1:]
    pts[1::2] = traj[1:, None]
    return pts


_GRID_CELLS = 4096
# the most cells one period-point search brackets. Bisecting and
# classifying them peaks at about 500 bytes a cell: a 3000-step sweep of the
# default G range at N_max=16 brackets 945,760 cells and peaks at 521 MB
# RSS (2-core x86 host); the default sweep brackets 3,848
_MAX_PERIOD_CELLS = 1_000_000
_BISECT_TOL = 1e-12
_PERIOD_TOL = 1e-8


def _phase(x, x_b):
    """pi*(x + x_b), the phase of step_map and map_derivative, on a fresh
    array."""
    t = x + x_b
    t *= math.pi
    return t


def _map_from_phase(t, hg, m):
    """step_map's value hg*(1.0 + m*sin(t)) from its phase t, in place in
    t; hg holds 0.5*G. Each element rounds as step_map rounds a scalar (and
    as the map on Python floats does when math.sin rounds like np.sin)."""
    np.sin(t, out=t)
    t *= m
    t += 1.0
    t *= hg
    return t


def _image_stack(p: OscillatorParams, n: int):
    """The bracketing grid xs of p in row 0 and f^N(xs) in row N, for N up
    to n. Row N is step_map applied to row N-1, the operations
    iterate_n(xs, N, p) performs, so it is bitwise the same. An image that
    leaves the finite range holds inf or nan, quietly: the scalar map
    reports the overflow (NumericsError)."""
    ys = [np.linspace(-0.1, p.G + 0.1, _GRID_CELLS + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            ys.append(_map_from_phase(_phase(ys[-1], p.x_b), 0.5 * p.G, p.M))
    return np.stack(ys)


def _root_brackets(xs, fs):
    """Cells of the grid xs that hold a root of f, for each row f of fs
    (the values of one function on xs), as arrays (row, a, b, fa) of their
    row, ends and the value at a; row-major, so each row's cells come in
    ascending order.

    Cell i spans [xs[i], xs[i+1]]. A zero at its left end is a root on the
    grid: the cell comes back with fa == 0 and is not searched further.
    Otherwise a sign change across the cell brackets a root for
    _bisect_all. A zero at the last grid point comes back, last in its row,
    as the cell (xs[-1], xs[-1]).
    """
    neg = fs < 0
    hit = fs == 0.0
    hit[:, :-1] |= neg[:, :-1] != neg[:, 1:]
    flat = np.flatnonzero(hit)   # far faster than a 2-D np.nonzero
    row, cell = np.divmod(flat, xs.size)
    ends = np.append(xs, xs[-1])   # the last cell is the last grid point
    return row, ends[cell], ends[cell + 1], fs.ravel()[flat]


def _bisect_all(a, b, fa, hg, m, x_b, N):
    """Roots of f^N(x) - x, one per cell [a, b] with fa its value at a, for
    arrays of cells; hg, m and x_b hold each cell's map parameters
    (0.5*G, M, x_b) and N its iterate.

    A cell with fa == 0 is a root on the grid: its root is a. Every other
    cell is bisected as the scalar loop below would bisect it, on its own;
    the cells only share the numpy calls of each round:

        while b - a > _BISECT_TOL:
            mid = 0.5 * (a + b)
            if not a < mid < b:        # a and b are adjacent floats
                break
            fm = f^N(mid) - mid
            if fm == 0.0:
                return mid
            if (fa < 0) != (fm < 0):
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    (The scalar loop also set fa = fm where it moved a, that is where
    (fm < 0) equals (fa < 0), so the test on fa never changed.) The map is
    applied elementwise in the operations of step_map, so each cell's fm
    is bitwise what the map on Python floats gives when math.sin rounds
    like np.sin (the tests check this). The map's phase pi*(x + x_b) is
    never nan but where an earlier phase was +-inf, which is where math.sin
    raises: an fm of nan raises NumericsError.
    """
    roots = a.copy()
    # the cells in order of N descending, so those that take step s of
    # f^N are a prefix
    order = np.argsort(-N, kind="stable")
    order = order[fa[order] != 0.0]
    N = N[order]
    w = np.stack([a, b, fa, hg, m, x_b])[:, order]
    ends = None     # the k of each step of f^N, until cells leave
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            a, b = w[0], w[1]
            mid = 0.5 * (a + b)
            go = (b - a > _BISECT_TOL) & (a < mid) & (mid < b)
            if not go.all():
                roots[order[~go]] = mid[~go]
                order, N, w, mid = order[go], N[go], w[:, go], mid[go]
                ends = None
            if not order.size:
                return roots
            if ends is None:
                ends = np.searchsorted(-N, -np.arange(1, N[0] + 1),
                                       "right").tolist()
            a, b, fa, hg, m, x_b = w
            y = mid
            for k in ends:
                t = _map_from_phase(_phase(y[:k], x_b[:k]), hg[:k], m[:k])
                # every cell takes the first step, so mid is never written
                if k == y.size:
                    y = t
                else:
                    y[:k] = t
            fm = y - mid
            if np.isnan(fm).any():
                raise NumericsError(NON_FINITE_ORBIT)
            left = (fa < 0) != (fm < 0)
            np.copyto(b, mid, where=left)
            np.copyto(a, mid, where=~left)
            zero = fm == 0.0
            if zero.any():
                roots[order[zero]] = mid[zero]
                order, N, w = order[~zero], N[~zero], w[:, ~zero]
                ends = None


def _period_points(pairs) -> list[list[FixedPoint]]:
    """fixed_points_of_iterate(p, N) for each (p, N) in pairs. The grid of
    each distinct p is mapped once, up to the largest N asked of it, and
    bracketed for all its N in one pass; the roots of every pair are then
    bisected together by _bisect_all, and the distinct roots of every pair
    classified together by _classify_all. More than _MAX_PERIOD_CELLS
    bracketed cells raise ConfigurationError before any is bisected."""
    hg, m, x_b, N = (np.array(v) for v in zip(
        *((0.5 * p.G, p.M, p.x_b, N) for p, N in pairs)))
    # the pairs of each p; parameters that compare equal differ at most in
    # the sign of a zero x_b, which leaves every image unchanged
    groups = {}
    for i, (p, _) in enumerate(pairs):
        groups.setdefault(p, []).append(i)
    cells, n_cells = [], 0     # (pair, a, b, fa) of each p's brackets
    for p, members in groups.items():
        members = np.array(members)
        ys = _image_stack(p, N[members].max())
        row, a, b, fa = _root_brackets(ys[0], ys[N[members]] - ys[0])
        n_cells += row.size
        if n_cells > _MAX_PERIOD_CELLS:
            raise ConfigurationError(
                f"the period-point search brackets more than "
                f"{_MAX_PERIOD_CELLS:,} cells; lower dynamics.steps or "
                f"dynamics.N_max")
        cells.append((members[row], a, b, fa))
    del ys   # the last stack need not live through the bisection
    pair, a, b, fa = (np.concatenate(c) for c in zip(*cells))
    roots = _bisect_all(a, b, fa, hg[pair], m[pair], x_b[pair], N[pair])
    # each pair's roots in ascending order (a stable sort, as sorted() is),
    # less those within 1e-9 of the last one kept
    order = np.lexsort((roots, pair))
    kept, owner = [], []
    for i, r in zip(pair[order].tolist(), roots[order].tolist()):
        if owner and owner[-1] == i and abs(r - kept[-1]) < 1e-9:
            continue
        kept.append(r)
        owner.append(i)
    fps = _classify_all(np.array(kept), hg[owner], m[owner], x_b[owner],
                        N[owner])
    out = [[] for _ in pairs]
    for i, fp in zip(owner, fps):
        out[i].append(fp)
    return out


def _classify_all(x, hg, m, x_b, N) -> list[FixedPoint]:
    """Period points x of f^N as FixedPoints, for arrays of roots; hg, m
    and x_b hold each root's map parameters (0.5*G, M, x_b) and N its
    iterate.

    Each root is classified as the scalar loop below would classify it on
    its own; the roots only share the numpy calls of each step:

        period = N
        for q in range(1, N):
            if N % q == 0 and abs(f^q(x) - x) < _PERIOD_TOL:
                period = q
                break
        mult, y = 1.0, x
        for _ in range(period):
            mult *= abs(map_derivative(y, p))
            y = f(y)
        marginal = abs(mult - 1.0) < 1e-9
        stable = mult < 1.0 and not marginal

    Step q forms f^q(x) from f^(q-1)(x) in the operations of step_map, and
    the factor of f^(q-1)(x) in those of map_derivative from the same
    phase; it keeps the factor only while q <= period, so a root's product
    stops at its period. Both are elementwise, so they are bitwise the
    scalar values when math.sin and math.cos round like np.sin and np.cos
    (the tests check this). A product past the float range is inf
    (unstable), quietly. An f^q(x) of nan means an earlier phase was
    +-inf, where math.sin raises: it raises NumericsError where the scalar
    loop evaluates f^q, that is at q dividing N, below N, and below any
    period found.
    """
    period = N.copy()
    mult = np.ones_like(x)
    slope = hg * m
    slope *= math.pi   # ((0.5*G)*M)*pi, as map_derivative forms it
    # the steps q at which some root's period is checked
    checked = {q for n in set(N.tolist()) for q in range(1, n) if n % q == 0}
    y, q, last = x, 1, N.max(initial=0)
    with np.errstate(over="ignore", invalid="ignore"):
        while q <= last:   # last: the longest period still possible
            t = _phase(y, x_b)
            d = np.cos(t)
            d *= slope
            np.abs(d, out=d)
            np.multiply(mult, d, out=mult, where=q <= period)
            if q == last:
                break
            y = _map_from_phase(t, hg, m)
            if q in checked:
                check = (period == N) & (N % q == 0) & (q < N)
                if (check & np.isnan(y)).any():
                    raise NumericsError(NON_FINITE_ORBIT)
                hit = check & (np.abs(y - x) < _PERIOD_TOL)
                if hit.any():
                    period[hit] = q
                    last = period.max()
            q += 1
        marginal = np.abs(mult - 1.0) < 1e-9
        stable = (mult < 1.0) & ~marginal
    # .tolist() gives built-in floats, ints and bools
    return [FixedPoint(*fp) for fp in zip(
        x.tolist(), period.tolist(), stable.tolist(), mult.tolist(),
        marginal.tolist())]


def fixed_points_of_iterate(p: OscillatorParams, N: int) -> list[FixedPoint]:
    """All period points of the N-th iterate on [0, G], with stability.

    Roots of iterate_n(x, N) - x are bracketed on a uniform grid of
    _GRID_CELLS cells: each call maps the grid N times (_image_stack) and
    finds the exact zeros and sign changes in one vectorized pass. Only
    those cells are refined, by the batched bisection _bisect_all. Each
    distinct root is assigned the smallest period dividing N that it
    actually satisfies, and the orbit multiplier prod |f'(x_i)| over that
    period decides stability (strict: multiplier < 1); _classify_all does
    both for all roots at once, one elementwise map step per q. This is
    the one-pair case of the batched search a bifurcation sweep runs. The
    result is bitwise what checking and multiplying one root at a time on
    scalars gives, provided math.sin and math.cos round like np.sin and
    np.cos (the tests check this).
    """
    if not 1 <= N <= 16:
        raise ConfigurationError(f"N must be in [1, 16], got {N}")
    return _period_points([(p, N)])[0]


@dataclass(frozen=True)
class BifurcationRow:
    axis_value: float
    fixed_points: tuple
    orbit: np.ndarray


_SWEEP_AXES = ("G", "P_max", "x_b")


def _with_axis(p, axis, v):
    if axis == "G":
        return replace(p, G=float(v))
    if axis == "P_max":
        return replace(p, P_max=float(v), G=net_gain(float(v), p.G_star, p.V_pi))
    return replace(p, x_b=float(v))


def bifurcation_sweep(axis: str, axis_range, steps: int, p: OscillatorParams,
                      N_max: int = 8, transient: int = 10_000,
                      orbit_samples: int = 128) -> list[BifurcationRow]:
    """Orbit-diagram data: per axis value, period points up to N_max (at
    most 16) plus the asymptotic orbit tail after a long transient. The
    diagram holds steps*orbit_samples orbit samples, at most
    _MAP_MAX_SAMPLES. The grid of each axis value is mapped once for all
    its N, the period points of every (axis value, N) pair are bisected in
    one _bisect_all pass, then merged per axis value."""
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if steps < 2:
        raise ConfigurationError(f"steps must be >= 2, got {steps}")
    if orbit_samples < 1:
        raise ConfigurationError(f"orbit_samples must be >= 1, got {orbit_samples}")
    if not 1 <= N_max <= 16:
        raise ConfigurationError(f"N_max must be in [1, 16], got {N_max}")
    if steps * orbit_samples > _MAP_MAX_SAMPLES:
        raise ConfigurationError(
            f"steps*orbit_samples asks for {steps * orbit_samples:,} orbit "
            f"samples, more than {_MAP_MAX_SAMPLES:,}")
    a, b = float(axis_range[0]), float(axis_range[1])
    if not b > a:
        raise ConfigurationError(f"axis range must have positive width, got [{a}, {b}]")
    if not math.isfinite(b - a):
        # linspace would step by inf and place nan on the axis
        raise ConfigurationError(
            f"axis range [{a}, {b}] is too wide: its width is not finite")
    values = np.linspace(a, b, steps)
    params = [_with_axis(p, axis, v) for v in values]
    found = _period_points([(pv, N) for pv in params
                            for N in range(1, N_max + 1)])
    rows = []
    for i, (v, pv) in enumerate(zip(values, params)):
        # keep a point more than 1e-8 from every kept x_star; xs holds those
        # sorted, so (subtraction being monotone) its two neighbours decide
        fps, xs = [], []
        for points in found[i * N_max:(i + 1) * N_max]:
            for fp in points:
                j = bisect.bisect(xs, fp.x_star)
                if all(abs(fp.x_star - g) > 1e-8 for g in xs[max(j - 1, 0):j + 1]):
                    fps.append(fp)
                    xs.insert(j, fp.x_star)
        # a copy: a view of the tail would hold the whole trajectory
        orbit = iterate(0.1, transient + orbit_samples, pv)[-orbit_samples:]
        rows.append(BifurcationRow(float(v), tuple(fps), orbit.copy()))
    return rows


def _detect_period(tail, max_period, tol):
    for q in range(1, max_period + 1):
        if np.max(np.abs(tail[q:] - tail[:-q])) < tol:
            return q
    return 0


def classify_regime(p: OscillatorParams, transient: int = 10_000,
                    tail: int = 1024, max_period: int = 64,
                    tol: float = 1e-6) -> Regime:
    """Stable / periodic(q) / chaotic from the asymptotic orbit.

    Runs a transient, looks for the minimal period q <= max_period in the
    tail, otherwise falls back to the sign of the Lyapunov exponent
    (mean log |f'|). If neither resolves, one retry with a 10x transient is
    made; an undetected long period is reported as periodic with period 0.
    """
    for boost in (1, 10):
        traj = iterate(0.1, transient * boost + tail, p)
        t = traj[-tail:]
        lyap = float(np.mean(np.log(np.abs(map_derivative(t, p)) + 1e-300)))
        q = _detect_period(t, max_period, tol)
        if q == 1:
            return Regime("stable", 1, lyap)
        if q > 1:
            return Regime("periodic", q, lyap)
        if lyap > 0:
            return Regime("chaotic", 0, lyap)
    return Regime("periodic", 0, lyap)


_DDE_MAX_STEPS = 10_000_000   # arrays of this many doubles take 80 MB each


def integrate_dde(p: OscillatorParams, history, duration: float, dt: float):
    """Explicit first-order integration of the delay-differential loop model

        V(t) + T_R dV/dt = G* P[V(t - tau)]

    with P[V] the modulator transmission (P_max/2)(1 + M sin(pi(V/V_pi + x_b))).
    history must be callable on [-tau, 0]. Returns (t, V) arrays sampled at
    multiples of dt; with T_R = 0 the relation is enforced pointwise and the
    trace at multiples of tau reproduces the discrete map exactly.
    duration/dt may be at most _DDE_MAX_STEPS steps; a trace that leaves
    the finite range raises NumericsError.
    """
    for name, v in (("duration", duration), ("dt", dt)):
        if not (math.isfinite(v) and v > 0):
            raise ConfigurationError(f"{name} must be finite and positive, got {v!r}")
    if dt > p.tau / 100.0:
        raise ConfigurationError(
            f"dt must be <= tau/100 ({p.tau / 100.0:g}), got {dt:g}")
    if p.T_R > 0 and dt > p.T_R / 10.0:
        raise ConfigurationError(
            f"dt must be <= T_R/10 ({p.T_R / 10.0:g}) when T_R > 0, got {dt:g}")
    if p.G_star * p.P_max <= 0:
        raise ConfigurationError(
            "integrate_dde needs the physical drive (G_star, P_max), "
            f"got G_star={p.G_star:g}, P_max={p.P_max:g}")

    if duration / dt > _DDE_MAX_STEPS:
        raise ConfigurationError(
            f"duration/dt asks for {duration / dt:g} steps, more than "
            f"{_DDE_MAX_STEPS:,}")
    n_steps = int(round(duration / dt))
    q = p.tau / dt
    shift = 1 if p.T_R > 0 else 0
    # pre[j] is read only by the steps whose lookback (j - shift) - q lands
    # before t=0, j < q + shift
    pre = np.zeros(min(n_steps, math.ceil(q) - 1 + shift) + 1)
    for j in range(1, pre.size):
        pre[j] = float(history(((j - shift) - q) * dt))
    V0 = float(history(0.0))
    if not (math.isfinite(V0) and np.all(np.isfinite(pre))):
        raise ConfigurationError("history must be finite on [-tau, 0]")
    V = np.full(n_steps + 1, V0)
    try:
        _backend.dde_euler(V, pre, dt, q, p.T_R, 0.5 * p.G_star * p.P_max,
                           p.M, 1.0 / p.V_pi, p.x_b)
    except ValueError:   # math.sin(inf): the rest of V is not stepped
        V[-1] = math.nan
    if not np.all(np.isfinite(V)):
        raise NumericsError("the DDE trace left the finite range; lower "
                            "G_star*P_max or raise V_pi")
    return np.arange(n_steps + 1) * dt, V


# ---------------------------------------------------------------- emitters

def cobweb_to_csv(points, path, comment=None):
    write_csv(path, ["x", "y"], ([float(x), float(y)] for x, y in points), comment)


def bifurcation_to_csv(rows, path, comment=None):
    """One table holding both branch points and orbit samples.

    Fixed-point rows carry branch_id >= 0 and empty orbit_sample; orbit rows
    carry branch_id -1 and only the sample column. The lines are those
    write_csv would write (fmt's rules: a float by repr, a bool as 1 or 0,
    None empty), formatted here from the built-in types that
    bifurcation_sweep returns.
    """
    def fill(fh):
        if comment:
            fh.write("# " + comment + "\n")
        fh.write("axis_value,branch_id,x_star,period,stable,orbit_sample\n")
        for row in rows:
            axis = repr(row.axis_value)
            for i, fp in enumerate(row.fixed_points):
                fh.write(f"{axis},{i},{fp.x_star!r},{fp.period},"
                         f"{1 if fp.stable else 0},\n")
            samples = row.orbit.tolist()
            if samples:   # one line per sample, written as one string
                sep = "\n" + axis + ",-1,,,,"
                fh.write(sep[1:] + sep.join(map(repr, samples)) + "\n")
    write_atomic(path, fill)


def regime_to_csv(entries, path, comment=None):
    """entries: iterable of (params, Regime)."""
    rows = ([p.G, p.M, p.x_b, r.kind, r.period, r.lyapunov] for p, r in entries)
    write_csv(path, ["G", "M", "x_b", "regime", "period", "lyapunov"], rows, comment)
