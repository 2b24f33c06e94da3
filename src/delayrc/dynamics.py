"""Discrete-time sinusoidal feedback map of the optoelectronic loop.

The loop (modulator, detector, delayed feedback) reduces, when the response
time is negligible against the delay, to the scalar map

    x_{n+1} = (G/2) (1 + M sin(pi (x_n + x_b)))

with net gain G, modulation depth M and normalized bias x_b. This module
provides the map itself, fixed-point and stability analysis for its
iterates, cobweb and bifurcation data, a regime classifier, and an explicit
integrator for the underlying delay-differential model used to validate the
discrete limit.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _backend
from ._csvio import write_csv
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
NON_FINITE_ORBIT = "map iterates left the finite range; lower G"


def iterate(x0: float, n: int, p: OscillatorParams) -> np.ndarray:
    """Trajectory [x0, x1, ..., xn] of length n + 1; n is at most
    _MAP_MAX_SAMPLES. An iterate whose phase overflows raises
    NumericsError (math.sin(inf) raises where np.sin would give nan)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if n > _MAP_MAX_SAMPLES:
        raise ConfigurationError(
            f"n asks for {n:,} steps, more than {_MAP_MAX_SAMPLES:,}")
    out = np.empty(n + 1)
    out[0] = x0
    x = float(x0)
    # locals for the hot loop; Python multiplies left to right, so
    # half_g*(...) rounds exactly as step_map's 0.5*G*(...) does
    half_g, m, x_b, sin, pi = 0.5 * p.G, p.M, p.x_b, math.sin, math.pi
    try:
        for i in range(1, n + 1):
            x = half_g * (1.0 + m * sin(pi * (x + x_b)))
            out[i] = x
    except ValueError:   # math.sin(inf)
        raise NumericsError(NON_FINITE_ORBIT) from None
    return out


def iterate_n(x, N: int, p: OscillatorParams):
    """N-fold composition of the map, vectorized over x."""
    y = np.asarray(x, dtype=float)
    for _ in range(N):
        y = step_map(y, p)
    return y


def _iterate_n_float(x: float, N: int, p: OscillatorParams) -> float:
    """iterate_n for one Python float, in the same operations (math.sin
    must round like np.sin for the two to agree bitwise). Raises
    NumericsError where iterate does."""
    half_g, m, x_b, sin, pi = 0.5 * p.G, p.M, p.x_b, math.sin, math.pi
    try:
        for _ in range(N):
            x = half_g * (1.0 + m * sin(pi * (x + x_b)))
    except ValueError:   # math.sin(inf)
        raise NumericsError(NON_FINITE_ORBIT) from None
    return x


def cobweb(x0: float, n: int, p: OscillatorParams) -> np.ndarray:
    """Cobweb polyline vertices, 2n points.

    Alternates vertical and horizontal segment endpoints
    (x0,x1),(x1,x1),(x1,x2),(x2,x2),... for overlay with the diagonal y=x.
    """
    if not math.isfinite(x0):
        raise ConfigurationError(f"x0 must be finite, got {x0!r}")
    traj = iterate(x0, n, p)
    pts = np.empty((2 * n, 2))
    for i in range(n):
        pts[2 * i] = (traj[i], traj[i + 1])
        pts[2 * i + 1] = (traj[i + 1], traj[i + 1])
    return pts


_GRID_CELLS = 4096
_BISECT_TOL = 1e-12
_PERIOD_TOL = 1e-8


def _bisect(f, a, b, fa, fb):
    # plain bisection; the iterated map is bounded and smooth so this is
    # robust where Newton would stall on derivative zeros. It also ends
    # where a and b are adjacent floats farther apart than _BISECT_TOL
    # (roots of 8192 and more): no midpoint lies strictly between them.
    while b - a > _BISECT_TOL:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _root_brackets(xs, fs):
    """Cells of the grid (xs, fs) that hold a root of f, in ascending order,
    as (a, b, fa, fb) of Python floats.

    Cell i spans [xs[i], xs[i+1]]. A zero at its left end is a root on the
    grid: the cell comes back with fa == 0 and is not searched further.
    Otherwise a sign change across the cell brackets a root for _bisect. A
    zero at the last grid point comes back as the cell (xs[-1], xs[-1]).
    """
    left = fs[:-1]
    cells = np.flatnonzero((left == 0.0) | ((left < 0) != (fs[1:] < 0)))
    out = list(zip(xs[cells].tolist(), xs[cells + 1].tolist(),
                   fs[cells].tolist(), fs[cells + 1].tolist()))
    if fs[-1] == 0.0:
        a, fa = float(xs[-1]), float(fs[-1])
        out.append((a, a, fa, fa))
    return out


@functools.lru_cache(maxsize=1)
def _grid_images(p: OscillatorParams) -> dict:
    """{0: xs}, the bracketing grid of p, to which _grid_image adds f^N(xs)
    under N. One entry: a sweep asks for N = 1..N_max at one axis value
    before it moves on. Parameters that compare equal differ at most in the
    sign of a zero x_b, which leaves every image unchanged."""
    xs = np.linspace(-0.1, p.G + 0.1, _GRID_CELLS + 1)
    xs.setflags(write=False)
    return {0: xs}


def _grid_image(p: OscillatorParams, N: int):
    """(xs, f^N(xs)) on the bracketing grid, both read-only and shared by
    every call with p. f^N(xs) is step_map applied to f^(N-1)(xs), the
    operations iterate_n(xs, N, p) performs, so it is bitwise the same.
    An image that leaves the finite range holds inf or nan, quietly: the
    scalar map reports the overflow (NumericsError)."""
    images = _grid_images(p)
    for n in range(1, N + 1):
        if n not in images:
            with np.errstate(over="ignore", invalid="ignore"):
                y = step_map(images[n - 1], p)
            y.setflags(write=False)
            images.setdefault(n, y)
    return images[0], images[N]


def _orbit_multiplier(x_star, period, p):
    # a product past the float range is inf (unstable), quietly
    mult = 1.0
    x = x_star
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(period):
            mult *= abs(map_derivative(x, p))
            x = float(step_map(x, p))
    return mult


def fixed_points_of_iterate(p: OscillatorParams, N: int) -> list[FixedPoint]:
    """All period points of the N-th iterate on [0, G], with stability.

    Roots of iterate_n(x, N) - x are bracketed on a uniform grid of
    _GRID_CELLS cells. The grid images f^N(xs) come from _grid_image, which
    keeps those of the last p, so the calls for N = 1..N_max at one p map
    the grid once per N. One vectorized pass over the grid values finds the
    exact zeros and sign changes, and only those cells are refined, each by
    scalar bisection on Python floats (_iterate_n_float). Each root is
    assigned the smallest period dividing N that it actually satisfies, and
    the orbit multiplier prod |f'(x_i)| decides stability (strict:
    multiplier < 1). The result is bitwise what evaluating every f^N
    through iterate_n gives, provided math.sin rounds like np.sin (the
    tests check this).
    """
    if not 1 <= N <= 16:
        raise ConfigurationError(f"N must be in [1, 16], got {N}")
    xs, ys = _grid_image(p, N)

    def f(x):
        return _iterate_n_float(x, N, p) - x

    roots = [a if fa == 0.0 else _bisect(f, a, b, fa, fb)
             for a, b, fa, fb in _root_brackets(xs, ys - xs)]

    out = []
    for r in sorted(roots):
        if out and abs(r - out[-1].x_star) < 1e-9:
            continue
        period = N
        for q in range(1, N):
            if N % q == 0 and abs(_iterate_n_float(r, q, p) - r) < _PERIOD_TOL:
                period = q
                break
        mult = _orbit_multiplier(r, period, p)
        marginal = abs(mult - 1.0) < 1e-9
        out.append(FixedPoint(
            x_star=float(r), period=period,
            stable=bool(mult < 1.0 and not marginal),
            multiplier=float(mult), marginal=marginal))
    return out


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
    """Orbit-diagram data: per axis value, period points up to N_max plus
    the asymptotic orbit tail after a long transient. The diagram holds
    steps*orbit_samples orbit samples, at most _MAP_MAX_SAMPLES."""
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if steps < 2:
        raise ConfigurationError(f"steps must be >= 2, got {steps}")
    if orbit_samples < 1:
        raise ConfigurationError(f"orbit_samples must be >= 1, got {orbit_samples}")
    if steps * orbit_samples > _MAP_MAX_SAMPLES:
        raise ConfigurationError(
            f"steps*orbit_samples asks for {steps * orbit_samples:,} orbit "
            f"samples, more than {_MAP_MAX_SAMPLES:,}")
    a, b = float(axis_range[0]), float(axis_range[1])
    if not b > a:
        raise ConfigurationError(f"axis range must have positive width, got [{a}, {b}]")
    rows = []
    for v in np.linspace(a, b, steps):
        pv = _with_axis(p, axis, v)
        # keep a point more than 1e-8 from every kept x_star; xs holds those
        # sorted, so (subtraction being monotone) its two neighbours decide
        fps, xs = [], []
        for N in range(1, N_max + 1):
            for fp in fixed_points_of_iterate(pv, N):
                i = bisect.bisect(xs, fp.x_star)
                if all(abs(fp.x_star - g) > 1e-8 for g in xs[max(i - 1, 0):i + 1]):
                    fps.append(fp)
                    xs.insert(i, fp.x_star)
        traj = iterate(0.1, transient + orbit_samples, pv)
        rows.append(BifurcationRow(float(v), tuple(fps), traj[-orbit_samples:]))
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
    pre = np.zeros(n_steps + 1)
    for j in range(1, n_steps + 1):
        jj = (j - shift) - q
        if jj >= 0.0:
            break   # jj grows with j: no later step looks back before t=0
        pre[j] = float(history(jj * dt))
    V0 = float(history(0.0))
    if not (math.isfinite(V0) and np.all(np.isfinite(pre))):
        raise ConfigurationError("history must be finite on [-tau, 0]")
    with np.errstate(over="ignore", invalid="ignore"):
        V = _backend.dde_euler(n_steps, dt, q, p.T_R, 0.5 * p.G_star * p.P_max,
                               p.M, 1.0 / p.V_pi, p.x_b, pre, V0)
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
    carry branch_id -1 and only the sample column.
    """
    def gen():
        for row in rows:
            for i, fp in enumerate(row.fixed_points):
                yield [row.axis_value, i, fp.x_star, fp.period, fp.stable, None]
            for s in row.orbit:
                yield [row.axis_value, -1, None, None, None, float(s)]
    write_csv(path, ["axis_value", "branch_id", "x_star", "period", "stable",
                     "orbit_sample"], gen(), comment)


def regime_to_csv(entries, path, comment=None):
    """entries: iterable of (params, Regime)."""
    rows = ([p.G, p.M, p.x_b, r.kind, r.period, r.lyapunov] for p, r in entries)
    write_csv(path, ["G", "M", "x_b", "regime", "period", "lyapunov"], rows, comment)
