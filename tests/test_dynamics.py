"""Single-oscillator map, fixed points, regimes and the DDE loop model."""

import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayrc import dynamics
from delayrc._csvio import write_csv
from delayrc.dynamics import (
    BifurcationRow,
    FixedPoint,
    OscillatorParams,
    bifurcation_sweep,
    classify_regime,
    cobweb,
    fixed_points_of_iterate,
    integrate_dde,
    iterate,
    iterate_n,
    map_derivative,
    net_gain,
    step_map,
)
from delayrc.exceptions import ConfigurationError, NumericsError

from conftest import deadline


def osc(G, M=0.983, x_b=0.0, **kw):
    return OscillatorParams(G=G, M=M, x_b=x_b, **kw)


P_STABLE = osc(0.56)
P_PERIOD2 = osc(0.93)
P_CHAOS = osc(1.49)


# --------------------------------------------------------------- net gain

def test_net_gain_low_power_point():
    # 0.3 mW drive with G*/V_pi chosen so the product lands on 0.56
    assert net_gain(0.3e-3, 1866.6666666666667, 1.0) == pytest.approx(0.56, rel=1e-12)


def test_net_gain_scales_linearly_with_power():
    g1 = net_gain(0.3e-3, 1866.6666666666667, 1.0)
    g3 = net_gain(0.9e-3, 1866.6666666666667, 1.0)
    assert g3 == pytest.approx(3 * g1, rel=1e-12)
    assert g3 == pytest.approx(1.68, rel=1e-12)


# --------------------------------------------------------------- step map

def test_step_map_at_zero_is_half_gain():
    # sin(0) = 0 so the offset term alone survives
    assert step_map(0.0, P_STABLE) == pytest.approx(0.28, abs=1e-15)


def test_step_map_frozen_value():
    # independently evaluated with 50-digit arithmetic:
    # (0.93/2) * (1 + 0.983 * sin(0.3 pi))
    assert step_map(0.3, P_PERIOD2) == pytest.approx(0.8347976230438166, abs=1e-14)


def test_step_map_range():
    x = np.linspace(-2, 4, 1001)
    y = step_map(x, P_CHAOS)
    lo = 0.5 * P_CHAOS.G * (1 - P_CHAOS.M)
    hi = 0.5 * P_CHAOS.G * (1 + P_CHAOS.M)
    assert np.all(y >= lo - 1e-12) and np.all(y <= hi + 1e-12)


def test_step_map_bias_shifts_phase():
    p = osc(0.8, x_b=0.25)
    x = 0.17
    direct = 0.5 * 0.8 * (1 + 0.983 * np.sin(np.pi * (x + 0.25)))
    assert step_map(x, p) == pytest.approx(direct, abs=1e-15)


@given(st.floats(-1, 2), st.floats(0.05, 1.6))
@settings(max_examples=60, deadline=None)
def test_map_derivative_matches_finite_difference(x, G):
    p = osc(G)
    h = 1e-7
    fd = (step_map(x + h, p) - step_map(x - h, p)) / (2 * h)
    assert map_derivative(x, p) == pytest.approx(fd, abs=5e-6)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        OscillatorParams(G=-0.1)
    with pytest.raises(ConfigurationError):
        OscillatorParams(G=0.5, M=1.5)
    with pytest.raises(ConfigurationError):
        OscillatorParams(G=0.5, V_pi=0.0)


# ---------------------------------------------------------------- orbits

def test_iterate_shape_and_start():
    tr = iterate(0.1, 25, P_STABLE)
    assert tr.shape == (26,)
    assert tr[0] == 0.1
    assert tr[1] == pytest.approx(step_map(0.1, P_STABLE), abs=0)


def test_iterate_converges_below_first_doubling():
    tr = iterate(0.1, 600, P_STABLE)
    assert abs(tr[-1] - tr[-2]) < 1e-10
    assert tr[-1] == pytest.approx(step_map(tr[-1], P_STABLE), abs=1e-9)


def test_iterate_alternates_in_period_two_window():
    tr = iterate(0.1, 4000, P_PERIOD2)
    tail = tr[-6:]
    assert abs(tail[-1] - tail[-3]) < 1e-8
    assert abs(tail[-1] - tail[-2]) > 1e-3


def test_iterate_n_matches_scalar_iteration():
    x = np.linspace(0, 1.3, 7)
    out = iterate_n(x, 5, P_CHAOS)
    expect = x.copy()
    for _ in range(5):
        expect = step_map(expect, P_CHAOS)
    assert np.array_equal(out, expect)


def test_cobweb_single_step_has_two_points():
    pts = cobweb(0.1, 1, P_STABLE)
    assert pts.shape == (2, 2)
    # vertical rise to the curve, then horizontal carry to the diagonal
    f0 = step_map(0.1, P_STABLE)
    assert np.allclose(pts[0], [0.1, f0])
    assert np.allclose(pts[1], [f0, f0])


def test_cobweb_contracts_for_stable_gain():
    pts = cobweb(0.9, 200, P_STABLE)
    x_star = fixed_points_of_iterate(P_STABLE, 1)[0].x_star
    assert abs(pts[-1, 0] - x_star) < 1e-8


def test_cobweb_does_not_settle_in_chaos():
    pts = cobweb(0.1, 400, P_CHAOS)
    assert np.ptp(pts[-100:, 0]) > 0.1


# ----------------------------------------------------------- fixed points

def _grid_sign_change_roots(p, N, n_cells=200_001):
    """Independent root count: sign changes of f^N(x) - x on a dense grid."""
    lo, hi = -0.1, p.G + 0.1
    x = np.linspace(lo, hi, n_cells)
    g = iterate_n(x, N, p) - x
    roots = []
    for i in np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0):
        a, b = x[i], x[i + 1]
        for _ in range(80):
            m = 0.5 * (a + b)
            if (iterate_n(a, N, p) - a) * (iterate_n(m, N, p) - m) <= 0:
                b = m
            else:
                a = m
        roots.append(0.5 * (a + b))
    return np.asarray(roots)


def test_single_stable_fixed_point_low_gain():
    fps = fixed_points_of_iterate(P_STABLE, 1)
    assert len(fps) == 1
    fp = fps[0]
    assert fp.stable and fp.period == 1
    assert abs(fp.multiplier) < 1
    assert step_map(fp.x_star, P_STABLE) == pytest.approx(fp.x_star, abs=1e-10)


def test_fixed_points_against_dense_grid_oracle():
    for p, N in [(P_STABLE, 1), (P_PERIOD2, 1), (P_PERIOD2, 2), (P_CHAOS, 2)]:
        fps = fixed_points_of_iterate(p, N)
        oracle = _grid_sign_change_roots(p, N)
        got = np.sort([fp.x_star for fp in fps])
        assert got.size == oracle.size
        assert np.allclose(got, np.sort(oracle), atol=1e-6)


def test_period_two_window_structure():
    fps1 = fixed_points_of_iterate(P_PERIOD2, 1)
    assert len(fps1) == 1 and not fps1[0].stable
    fps2 = fixed_points_of_iterate(P_PERIOD2, 2)
    periods = sorted(fp.period for fp in fps2)
    # the unstable period-1 point plus a stable 2-cycle
    assert periods == [1, 2, 2]
    cyc = [fp for fp in fps2 if fp.period == 2]
    assert all(fp.stable for fp in cyc)
    a, b = (fp.x_star for fp in cyc)
    assert step_map(a, P_PERIOD2) == pytest.approx(b, abs=1e-9)
    assert step_map(b, P_PERIOD2) == pytest.approx(a, abs=1e-9)


def test_fixed_point_period_divides_n():
    for fp in fixed_points_of_iterate(P_CHAOS, 4):
        assert 4 % fp.period == 0
        assert iterate_n(fp.x_star, fp.period, P_CHAOS) == pytest.approx(
            fp.x_star, abs=1e-8)


def test_fixed_points_n_bounds():
    with pytest.raises(ConfigurationError):
        fixed_points_of_iterate(P_STABLE, 0)
    with pytest.raises(ConfigurationError):
        fixed_points_of_iterate(P_STABLE, 17)


# Oracles: the per-cell bracketing loop, the scalar bisection, the
# fixed-point search that maps the grid from scratch for every N and bisects
# each cell through iterate_n on numpy scalars, the per-root period check
# and orbit multiplier, and the iterate loop without cycle detection, as
# they were before the bracketing, the bisection and the classification
# were vectorized and the grid images reused. The new code must reproduce
# them bit for bit.

def _bisect(f, a, b, fa, fb):
    # plain bisection; the iterated map is bounded and smooth so this is
    # robust where Newton would stall on derivative zeros. It also ends
    # where a and b are adjacent floats farther apart than _BISECT_TOL
    # (roots of 8192 and more): no midpoint lies strictly between them.
    while b - a > dynamics._BISECT_TOL:
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


def _cell_loop_roots(xs, fs, refine):
    roots = []
    for i in range(len(xs) - 1):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0:
            roots.append(xs[i])
        elif (fa < 0) != (fb < 0):
            roots.append(refine(xs[i], xs[i + 1], fa, fb))
    if fs[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def _iterate_n_float(x, N, p):
    """iterate_n for one Python float, in the same operations (math.sin
    must round like np.sin for the two to agree bitwise). Raises
    NumericsError where iterate does."""
    half_g, m, x_b, sin, pi = 0.5 * p.G, p.M, p.x_b, math.sin, math.pi
    try:
        for _ in range(N):
            x = half_g * (1.0 + m * sin(pi * (x + x_b)))
    except ValueError:   # math.sin(inf)
        raise NumericsError(dynamics.NON_FINITE_ORBIT) from None
    return x


def _orbit_multiplier(x_star, period, p):
    # a product past the float range is inf (unstable), quietly
    mult = 1.0
    x = x_star
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(period):
            mult *= abs(map_derivative(x, p))
            x = float(step_map(x, p))
    return mult


def _classify_roots(roots, p, N):
    """The distinct roots of f^N - x as FixedPoints: period and stability,
    one root at a time."""
    out = []
    for r in sorted(roots):
        if out and abs(r - out[-1].x_star) < 1e-9:
            continue
        period = N
        for q in range(1, N):
            if (N % q == 0 and abs(_iterate_n_float(r, q, p) - r)
                    < dynamics._PERIOD_TOL):
                period = q
                break
        mult = _orbit_multiplier(r, period, p)
        marginal = abs(mult - 1.0) < 1e-9
        out.append(FixedPoint(
            x_star=float(r), period=period,
            stable=bool(mult < 1.0 and not marginal),
            multiplier=float(mult), marginal=marginal))
    return out


def _cell_loop_fixed_points(p, N):
    xs = np.linspace(-0.1, p.G + 0.1, dynamics._GRID_CELLS + 1)
    fs = iterate_n(xs, N, p) - xs

    def f(x):
        return float(iterate_n(x, N, p) - x)

    roots = _cell_loop_roots(
        xs, fs, lambda a, b, fa, fb: _bisect(f, a, b, fa, fb))
    return _classify_roots(roots, p, N)


def _unhoisted_iterate(x0, n, p):
    out = np.empty(n + 1)
    out[0] = x0
    x = float(x0)
    for i in range(1, n + 1):
        x = 0.5 * p.G * (1.0 + p.M * math.sin(math.pi * (x + p.x_b)))
        out[i] = x
    return out


def _bits(values):
    return [float(v).hex() for v in values]


def _roots_bits(roots):
    # a root on the grid is one float, a cell to bisect a tuple
    return [tuple(_bits(r)) if isinstance(r, tuple) else float(r).hex()
            for r in roots]


def _check_root_brackets(xs, fs):
    """Each row of fs gets from _root_brackets the cell loop's roots on that
    row, in the same order."""
    got = [[] for _ in fs]
    for row, a, b, fa in zip(*(v.tolist()
                               for v in dynamics._root_brackets(xs, fs))):
        got[row].append(a if fa == 0.0 else (a, b, fa))
    for roots, f in zip(got, fs):
        assert _roots_bits(roots) == _roots_bits(
            _cell_loop_roots(xs, f, _cell_ends))


def _cell_ends(a, b, fa, fb):
    return a, b, fa


def _fp_bits(fps):
    return [(fp.x_star.hex(), fp.period, fp.stable, fp.multiplier.hex(),
             fp.marginal) for fp in fps]


NAN = float("nan")


@pytest.mark.parametrize("fs", [
    [0.0, 1.0, -1.0, 2.0],             # zero at the first point
    [1.0, 0.0, -1.0, 2.0, 3.0],        # zero in the middle
    [1.0, -1.0, 2.0, 0.0],             # zero at the last point
    [1.0, 0.0, 0.0, -1.0, 0.0, 0.0],   # zeros side by side, and at the end
    [0.0, -1.0, -2.0, 1.0],            # a zero followed by a negative value
    [2.0, -0.0, -1.0, 0.5],            # negative zero
    [0.0, 0.0, 0.0],
    [1.0, 2.0, 3.0],
    [1.0, NAN, -1.0, 2.0],
    [[0.0, 1.0, -1.0, 0.0],            # rows with zeros at both ends,
     [-0.0, NAN, 2.0, -0.0],           # negative zeros and nan
     [1.0, 2.0, 3.0, 4.0],
     [NAN, -1.0, 0.0, NAN],
     [0.5, -0.0, 0.0, 0.0]],
])
def test_root_brackets_match_cell_loop(fs):
    fs = np.atleast_2d(fs)
    _check_root_brackets(np.linspace(-0.1, 1.1, fs.shape[1]), fs)


def test_root_brackets_match_cell_loop_on_random_signs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        shape = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        fs = rng.choice([-1.5, -0.0, 0.0, 0.5, NAN], size=shape)
        xs = np.sort(rng.uniform(-1.0, 1.0, shape[1]))
        _check_root_brackets(xs, fs)


@pytest.mark.parametrize("G", np.linspace(0.1, 1.6, 11).tolist())
def test_fixed_points_match_cell_loop_bitwise(G):
    for M, x_b in ((0.983, 0.0), (0.983, 0.3), (0.7, -0.45)):
        p = osc(G, M=M, x_b=x_b)
        for N in range(1, 9):
            assert _fp_bits(fixed_points_of_iterate(p, N)) == _fp_bits(
                _cell_loop_fixed_points(p, N))


@pytest.mark.parametrize("p", [osc(0.93, M=0.7, x_b=0.37),
                               osc(1.49, M=0.9, x_b=-0.21), osc(1.6, x_b=0.5)])
def test_iterate_n_float_matches_iterate_n_bitwise(p):
    # bisection used to evaluate f^N through iterate_n on numpy scalars and
    # the grid evaluates it on arrays; the Python-float map must agree with
    # both, which holds when math.sin rounds like np.sin
    xs = np.random.default_rng(1).uniform(-0.1, p.G + 0.1, 300)
    for N in range(1, 17):
        got = [_iterate_n_float(x, N, p) for x in xs.tolist()]
        assert _bits(got) == _bits(iterate_n(x, N, p) for x in xs)
        assert _bits(got) == _bits(iterate_n(xs, N, p))


def test_image_stack_matches_iterate_n_bitwise():
    for p in (osc(0.93), osc(1.2, M=0.7, x_b=0.3), osc(1.49, x_b=-0.21)):
        xs = np.linspace(-0.1, p.G + 0.1, dynamics._GRID_CELLS + 1)
        ys = dynamics._image_stack(p, 8)
        assert ys.shape == (9, xs.size)
        assert ys[0].tobytes() == xs.tobytes()
        for N in range(1, 9):
            assert ys[N].tobytes() == iterate_n(xs, N, p).tobytes()


def test_period_points_match_one_pair_calls_in_any_order():
    # pairs of one p need not be adjacent nor their N ascending, and a pair
    # may repeat; each gets exactly the one-pair result
    ps = [osc(0.93), osc(1.49, x_b=-0.21), osc(1.2, M=0.7, x_b=0.3)]
    pairs = [(ps[1], 5), (ps[0], 2), (ps[1], 1), (ps[2], 8), (ps[0], 6),
             (ps[1], 5), (ps[2], 3)]
    got = dynamics._period_points(pairs)
    assert [_fp_bits(fps) for fps in got] == [
        _fp_bits(fixed_points_of_iterate(p, N)) for p, N in pairs]
    assert all(got)


def test_iterate_matches_unhoisted_loop_bitwise():
    for p in (P_STABLE, P_PERIOD2, P_CHAOS, osc(1.2, M=0.5, x_b=-0.37)):
        assert _bits(iterate(0.1, 3000, p)) == _bits(
            _unhoisted_iterate(0.1, 3000, p))


P_PERIOD4 = osc(1.2)
P_EXACT = osc(1.0, M=0.5, x_b=-0.5)    # f(0.5) = 0.5 exactly


def _first_repeat(x0, p, n):
    """The first i >= 1 whose iterate equals an earlier one (x0 aside)."""
    seen = set()
    for i, x in enumerate(_unhoisted_iterate(x0, n, p)[1:].tolist(), 1):
        if x in seen:
            return i
        seen.add(x)
    return None


@pytest.mark.parametrize("p, x0", [
    (P_STABLE, 0.1), (P_PERIOD2, 0.1), (P_PERIOD4, 0.1), (P_CHAOS, 0.1),
    (P_PERIOD2, -0.0), (P_EXACT, 0.5),
    (P_STABLE, float(_unhoisted_iterate(0.1, 500, P_STABLE)[-1])),
])
def test_iterate_cycle_shortcut_matches_unhoisted_loop_bitwise(p, x0):
    # every n up to past the step where iterate can first see the cycle
    # (at most twice the first repeat): orbits that end before, at and
    # after each window and cycle boundary
    n_max = 2 * (_first_repeat(x0, p, 2000) or 300) + 20
    expect = _bits(_unhoisted_iterate(x0, n_max, p))
    for n in range(1, n_max + 1):
        assert _bits(iterate(x0, n, p)) == expect[:n + 1]


@pytest.mark.parametrize("window", [4, 8, 4096])
def test_iterate_stops_at_the_first_exact_cycle(monkeypatch, window):
    # G=1.2 ends in a cycle of 8 floats, longer than a window of 4: then
    # the orbit is computed in full, and otherwise it is cut short
    monkeypatch.setattr(dynamics, "_CYCLE_WINDOW", window)
    assert _first_repeat(0.1, P_PERIOD4, 1000) == 162
    calls = []

    def sin(x):
        calls.append(x)
        return math.sin(x)
    monkeypatch.setattr(dynamics, "math", types.SimpleNamespace(
        sin=sin, pi=math.pi, nan=math.nan))
    n = 5000
    got = iterate(0.1, n, P_PERIOD4)
    assert _bits(got) == _bits(_unhoisted_iterate(0.1, n, P_PERIOD4))
    if window < 8:
        assert len(calls) == n
    else:
        assert len(calls) < 2 * 162 + window


def test_classify_regime_unchanged_by_the_cycle_shortcut(monkeypatch):
    ps = [P_STABLE, P_PERIOD2, P_PERIOD4, P_CHAOS, osc(0.3), osc(1.05),
          osc(1.2, M=0.5, x_b=-0.37)]
    got = [classify_regime(p) for p in ps]
    monkeypatch.setattr(dynamics, "iterate", _unhoisted_iterate)
    oracle = [classify_regime(p) for p in ps]
    assert [(r.kind, r.period, r.lyapunov.hex()) for r in got] == [
        (r.kind, r.period, r.lyapunov.hex()) for r in oracle]


# ------------------------------------------------------------ bifurcation

def _cell_loop_sweep(axis, axis_range, steps, p, N_max, transient,
                     orbit_samples):
    """bifurcation_sweep's rows from the per-(p, N) cell loop, the loop
    without cycle detection and the all-pairs dedup."""
    rows = []
    for v in np.linspace(*axis_range, steps).tolist():
        if axis == "P_max":
            pv = replace(p, P_max=v, G=net_gain(v, p.G_star, p.V_pi))
        else:
            pv = replace(p, **{axis: v})
        found = [fp for N in range(1, N_max + 1)
                 for fp in _cell_loop_fixed_points(pv, N)]
        orbit = _unhoisted_iterate(0.1, transient + orbit_samples, pv)
        rows.append(BifurcationRow(v, tuple(_all_pairs(found)),
                                   orbit[-orbit_samples:]))
    return rows


def test_bifurcation_rows_match_cell_loop():
    sweeps = [("G", (0.1, 1.6), 7, osc(1.0)),
              ("x_b", (0.0, 1.0), 5, osc(1.3, M=0.7)),
              ("P_max", (2e-4, 1.5e-3), 4,
               osc(1.0, M=0.9, x_b=0.2, G_star=1000.0))]
    kw = dict(N_max=8, transient=2000, orbit_samples=16)
    for args in sweeps:
        got = bifurcation_sweep(*args, **kw)
        oracle = _cell_loop_sweep(*args, **kw)
        assert len(got) == len(oracle) == args[2]
        for r, o in zip(got, oracle):
            assert r.axis_value == o.axis_value
            assert _fp_bits(r.fixed_points) == _fp_bits(o.fixed_points)
            assert _bits(r.orbit) == _bits(o.orbit)


def test_bisect_all_matches_scalar_bisection_bitwise():
    # one batch mixing iterates, parameters and cell widths, so that cells
    # leave it in different rounds; the last two cells hit an exact zero
    # (f(0.5) = 0.5 at G=1, x_b=-0.5) and a root on the grid
    rng = np.random.default_rng(3)
    cells = []
    for _ in range(400):
        p = osc(float(rng.uniform(0.1, 1.6)), M=float(rng.uniform(0.5, 1.0)),
                x_b=float(rng.uniform(-0.5, 0.5)))
        N = int(rng.integers(1, 17))
        a = float(rng.uniform(-0.1, p.G))
        b = a + float(rng.choice([1e-3, 1e-9, 2e-12, 0.5]))
        cells.append((p, N, a, b))
    cells += [(osc(1e4), 1, 9000.0, 9001.0),
              (osc(1.0, M=0.5, x_b=-0.5), 1, 0.25, 0.75),
              (osc(0.7), 3, 0.2, 0.3)]
    fa = [_iterate_n_float(a, N, p) - a for p, N, a, _ in cells]
    fa[-1] = 0.0
    expect = []
    for (p, N, a, b), f_a in zip(cells, fa):
        def f(x):
            return _iterate_n_float(x, N, p) - x
        expect.append(a if f_a == 0.0 else _bisect(f, a, b, f_a, None))
    cols = list(zip(*((a, b, 0.5 * p.G, p.M, p.x_b, N)
                      for p, N, a, b in cells)))
    a, b, hg, M, x_b, N = (np.array(c) for c in cols)
    got = dynamics._bisect_all(a, b, np.array(fa), hg, M, x_b, N)
    assert _bits(got) == _bits(expect)
    assert got[-2] == 0.5 and got[-1] == 0.2


def test_bisect_all_raises_where_the_scalar_map_does():
    # the phase pi*x of a midpoint near 1e308 overflows: math.sin(inf)
    # raises, and the batch raises there too, quietly
    p = osc(1e308)
    a, b = 6e307, 1e308
    with pytest.raises(NumericsError):
        _iterate_n_float(0.5 * (a + b), 2, p)
    one = np.ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="finite range"):
            dynamics._bisect_all(np.array([0.2, a]), np.array([0.3, b]),
                                 -one, 0.5 * p.G * one, p.M * one, 0 * one,
                                 np.array([1, 2]))


# three axes, with every N: many roots have a period shorter than N
CLASSIFY_SWEEPS = [
    ("G", (0.3, 0.93, 1.2, 1.49), osc(1.0)),
    ("x_b", (0.0, 0.3, 0.7), osc(1.3, M=0.7)),
    ("P_max", (2e-4, 9e-4, 1.5e-3), osc(1.0, M=0.9, x_b=0.2, G_star=1000.0)),
]


def _classify_batch(cases):
    """_classify_all over the roots of every (p, N, roots) case at once."""
    cols = zip(*((r, 0.5 * p.G, p.M, p.x_b, N)
                 for p, N, roots in cases for r in roots))
    x, hg, m, x_b, N = (np.array(c) for c in cols)
    return dynamics._classify_all(x, hg, m, x_b, N), N.tolist()


def test_classify_all_matches_scalar_classification_bitwise():
    cases = []
    for axis, values, base in CLASSIFY_SWEEPS:
        for v in values:
            p = dynamics._with_axis(base, axis, v)
            for N in range(1, 17):
                cases.append((p, N, [fp.x_star
                                     for fp in fixed_points_of_iterate(p, N)]))
    # a point whose multiplier |f'| is within 1e-9 of 1 (marginal), and a
    # 2-cycle candidate whose product of two ~1e200 factors overflows to inf
    p = osc(1.3, x_b=0.1)
    slope = 0.5 * p.G * p.M * math.pi
    cases.append((p, 1, [math.acos(1.0 / slope) / math.pi - p.x_b]))
    cases.append((osc(1e200), 2, [0.3]))
    got, Ns = _classify_batch(cases)
    expect = [fp for p, N, roots in cases
              for fp in _classify_roots(roots, p, N)]
    assert _fp_bits(got) == _fp_bits(expect)
    assert sum(fp.period < N for fp, N in zip(got, Ns)) > 50
    assert {fp.period for fp in got} >= {1, 2, 4, 8, 16}
    assert expect[-2].marginal and not expect[-2].stable
    assert expect[-1].multiplier == math.inf and not expect[-1].stable


def test_classify_all_raises_where_the_scalar_loop_does():
    # f(0.3) is about 0.9e308, whose phase overflows, so f^2(0.3) is nan.
    # The scalar loop evaluates f^2 only where 2 divides N and N > 2: at
    # N = 2 and 3 it checks q = 1 alone and the multiplier is nan, quietly
    p = osc(1e308)
    with pytest.raises(NumericsError):
        _iterate_n_float(0.3, 2, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (2, 3):
            got, _ = _classify_batch([(p, N, [0.3])])
            assert _fp_bits(got) == _fp_bits(_classify_roots([0.3], p, N))
            assert math.isnan(got[0].multiplier)
        with pytest.raises(NumericsError, match="finite range"):
            _classify_batch([(P_PERIOD2, 2, [0.1]), (p, 4, [0.3])])
    with pytest.raises(NumericsError):
        _classify_roots([0.3], p, 4)


def test_fixed_points_past_8192_are_found():
    # near 1e4 adjacent floats lie farther apart than _BISECT_TOL, so the
    # bisection must end on adjacent endpoints rather than on the width
    p = osc(1e4)
    with deadline(30):
        fps = fixed_points_of_iterate(p, 1)
    roots = [fp.x_star for fp in fps]
    assert roots == sorted(roots) and max(roots) > 8192
    for r in roots:
        # |f(r) - r| within what moving r by the final bracket (the
        # tolerance or one ulp) moves f by: |f'| <= 1.6e4
        step = max(dynamics._BISECT_TOL, math.ulp(r))
        assert abs(float(step_map(r, p)) - r) <= 2e4 * step


def test_map_overflow_raises_numerics_error():
    # the phase pi*(x + x_b) of an iterate near 1e308 overflows, and
    # math.sin(inf) raises; both Python-float loops report it alike
    p = osc(1e308)
    errors = []
    for call in (lambda: iterate(0.1, 5, p),
                 lambda: _iterate_n_float(0.1, 5, p)):
        with pytest.raises(NumericsError) as info:
            call()
        errors.append(str(info.value))
    assert errors == [dynamics.NON_FINITE_ORBIT] * 2


def test_map_sizes_are_bounded():
    big = dynamics._MAP_MAX_SAMPLES + 1
    with pytest.raises(ConfigurationError, match="steps"):
        iterate(0.1, big, P_STABLE)
    with pytest.raises(ConfigurationError, match="steps"):
        cobweb(0.1, big, P_STABLE)
    with pytest.raises(ConfigurationError, match="orbit samples"):
        bifurcation_sweep("G", (0.1, 1.6), big // 128 + 1, P_STABLE)
    with pytest.raises(ConfigurationError, match="orbit_samples"):
        bifurcation_sweep("G", (0.1, 1.6), 3, P_STABLE, orbit_samples=0)


def test_bifurcation_sweep_rows():
    rows = bifurcation_sweep("G", (0.3, 1.49), 25, osc(1.0), N_max=4,
                             transient=2000, orbit_samples=64)
    assert len(rows) == 25
    assert isinstance(rows[0], BifurcationRow)
    axis = [r.axis_value for r in rows]
    assert axis == sorted(axis)
    assert axis[0] == pytest.approx(0.3) and axis[-1] == pytest.approx(1.49)
    for r in rows:
        p = osc(r.axis_value)
        for fp in r.fixed_points:
            assert iterate_n(fp.x_star, fp.period, p) == pytest.approx(
                fp.x_star, abs=1e-7)
        assert np.all(np.asarray(r.orbit) >= -1e-9)
        assert np.all(np.asarray(r.orbit) <= 0.5 * r.axis_value * (1 + 0.983) + 1e-9)


def _all_pairs(points):
    """The points kept by comparing each with every point kept before it."""
    kept = []
    for fp in points:
        if all(abs(fp.x_star - g.x_star) > 1e-8 for g in kept):
            kept.append(fp)
    return kept


def _branches(points):
    return [(fp.x_star, fp.period, fp.stable) for fp in points]


@pytest.mark.parametrize("G", [0.93, 1.49, 1000.0])
def test_bifurcation_keeps_the_points_of_the_all_pairs_rule(G):
    # iterate N re-finds the points of every period dividing N, each a
    # near-duplicate of one kept before; G=1000 gives about 1000 roots per N
    rows = bifurcation_sweep("G", (G, G * 1.01), 2, osc(1.0), N_max=3,
                             transient=10, orbit_samples=1)
    for r in rows:
        found = [fp for N in range(1, 4)
                 for fp in fixed_points_of_iterate(osc(r.axis_value), N)]
        assert _branches(r.fixed_points) == _branches(_all_pairs(found))
        assert len(r.fixed_points) < len(found)


def test_bifurcation_dedup_at_the_tolerance(monkeypatch):
    # clusters of points spaced at and around 1e-8, in shuffled order
    rng = np.random.default_rng(5)
    offsets = [0.0, 0.0, 5e-9, 1e-8, math.nextafter(1e-8, 1.0), -1e-8,
               -1.5e-8, 2e-8, 3e-8]
    xs = (rng.uniform(0, 1, 200)[:, None] + offsets).ravel()
    per_N = {N: [FixedPoint(float(x), N, bool(N % 2), 0.5)
                 for x in rng.permutation(xs)[:1500]] for N in (1, 2, 3)}
    monkeypatch.setattr(dynamics, "_period_points",
                        lambda pairs: [per_N[N] for _, N in pairs])
    r, _ = bifurcation_sweep("G", (0.5, 0.6), 2, osc(1.0), N_max=3,
                             transient=10, orbit_samples=1)
    expected = _all_pairs(per_N[1] + per_N[2] + per_N[3])
    assert _branches(r.fixed_points) == _branches(expected)


def test_bifurcation_orbits_own_their_data():
    rows = bifurcation_sweep("G", (0.5, 1.5), 3, osc(1.0), N_max=1,
                             transient=1000, orbit_samples=16)
    for r in rows:
        assert r.orbit.base is None and r.orbit.size == 16


# the rise of a child's peak RSS from importing dynamics to holding a
# 3,000-step sweep, in kB; each child is the only one the driver waits for
_SWEEP_PEAK = """
import resource, subprocess, sys
def peak(code):
    subprocess.run([sys.executable, "-c", code], check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
base = peak("from delayrc import dynamics")
print(peak("from delayrc import dynamics; rows = dynamics.bifurcation_sweep("
           "'G', (0.1, 0.5), 3000, dynamics.OscillatorParams(G=1.0), N_max=1)")
      - base)
"""
SWEEP_RSS_BUDGET_KB = 40_000


def test_bifurcation_sweep_memory_is_its_orbit_samples():
    # 3,000 orbit tails of 128 samples are 3 MB; tails that kept their
    # 10,129-sample trajectories alive would hold 243 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH", "")] if p)}
    proc = subprocess.run([sys.executable, "-c", _SWEEP_PEAK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < SWEEP_RSS_BUDGET_KB


def _write_csv_bifurcation(rows, path, comment=None):
    """bifurcation_to_csv as the generic write_csv and fmt path."""
    def gen():
        for row in rows:
            for i, fp in enumerate(row.fixed_points):
                yield [row.axis_value, i, fp.x_star, fp.period, fp.stable,
                       None]
            for s in row.orbit.tolist():
                yield [row.axis_value, -1, None, None, None, s]
    write_csv(path, ["axis_value", "branch_id", "x_star", "period", "stable",
                     "orbit_sample"], gen(), comment)


def test_bifurcation_csv_matches_write_csv_bytes(tmp_path):
    inf = math.inf
    fps = (FixedPoint(0.25, 1, True, 0.5), FixedPoint(-0.0, 2, False, inf),
           FixedPoint(5e-324, 16, False, 1.0, True))
    made_up = [
        BifurcationRow(0.1, fps,
                       np.array([-0.0, 5e-324, inf, -inf, NAN, 0.3])),
        BifurcationRow(-0.0, (), np.array([1.5, -2.0])),
        BifurcationRow(0.2, fps[:1], np.array([])),
        BifurcationRow(5e-324, fps[1:], np.array([NAN])),
    ]
    swept = bifurcation_sweep("G", (0.5, 1.5), 5, osc(1.0), N_max=4,
                              transient=500, orbit_samples=8)
    for row in swept:
        assert type(row.axis_value) is float
        for fp in row.fixed_points:
            # a numpy scalar would print as np.float64(...) in an f-string
            assert [type(v) for v in (fp.x_star, fp.period, fp.stable,
                                      fp.multiplier, fp.marginal)] == [
                float, int, bool, float, bool]
    for rows in (made_up, swept):
        for comment in (None, "a comment"):
            dynamics.bifurcation_to_csv(rows, tmp_path / "got.csv", comment)
            _write_csv_bifurcation(rows, tmp_path / "expect.csv", comment)
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "expect.csv").read_bytes())


def test_bifurcation_orbit_collapses_when_stable():
    rows = bifurcation_sweep("G", (0.5, 0.6), 3, osc(1.0), transient=4000,
                             orbit_samples=64)
    for r in rows:
        assert np.ptp(r.orbit) < 1e-6


# ---------------------------------------------------------------- regimes

def test_classify_regime_three_operating_points():
    r = classify_regime(P_STABLE)
    assert r.kind == "stable" and r.lyapunov < 0
    r = classify_regime(P_PERIOD2)
    assert r.kind == "periodic" and r.period == 2 and r.lyapunov < 0
    r = classify_regime(P_CHAOS)
    assert r.kind == "chaotic" and r.lyapunov > 0


def test_regime_agrees_with_multiplier():
    for G in (0.3, 0.45, 0.56, 0.7, 0.8):
        p = osc(G)
        r = classify_regime(p)
        fps = fixed_points_of_iterate(p, 1)
        if len(fps) == 1 and fps[0].stable:
            assert r.kind == "stable"


def test_regime_period_is_minimal():
    # inside the period-2 window period 2 must be reported, not 4 or 8
    assert classify_regime(osc(1.0)).period == 2


# -------------------------------------------------------------------- dde

def _phys(G, T_R):
    # realize a requested dimensionless gain through the physical triple
    return OscillatorParams(G=G, M=0.983, x_b=0.0, V_pi=1.0, P_max=0.3e-3,
                            G_star=G / 0.3e-3, T_R=T_R, tau=1.0)


def test_dde_instantaneous_filter_reproduces_map():
    p = _phys(0.56, 0.0)
    t, V = integrate_dde(p, lambda t: 0.1, 12.0, 0.01)
    disc = iterate(0.1, 12, p)
    idx = np.rint(np.arange(13) / 0.01).astype(int)
    assert np.max(np.abs(V[idx] - disc)) < 1e-12


def test_dde_fast_filter_close_to_map():
    p = _phys(0.56, 0.01)
    t, V = integrate_dde(p, lambda t: 0.1, 12.0, 0.001)
    disc = iterate(0.1, 12, p)
    idx = np.rint(np.arange(13) / 0.001).astype(int)
    rel = np.abs(V[idx] - disc) / np.maximum(np.abs(disc), 1e-12)
    assert rel.max() < 0.02


def test_dde_slow_filter_damps_alternation():
    # at gain 0.93 the map alternates; a sluggish filter averages that out
    p_fast = _phys(0.93, 0.005)
    t, V_fast = integrate_dde(p_fast, lambda t: 0.1, 60.0, 0.0005)
    p_slow = _phys(0.93, 1.0)
    t2, V_slow = integrate_dde(p_slow, lambda t: 0.1, 60.0, 0.01)
    assert np.ptp(V_fast[-2000:]) > 0.2
    assert np.ptp(V_slow[-2000:]) < 0.05


def _prefill_full_loop(p, history, duration, dt):
    # the history pre-fill as it was: every step visited
    n_steps = int(round(duration / dt))
    q = p.tau / dt
    shift = 1 if p.T_R > 0 else 0
    pre = np.zeros(n_steps + 1)
    for j in range(1, n_steps + 1):
        jj = (j - shift) - q
        if jj < 0.0:
            pre[j] = float(history(jj * dt))
    return pre


@pytest.mark.parametrize("T_R, dt", [
    (0.0, 0.01),     # q = tau/dt = 100
    (0.0, 0.003),    # q = 333.33...
    (0.05, 0.003),   # with the one-step shift of the filtered model
])
def test_dde_prefill_matches_full_loop(monkeypatch, T_R, dt):
    p = _phys(0.93, T_R)
    seen = []
    euler = dynamics._backend.dde_euler

    def spy(*args):
        seen.append(args[8].copy())
        return euler(*args)
    monkeypatch.setattr(dynamics._backend, "dde_euler", spy)

    def history(t):
        return 0.1 + 0.3 * math.sin(7.0 * t)
    integrate_dde(p, history, 4.0, dt)
    full = _prefill_full_loop(p, history, 4.0, dt)
    # pre stops at the last step that looks back before t=0
    n = seen[0].size
    assert seen[0].tobytes() == full[:n].tobytes()
    assert n < full.size and not full[n:].any()


def test_dde_history_buffer_holds_only_the_lookback_steps():
    # tau/dt = 1000 of 200,000 steps look back before t=0; the trace and
    # its time axis take 8(n+1) bytes each
    n = 200_000
    tracemalloc.start()
    try:
        integrate_dde(_phys(0.93, 0.01), lambda t: 0.1, n * 1e-3, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * (n + 1)


def test_dde_step_size_validation():
    p = _phys(0.56, 0.01)
    with pytest.raises(ConfigurationError):
        integrate_dde(p, lambda t: 0.0, 5.0, p.tau / 50)
    with pytest.raises(ConfigurationError):
        integrate_dde(p, lambda t: 0.0, 5.0, 0.002)  # > T_R/10


def test_dde_requires_physical_parameters():
    # the DDE needs G_star and P_max, not just the lumped gain
    with pytest.raises(ConfigurationError):
        integrate_dde(P_STABLE, lambda t: 0.0, 5.0, 0.01)
