"""Single-oscillator map, fixed points, regimes and the DDE loop model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayrc import dynamics
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


# Oracles: the per-cell bracketing loop, the fixed-point search that maps
# the grid from scratch for every N and bisects through iterate_n on numpy
# scalars, and the iterate loop, as they were before the bracketing was
# vectorized, the grid images reused and the scalar maps moved to Python
# floats. The new code must reproduce them bit for bit.

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


def _cell_loop_fixed_points(p, N):
    xs = np.linspace(-0.1, p.G + 0.1, dynamics._GRID_CELLS + 1)
    fs = iterate_n(xs, N, p) - xs

    def f(x):
        return float(iterate_n(x, N, p) - x)

    roots = _cell_loop_roots(
        xs, fs, lambda a, b, fa, fb: dynamics._bisect(f, a, b, fa, fb))
    out = []
    for r in sorted(roots):
        if out and abs(r - out[-1].x_star) < 1e-9:
            continue
        period = N
        for q in range(1, N):
            if (N % q == 0 and abs(float(iterate_n(r, q, p)) - r)
                    < dynamics._PERIOD_TOL):
                period = q
                break
        mult = dynamics._orbit_multiplier(r, period, p)
        marginal = abs(mult - 1.0) < 1e-9
        out.append(FixedPoint(
            x_star=float(r), period=period,
            stable=bool(mult < 1.0 and not marginal),
            multiplier=float(mult), marginal=marginal))
    return out


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


def _bracket_roots(xs, fs):
    return [a if fa == 0.0 else (a, b, fa, fb)
            for a, b, fa, fb in dynamics._root_brackets(xs, fs)]


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
])
def test_root_brackets_match_cell_loop(fs):
    fs = np.array(fs)
    xs = np.linspace(-0.1, 1.1, fs.size)
    assert _roots_bits(_bracket_roots(xs, fs)) == _roots_bits(
        _cell_loop_roots(xs, fs, lambda *cell: cell))


def test_root_brackets_match_cell_loop_on_random_signs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        fs = rng.choice([-1.5, -0.0, 0.0, 0.5], size=int(rng.integers(2, 40)))
        xs = np.sort(rng.uniform(-1.0, 1.0, fs.size))
        assert _roots_bits(_bracket_roots(xs, fs)) == _roots_bits(
            _cell_loop_roots(xs, fs, lambda *cell: cell))


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
        got = [dynamics._iterate_n_float(x, N, p) for x in xs.tolist()]
        assert _bits(got) == _bits(iterate_n(x, N, p) for x in xs)
        assert _bits(got) == _bits(iterate_n(xs, N, p))


def test_grid_images_keep_the_last_parameters_only():
    p1, p2 = osc(0.93), osc(1.2, M=0.7, x_b=0.3)
    xs1, y1 = dynamics._grid_image(p1, 3)
    assert dynamics._grid_image(p1, 3)[1] is y1
    assert dynamics._grid_image(p1, 2)[0] is xs1
    xs2, y2 = dynamics._grid_image(p2, 5)
    assert dynamics._grid_images.cache_info().currsize == 1
    assert dynamics._grid_image(p1, 3)[1] is not y1   # p2 replaced p1
    for a in (xs1, y1, xs2, y2):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    for p in (p1, p2):
        xs = np.linspace(-0.1, p.G + 0.1, dynamics._GRID_CELLS + 1)
        for N in (4, 1, 8, 2):   # out of order: cached and fresh images
            got_xs, got = dynamics._grid_image(p, N)
            assert got_xs.tobytes() == xs.tobytes()
            assert got.tobytes() == iterate_n(xs, N, p).tobytes()


def test_iterate_matches_unhoisted_loop_bitwise():
    for p in (P_STABLE, P_PERIOD2, P_CHAOS, osc(1.2, M=0.5, x_b=-0.37)):
        assert _bits(iterate(0.1, 3000, p)) == _bits(
            _unhoisted_iterate(0.1, 3000, p))


# ------------------------------------------------------------ bifurcation

def test_bifurcation_rows_match_cell_loop(monkeypatch):
    sweeps = [("G", (0.1, 1.6), 7, osc(1.0)),
              ("x_b", (0.0, 1.0), 5, osc(1.3, M=0.7)),
              ("P_max", (2e-4, 1.5e-3), 4,
               osc(1.0, M=0.9, x_b=0.2, G_star=1000.0))]
    kw = dict(N_max=8, transient=2000, orbit_samples=16)
    rows = [bifurcation_sweep(*args, **kw) for args in sweeps]
    monkeypatch.setattr(dynamics, "fixed_points_of_iterate",
                        _cell_loop_fixed_points)
    monkeypatch.setattr(dynamics, "iterate", _unhoisted_iterate)
    for args, got in zip(sweeps, rows):
        oracle = bifurcation_sweep(*args, **kw)
        assert len(got) == len(oracle) == args[2]
        for r, o in zip(got, oracle):
            assert r.axis_value == o.axis_value
            assert _fp_bits(r.fixed_points) == _fp_bits(o.fixed_points)
            assert _bits(r.orbit) == _bits(o.orbit)


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
                 lambda: dynamics._iterate_n_float(0.1, 5, p)):
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
    monkeypatch.setattr(dynamics, "fixed_points_of_iterate",
                        lambda p, N: per_N[N])
    r, _ = bifurcation_sweep("G", (0.5, 0.6), 2, osc(1.0), N_max=3,
                             transient=10, orbit_samples=1)
    expected = _all_pairs(per_N[1] + per_N[2] + per_N[3])
    assert _branches(r.fixed_points) == _branches(expected)


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
    assert seen[0].tobytes() == _prefill_full_loop(p, history, 4.0, dt).tobytes()


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
