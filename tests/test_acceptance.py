"""Acceptance gate: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per
criterion is echoed in the terminal summary regardless of capture mode.
"""

import os
import time

import numpy as np
import pytest

from delayrc import cli
from delayrc.dynamics import (
    OscillatorParams,
    classify_regime,
    fixed_points_of_iterate,
    iterate,
)
from delayrc.hyperopt import resonance_sweep, run_study
from delayrc.pipeline import make_eval
from delayrc.readout import classify_sequences, nmse, train_ridge
from delayrc.reservoir import (
    ReservoirConfig,
    make_input_mask,
    mask_input,
    run_reservoir,
    transition_structure,
)
from delayrc.tasks import gen_narma10, narma10_recurrence

from conftest import hash_tree

RESULTS = []

REFERENCE_PARAMS = {"rho": 0.19, "G": 0.39, "Phi0": 0.67 * np.pi,
               "tau_over_T": 0.27, "lam": 1.4e-3}


def _report(n, label, ok, detail=""):
    line = f"ACCEPTANCE {n} {label}: " + ("PASS" if ok else "FAIL")
    if detail:
        line += f"  [{detail}]"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _note(n, label, status, detail=""):
    line = f"ACCEPTANCE {n} {label}: {status}"
    if detail:
        line += f"  [{detail}]"
    RESULTS.append(line)
    print(line)


def osc(G):
    return OscillatorParams(G=G, M=0.983, x_b=0.0)


# ---------------------------------------------------------------- 1


def test_1_sine_square_classification():
    t0 = time.time()
    ev = make_eval("sine_square")
    vals = [ev(REFERENCE_PARAMS, seed).nmse_test for seed in range(5)]
    med = float(np.median(vals))
    elapsed = time.time() - t0
    _report(1, "sine/square NMSE", med <= 0.15 and elapsed < 30,
            f"median={med:.4f} over seeds 0-4, limit 0.15, {elapsed:.1f}s")


# ---------------------------------------------------------------- 2, 3


@pytest.fixture(scope="module")
def narma_study():
    t0 = time.time()
    study = run_study("narma10", budget=300, n_startup=20,
                      seeds={"sampler": 0, "data": 0, "mask": 0})
    return study, time.time() - t0


def test_2_narma10_study(narma_study):
    study, elapsed = narma_study
    best = study.best
    _report(2, "NARMA10 study", best.loss <= 0.65 and elapsed < 15 * 60,
            f"best NMSE={best.loss:.4f} at trial {best.trial_id} "
            f"of {len(study.trials)}, limit 0.65, {elapsed:.0f}s")


def test_3_delay_resonance(narma_study):
    study, _ = narma_study
    base = {k: v for k, v in study.best.params.items() if k != "tau_over_T"}
    grid = (0.49, 0.75, 1.0, 1.25, 1.75, 2.0, 2.25)
    rows = resonance_sweep("narma10", base, grid, repeats=5,
                           seeds={"data": 0, "mask": 0})
    m = {r.tau_over_T: r.nmse_mean for r in rows}
    factor = m[1.0] / m[0.49]
    peak1 = m[1.0] > m[0.75] and m[1.0] > m[1.25]
    peak2 = m[2.0] > m[1.75] and m[2.0] > m[2.25]
    _report(3, "delay resonance", factor >= 1.5 and peak1 and peak2,
            f"NMSE(1.0)/NMSE(0.49)={factor:.2f} (>=1.5), "
            f"local max at 1: {peak1}, at 2: {peak2}")


# ---------------------------------------------------------------- 4


def _doubling_by_multiplier():
    def excess(G):
        fps = fixed_points_of_iterate(osc(G), 1)
        assert len(fps) == 1
        return abs(fps[0].multiplier) - 1.0

    a, b = 0.5, 1.2
    assert excess(a) < 0 < excess(b)
    for _ in range(60):
        mid = 0.5 * (a + b)
        if excess(mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _doubling_by_orbit():
    def tail_spread(G, transient=200_000, tail=64):
        p = osc(G)
        x = iterate(0.1, transient, p)[-1]
        return float(np.ptp(iterate(x, tail, p)))

    a, b = 0.5, 1.2
    for _ in range(40):
        mid = 0.5 * (a + b)
        if tail_spread(mid) < 1e-6:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _has_period_up_to(G, max_q=8, tol=1e-5):
    p = osc(G)
    x = iterate(0.1, 30_000, p)[-1]
    t = iterate(x, 128, p)
    return any(np.max(np.abs(t[q:] - t[:-q])) < tol for q in range(1, max_q + 1))


def test_4_dynamics_regimes_and_cascade():
    t0 = time.time()
    kinds = [classify_regime(osc(G)) for G in (0.56, 0.93, 1.49)]
    regimes_ok = (kinds[0].kind == "stable"
                  and kinds[1].kind == "periodic" and kinds[1].period == 2
                  and kinds[2].kind == "chaotic")

    g_mult = _doubling_by_multiplier()
    g_orbit = _doubling_by_orbit()
    doubling_ok = abs(g_mult - g_orbit) <= 1e-4

    aperiodic = [G for G in np.arange(1.30, 1.6001, 0.005)
                 if not _has_period_up_to(G)]
    onset_ok = len(aperiodic) > 0
    elapsed = time.time() - t0
    _report(4, "dynamics",
            regimes_ok and doubling_ok and onset_ok and elapsed < 60,
            f"regimes={[r.kind for r in kinds]}, doubling "
            f"{g_mult:.6f} vs {g_orbit:.6f} (|diff|={abs(g_mult - g_orbit):.1e}), "
            f"aperiodic G in [1.3,1.6]: {len(aperiodic)} pts, {elapsed:.0f}s")


# ---------------------------------------------------------------- 5


def test_5_oracle_equivalences():
    rng = np.random.default_rng(0)

    # ridge vs explicit normal-equation inverse, 100 instances
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 60))
        n = int(rng.integers(k + 1, 300))
        lam = 10.0 ** rng.uniform(-6, 0)
        X = rng.normal(size=(k, n))
        Y = rng.normal(size=(int(rng.integers(1, 4)), n))
        W = train_ridge(X, Y, lam).matrix
        ref = Y @ X.T @ np.linalg.inv(X @ X.T + lam * np.eye(k))
        worst = max(worst, np.linalg.norm(W - ref) / np.linalg.norm(ref))
    ridge_ok = worst <= 1e-8

    # reservoir vs coupling-matrix simulation, bitwise
    matrix_ok = True
    for _ in range(50):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(1, 2 * k + 1))
        n = int(rng.integers(3, 21))
        c = ReservoirConfig(k=k, rho=0.4, G=0.85, Phi0=0.3, tau=float(d),
                            beta=0.75, mask_seed=1)
        u = rng.uniform(-1, 1, n)
        J = mask_input(u, make_input_mask(k, 1))
        S = run_reservoir(u, c)
        ts = transition_structure(k, d)
        for m in range(ts.cycle_lag + 1, n):
            fb = (ts.w_same @ S[:, m - ts.cycle_lag]
                  + ts.w_prev @ S[:, m - ts.cycle_lag - 1])
            pred = 0.5 * 0.85 * (1 + 0.983 * np.sin(
                np.pi * (0.75 * fb + 0.4 * J[m * k:(m + 1) * k]) + 0.3))
            matrix_ok &= bool(np.array_equal(pred, S[:, m]))

    # narma generator vs direct transcription, bitwise
    u = gen_narma10(3000, seed=1).u
    y_ref = np.zeros(u.size)
    for t in range(u.size - 1):
        s = sum(y_ref[t - i] for i in range(10) if t - i >= 0)
        y_ref[t + 1] = (0.3 * y_ref[t] + 0.05 * y_ref[t] * s
                        + 1.5 * (u[t - 9] if t >= 9 else 0.0) * u[t] + 0.1)
    narma_ok = bool(np.array_equal(narma10_recurrence(u), y_ref))

    _report(5, "oracle equivalences",
            ridge_ok and matrix_ok and narma_ok,
            f"ridge worst rel={worst:.1e} (<=1e-8), matrix bitwise={matrix_ok}, "
            f"narma bitwise={narma_ok}")


# ---------------------------------------------------------------- 6


def test_6_metric_properties():
    rng = np.random.default_rng(1)
    y = rng.normal(size=400)
    y_hat = y + rng.normal(scale=0.4, size=400)
    exact_zero = nmse(y, y.copy()) == 0.0
    exact_one = abs(nmse(y, np.full(400, y.mean())) - 1.0) < 1e-12
    invariant = abs(nmse(3.7 * y - 1.2, 3.7 * y_hat - 1.2)
                    - nmse(y, y_hat)) < 1e-12 * nmse(y, y_hat)
    _report(6, "metric properties", exact_zero and exact_one and invariant,
            f"NMSE(y,y)=0: {exact_zero}, NMSE(y,mean)=1: {exact_one}, "
            f"shift/scale invariant: {invariant}")


# ---------------------------------------------------------------- 7


def _vowel_dataset_dir():
    cand = os.environ.get("DELAYRC_VOWELS_DIR")
    if cand and os.path.isfile(os.path.join(cand, "ae.train")):
        return cand
    here = os.path.join(os.path.dirname(__file__), "..", "data", "vowels")
    if os.path.isfile(os.path.join(here, "ae.train")):
        return here
    return None


def test_7a_vowels_real_dataset():
    path = _vowel_dataset_dir()
    if path is None:
        _note(7, "vowels (real dataset)", "SKIP",
              "ae.train/ae.test not found; set DELAYRC_VOWELS_DIR")
        pytest.skip("real vowel dataset not present")
    study = run_study("vowels", budget=200, n_startup=20,
                      seeds={"sampler": 0, "data": 0, "mask": 0},
                      task_options={"path": path})
    ev = make_eval("vowels", options={"path": path})
    wer = ev(study.best.params, 0).wer
    _report(7, "vowels (real dataset)", wer <= 0.15, f"WER={wer:.3f} (<=0.15)")


def test_7b_vowels_synthetic_fallback():
    ev = make_eval("vowels")
    wer = ev(REFERENCE_PARAMS, 0).wer
    _report(7, "vowels (synthetic fallback)", wer <= 0.30,
            f"WER={wer:.3f} (<=0.30 vs 0.889 chance)")


# ---------------------------------------------------------------- 8


def test_8_cli_determinism(tmp_path, monkeypatch, capsys):
    fast_ss = ["task.n_waveforms=4", "task.periods=8", "task.washout=2"]
    commands = {
        "dynamics-cobweb": ["dynamics", "cobweb", "dynamics.n=40"],
        "dynamics-bifurcation": ["dynamics", "bifurcation", "dynamics.steps=5",
                                 "dynamics.N_max=2"],
        "dynamics-regime": ["dynamics", "regime"],
        "dynamics-dde": ["dynamics", "dde", "dynamics.P_max=0.0003",
                         "dynamics.G_star=1866.6666666666667",
                         "dde.duration=3", "dde.dt=0.01"],
        "run": ["run"] + fast_ss,
        "optimize": ["optimize", "optimize.budget=3",
                     "optimize.n_startup=1"] + fast_ss,
        "sweep-delay": ["sweep-delay", "sweep.grid=0.26,0.5",
                        "sweep.repeats=1"] + fast_ss,
    }
    failures = []
    for name, argv in commands.items():
        outdir = tmp_path / name
        monkeypatch.setenv("DELAYRC_OUTDIR", str(outdir))
        if cli.main(list(argv)) != 0:
            failures.append(f"{name}: first run failed")
            continue
        first = hash_tree(outdir)
        base = argv[:2] if argv[0] == "dynamics" else argv[:1]
        code = cli.main(base + ["--config", str(outdir / "effective.cfg")])
        if code != 0:
            failures.append(f"{name}: rerun failed")
        elif hash_tree(outdir) != first:
            failures.append(f"{name}: outputs changed on rerun")
    capsys.readouterr()
    _report(8, "CLI determinism", not failures,
            "all commands byte-identical on rerun from echoed config"
            if not failures else "; ".join(failures))
