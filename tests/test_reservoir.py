"""Time-multiplexed reservoir: masks, sample recursion, coupling structure."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayrc import _kernels
from delayrc.exceptions import ConfigurationError, NumericsError
from delayrc.reservoir import (
    MAX_STREAM_SAMPLES,
    InputMask,
    ReservoirConfig,
    make_input_mask,
    mask_input,
    run_reservoir,
    run_reservoir_rows,
    transition_structure,
)


def cfg_for(k=50, rho=0.9, G=0.56, Phi0=0.2, tau=None, beta=1.0, theta=1.0,
            washout=0, mask_seed=0):
    return ReservoirConfig(k=k, rho=rho, G=G, Phi0=Phi0,
                           tau=(k * theta if tau is None else tau),
                           theta=theta, beta=beta, washout_cycles=washout,
                           mask_seed=mask_seed)


# ------------------------------------------------------------------ masks

def test_mask_is_deterministic_per_seed():
    m1 = make_input_mask(50, 7)
    m2 = make_input_mask(50, 7)
    m3 = make_input_mask(50, 8)
    assert np.array_equal(m1.values, m2.values)
    assert not np.array_equal(m1.values, m3.values)
    assert m1.seed == 7


def test_mask_statistics():
    m = make_input_mask(100_000, 0)
    assert np.all(m.values >= -1) and np.all(m.values <= 1)
    assert abs(m.values.mean()) < 0.02
    assert abs(m.values.var() - 1 / 3) < 0.05 / 3


def test_mask_input_hand_example():
    m = InputMask(values=np.array([0.5, -0.25, 1.0]), seed=0)
    out = mask_input(np.array([2.0, -1.0]), m)
    assert np.array_equal(out, [1.0, -0.5, 2.0, -0.5, 0.25, -1.0])


def test_mask_input_length():
    m = make_input_mask(13, 0)
    assert mask_input(np.zeros(7), m).shape == (7 * 13,)


# ------------------------------------------------------------- config

def test_sample_delay_rounding():
    assert cfg_for(k=50, tau=50.0).sample_delay == 50
    assert cfg_for(k=50, tau=13.4).sample_delay == 13
    assert cfg_for(k=50, tau=13.6).sample_delay == 14
    assert ReservoirConfig.from_ratio(k=50, rho=0.5, G=0.5, Phi0=0.1,
                                      tau_over_T=0.28).sample_delay == 14


def test_clock_cycle_default():
    c = cfg_for(k=17, theta=0.5)
    assert c.T == pytest.approx(17 * 0.5)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        cfg_for(k=0)
    with pytest.raises(ConfigurationError):
        cfg_for(rho=-0.5)
    with pytest.raises(ConfigurationError):
        ReservoirConfig(k=5, rho=0.5, G=0.5, Phi0=0.1, tau=5.0, theta=0.0)


# ---------------------------------------------------------------- states

def test_constant_state_without_feedback_or_input():
    c = cfg_for(k=8, rho=0.4, G=0.8, Phi0=0.3, beta=0.0)
    mask = make_input_mask(8, 0)
    S = run_reservoir(np.zeros(5), c, mask)
    expect = 0.5 * 0.8 * (1 + 0.983 * np.sin(0.3))
    assert np.allclose(S.entries, expect, atol=1e-15)


def test_states_respect_transmission_bounds():
    c = cfg_for(k=20, rho=1.0, G=1.1, Phi0=1.0, beta=0.9)
    mask = make_input_mask(20, 1)
    S = run_reservoir(np.random.default_rng(0).uniform(-1, 1, 60), c, mask)
    lo, hi = 0.5 * 1.1 * (1 - 0.983), 0.5 * 1.1 * (1 + 0.983)
    assert S.entries.min() >= lo - 1e-12
    assert S.entries.max() <= hi + 1e-12


def test_synchronous_delay_decouples_neurons():
    # tau = T with zero input: every neuron runs the scalar map on its own,
    # so each row must reproduce the iterate sequence started from zero
    # history (bias folded into the offset phase).
    from delayrc.dynamics import OscillatorParams, iterate
    k = 6
    c = cfg_for(k=k, rho=0.7, G=0.8, Phi0=np.pi * 0.11, tau=float(k), beta=1.0)
    mask = make_input_mask(k, 2)
    S = run_reservoir(np.zeros(9), c, mask)
    p = OscillatorParams(G=0.8, M=0.983, x_b=0.11)
    expect = iterate(0.0, 9, p)[1:]
    for i in range(k):
        assert np.allclose(S.entries[i], expect, atol=1e-12)


def test_state_matrix_shape_and_washout():
    c = cfg_for(k=10, washout=4)
    mask = make_input_mask(10, 0)
    S = run_reservoir(np.zeros(9), c, mask)
    assert S.entries.shape == (10, 5)
    assert S.n_cycles == 5
    full = run_reservoir(np.zeros(9), cfg_for(k=10, washout=0), mask)
    assert np.array_equal(S.entries, full.entries[:, 4:])


def test_washout_must_leave_data():
    c = cfg_for(k=10, washout=5)
    with pytest.raises(ConfigurationError):
        run_reservoir(np.zeros(5), c, make_input_mask(10, 0))


def test_mask_length_must_match_k():
    with pytest.raises(ConfigurationError):
        run_reservoir(np.zeros(4), cfg_for(k=10), make_input_mask(9, 0))


def test_delay_longer_than_stream_rejected():
    u = np.full(4, 0.5)
    cfg = cfg_for(k=5, tau=20.0)
    assert run_reservoir(u, cfg, make_input_mask(5, 0)).entries.shape == (5, 4)
    with pytest.raises(ConfigurationError, match="longer than the stream"):
        run_reservoir(u, cfg_for(k=5, tau=21.0), make_input_mask(5, 0))


def test_delay_under_one_sample_rejected():
    c = cfg_for(k=10, tau=0.4)
    with pytest.raises(ConfigurationError):
        run_reservoir(np.zeros(4), c, make_input_mask(10, 0))


def test_run_is_bitwise_deterministic():
    c = cfg_for()
    mask = make_input_mask(50, 0)
    u = np.random.default_rng(5).uniform(-1, 1, 40)
    a = run_reservoir(u, c, mask).entries
    b = run_reservoir(u, c, mask).entries
    assert np.array_equal(a, b)


def test_recursion_against_direct_python_loop():
    # literal transcription of the sample update, no vectorization tricks
    c = cfg_for(k=7, rho=0.45, G=0.9, Phi0=0.35, tau=11.0, beta=0.8)
    mask = make_input_mask(7, 4)
    u = np.random.default_rng(8).uniform(-1, 1, 12)
    J = mask_input(u, mask)
    d = c.sample_delay
    s = np.zeros(J.size + d)
    for m in range(J.size):
        s[m + d] = 0.5 * 0.9 * (1 + 0.983 * np.sin(
            np.pi * (0.8 * s[m] + 0.45 * J[m]) + 0.35))
    expect = s[d:].reshape(12, 7).T
    got = run_reservoir(u, c, mask).entries
    assert np.array_equal(got, expect)


# ------------------------------------------------------- fading memory

def test_history_perturbation_washes_out():
    c = cfg_for(k=50, rho=0.9, G=0.56, Phi0=0.2, beta=1.0)
    mask = make_input_mask(50, 0)
    rng = np.random.default_rng(7)
    u = rng.uniform(0, 0.5, 120)
    h = rng.uniform(0, 1, c.sample_delay)
    base = run_reservoir(u, c, mask).entries
    pert = run_reservoir(u, c, mask, history=h).entries
    diff = np.abs(base - pert).max(axis=0)
    assert diff[0] > 0.01          # the perturbation is actually felt
    assert diff[50] < 1e-12        # and fully forgotten inside the washout


def test_history_perturbation_decays_at_high_feedback():
    c = cfg_for(k=50, rho=0.9, G=0.9, Phi0=0.63, beta=0.85)
    mask = make_input_mask(50, 0)
    rng = np.random.default_rng(7)
    u = rng.uniform(0, 0.5, 400)
    h = rng.uniform(0, 1, c.sample_delay)
    base = run_reservoir(u, c, mask).entries
    pert = run_reservoir(u, c, mask, history=h).entries
    diff = np.abs(base - pert).max(axis=0)
    assert diff[399] < 1e-6
    assert diff[399] < diff[100] < diff[10]


# --------------------------------------------------- coupling structure

def test_transition_structure_unit_offset():
    ts = transition_structure(4, 1)
    assert ts.cycle_lag == 0
    expect_same = np.zeros((4, 4))
    expect_same[1, 0] = expect_same[2, 1] = expect_same[3, 2] = 1
    expect_prev = np.zeros((4, 4))
    expect_prev[0, 3] = 1
    assert np.array_equal(ts.w_same, expect_same)
    assert np.array_equal(ts.w_prev, expect_prev)


def test_transition_structure_synchronous():
    ts = transition_structure(4, 4)
    assert ts.cycle_lag == 0
    assert np.array_equal(ts.w_same, np.zeros((4, 4)))
    assert np.array_equal(ts.w_prev, np.eye(4))


def test_transition_structure_longer_than_cycle():
    ts = transition_structure(4, 5)
    assert ts.cycle_lag == 1
    expect_same = np.zeros((4, 4))
    expect_same[1, 0] = expect_same[2, 1] = expect_same[3, 2] = 1
    expect_prev = np.zeros((4, 4))
    expect_prev[0, 3] = 1
    assert np.array_equal(ts.w_same, expect_same)
    assert np.array_equal(ts.w_prev, expect_prev)


def test_transition_rows_have_single_source():
    for k, d in [(5, 2), (8, 11), (6, 6), (7, 20)]:
        ts = transition_structure(k, d)
        assert np.array_equal((ts.w_same + ts.w_prev).sum(axis=1), np.ones(k))


@given(st.integers(2, 8), st.integers(1, 16), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_matrix_form_reproduces_samplewise_run(k, d, seed):
    c = ReservoirConfig(k=k, rho=0.4, G=0.85, Phi0=0.3, tau=float(d),
                        beta=0.75, washout_cycles=0, mask_seed=1)
    mask = make_input_mask(k, 1)
    rng = np.random.default_rng(seed)
    n = 2 * (d // k) + 6
    u = rng.uniform(-1, 1, n)
    J = mask_input(u, mask)
    S = run_reservoir(u, c, mask).entries
    ts = transition_structure(k, d)
    for m in range(ts.cycle_lag + 1, n):
        fb = ts.w_same @ S[:, m - ts.cycle_lag] + ts.w_prev @ S[:, m - ts.cycle_lag - 1]
        pred = 0.5 * 0.85 * (1 + 0.983 * np.sin(
            np.pi * (0.75 * fb + 0.4 * J[m * k:(m + 1) * k]) + 0.3))
        assert np.allclose(pred, S[:, m], atol=1e-12)


# ----------------------------------------------------------- backends

# _kernels._LOOP_BELOW values that run every chunk as blocks, run every
# chunk as the per-sample loop, and keep the default pick by block width
# (last, so a test's other calls see the default)
LOOP_BELOW_CASES = (0, 10**9, _kernels._LOOP_BELOW)


def crossover(R):
    """The first d at which R lockstep rows run as blocks by default."""
    return math.ceil(_kernels._LOOP_BELOW / R)


def test_numpy_block_recursion_matches_python_loop(monkeypatch):
    rng = np.random.default_rng(11)
    # longer than one chunk and a multiple of neither it nor d
    mask = make_input_mask(7, 3)
    u = rng.uniform(-1, 1, (_kernels._CHUNK + 907) // 7)
    J = mask_input(u, mask)
    held = _kernels.HeldInput(u[None], mask.values)
    below = crossover(1)
    for d in (1, 3, below - 1, below, 50, 137, 700, 6000):
        hist = np.zeros(d)
        a, = _kernels.evolve_samples_numpy(held, d, 0.9, 0.983, 0.8, 0.5, 0.3, hist)
        s = np.zeros(J.size + d)
        for m in range(J.size):
            s[m + d] = 0.5 * 0.9 * (1 + 0.983 * np.sin(
                np.pi * (0.8 * s[m] + 0.5 * J[m]) + 0.3))
        assert np.array_equal(a, s[d:])
        # evolve_samples_loop is the exact source numba compiles, so this
        # checks the backends' bitwise agreement where numba is absent too;
        # both numpy strategies are checked at every d, not only the one
        # evolve_samples_numpy picks
        for h in (hist, rng.uniform(0, 1, d)):
            params = (d, 1.1, 0.983, 0.85, 0.9, 0.63, h)
            ref = _kernels.evolve_samples_loop(J, *params)
            for loop_below in LOOP_BELOW_CASES:
                monkeypatch.setattr(_kernels, "_LOOP_BELOW", loop_below)
                assert np.array_equal(
                    _kernels.evolve_samples_numpy(held, *params)[0], ref), \
                    (loop_below, d)


def _ragged_rows(rng, R, k):
    """R held inputs of different lengths, and the zero-padded rows x
    cycles array of them."""
    us = [rng.uniform(-1, 1, n) for n in rng.integers(700, 1100, R)]
    padded = np.zeros((R, max(u.size for u in us)))
    for row, u in zip(padded, us):
        row[:u.size] = u
    return us, padded


@pytest.mark.parametrize("R", [1, 2, 3, 5])
def test_lockstep_rows_match_loop_bitwise(monkeypatch, R):
    rng = np.random.default_rng(20 + R)
    mask = make_input_mask(7, 2)
    us, padded = _ragged_rows(rng, R, 7)
    held = _kernels.HeldInput(padded, mask.values)
    below = crossover(R)
    # 4500 samples is longer than one chunk and shorter than every stream
    for d in (1, 3, below - 1, below, 50, 137, 700, 4500):
        for H in (np.zeros((R, d)), rng.uniform(0, 1, (R, d))):
            params = (d, 1.1, 0.983, 0.85, 0.9, 0.63)
            for loop_below in LOOP_BELOW_CASES:
                monkeypatch.setattr(_kernels, "_LOOP_BELOW", loop_below)
                S = _kernels.evolve_samples_numpy(held, *params, H)
                # C-contiguous rows x samples: every row reshapes as a view
                assert S.shape == (R, held.size // R), loop_below
                assert S.flags.c_contiguous, loop_below
                for i, u in enumerate(us):
                    ref = _kernels.evolve_samples_loop(mask_input(u, mask),
                                                       *params, H[i])
                    assert np.array_equal(S[i, :ref.size], ref), \
                        (loop_below, d, i)


@pytest.mark.parametrize("R", [1, 3])
def test_overflow_leaves_nan_where_the_loop_does(monkeypatch, R):
    # at G=1e308 the phase of some samples overflows: np.sin(inf) is nan in
    # the plain loop, while math.sin(inf) raises in the per-sample strategy,
    # whose chunk then runs as blocks; every strategy keeps the finite
    # samples and the nan positions of the loop
    rng = np.random.default_rng(40 + R)
    mask = make_input_mask(7, 4)
    us, padded = _ragged_rows(rng, R, 7)
    held = _kernels.HeldInput(padded, mask.values)
    below = crossover(R)
    for d in (1, below - 1, below, 50):
        params = (d, 1e308, 0.983, 0.85, 0.9, 0.63, np.zeros((R, d)))
        refs = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i, u in enumerate(us):
                refs.append(_kernels.evolve_samples_loop(
                    mask_input(u, mask), *params[:-1], params[-1][i]))
        assert all(np.isnan(r).any() and np.isfinite(r).any() for r in refs)
        for loop_below in LOOP_BELOW_CASES:
            monkeypatch.setattr(_kernels, "_LOOP_BELOW", loop_below)
            S = _kernels.evolve_samples_numpy(held, *params)
            for i, ref in enumerate(refs):
                assert np.array_equal(S[i, :ref.size], ref, equal_nan=True), \
                    (loop_below, d, i)


def test_rows_take_one_history_for_every_row():
    rng = np.random.default_rng(6)
    mask = make_input_mask(7, 2)
    us, _ = _ragged_rows(rng, 2, 7)
    c = cfg_for(k=7, tau=33.0)
    h = rng.uniform(0, 1, 33)
    for X, u in zip(run_reservoir_rows(us, c, mask, history=h), us):
        assert np.array_equal(X.entries,
                              run_reservoir(u, c, mask, history=h).entries)
    with pytest.raises(ConfigurationError, match="history"):
        run_reservoir_rows(us, c, mask, history=np.zeros(32))


def test_rows_check_every_stream():
    mask = make_input_mask(7, 2)
    us = [np.ones(20), np.ones(3)]
    with pytest.raises(ConfigurationError, match="longer than the stream"):
        run_reservoir_rows(us, cfg_for(k=7, tau=30.0), mask)


# block width 10 x rows runs the loop on one row and blocks on two; 50, blocks
@pytest.mark.parametrize("tau", [10.0, 50.0])
def test_state_overflow_raises_numerics_error(tau):
    c = cfg_for(G=1e308, tau=tau)
    mask = make_input_mask(50, 0)
    u = np.random.default_rng(3).uniform(0, 0.5, 40)
    with pytest.raises(NumericsError, match="finite"):
        run_reservoir(u, c, mask)
    with pytest.raises(NumericsError, match="finite"):
        run_reservoir_rows([u, u[:30]], c, mask)


def test_stream_size_is_checked_before_allocation(monkeypatch):
    from delayrc import _backend

    def refuse(*args, **kwargs):
        raise AssertionError("ran past the size bound")
    monkeypatch.setattr(_backend, "evolve_samples", refuse)
    k = 10 ** 6
    c = cfg_for(k=k, tau=float(k))
    mask = InputMask(np.zeros(k), 0)
    n = MAX_STREAM_SAMPLES // k
    with pytest.raises(ConfigurationError, match="more than"):
        run_reservoir(np.zeros(n + 1), c, mask)
    # each stream is within the bound, the two together are not
    with pytest.raises(ConfigurationError, match="lockstep group"):
        run_reservoir_rows([np.zeros(n // 2 + 1)] * 2, c, mask)


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
def test_backends_agree_bitwise():
    rng = np.random.default_rng(12)
    mask = make_input_mask(7, 2)
    us, padded = _ragged_rows(rng, 3, 7)
    held = _kernels.HeldInput(padded, mask.values)
    for d in (1, 14, 50, 333):
        hist = rng.uniform(0, 1, (3, d))
        params = (d, 1.1, 0.983, 0.85, 0.9, 0.63, hist)
        a = _kernels.evolve_samples_numpy(held, *params)
        b = _kernels.evolve_samples_compiled(held, *params)
        assert np.array_equal(a, b)
        for i, u in enumerate(us):
            c = _kernels.evolve_samples_numba(mask_input(u, mask), *params[:-1],
                                              hist[i])
            assert np.array_equal(b[i, :c.size], c)


def test_backend_env_selection():
    from delayrc import _backend
    assert _backend.active_backend() in ("numba", "numpy")
    # forcing numpy must survive a re-selection round trip
    old = os.environ.get("DELAYRC_BACKEND")
    os.environ["DELAYRC_BACKEND"] = "numpy"
    try:
        assert _backend.select_backend() == "numpy"
    finally:
        if old is None:
            os.environ.pop("DELAYRC_BACKEND", None)
        else:
            os.environ["DELAYRC_BACKEND"] = old
        _backend.select_backend()


def test_backend_rejects_unknown_value():
    from delayrc import _backend
    os.environ["DELAYRC_BACKEND"] = "cuda"
    try:
        with pytest.raises(ConfigurationError):
            _backend.select_backend()
    finally:
        os.environ.pop("DELAYRC_BACKEND", None)
        _backend.select_backend()
