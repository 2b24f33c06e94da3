"""Time-multiplexed reservoir: masks, sample recursion, coupling structure."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayrc import _kernels, pipeline
from delayrc.exceptions import ConfigurationError, NumericsError
from delayrc.reservoir import (
    MAX_STREAM_SAMPLES,
    ReservoirConfig,
    make_input_mask,
    mask_input,
    run_reservoir,
    run_reservoir_rows,
    transition_structure,
)


def cfg_for(k=50, rho=0.9, G=0.56, Phi0=0.2, tau=None, beta=1.0, theta=1.0,
            mask_seed=0):
    return ReservoirConfig(k=k, rho=rho, G=G, Phi0=Phi0,
                           tau=(k * theta if tau is None else tau),
                           theta=theta, beta=beta, mask_seed=mask_seed)


# ------------------------------------------------------------------ masks

def test_mask_is_deterministic_per_seed():
    m1 = make_input_mask(50, 7)
    m2 = make_input_mask(50, 7)
    m3 = make_input_mask(50, 8)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, m3)


def test_mask_statistics():
    m = make_input_mask(100_000, 0)
    assert np.all(m >= -1) and np.all(m <= 1)
    assert abs(m.mean()) < 0.02
    assert abs(m.var() - 1 / 3) < 0.05 / 3


def test_mask_input_hand_example():
    out = mask_input(np.array([2.0, -1.0]), np.array([0.5, -0.25, 1.0]))
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
    # Philox takes keys in [0, 2**128) only
    for seed in (-1, 2**128):
        with pytest.raises(ConfigurationError, match="mask_seed"):
            cfg_for(mask_seed=seed)


def test_mask_seed_must_be_an_integer():
    # Philox truncates a fractional key: 0.5 would draw seed 0's mask
    for seed in (0.5, 1.7, 2.0, np.float64(3.0), "1"):
        with pytest.raises(ConfigurationError, match="mask_seed"):
            cfg_for(mask_seed=seed)
        with pytest.raises(ConfigurationError, match="mask_seed"):
            make_input_mask(5, seed)
    # numpy integers key Philox as the int of the same value does
    for seed in (np.int64(5), np.uint64(2**64 - 1)):
        assert cfg_for(mask_seed=seed).mask_seed == seed
        assert (make_input_mask(5, seed).tobytes()
                == make_input_mask(5, int(seed)).tobytes())


# ---------------------------------------------------------------- states

def test_constant_state_without_feedback_or_input():
    c = cfg_for(k=8, rho=0.4, G=0.8, Phi0=0.3, beta=0.0)
    S = run_reservoir(np.zeros(5), c)
    expect = 0.5 * 0.8 * (1 + 0.983 * np.sin(0.3))
    assert np.allclose(S, expect, atol=1e-15)


def test_states_respect_transmission_bounds():
    c = cfg_for(k=20, rho=1.0, G=1.1, Phi0=1.0, beta=0.9, mask_seed=1)
    S = run_reservoir(np.random.default_rng(0).uniform(-1, 1, 60), c)
    lo, hi = 0.5 * 1.1 * (1 - 0.983), 0.5 * 1.1 * (1 + 0.983)
    assert S.min() >= lo - 1e-12
    assert S.max() <= hi + 1e-12


def test_synchronous_delay_decouples_neurons():
    # tau = T with zero input: every neuron runs the scalar map on its own,
    # so each row must reproduce the iterate sequence started from zero
    # history (bias folded into the offset phase).
    from delayrc.dynamics import OscillatorParams, iterate
    k = 6
    c = cfg_for(k=k, rho=0.7, G=0.8, Phi0=np.pi * 0.11, tau=float(k), beta=1.0,
                mask_seed=2)
    S = run_reservoir(np.zeros(9), c)
    p = OscillatorParams(G=0.8, M=0.983, x_b=0.11)
    expect = iterate(0.0, 9, p)[1:]
    for i in range(k):
        assert np.allclose(S[i], expect, atol=1e-12)


def test_delay_longer_than_stream_rejected():
    u = np.full(4, 0.5)
    cfg = cfg_for(k=5, tau=20.0)
    assert run_reservoir(u, cfg).shape == (5, 4)
    with pytest.raises(ConfigurationError, match="longer than the stream"):
        run_reservoir(u, cfg_for(k=5, tau=21.0))


def test_delay_under_one_sample_rejected():
    c = cfg_for(k=10, tau=0.4)
    with pytest.raises(ConfigurationError):
        run_reservoir(np.zeros(4), c)


def test_run_is_bitwise_deterministic():
    c = cfg_for()
    u = np.random.default_rng(5).uniform(-1, 1, 40)
    a = run_reservoir(u, c)
    b = run_reservoir(u, c)
    assert np.array_equal(a, b)


def test_recursion_against_direct_python_loop():
    # literal transcription of the sample update, no vectorization tricks
    c = cfg_for(k=7, rho=0.45, G=0.9, Phi0=0.35, tau=11.0, beta=0.8,
                mask_seed=4)
    u = np.random.default_rng(8).uniform(-1, 1, 12)
    J = mask_input(u, make_input_mask(7, 4))
    d = c.sample_delay
    s = np.zeros(J.size + d)
    for m in range(J.size):
        s[m + d] = 0.5 * 0.9 * (1 + 0.983 * np.sin(
            np.pi * (0.8 * s[m] + 0.45 * J[m]) + 0.35))
    expect = s[d:].reshape(12, 7).T
    got = run_reservoir(u, c)
    assert np.array_equal(got, expect)


# ------------------------------------------------------- fading memory

def test_history_perturbation_washes_out():
    c = cfg_for(k=50, rho=0.9, G=0.56, Phi0=0.2, beta=1.0)
    rng = np.random.default_rng(7)
    u = rng.uniform(0, 0.5, 120)
    h = rng.uniform(0, 1, c.sample_delay)
    base = run_reservoir(u, c)
    pert = run_reservoir(u, c, history=h)
    diff = np.abs(base - pert).max(axis=0)
    assert diff[0] > 0.01          # the perturbation is actually felt
    assert diff[50] < 1e-12        # and fully forgotten inside the washout


def test_history_perturbation_decays_at_high_feedback():
    c = cfg_for(k=50, rho=0.9, G=0.9, Phi0=0.63, beta=0.85)
    rng = np.random.default_rng(7)
    u = rng.uniform(0, 0.5, 400)
    h = rng.uniform(0, 1, c.sample_delay)
    base = run_reservoir(u, c)
    pert = run_reservoir(u, c, history=h)
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
                        beta=0.75, mask_seed=1)
    rng = np.random.default_rng(seed)
    n = 2 * (d // k) + 6
    u = rng.uniform(-1, 1, n)
    J = mask_input(u, make_input_mask(k, 1))
    S = run_reservoir(u, c)
    ts = transition_structure(k, d)
    for m in range(ts.cycle_lag + 1, n):
        fb = ts.w_same @ S[:, m - ts.cycle_lag] + ts.w_prev @ S[:, m - ts.cycle_lag - 1]
        pred = 0.5 * 0.85 * (1 + 0.983 * np.sin(
            np.pi * (0.75 * fb + 0.4 * J[m * k:(m + 1) * k]) + 0.3))
        assert np.allclose(pred, S[:, m], atol=1e-12)


# ----------------------------------------------------------- backends

def test_numpy_block_recursion_matches_python_loop():
    rng = np.random.default_rng(11)
    # longer than one chunk and a multiple of neither it nor d
    mask = make_input_mask(7, 3)
    u = rng.uniform(-1, 1, (_kernels._CHUNK + 907) // 7)
    J = mask_input(u, mask)
    held = _kernels.HeldInput(u[None], mask)
    for d in (1, 3, 19, 20, 50, 137, 700, 6000):
        hist = np.zeros(d)
        a, = _kernels.evolve_samples_numpy(held, d, 0.9, 0.983, 0.8, 0.5, 0.3, hist)
        s = np.zeros(J.size + d)
        for m in range(J.size):
            s[m + d] = 0.5 * 0.9 * (1 + 0.983 * np.sin(
                np.pi * (0.8 * s[m] + 0.5 * J[m]) + 0.3))
        assert np.array_equal(a, s[d:])
        # evolve_samples_loop is the exact source numba compiles, so this
        # checks the backends' bitwise agreement where numba is absent too
        for h in (hist, rng.uniform(0, 1, d)):
            params = (d, 1.1, 0.983, 0.85, 0.9, 0.63, h)
            ref = _kernels.evolve_samples_loop(J, *params)
            assert np.array_equal(
                _kernels.evolve_samples_numpy(held, *params)[0], ref), d


def _ragged_rows(rng, R, k):
    """R held inputs of different lengths, and the zero-padded rows x
    cycles array of them."""
    us = [rng.uniform(-1, 1, n) for n in rng.integers(700, 1100, R)]
    padded = np.zeros((R, max(u.size for u in us)))
    for row, u in zip(padded, us):
        row[:u.size] = u
    return us, padded


@pytest.mark.parametrize("R", [1, 2, 3, 5])
def test_lockstep_rows_match_loop_bitwise(R):
    rng = np.random.default_rng(20 + R)
    mask = make_input_mask(7, 2)
    us, padded = _ragged_rows(rng, R, 7)
    held = _kernels.HeldInput(padded, mask)
    # block widths d*R from R up; 4500 samples is longer than one chunk
    # and shorter than every stream
    for d in (1, 3, 4, 6, 7, 9, 10, 19, 20, 50, 137, 700, 4500):
        for H in (np.zeros((R, d)), rng.uniform(0, 1, (R, d))):
            params = (d, 1.1, 0.983, 0.85, 0.9, 0.63)
            S = _kernels.evolve_samples_numpy(held, *params, H)
            # C-contiguous rows x samples: every row reshapes as a view
            assert S.shape == (R, held.size // R)
            assert S.flags.c_contiguous
            for i, u in enumerate(us):
                ref = _kernels.evolve_samples_loop(mask_input(u, mask),
                                                   *params, H[i])
                assert np.array_equal(S[i, :ref.size], ref), (d, i)


@pytest.mark.parametrize("R", [1, 3])
def test_overflow_leaves_nan_where_the_loop_does(R):
    # at G=1e308 the phase of some samples overflows, and np.sin(inf) is
    # nan: the blocks keep the finite samples and the nan positions of the
    # plain loop
    rng = np.random.default_rng(40 + R)
    mask = make_input_mask(7, 4)
    us, padded = _ragged_rows(rng, R, 7)
    held = _kernels.HeldInput(padded, mask)
    for d in (1, 6, 7, 19, 20, 50):
        params = (d, 1e308, 0.983, 0.85, 0.9, 0.63, np.zeros((R, d)))
        refs = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i, u in enumerate(us):
                refs.append(_kernels.evolve_samples_loop(
                    mask_input(u, mask), *params[:-1], params[-1][i]))
        assert all(np.isnan(r).any() and np.isfinite(r).any() for r in refs)
        S = _kernels.evolve_samples_numpy(held, *params)
        for i, ref in enumerate(refs):
            assert np.array_equal(S[i, :ref.size], ref, equal_nan=True), \
                (d, i)


# _kernels settings that cut every stream of a few thousand samples into
# segments with short first windows, that never cut one, and the defaults
# (last, so a test's other calls see them)
SEGMENT_CASES = (dict(_SEGMENT_WIDTH=10**9, _WINDOW=8, _MIN_TRIPS=120),
                 dict(_SEGMENT_WIDTH=0), {})


SEGMENT_DEFAULTS = {name: getattr(_kernels, name) for name in SEGMENT_CASES[0]}


def _set_segments(monkeypatch, case):
    for name, value in {**SEGMENT_DEFAULTS, **case}.items():
        monkeypatch.setattr(_kernels, name, value)


def _count_steps(monkeypatch):
    """Count the samples, over all rows, that _kernels._steps runs."""
    count = [0]
    steps = _kernels._steps

    def counted(u, mask, *args):
        count[0] += u.size * mask.size
        return steps(u, mask, *args)
    monkeypatch.setattr(_kernels, "_steps", counted)
    return count


def _same_bits(a, b):
    """Equal bits, with nan where the other has nan."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# (G, d) at k = 7: streams that merge at d = 1, 3 and d = k (tau = T);
# chaotic ones that never merge at d = 3 and d = k; and one that
# overflows to nan, which never merges
SEGMENT_STREAMS = [(0.1, 1), (0.1, 3), (0.1, 7), (3.0, 3), (3.0, 7),
                   (1e308, 3)]


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("G, d", SEGMENT_STREAMS)
def test_segments_match_loop_bitwise(monkeypatch, G, d, R):
    rng = np.random.default_rng(60 + R + d)
    mask = make_input_mask(7, 5)
    us = [rng.uniform(-1, 1, n) for n in rng.integers(2500, 3000, R)]
    padded = np.zeros((R, max(u.size for u in us)))
    for row, u in zip(padded, us):
        row[:u.size] = u
    held = _kernels.HeldInput(padded, mask)
    H = rng.uniform(0, 1, (R, d))
    H[:, ::2] = -0.0
    params = (d, G, 0.983, 0.85, 0.9, 0.63)
    with np.errstate(over="ignore", invalid="ignore"):
        refs = [_kernels.evolve_samples_loop(mask_input(u, mask), *params, h)
                for u, h in zip(us, H)]
    merges = G < 1
    assert all(np.isnan(r).any() for r in refs) == (G == 1e308)
    stepped = _count_steps(monkeypatch)
    for case in SEGMENT_CASES:
        _set_segments(monkeypatch, case)
        stepped[0] = 0
        S = _kernels.evolve_samples_numpy(held, *params, H)
        assert S.shape == (R, held.size // R) and S.flags.c_contiguous
        for i, ref in enumerate(refs):
            assert _same_bits(S[i, :ref.size], ref), (case, i)
        if case is SEGMENT_CASES[0]:
            # segments that merge cost little more than the stream; one
            # that never merges falls back, and stops doubling in time
            if merges:
                assert stepped[0] < 1.5 * held.size
            else:
                assert 1.5 * held.size < stepped[0] <= 2.25 * held.size
        elif case is SEGMENT_CASES[1]:
            assert stepped[0] == held.size


# the shortest segment, in cycles at k = 7: _WINDOW_SHARE windows of d
# samples, or _MIN_TRIPS round trips of d samples if longer
@pytest.mark.parametrize("d, trips, shortest", [(3, 0, 4),
                                                (14, 500, 500 * 14 // 7)])
def test_streams_under_two_segments_run_whole(monkeypatch, d, trips,
                                              shortest):
    rng = np.random.default_rng(70)
    mask = make_input_mask(7, 5)
    _set_segments(monkeypatch, {**SEGMENT_CASES[0], "_MIN_TRIPS": trips})
    stepped = _count_steps(monkeypatch)
    params = (d, 0.1, 0.983, 0.85, 0.9, 0.63, np.zeros(d))
    for n in (1, shortest, 2 * shortest - 1, 2 * shortest):
        u = rng.uniform(-1, 1, n)
        held = _kernels.HeldInput(u[None], mask)
        stepped[0] = 0
        S = _kernels.evolve_samples_numpy(held, *params)
        assert (stepped[0] == held.size) == (n < 2 * shortest), n
        ref = _kernels.evolve_samples_loop(mask_input(u, mask), *params)
        assert _same_bits(S[0], ref), n


def test_restart_windows_hold_d_samples_up_to_the_cap(monkeypatch):
    # d = 20 > k = 7 and 980 cycles: 2 segments of 490, restarts capped at
    # 122 cycles. Windows of 8, 16 and 32 cycles end at 56; the next, of
    # 64, would leave 2 cycles (14 samples, under d) to the cap, so it
    # takes them. The stream is chaotic, so every window runs.
    rng = np.random.default_rng(80)
    mask = make_input_mask(7, 5)
    _set_segments(monkeypatch, SEGMENT_CASES[0])
    widths = []
    steps = _kernels._steps

    def spied(u, mask, d, *args):
        widths.append(u.shape[1])
        assert u.shape[1] * mask.size >= d
        return steps(u, mask, d, *args)
    monkeypatch.setattr(_kernels, "_steps", spied)
    d = 20
    u = rng.uniform(-1, 1, 980)
    params = (d, 3.0, 0.983, 0.85, 0.9, 0.63, rng.uniform(0, 1, d))
    S = _kernels.evolve_samples_numpy(_kernels.HeldInput(u[None],
                                                         mask), *params)
    assert widths[:5] == [490, 8, 16, 32, 66]
    ref = _kernels.evolve_samples_loop(mask_input(u, mask), *params)
    assert _same_bits(S[0], ref)


@pytest.fixture(scope="module")
def benchmark_streams():
    """The default sine_square sweep's first lockstep group (seeds 0-2,
    zero-padded to 10,496 cycles) and the default narma10 series (8,000
    cycles), as held inputs at k = 50."""
    from delayrc import pipeline
    mask = make_input_mask(50, 0)
    _, _, data = pipeline.task_setup("sine_square")
    us = [data(seed)[0].u for seed in range(3)]
    group = np.zeros((3, max(u.size for u in us)))
    for row, u in zip(group, us):
        row[:u.size] = u
    _, _, data = pipeline.task_setup("narma10")
    return {"sine_square": _kernels.HeldInput(group, mask),
            "narma10": _kernels.HeldInput(data(0)[0].u[None], mask)}


@pytest.mark.parametrize("d", [8, 25, 50, 100])
@pytest.mark.parametrize("task", ["sine_square", "narma10"])
def test_recursion_peak_memory_is_bounded(benchmark_streams, task, d):
    # the states plus the chunk buffers, restart windows and bookkeeping:
    # a second stream-sized array would take the peak past 2x
    import tracemalloc
    held = benchmark_streams[task]
    assert held.u.shape == {"sine_square": (3, 10_496),
                            "narma10": (1, 8_000)}[task]
    tracemalloc.start()
    try:
        S = _kernels.evolve_samples_numpy(held, d, 0.39, 0.983, 1.0, 0.19,
                                          0.67 * np.pi, np.zeros(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * S.nbytes, peak / S.nbytes


@pytest.mark.parametrize("d", [1, 2, 4])
def test_small_delays_cut_streams_into_more_segments(benchmark_streams, d):
    # segments need room for their restarts only, so the narma10 series
    # is cut into _SEGMENT_WIDTH // d of them
    held = benchmark_streams["narma10"]
    assert _kernels._segment_count(d, 1, 8000, 50) == 400 // d
    # README's narma10 reservoir
    params = (d, 0.54, 0.983, 1.0, 0.22, 3.12, np.zeros(d))
    S = _kernels.evolve_samples_numpy(held, *params)
    ref = _kernels.evolve_samples_loop(_kernels.masked(held.u[0], held.mask),
                                       *params)
    assert _same_bits(S[0], ref)


def test_rows_take_one_history_for_every_row():
    rng = np.random.default_rng(6)
    us, _ = _ragged_rows(rng, 2, 7)
    c = cfg_for(k=7, tau=33.0, mask_seed=2)
    h = rng.uniform(0, 1, 33)
    for X, u in zip(run_reservoir_rows(us, c, history=h), us):
        assert np.array_equal(X, run_reservoir(u, c, history=h))
    with pytest.raises(ConfigurationError, match="history"):
        run_reservoir_rows(us, c, history=np.zeros(32))


def test_empty_group_is_refused():
    c = cfg_for(k=7)
    with pytest.raises(ConfigurationError, match="empty group"):
        run_reservoir_rows([], c)
    with pytest.raises(ConfigurationError, match="empty group"):
        pipeline.evaluate_rows([], c, 1e-4)


def test_rows_check_every_stream():
    us = [np.ones(20), np.ones(3)]
    with pytest.raises(ConfigurationError, match="longer than the stream"):
        run_reservoir_rows(us, cfg_for(k=7, tau=30.0))


# block widths d*rows 10 and 20 at tau 10, 50 and 100 at tau 50
@pytest.mark.parametrize("tau", [10.0, 50.0])
def test_state_overflow_raises_numerics_error(tau):
    c = cfg_for(G=1e308, tau=tau)
    u = np.random.default_rng(3).uniform(0, 0.5, 40)
    with pytest.raises(NumericsError, match="finite"):
        run_reservoir(u, c)
    with pytest.raises(NumericsError, match="finite"):
        run_reservoir_rows([u, u[:30]], c)


def test_stream_size_is_checked_before_allocation(monkeypatch):
    from delayrc import _backend, reservoir

    def refuse(*args, **kwargs):
        raise AssertionError("ran past the size bound")
    monkeypatch.setattr(_backend, "evolve_samples", refuse)
    monkeypatch.setattr(reservoir, "make_input_mask", refuse)
    k = 10 ** 6
    c = cfg_for(k=k, tau=float(k))
    n = MAX_STREAM_SAMPLES // k
    with pytest.raises(ConfigurationError, match="more than"):
        run_reservoir(np.zeros(n + 1), c)
    # each stream is within the bound, the two together are not
    with pytest.raises(ConfigurationError, match="lockstep group"):
        run_reservoir_rows([np.zeros(n // 2 + 1)] * 2, c)


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
def test_backends_agree_bitwise():
    rng = np.random.default_rng(12)
    mask = make_input_mask(7, 2)
    us, padded = _ragged_rows(rng, 3, 7)
    held = _kernels.HeldInput(padded, mask)
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


def test_backend_rejects_unknown_value(monkeypatch):
    # the variable as the run was started with comes back, and its backend
    from delayrc import _backend
    before = _backend.active_backend()
    monkeypatch.setenv("DELAYRC_BACKEND", "cuda")
    try:
        with pytest.raises(ConfigurationError):
            _backend.select_backend()
    finally:
        monkeypatch.undo()
        _backend.select_backend()
    assert _backend.active_backend() == before
