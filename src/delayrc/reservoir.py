"""Time-multiplexed delay reservoir.

One nonlinear node plus a delay line realizes k virtual neurons: the input
value u(n) of clock cycle n is sample-and-held, multiplied by a fixed mask
of length k, and fed through the loop at node spacing theta. The neuron
states are the loop samples x^i(n) = s(i + n k).

The ground truth is the sample-level recursion

    s(m) = (G/2) (1 + M sin(pi (beta s(m - d) + rho J(m)) + Phi0))

with J the masked input, d the feedback delay in samples and s(m<0) = 0.
With beta = 1, rho = 0, Phi0 = 0 and d = k each neuron decouples into an
independent copy of the dynamics module's map with x_b = 0. The
transition_structure view re-expresses the same recursion as single-entry
cycle-to-cycle coupling matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend, _kernels
from .exceptions import ConfigurationError, NumericsError

__all__ = [
    "ReservoirConfig", "InputMask", "StateMatrix", "TransitionStructure",
    "make_input_mask", "mask_input", "run_reservoir", "run_reservoir_rows",
    "transition_structure",
]


@dataclass(frozen=True)
class ReservoirConfig:
    k: int
    rho: float
    G: float
    Phi0: float
    tau: float
    theta: float = 1.0
    beta: float = 1.0
    M: float = 0.983
    washout_cycles: int = 50
    mask_seed: int = 0

    def __post_init__(self):
        for name in ("rho", "G", "Phi0", "tau", "theta", "beta", "M"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if not self.theta > 0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.washout_cycles < 0:
            raise ConfigurationError(
                f"washout_cycles must be nonnegative, got {self.washout_cycles}")
        if not 0 < self.M <= 1:
            raise ConfigurationError(f"M must be in (0, 1], got {self.M}")
        if self.rho < 0:
            raise ConfigurationError(f"rho must be nonnegative, got {self.rho}")
        if not self.G > 0:
            raise ConfigurationError(f"G must be positive, got {self.G}")

    @property
    def T(self) -> float:
        """Clock cycle, k * theta."""
        return self.k * self.theta

    @property
    def sample_delay(self) -> int:
        """Feedback delay on the sample grid, d = round(tau / theta)."""
        return int(round(self.tau / self.theta))

    @classmethod
    def from_ratio(cls, k, rho, G, Phi0, tau_over_T, **kw):
        """Build with theta = 1 and tau expressed as a fraction of T = k."""
        return cls(k=k, rho=rho, G=G, Phi0=Phi0, tau=tau_over_T * k, **kw)


@dataclass(frozen=True)
class InputMask:
    values: np.ndarray
    seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ConfigurationError("mask must be a nonempty 1-d array")

    @property
    def k(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class StateMatrix:
    """k x N harvested neuron states, washout columns already dropped."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           np.asarray(self.entries, dtype=float))

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cycles(self) -> int:
        return self.entries.shape[1]


def make_input_mask(k: int, seed: int) -> InputMask:
    """k uniform draws on [-1, 1] from a counter-based generator (Philox),
    so the mask is a pure function of (k, seed) on any platform."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return InputMask(values=gen.uniform(-1.0, 1.0, k), seed=seed)


def mask_input(u, mask: InputMask) -> np.ndarray:
    """Sample-and-hold plus masking: output[i + n k] = mask[i] u(n)."""
    return _kernels.masked(np.asarray(u, dtype=float), mask.values)


# the most samples (cycles x k) one stream, or one lockstep group of
# streams, may drive: their states take 160 MB
MAX_STREAM_SAMPLES = 20_000_000
NON_FINITE_STATES = ("reservoir states left the finite range; lower G, "
                     "beta or rho")


def check_stream_samples(n_samples: int, what: str):
    """Refuse, before anything is allocated, to drive more than
    MAX_STREAM_SAMPLES samples."""
    if n_samples > MAX_STREAM_SAMPLES:
        raise ConfigurationError(
            f"{what} asks for {n_samples:,} samples, more than "
            f"{MAX_STREAM_SAMPLES:,}")


def _sample_delay(cfg: ReservoirConfig, mask: InputMask, n_cycles: int) -> int:
    """The sample delay d of cfg, once a stream of n_cycles passes the
    checks every driven stream passes."""
    d = cfg.sample_delay
    if d < 1:
        raise ConfigurationError(
            f"tau={cfg.tau!r} rounds to sample delay {d} < 1 on theta={cfg.theta!r}")
    if mask.k != cfg.k:
        raise ConfigurationError(f"mask length {mask.k} does not match k={cfg.k}")
    if n_cycles <= cfg.washout_cycles:
        raise ConfigurationError(
            f"need more than washout_cycles={cfg.washout_cycles} input steps, got {n_cycles}")
    check_stream_samples(n_cycles * cfg.k, "the input stream")
    if d > n_cycles * cfg.k:
        # no sample could feed back, and d sizes the history buffer
        raise ConfigurationError(
            f"sample delay tau/theta={cfg.tau / cfg.theta:g} is longer than "
            f"the stream ({n_cycles} cycles of k={cfg.k} samples)")
    return d


def _states(s, n_cycles: int, cfg: ReservoirConfig) -> np.ndarray:
    """k x n_cycles view of the samples s of one stream, checked finite
    once: the one outcome of an overflow, whichever kernel ran."""
    if not np.isfinite(s).all():
        raise NumericsError(NON_FINITE_STATES)
    return s.reshape(n_cycles, cfg.k).T


def run_reservoir(u, cfg: ReservoirConfig, mask: InputMask,
                  history=None) -> StateMatrix:
    """Drive the loop with N = len(u) clock cycles and harvest states.

    history optionally sets the d pre-stream samples s(-d)..s(-1)
    (default zeros); it exists so state convergence from perturbed initial
    conditions can be probed.
    """
    u = np.asarray(u, dtype=float)
    d = _sample_delay(cfg, mask, u.size)
    if history is None:
        history = np.zeros(d)
    else:
        history = np.asarray(history, dtype=float)
        if history.shape != (d,):
            raise ConfigurationError(f"history must have shape ({d},)")
    s = _backend.evolve_samples(_kernels.HeldInput(u, mask.values), d, cfg.G,
                                cfg.M, cfg.beta, cfg.rho, cfg.Phi0, history)
    X = _states(s, u.size, cfg)
    return StateMatrix(entries=X[:, cfg.washout_cycles:])


def run_reservoir_rows(us, cfg: ReservoirConfig, mask: InputMask,
                       out: np.ndarray | None = None) -> list[StateMatrix]:
    """run_reservoir on each held input in us (zero history), driven in
    lockstep: the same states, from one recursion over all rows.

    Streams shorter than the longest are zero-padded past their end; by
    causality that leaves each stream's own samples exact. out, when
    given, is a rows x (longest stream + d or more) buffer the samples are
    written to, so one buffer can serve many calls; the returned states
    are then views of it, valid until it is written again.
    """
    us = [np.asarray(u, dtype=float) for u in us]
    for u in us:
        d = _sample_delay(cfg, mask, u.size)
    n_max = max(u.size for u in us)
    check_stream_samples(len(us) * n_max * cfg.k, "a lockstep group")
    held = np.zeros((len(us), n_max))
    for row, u in zip(held, us):
        row[:u.size] = u
    s = _backend.evolve_samples(_kernels.HeldInput(held, mask.values), d,
                                cfg.G, cfg.M, cfg.beta, cfg.rho, cfg.Phi0,
                                np.zeros(d), out=out)
    return [StateMatrix(_states(row[:u.size * cfg.k], u.size, cfg)
                        [:, cfg.washout_cycles:])
            for row, u in zip(s, us)]


@dataclass(frozen=True)
class TransitionStructure:
    """Single-entry 0/1 matrices coupling cycle n to cycles n - cycle_lag
    and n - cycle_lag - 1 (rows: receiving neuron, columns: source)."""

    w_same: np.ndarray
    w_prev: np.ndarray
    cycle_lag: int


def transition_structure(k: int, d: int) -> TransitionStructure:
    """Matrix view of the sample-level delay coupling.

    With d' = d mod k and c = d // k, neuron i of cycle n reads neuron
    i - d' of cycle n - c when i >= d', else neuron i - d' + k of cycle
    n - c - 1. When d is an exact multiple of k the first set is empty and
    the structure is reported at lag c - 1 so the synchronous case d = k
    comes out as w_same = 0, w_prev = identity.
    """
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    dp, c = d % k, d // k
    w_same = np.zeros((k, k))
    w_prev = np.zeros((k, k))
    if dp == 0:
        # all dependencies sit exactly c cycles back
        return TransitionStructure(w_same, np.eye(k), c - 1)
    for i in range(k):
        if i >= dp:
            w_same[i, i - dp] = 1.0
        else:
            w_prev[i, i - dp + k] = 1.0
    return TransitionStructure(w_same, w_prev, c)
