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

from . import _backend
from .exceptions import ConfigurationError

__all__ = [
    "ReservoirConfig", "InputMask", "StateMatrix", "TransitionStructure",
    "make_input_mask", "mask_input", "run_reservoir", "transition_structure",
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
    u = np.asarray(u, dtype=float)
    return (u[:, None] * mask.values[None, :]).ravel()


def run_reservoir(u, cfg: ReservoirConfig, mask: InputMask,
                  history=None) -> StateMatrix:
    """Drive the loop with N = len(u) clock cycles and harvest states.

    history optionally sets the d pre-stream samples s(-d)..s(-1)
    (default zeros); it exists so state convergence from perturbed initial
    conditions can be probed.
    """
    u = np.asarray(u, dtype=float)
    d = cfg.sample_delay
    if d < 1:
        raise ConfigurationError(
            f"tau={cfg.tau!r} rounds to sample delay {d} < 1 on theta={cfg.theta!r}")
    if mask.k != cfg.k:
        raise ConfigurationError(f"mask length {mask.k} does not match k={cfg.k}")
    if u.size <= cfg.washout_cycles:
        raise ConfigurationError(
            f"need more than washout_cycles={cfg.washout_cycles} input steps, got {u.size}")
    if d > u.size * cfg.k:
        # no sample could feed back, and d sizes the history buffer
        raise ConfigurationError(
            f"sample delay tau/theta={cfg.tau / cfg.theta:g} is longer than "
            f"the stream ({u.size} cycles of k={cfg.k} samples)")
    if history is None:
        history = np.zeros(d)
    else:
        history = np.asarray(history, dtype=float)
        if history.shape != (d,):
            raise ConfigurationError(f"history must have shape ({d},)")
    J = mask_input(u, mask)
    s = _backend.evolve_samples(J, d, cfg.G, cfg.M, cfg.beta, cfg.rho, cfg.Phi0,
                                history)
    X = s.reshape(u.size, cfg.k).T
    return StateMatrix(entries=X[:, cfg.washout_cycles:])


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
