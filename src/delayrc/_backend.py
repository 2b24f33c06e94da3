"""Numerics backend selection.

DELAYRC_BACKEND controls which implementation of the hot loops is used:

  auto   - numba if importable, else numpy (default)
  numba  - require the compiled kernels, fail if numba is missing
  numpy  - force the pure-numpy kernels

evolve_samples(J, d, G, M, beta, rho, Phi0, history) runs the sample
recursion of a HeldInput J, rows x cycles of streams in lockstep (one
stream is one row), and returns a new rows x samples array. The numpy
path runs each chunk as a per-sample loop on Python floats or as a block
recursion, picked by the block width d x rows (see _kernels). Both
backends produce bitwise-identical results;
the flag only trades compile latency against throughput. See
benchmarks/bench_kernels.py.
"""

import os

from . import _kernels
from .exceptions import ConfigurationError

_CHOICES = ("auto", "numba", "numpy")


def _select(name: str):
    if name not in _CHOICES:
        raise ConfigurationError(
            f"DELAYRC_BACKEND must be one of {_CHOICES}, got {name!r}")
    if name == "numpy":
        return "numpy"
    if name == "numba" and not _kernels.HAVE_NUMBA:
        raise ConfigurationError(
            "DELAYRC_BACKEND=numba but numba is not importable")
    return "numba" if _kernels.HAVE_NUMBA else "numpy"


def select_backend() -> str:
    """Re-read DELAYRC_BACKEND and rebind the kernel dispatch."""
    global _ACTIVE, evolve_samples, dde_euler
    _ACTIVE = _select(os.environ.get("DELAYRC_BACKEND", "auto").strip().lower())
    if _ACTIVE == "numba":
        evolve_samples = _kernels.evolve_samples_compiled
        dde_euler = _kernels.dde_euler_numba
    else:
        evolve_samples = _kernels.evolve_samples_numpy
        dde_euler = _kernels.dde_euler_loop
    return _ACTIVE


select_backend()


def active_backend() -> str:
    return _ACTIVE
