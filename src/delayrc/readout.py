"""Linear readout: ridge training, prediction, error metrics and
segment-level classification scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._csvio import write_csv
from .exceptions import ConfigurationError, SingularMatrixError

__all__ = [
    "ReadoutWeights", "train_ridge", "predict", "nmse", "nrmse",
    "classify_sequences", "weights_to_csv",
]


@dataclass(frozen=True)
class ReadoutWeights:
    matrix: np.ndarray          # outputs x features
    lambda_used: float
    includes_bias: bool = False


def _as_2d(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    return A[None, :] if A.ndim == 1 else A


def train_ridge(X, Y, lam: float, add_bias: bool = False) -> ReadoutWeights:
    """Solve W (X X^T + lam I) = Y X^T for the readout W.

    Solved as a symmetric positive-definite system by Cholesky
    factorization, never by forming the inverse. add_bias appends a
    constant feature row (off by default: the nonlinearity's constant
    offset already spans it approximately).
    """
    X, Y = _as_2d(X), _as_2d(Y)
    if not (np.isfinite(lam) and lam >= 0):
        raise ConfigurationError(f"lambda must be finite and nonnegative, got {lam}")
    if X.shape[1] != Y.shape[1]:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns but Y has {Y.shape[1]}")
    if X.shape[1] < 1:
        raise ConfigurationError("need at least one sample")
    if add_bias:
        X = np.vstack([X, np.ones(X.shape[1])])
    A = X @ X.T + lam * np.eye(X.shape[0])
    B = X @ Y.T
    try:
        c = cho_factor(A, lower=True)
        W = cho_solve(c, B).T
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(A))
        raise SingularMatrixError(
            f"normal-equation matrix is singular (condition estimate "
            f"{cond:.3e}); increase lambda or check for constant states") from exc
    return ReadoutWeights(matrix=W, lambda_used=float(lam), includes_bias=add_bias)


def predict(w: ReadoutWeights, X) -> np.ndarray:
    X = _as_2d(X)
    if w.includes_bias:
        X = np.vstack([X, np.ones(X.shape[1])])
    if w.matrix.shape[1] != X.shape[0]:
        raise ConfigurationError(
            f"weights expect {w.matrix.shape[1]} features, states have {X.shape[0]}")
    return w.matrix @ X


def nmse(y, y_hat) -> float:
    """Mean squared error over all entries, normalized by the population
    variance of the target y."""
    y, y_hat = np.asarray(y, dtype=float), np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ConfigurationError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    if y.size < 2:
        raise ConfigurationError("need at least two samples")
    var = float(np.var(y))
    if var == 0.0:
        raise ConfigurationError("target variance is zero, NMSE undefined")
    return float(np.mean((y - y_hat) ** 2)) / var


def nrmse(y, y_hat) -> float:
    return float(np.sqrt(nmse(y, y_hat)))


def classify_sequences(y_out, segments):
    """Time-averaged argmax decision per segment.

    segments: iterable of (start, end, label) column ranges. Each output
    channel is averaged over the segment and the argmax channel is the
    prediction (ties break to the lowest index). Returns (predicted labels,
    error rate over segments).
    """
    y_out = _as_2d(y_out)
    segs = list(segments)
    if not segs:
        raise ConfigurationError("no segments to classify")
    pred = np.empty(len(segs), dtype=int)
    wrong = 0
    for j, (a, b, label) in enumerate(segs):
        if b <= a:
            raise ConfigurationError(f"segment {j} is empty: [{a}, {b})")
        pred[j] = int(np.argmax(y_out[:, a:b].mean(axis=1)))
        wrong += pred[j] != int(label)
    return pred, float(wrong / len(segs))


def weights_to_csv(w: ReadoutWeights, path, comment=None):
    k = w.matrix.shape[1]
    note = f"lambda={w.lambda_used!r} k={k} bias={int(w.includes_bias)}"
    if comment:
        note = comment + " | " + note
    header = [f"w_{j}" for j in range(k)]
    write_csv(path, header, ([float(v) for v in row] for row in w.matrix), note)
