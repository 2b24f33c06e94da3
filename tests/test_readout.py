"""Ridge regression readout, error metrics, sequence voting."""

import numpy as np
import pytest

from delayrc.exceptions import SingularMatrixError
from delayrc.readout import (
    ReadoutWeights,
    classify_sequences,
    nmse,
    nrmse,
    predict,
    train_ridge,
)


def dense_ridge(X, Y, lam):
    """Textbook normal-equation solve via an explicit inverse."""
    k = X.shape[0]
    return Y @ X.T @ np.linalg.inv(X @ X.T + lam * np.eye(k))


# ----------------------------------------------------------------- solver

def test_identity_problem_halves_weights():
    X = np.eye(2)
    W = train_ridge(X, np.eye(2), lam=1.0).matrix
    assert np.allclose(W, 0.5 * np.eye(2), atol=1e-14)


def test_matches_explicit_inverse_on_dense_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 400))
    Y = rng.normal(size=(3, 400))
    for lam in (1e-6, 1e-2, 10.0):
        W = train_ridge(X, Y, lam).matrix
        assert np.allclose(W, dense_ridge(X, Y, lam), atol=1e-8)


def test_exact_recovery_of_linear_map():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(8, 200))
    W_true = rng.normal(size=(2, 8))
    W = train_ridge(X, W_true @ X, lam=1e-12).matrix
    assert np.allclose(W, W_true, atol=1e-6)


def test_shrinkage_is_monotone_in_lambda():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 100))
    Y = rng.normal(size=(1, 100))
    norms = [np.linalg.norm(train_ridge(X, Y, lam).matrix)
             for lam in (1e-4, 1e-2, 1.0, 1e2)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_large_lambda_limit():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 50))
    Y = rng.normal(size=(1, 50))
    lam = 1e9
    W = train_ridge(X, Y, lam).matrix
    assert np.allclose(W, Y @ X.T / lam, rtol=1e-6)


def test_training_residual_is_orthogonal_to_features():
    # at the ridge optimum the gradient Y_res X^T - lam W vanishes
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 80))
    Y = rng.normal(size=(2, 80))
    lam = 0.37
    W = train_ridge(X, Y, lam).matrix
    grad = (Y - W @ X) @ X.T - lam * W
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_ridge_optimum_beats_perturbations():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(7, 60))
    Y = rng.normal(size=(1, 60))
    lam = 0.2

    def loss(W):
        return np.sum((Y - W @ X) ** 2) + lam * np.sum(W ** 2)

    W = train_ridge(X, Y, lam).matrix
    base = loss(W)
    for _ in range(20):
        assert base <= loss(W + 1e-3 * rng.normal(size=W.shape)) + 1e-12


def test_singular_problem_raises_with_conditioning_info():
    X = np.zeros((4, 10))
    Y = np.zeros((1, 10))
    with pytest.raises(SingularMatrixError) as exc:
        train_ridge(X, Y, lam=0.0)
    assert "condition" in str(exc.value)


def test_bias_feature():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 90))
    Y = 3.0 + 0.0 * rng.normal(size=(1, 90))
    w = train_ridge(X, Y, lam=1e-9, add_bias=True)
    assert w.includes_bias and w.matrix.shape == (1, 6)
    y_hat = predict(w, X)
    assert np.allclose(y_hat, 3.0, atol=1e-5)
    w0 = train_ridge(X, Y, lam=1e-9, add_bias=False)
    assert w0.matrix.shape == (1, 5)


def test_predict_shapes():
    w = ReadoutWeights(matrix=np.ones((2, 3)), lambda_used=0.0)
    y = predict(w, np.ones((3, 4)))
    assert y.shape == (2, 4)
    assert np.allclose(y, 3.0)


# ---------------------------------------------------------------- metrics

def test_nmse_hand_value():
    y = np.array([0.0, 1.0, 0.0, 1.0])
    assert nmse(y, np.zeros(4)) == pytest.approx(2.0, abs=1e-15)


def test_nmse_zero_for_perfect_prediction():
    y = np.random.default_rng(8).normal(size=50)
    assert nmse(y, y.copy()) == 0.0


def test_nmse_one_for_mean_predictor():
    y = np.random.default_rng(9).normal(size=500)
    assert nmse(y, np.full(500, y.mean())) == pytest.approx(1.0, abs=1e-12)


def test_nmse_invariant_under_shift_and_scale():
    rng = np.random.default_rng(10)
    y = rng.normal(size=80)
    y_hat = y + rng.normal(scale=0.3, size=80)
    base = nmse(y, y_hat)
    assert nmse(5 * y - 2, 5 * y_hat - 2) == pytest.approx(base, rel=1e-12)


def test_nrmse_is_sqrt_of_nmse():
    rng = np.random.default_rng(11)
    y = rng.normal(size=40)
    y_hat = y + rng.normal(scale=0.5, size=40)
    assert nrmse(y, y_hat) == pytest.approx(np.sqrt(nmse(y, y_hat)), rel=1e-12)


def test_nmse_multichannel_uses_entrywise_stats():
    y = np.array([[0.0, 1.0], [0.0, 1.0]])
    y_hat = np.zeros((2, 2))
    assert nmse(y, y_hat) == pytest.approx(2.0, abs=1e-14)


# ------------------------------------------------------------ classifier

def test_classify_majority_vote():
    # channel means over each span decide the label
    y_out = np.array([
        [0.9, 0.8, 0.1, 0.0, 0.2, 0.1],
        [0.1, 0.0, 0.7, 0.9, 0.1, 0.0],
        [0.0, 0.1, 0.2, 0.0, 0.8, 0.7],
    ])
    segments = ((0, 2, 0), (2, 4, 1), (4, 6, 2))
    pred, err = classify_sequences(y_out, segments)
    assert np.array_equal(pred, [0, 1, 2])
    assert err == 0.0


def test_classify_error_rate():
    y_out = np.array([[1.0, 0.0, 1.0, 1.0],
                      [0.0, 1.0, 0.0, 0.0]])
    segments = ((0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 1))
    pred, err = classify_sequences(y_out, segments)
    assert np.array_equal(pred, [0, 1, 0, 0])
    assert err == pytest.approx(0.75)
    assert type(err) is float


def test_classify_tie_breaks_to_lowest_index():
    y_out = np.array([[0.5, 0.5], [0.5, 0.5]])
    pred, err = classify_sequences(y_out, ((0, 2, 1),))
    assert pred[0] == 0 and err == 1.0
