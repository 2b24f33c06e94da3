"""Benchmark evaluation plumbing: washout discipline, split wiring."""

import numpy as np
import pytest

from delayrc.exceptions import ConfigurationError
from delayrc.pipeline import evaluate_series, make_eval
from delayrc.reservoir import ReservoirConfig
from delayrc.tasks import (
    encode_multiplexed,
    gen_narma10,
    gen_synthetic_vowels,
    split_from_tags,
    split_train_test,
)

PARAMS = {"rho": 0.19, "G": 0.39, "Phi0": 0.67 * np.pi,
          "tau_over_T": 0.27, "lam": 1.4e-3}


def test_make_eval_rejects_unknown_task():
    with pytest.raises(ConfigurationError):
        make_eval("xor")


def test_eval_result_fields():
    ev = make_eval("narma10", options={"length": 600, "washout": 20})
    res = ev(PARAMS, data_seed=0)
    assert np.isfinite(res.nmse_train)
    assert np.isfinite(res.nmse_test)
    assert res.nrmse_test == pytest.approx(np.sqrt(res.nmse_test))
    assert res.wer is None
    assert res.weights.matrix.shape == (1, 50)
    assert res.y_hat.shape == (1, 600)
    assert res.cfg.sample_delay == 14


def test_eval_vowels_reports_wer():
    ev = make_eval("vowels", options={"n_per_class": 6, "washout": 4})
    res = ev(PARAMS, data_seed=0)
    assert res.wer is not None
    assert 0.0 <= res.wer <= 1.0


def test_data_seed_changes_series_not_structure():
    ev = make_eval("narma10", options={"length": 600, "washout": 20})
    a = ev(PARAMS, data_seed=0)
    b = ev(PARAMS, data_seed=1)
    assert not np.array_equal(a.series.u, b.series.u)
    assert a.y_hat.shape == b.y_hat.shape
    again = ev(PARAMS, data_seed=0)
    assert np.array_equal(a.y_hat, again.y_hat)


def test_cached_data_matches_fresh_closures():
    opts = {"length": 600, "washout": 20}
    ev = make_eval("narma10", options=opts)
    for seed in (0, 1, 0):
        a = ev(PARAMS, data_seed=seed)
        b = make_eval("narma10", options=opts)(PARAMS, data_seed=seed)
        assert np.array_equal(a.series.u, b.series.u)
        assert np.array_equal(a.y_hat, b.y_hat)
        assert (a.nmse_train, a.nmse_test) == (b.nmse_train, b.nmse_test)


def test_shared_vowel_data_is_read_only():
    # the utterances are read once per evaluator and shared by every call
    ev = make_eval("vowels", options={"n_per_class": 4, "washout": 4})
    res = ev(PARAMS, data_seed=0)
    assert ev(PARAMS, data_seed=1).series is res.series
    for a in (res.series.u, res.series.y, res.split.train.steps,
              res.split.test.steps):
        with pytest.raises(ValueError):
            a[0] = 0


def test_washout_larger_than_part_rejected():
    series = gen_narma10(300, seed=0)
    split = split_train_test(series, 0.5, seed=0, unit="step-block")
    cfg = ReservoirConfig(k=10, rho=0.5, G=0.5, Phi0=0.3, tau=10.0)
    with pytest.raises(ConfigurationError):
        evaluate_series(series, cfg, 1e-4, split, part_washout=200)


def test_washout_steps_are_excluded_from_training():
    # an extreme washout leaves almost nothing; scores must still be finite
    # and computed over the reduced step set
    series = gen_narma10(400, seed=0)
    split = split_train_test(series, 0.5, seed=0, unit="step-block")
    cfg = ReservoirConfig(k=10, rho=0.5, G=0.5, Phi0=0.3, tau=10.0)
    r_small = evaluate_series(series, cfg, 1e-4, split, part_washout=10)
    r_big = evaluate_series(series, cfg, 1e-4, split, part_washout=150)
    assert np.isfinite(r_big.nmse_test)
    # different scoring sets give different numbers
    assert r_small.nmse_test != r_big.nmse_test


def test_split_from_tags_follows_sample_splits():
    samples = gen_synthetic_vowels(4, seed=0)
    series = encode_multiplexed(samples, 9)
    split = split_from_tags(series)
    tags = series.meta["splits"]
    for (a, b, _), tag in zip(series.segments, tags):
        part = split.train if tag == "train" else split.test
        assert part.steps[a:b].all()
    n_train = sum(1 for t in tags if t == "train")
    assert len(split.train.segments) == n_train
    assert len(split.test.segments) == len(tags) - n_train
