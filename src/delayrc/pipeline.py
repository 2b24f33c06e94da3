"""End-to-end evaluation: reservoir run, ridge training and scoring of
the data that tasks builds and splits. Everything downstream (CLI,
hyperparameter search, sweeps) funnels through evaluate_rows
(evaluate_series is its one-row case), so recursion, fit and score and
their train/test bookkeeping live in exactly one place."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tasks
from .exceptions import ConfigurationError
from .readout import classify_sequences, nmse, nrmse, predict, train_ridge
from .reservoir import ReservoirConfig, check_stream_samples, run_reservoir_rows
from .tasks import LabeledSeries, Split

__all__ = [
    "EvalResult", "evaluate_series", "evaluate_rows", "fit_and_score",
    "make_eval",
    "TASK_DEFAULTS", "TASK_IDS", "TEMPLATE_DEFAULTS", "SEED_DEFAULTS",
]

# Experiment defaults, written once: make_eval, run_study, resonance_sweep
# and the CLI schema read them from here. washout is the number of leading
# steps of each scoring span left out of fitting and scoring.
TASK_DEFAULTS = {
    "sine_square": dict(n_waveforms=20, samples_per_period=(3, 5),
                        periods_per_waveform=128, fraction=0.5, washout=10),
    "narma10": dict(length=8000, fraction=0.5, washout=100),
    "vowels": dict(n_per_class=40, synthetic_seed=0, path=None, washout=12),
}
TASK_IDS = tuple(TASK_DEFAULTS)
# the reservoir and readout fields a study does not search
TEMPLATE_DEFAULTS = dict(k=50, beta=ReservoirConfig.beta, M=ReservoirConfig.M,
                         add_bias=False)
SEED_DEFAULTS = dict(sampler=0, data=0, mask=0)


@dataclass
class EvalResult:
    nmse_train: float
    nmse_test: float
    nrmse_test: float
    wer: float | None
    weights: object
    y_hat: np.ndarray
    series: LabeledSeries
    split: Split
    cfg: ReservoirConfig


def scoring_masks(series: LabeledSeries, split: Split, washout: int):
    """The train and test steps that are fitted and scored: each side's
    steps less the first `washout` steps of every segment (or of every
    contiguous block when there are no segments), which still carry state
    from the previous span and have ambiguous targets. Raises
    ConfigurationError where that leaves one side no step."""
    masks = []
    for side in (split.train, split.test):
        m = side.steps.copy()
        if washout > 0 and series.segments:
            for a, b, _ in series.segments:
                m[a:min(a + washout, b)] = False
        elif washout > 0:
            for s in np.flatnonzero(m & ~np.concatenate(([False], m[:-1]))):
                m[s:s + washout] = False
        masks.append(m)
    if not all(m.any() for m in masks):
        raise ConfigurationError(
            f"washout={washout} removed all scoring steps on one side")
    return masks


def evaluate_series(series: LabeledSeries, cfg: ReservoirConfig, lam: float,
                    split: Split, part_washout: int = 0,
                    add_bias: bool = False) -> EvalResult:
    """evaluate_rows on the one row (series, split)."""
    return evaluate_rows([(series, split)], cfg, lam, part_washout,
                         add_bias)[0]


def evaluate_rows(group, cfg: ReservoirConfig, lam: float,
                  part_washout: int = 0,
                  add_bias: bool = False) -> list[EvalResult]:
    """Run the reservoir over the whole stream of every (series, split) of
    group in one lockstep recursion (run_reservoir_rows), fit each on its
    train side and score both sides.

    The states keep one column per series step. Transients are dropped in
    one place, the scoring masks: the first part_washout steps of each
    scored span are left out of fitting and scoring.
    """
    states = run_reservoir_rows([series.u for series, _ in group], cfg)
    return [fit_and_score(X, series, cfg, lam, split, part_washout, add_bias)
            for X, (series, split) in zip(states, group)]


def fit_and_score(X, series: LabeledSeries, cfg: ReservoirConfig, lam: float,
                  split: Split, part_washout: int = 0,
                  add_bias: bool = False) -> EvalResult:
    """Fit the readout on the train side of the k x N states X of series
    (one column per step) and score both sides."""
    tr, te = scoring_masks(series, split, part_washout)
    w = train_ridge(X[:, tr], series.y[:, tr], lam, add_bias=add_bias)
    y_hat = predict(w, X)
    wer = None
    if series.y.shape[0] >= 2 and split.test.segments:
        spans = [(min(a + part_washout, b - 1), b, c)
                 for a, b, c in split.test.segments]
        _, wer = classify_sequences(y_hat, spans)
    return EvalResult(
        nmse_train=nmse(series.y[:, tr], y_hat[:, tr]),
        nmse_test=nmse(series.y[:, te], y_hat[:, te]),
        nrmse_test=nrmse(series.y[:, te], y_hat[:, te]),
        wer=wer, weights=w, y_hat=y_hat, series=series, split=split, cfg=cfg)


def _last_seed_cached(data):
    """Wrap data(seed) to keep the (series, split) of the last seed asked
    for. A study holds one data seed, so it builds its series once; one
    entry bounds what a sweep over many seeds keeps. Every call on that
    seed shares the arrays, so they are made read-only."""
    @functools.lru_cache(maxsize=1)
    def cached(seed):
        series, split = data(seed)
        for a in (series.u, series.y, split.train.steps, split.test.steps):
            a.setflags(write=False)
        return series, split
    return cached


def task_setup(task: str, template: dict | None = None,
               options: dict | None = None):
    """(template, options, data(seed)) of a benchmark id: template and
    options override TEMPLATE_DEFAULTS and the task's TASK_DEFAULTS entry.
    The washout and the stream size (against MAX_STREAM_SAMPLES) are
    checked before any data is built; data(seed) is _last_seed_cached."""
    if task not in TASK_DEFAULTS:
        raise ConfigurationError(f"unknown task {task!r}, expected one of {TASK_IDS}")
    t = {**TEMPLATE_DEFAULTS, **(template or {})}
    o = {**TASK_DEFAULTS[task], **(options or {})}
    if o["washout"] < 0:
        raise ConfigurationError(f"washout must be >= 0, got {o['washout']}")
    check_stream_samples(tasks.max_cycles(task, o) * t["k"], f"task {task}")
    return t, o, _last_seed_cached(tasks.task_data(task, o))


def reservoir_config(t: dict, params: dict, mask_seed: int) -> ReservoirConfig:
    """The reservoir of a template t and the tunables in params."""
    return ReservoirConfig.from_ratio(
        k=t["k"], rho=params["rho"], G=params["G"], Phi0=params["Phi0"],
        tau_over_T=params["tau_over_T"], beta=t["beta"], M=t["M"],
        mask_seed=mask_seed)


def make_eval(task: str, template: dict | None = None, mask_seed: int = 0,
              options: dict | None = None):
    """Build eval_fn(params, data_seed) -> EvalResult for a benchmark id.

    params carries the five tunables: rho, G, Phi0, tau_over_T, lam.
    template and options override TEMPLATE_DEFAULTS and the task's
    TASK_DEFAULTS entry; the data is task_setup's. eval_fn.data is that
    data(seed) and eval_fn.washout the part washout, so a caller can check
    the data before it evaluates, without building it twice.
    """
    t, o, data = task_setup(task, template, options)

    def eval_fn(params, data_seed):
        series, split = data(data_seed)
        cfg = reservoir_config(t, params, mask_seed)
        return evaluate_series(series, cfg, params["lam"], split,
                               part_washout=o["washout"],
                               add_bias=t["add_bias"])
    eval_fn.data, eval_fn.washout = data, o["washout"]
    return eval_fn
