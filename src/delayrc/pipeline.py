"""End-to-end evaluation: data generation, reservoir run, ridge training
and scoring. Everything downstream (CLI, hyperparameter search, sweeps)
funnels through evaluate_rows (evaluate_series is its one-row case), so
mask, recursion, fit and score and their train/test bookkeeping live in
exactly one place."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import tasks
from .exceptions import ConfigurationError
from .readout import classify_sequences, nmse, nrmse, predict, train_ridge
from .reservoir import (ReservoirConfig, check_stream_samples, make_input_mask,
                        run_reservoir_rows)
from .tasks import LabeledSeries, Split, SplitPart

__all__ = [
    "EvalResult", "evaluate_series", "evaluate_rows", "fit_and_score",
    "split_from_tags", "make_eval",
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


def _scoring_mask(side: SplitPart, series: LabeledSeries, washout: int):
    """Drop the first `washout` steps of every segment (or of every
    contiguous block when there are no segments): those steps still carry
    state from the previous span and have ambiguous targets."""
    m = side.steps.copy()
    if washout <= 0:
        return m
    if series.segments:
        for a, b, _ in series.segments:
            m[a:min(a + washout, b)] = False
    else:
        starts = np.flatnonzero(m & ~np.concatenate(([False], m[:-1])))
        for s in starts:
            m[s:s + washout] = False
    return m


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

    The reservoir is run with washout_cycles forced to 0 so state columns
    stay aligned one-to-one with series steps; transient suppression is the
    per-part washout applied to the scoring masks instead.
    """
    cfg0 = replace(cfg, washout_cycles=0)
    mask = make_input_mask(cfg0.k, cfg0.mask_seed)
    states = run_reservoir_rows([series.u for series, _ in group], cfg0,
                                mask)
    return [fit_and_score(X.entries, series, cfg0, lam, split, part_washout,
                          add_bias)
            for X, (series, split) in zip(states, group)]


def fit_and_score(X, series: LabeledSeries, cfg: ReservoirConfig, lam: float,
                  split: Split, part_washout: int = 0,
                  add_bias: bool = False) -> EvalResult:
    """Fit the readout on the train side of the k x N states X of series
    (one column per step) and score both sides."""
    tr = _scoring_mask(split.train, series, part_washout)
    te = _scoring_mask(split.test, series, part_washout)
    if not tr.any() or not te.any():
        raise ConfigurationError("washout removed all scoring steps on one side")
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


def split_from_tags(series: LabeledSeries) -> Split:
    """Split segments by the train/test tags recorded at encoding time."""
    tags = series.meta.get("splits")
    if not tags or not series.segments:
        raise ConfigurationError("series carries no split tags")
    n = series.n_steps
    tr_mask = np.zeros(n, dtype=bool)
    tr_segs, te_segs = [], []
    for tag, seg in zip(tags, series.segments):
        if tag == "train":
            tr_mask[seg[0]:seg[1]] = True
            tr_segs.append(seg)
        else:
            te_segs.append(seg)
    if not tr_segs or not te_segs:
        raise ConfigurationError("split tags put every sequence on one side")
    return Split(SplitPart(steps=tr_mask, segments=tuple(tr_segs)),
                 SplitPart(steps=~tr_mask, segments=tuple(te_segs)))


def _max_cycles(task: str, o: dict) -> int:
    """The most input steps the task's options can give, known before any
    data is built; 0 for a vowel file, whose size is known once read."""
    if task == "sine_square":
        return (o["n_waveforms"] * o["samples_per_period"][1]
                * o["periods_per_waveform"])
    if task == "narma10":
        return o["length"]
    if o["path"]:
        return 0
    return (o["n_per_class"] * tasks.N_VOWEL_SPEAKERS
            * (tasks.SYNTHETIC_FRAMES[1] - 1) * tasks.N_VOWEL_CHANNELS)


def _task_data(task: str, o: dict):
    """data(seed) -> (series, split) for one benchmark and its options."""
    if task == "sine_square":
        def data(seed):
            series = tasks.gen_sine_square(
                o["n_waveforms"], o["samples_per_period"],
                o["periods_per_waveform"], seed=seed)
            return series, tasks.split_train_test(series, o["fraction"],
                                                  seed=seed, unit="segment")
        return data

    if task == "narma10":
        def data(seed):
            series = tasks.gen_narma10(o["length"], seed=seed)
            return series, tasks.split_train_test(series, o["fraction"],
                                                  seed=seed, unit="step-block")
        return data

    if o["path"]:
        samples = tasks.load_japanese_vowels(o["path"])
    else:
        samples = tasks.gen_synthetic_vowels(o["n_per_class"],
                                             seed=o["synthetic_seed"])
    series = tasks.encode_multiplexed(samples, tasks.N_VOWEL_SPEAKERS)
    split = split_from_tags(series)
    # the seed is ignored: the utterance set is fixed
    return lambda seed: (series, split)


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
    check_stream_samples(_max_cycles(task, o) * t["k"], f"task {task}")
    return t, o, _last_seed_cached(_task_data(task, o))


def reservoir_config(t: dict, params: dict, mask_seed: int) -> ReservoirConfig:
    """The reservoir of a template t and the tunables in params."""
    return ReservoirConfig.from_ratio(
        k=t["k"], rho=params["rho"], G=params["G"], Phi0=params["Phi0"],
        tau_over_T=params["tau_over_T"], beta=t["beta"], M=t["M"],
        washout_cycles=0, mask_seed=mask_seed)


def make_eval(task: str, template: dict | None = None, mask_seed: int = 0,
              options: dict | None = None):
    """Build eval_fn(params, data_seed) -> EvalResult for a benchmark id.

    params carries the five tunables: rho, G, Phi0, tau_over_T, lam.
    template and options override TEMPLATE_DEFAULTS and the task's
    TASK_DEFAULTS entry. Vowel data (real file or synthetic) is prepared
    once at closure creation, not per call; other series are built on the
    first call with a data seed and kept until a call with another seed.
    """
    t, o, data = task_setup(task, template, options)

    def eval_fn(params, data_seed):
        series, split = data(data_seed)
        cfg = reservoir_config(t, params, mask_seed)
        return evaluate_series(series, cfg, params["lam"], split,
                               part_washout=o["washout"],
                               add_bias=t["add_bias"])
    return eval_fn
