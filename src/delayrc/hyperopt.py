"""Hyperparameter search over the five reservoir tunables (input scaling,
gain, phase bias, delay ratio, ridge constant): uniform and
Parzen-density suggestion, study persistence, and the delay-resonance sweep.

A study's objective is deterministic (fixed data seed), so re-running a
study with the same seeds reproduces every trial; suggestion randomness is
keyed by (sampler seed, trial id) which also makes interrupted studies
resumable without drift.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import pipeline
from ._csvio import write_atomic
from .exceptions import ConfigurationError

__all__ = [
    "SearchSpace", "Trial", "Study", "SweepRow",
    "tpe_suggest", "run_study", "locked_study", "resonance_sweep",
    "save_study", "load_study", "sweep_to_rows",
]

logger = logging.getLogger("delayrc.hyperopt")

DIMS = ("rho", "G", "Phi0", "tau_over_T", "lam")
_LOG_DIMS = ("lam",)          # sampled and modeled in log10 space
_LOW_OPEN = ("G", "tau_over_T")   # lower bound excluded
# a study's cost grows as its budget squared: each suggestion reads all trials
MAX_BUDGET = 10_000
MAX_REPEATS = 1_000   # data seeds of a sweep
# a suggestion's density temporaries hold (trials in the good or bad set)
# x n_candidates doubles: the bad set of a MAX_BUDGET study at the default
# gamma takes 60 MB at this bound (80 MB as gamma nears 0)
MAX_CANDIDATES = 1_000


@dataclass(frozen=True)
class SearchSpace:
    rho: tuple = (0.0, 1.0)
    G: tuple = (0.0, 1.2)
    Phi0: tuple = (0.0, math.pi)
    tau_over_T: tuple = (0.0, 5.0)
    lam: tuple = (1e-8, 1.0)

    def __post_init__(self):
        for name in DIMS:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigurationError(
                    f"bounds of {name} must be finite, got ({lo}, {hi})")
            if not hi > lo:
                raise ConfigurationError(f"empty interval for {name}: ({lo}, {hi})")
        if self.lam[0] <= 0:
            raise ConfigurationError("lam interval must be positive (log sampling)")

    def sample(self, rng) -> dict:
        out = {}
        for name in DIMS:
            lo, hi = getattr(self, name)
            if name in _LOG_DIMS:
                out[name] = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
            elif name in _LOW_OPEN:
                # draw on (lo, hi]: reflect the half-open uniform
                out[name] = hi - (hi - lo) * rng.random()
            else:
                out[name] = rng.uniform(lo, hi)
        return out

    def contains(self, params: dict) -> bool:
        for name in DIMS:
            lo, hi = getattr(self, name)
            v = params[name]
            if not (lo <= v <= hi) or (name in _LOW_OPEN and v == lo):
                return False
        return True

    def as_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in DIMS}

    @classmethod
    def from_dict(cls, d) -> "SearchSpace":
        return cls(**{name: tuple(d[name]) for name in DIMS})


@dataclass
class Trial:
    trial_id: int
    params: dict
    loss: float | None
    seed: int
    status: str = "ok"
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class Study:
    space: SearchSpace
    objective: dict
    sampler_seed: int
    trials: list = field(default_factory=list)

    def ok_trials(self) -> list:
        return [t for t in self.trials if t.ok]

    @property
    def best(self) -> Trial | None:
        ok = self.ok_trials()
        return min(ok, key=lambda t: t.loss) if ok else None


def _run_objective(objective, params, trial_id, seed, record_timing):
    t0 = time.perf_counter() if record_timing else 0.0
    try:
        loss = float(objective(params))
        status = "ok"
        if not np.isfinite(loss):
            loss, status = None, "failed:non-finite loss"
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # recorded, never aborts the study
        loss, status = None, f"failed:{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0 if record_timing else 0.0
    return Trial(trial_id=trial_id, params=params, loss=loss, seed=seed,
                 status=status, wall_time=wall)


def _kde_logpdf(x, centers, bw):
    z = (x - centers[:, None]) / bw
    dens = np.mean(np.exp(-0.5 * z * z), axis=0) / (bw * math.sqrt(2 * math.pi))
    return np.log(np.maximum(dens, 1e-300))


def _to_model_space(name, v):
    return np.log10(v) if name in _LOG_DIMS else np.asarray(v, dtype=float)


def _check_tpe_options(n_startup, gamma, n_candidates):
    """Refuse tpe_suggest options it cannot draw with."""
    if n_startup < 1:
        raise ConfigurationError(f"n_startup must be >= 1, got {n_startup}")
    if not 1 <= n_candidates <= MAX_CANDIDATES:
        raise ConfigurationError(
            f"n_candidates must be in [1, {MAX_CANDIDATES}], got {n_candidates}")
    if not 0 < gamma <= 1:   # also false for nan
        raise ConfigurationError(f"gamma must be in (0, 1], got {gamma!r}")


def tpe_suggest(study: Study, gamma: float = 0.25, n_candidates: int = 24,
                rng=None, n_startup: int = 20) -> dict:
    """Parzen-density suggestion in the space of study: split its past
    trials at the gamma loss quantile, model each parameter with Gaussian
    kernel densities over the good and bad sets, and return the candidate
    with the best density ratio.

    Falls back to a uniform draw while fewer than n_startup trials exist or
    when the history is degenerate (all losses identical).
    """
    _check_tpe_options(n_startup, gamma, n_candidates)
    rng = np.random.default_rng() if rng is None else rng
    ok = [t for t in study.trials if t.ok and t.loss is not None]
    if len(ok) < n_startup:
        return study.space.sample(rng)
    losses = np.array([t.loss for t in ok])
    if np.all(losses == losses[0]):
        logger.debug("degenerate history (all losses equal), uniform draw")
        return study.space.sample(rng)
    n_good = max(2, math.ceil(gamma * len(ok)))
    order = np.argsort(losses, kind="stable")
    good = [ok[i] for i in order[:n_good]]
    bad = [ok[i] for i in order[n_good:]] or good

    cand = np.empty((n_candidates, len(DIMS)))
    score = np.zeros(n_candidates)
    for j, name in enumerate(DIMS):
        lo, hi = getattr(study.space, name)
        if name in _LOG_DIMS:
            lo, hi = math.log10(lo), math.log10(hi)
        g = _to_model_space(name, np.array([t.params[name] for t in good]))
        b = _to_model_space(name, np.array([t.params[name] for t in bad]))
        floor = 0.01 * (hi - lo)

        def bandwidth(v):
            if v.size < 2:
                return floor
            s = float(np.std(v, ddof=1))
            return max(s * v.size ** (-0.2), floor)

        bw_g, bw_b = bandwidth(g), bandwidth(b)
        centers = g[rng.integers(0, g.size, n_candidates)]
        draws = np.clip(centers + rng.normal(0.0, bw_g, n_candidates), lo, hi)
        score += _kde_logpdf(draws, g, bw_g) - _kde_logpdf(draws, b, bw_b)
        cand[:, j] = draws
    best = cand[int(np.argmax(score))]
    params = {}
    for j, name in enumerate(DIMS):
        v = 10.0 ** best[j] if name in _LOG_DIMS else float(best[j])
        lo, hi = getattr(study.space, name)
        if name in _LOW_OPEN and v <= lo:
            v = lo + 1e-12 * (hi - lo)
        params[name] = float(min(max(v, lo), hi))
    return params


def _suggest(study: Study, trial_id):
    """The params of trial trial_id, drawn by the sampler its header
    (study.objective) names, with the options it holds."""
    rng = np.random.default_rng([study.sampler_seed, trial_id])
    head = study.objective
    if head["sampler"] == "random":
        return study.space.sample(rng)
    return tpe_suggest(study, gamma=head["gamma"], rng=rng,
                       n_candidates=head["n_candidates"],
                       n_startup=head["n_startup"])


def _search(study: Study, objective, budget: int,
            record_timing: bool = False, path=None):
    """Run trials on objective(params) -> loss until the study holds
    budget trials, appending each to path if given. Trials run one at a
    time, and trial i draws from trials 0..i-1, so a resumed study draws
    as an uninterrupted run would."""
    for i in range(len(study.trials), budget):
        params = _suggest(study, i)
        t = _run_objective(objective, params, i, i, record_timing)
        study.trials.append(t)
        if path is not None:
            _append_trial(path, t)
    return study


def run_study(task: str, template: dict | None = None,
              space: SearchSpace | None = None, budget: int = 1,
              seeds: dict | None = None, path=None,
              sampler: str = "tpe", n_startup: int = 20, gamma: float = 0.25,
              n_candidates: int = 24, record_timing: bool = False,
              task_options: dict | None = None, on_open=None) -> Study:
    """Optimize the five tunables on a benchmark and persist the study.

    template fixes the non-searched reservoir fields (k, beta, M, add_bias).
    seeds: {"sampler", "data", "mask"}. Missing template and seed entries
    come from pipeline.TEMPLATE_DEFAULTS and pipeline.SEED_DEFAULTS. The
    data seed is held fixed so the surrogate sees a noiseless objective.
    The sampler and its options go into the study's header, from which
    the trials read them; they are checked as tpe_suggest checks them,
    before any trial runs. So is the reservoir of the template at the
    space's upper bounds: a study in which it fails to build, or rounds
    its delay below one sample, could only fail every trial. So could one
    whose shortest delay is longer than the stream, or whose washout
    leaves one side of the split no scoring step: both are checked on the
    study's data, built once through the data function the trials use, so
    trial 0 reuses it. All of these are refused before the lock. If path
    exists the study found there is continued up to the requested budget
    (deterministically identical to an uninterrupted run), 1 to
    MAX_BUDGET trials. The study is written to path once, whole, when it
    opens, so a file torn by a crash is mended before any append. While
    it runs, the study holds a lock on the directory of path, and a
    second study on that directory raises ConfigurationError instead of
    interleaving its appends. on_open, if given, is called with no
    arguments once the lock is held and the setup checked, before the
    first trial runs.
    """
    if not 1 <= budget <= MAX_BUDGET:
        raise ConfigurationError(f"budget must be in [1, {MAX_BUDGET}], got {budget}")
    if sampler not in ("tpe", "random"):
        raise ConfigurationError(f"sampler must be tpe or random, got {sampler!r}")
    _check_tpe_options(n_startup, gamma, n_candidates)
    space = space or SearchSpace()
    seeds = {**pipeline.SEED_DEFAULTS, **(seeds or {})}
    template = {**pipeline.TEMPLATE_DEFAULTS, **(template or {})}
    top = pipeline.reservoir_config(
        template, {name: getattr(space, name)[1] for name in DIMS},
        seeds["mask"])
    if top.sample_delay < 1:
        raise ConfigurationError(
            f"tau_over_T up to {space.tau_over_T[1]!r} rounds to sample "
            f"delay {top.sample_delay} < 1 at k={top.k}: every trial would fail")
    eval_fn = pipeline.make_eval(task, template, seeds["mask"], task_options)
    series, split = eval_fn.data(seeds["data"])
    # trial delays round from tau_over_T * k samples (theta = 1), none below
    # the lower bound's; that bound may be 0, which builds no config
    shortest = round(space.tau_over_T[0] * top.k)
    if shortest > series.n_steps * top.k:
        raise ConfigurationError(
            f"tau_over_T from {space.tau_over_T[0]!r} gives sample delays "
            f"of {shortest} or more, longer than the stream "
            f"({series.n_steps} cycles of k={top.k} samples): every trial "
            f"would fail")
    pipeline.scoring_masks(series, split, eval_fn.washout)

    descriptor = {"task": task, "template": template, "seeds": seeds,
                  "sampler": sampler, "n_startup": n_startup, "gamma": gamma,
                  "n_candidates": n_candidates,
                  "task_options": dict(task_options or {})}
    # canonicalize through JSON so tuples compare equal after a reload
    descriptor = json.loads(_json(descriptor))
    with locked_study(path):
        if path is not None and os.path.exists(path):
            study = load_study(path)
            if study.objective != descriptor or study.space != space:
                raise ConfigurationError(
                    f"existing study at {path} was run with a different setup")
        else:
            study = Study(space=space, objective=descriptor,
                          sampler_seed=seeds["sampler"])
        if path is not None:
            save_study(study, path)
        if on_open is not None:
            on_open()
        return _search(
            study, lambda params: eval_fn(params, seeds["data"]).nmse_test,
            budget, record_timing=record_timing, path=path)


@contextlib.contextmanager
def locked_study(path):
    """Hold an exclusive lock for the study file at path (None: no lock),
    or raise ConfigurationError at once if another process holds it.

    The lock is a flock on the file's directory, not on the file:
    save_study replaces the file, and a lock on the old inode would not
    exclude a writer that opens the new one. Locking writes nothing, so
    the directory's contents stay as they are.
    """
    if path is None:
        yield
        return
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    fd = os.open(folder, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigurationError(
                f"study {path} is in use: another study holds the lock on "
                f"{folder}") from None
        yield
    finally:
        os.close(fd)   # releases the lock


@dataclass(frozen=True)
class SweepRow:
    tau_over_T: float
    d: int
    nmse_mean: float
    nmse_std: float
    repeats: int


# bytes the states of one lockstep group of a delay sweep may take: the
# repeats are driven in groups of as many rows as fit (at least one): the
# five default sine_square seeds (474k-544k samples, 3.8-4.4 MB each) run
# as 3 + 2. More rows run faster per row, but each adds its states to the
# sweep's peak memory: with three, a default sweep peaks at 75.5 MB
# against 71.0 MB one row at a time (2-core x86 host; BENCH_6.json)
_LOCKSTEP_BYTES = 16 * 2**20


def _lockstep_groups(data, data_seeds, k):
    """Consecutive groups of (series, split) of the data seeds, each
    holding as many as fit _LOCKSTEP_BYTES: the recursion keeps rows x
    samples, a row being n_steps * k samples of the group's longest
    stream. A series is built once, just before it joins."""
    group, w = [], 0
    for seed in data_seeds:
        series, split = data(seed)
        n = series.n_steps * k
        grown = max(w, n)
        if group and (len(group) + 1) * grown * 8 > _LOCKSTEP_BYTES:
            yield group
            group, grown = [], n
        group.append((series, split))
        w = grown
    yield group


def resonance_sweep(task: str, base_params: dict, tau_over_T_grid,
                    repeats: int = 5, template: dict | None = None,
                    seeds: dict | None = None,
                    task_options: dict | None = None) -> list[SweepRow]:
    """NMSE versus delay-to-clock ratio with all other tunables held fixed.

    Every grid value is configured before any series is built. Values
    whose configs share a sample delay d are collapsed: the first value
    for each d is kept, so the rows may be fewer than the grid values.
    Statistics are over `repeats` data seeds (seeds["data"] + r), 1 to
    MAX_REPEATS. Each seed's series is built once. At each d the seeds run
    in lockstep (pipeline.evaluate_rows), in groups whose states fit
    _LOCKSTEP_BYTES.
    """
    grid = [float(v) for v in tau_over_T_grid]
    if not grid:
        raise ConfigurationError("tau_over_T grid is empty")
    if not all(map(math.isfinite, grid)):
        raise ConfigurationError(
            f"tau_over_T grid values must be finite, got {grid}")
    if not 1 <= repeats <= MAX_REPEATS:
        raise ConfigurationError(f"repeats must be in [1, {MAX_REPEATS}], got {repeats}")
    seeds = {**pipeline.SEED_DEFAULTS, **(seeds or {})}
    t, o, data = pipeline.task_setup(task, template, task_options)
    kept = {}                          # d -> (first grid value, its config)
    for v in grid:
        cfg = pipeline.reservoir_config(t, {**base_params, "tau_over_T": v},
                                        seeds["mask"])
        kept.setdefault(cfg.sample_delay, (v, cfg))
    losses = {d: [] for d in kept}
    data_seeds = range(seeds["data"], seeds["data"] + repeats)
    for group in _lockstep_groups(data, data_seeds, t["k"]):
        for d, (_, cfg) in kept.items():
            for res in pipeline.evaluate_rows(group, cfg, base_params["lam"],
                                              o["washout"], t["add_bias"]):
                losses[d].append(res.nmse_test)
    return [SweepRow(v, d, float(np.mean(losses[d])),
                     float(np.std(losses[d])), repeats)
            for d, (v, _) in kept.items()]


def sweep_to_rows(rows):
    """SweepRow list -> plain rows for CSV emission."""
    for r in rows:
        yield [r.tau_over_T, r.d, r.nmse_mean, r.nmse_std, r.repeats]


# -------------------------------------------------------------- persistence

_FORMAT_VERSION = 1


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _trial_record(t: Trial) -> dict:
    return {"record": "trial", "trial_id": t.trial_id, "params": t.params,
            "loss": t.loss, "seed": t.seed, "status": t.status,
            "wall_time": t.wall_time}


def _finite(v) -> bool:
    return type(v) is float and math.isfinite(v)


def _trial(rec) -> Trial:
    """The Trial of a study-file record, which must hold what _trial_record
    writes: int trial_id and seed, the five DIMS as finite floats, status
    "ok" with a finite loss or "failed:..." with none, and a finite
    wall_time. Anything else raises ValueError naming it."""
    if not isinstance(rec, dict) or rec.get("record") != "trial":
        raise ValueError("not a trial record")
    if set(rec) != set(_trial_record(Trial(0, {}, None, 0))):
        raise ValueError(f"a trial record holds keys {sorted(rec)}")
    for name in ("trial_id", "seed"):
        if type(rec[name]) is not int:
            raise ValueError(f"{name} must be an integer, got {rec[name]!r}")
    params, loss, status = rec["params"], rec["loss"], rec["status"]
    if not (isinstance(params, dict) and set(params) == set(DIMS)
            and all(map(_finite, params.values()))):
        raise ValueError(f"params must hold {', '.join(DIMS)} as finite "
                         f"floats, got {params!r}")
    if not (status == "ok" and _finite(loss)
            or isinstance(status, str) and status.startswith("failed:")
            and loss is None):
        raise ValueError(f"status {status!r} with loss {loss!r}: an ok "
                         "trial has a finite loss, a failed one none")
    if not _finite(rec["wall_time"]):
        raise ValueError(f"wall_time must be a finite float, got "
                         f"{rec['wall_time']!r}")
    return Trial(trial_id=rec["trial_id"], params=params, loss=loss,
                 seed=rec["seed"], status=status, wall_time=rec["wall_time"])


def save_study(study: Study, path):
    """Line-delimited persistence: one header record, then one trial per
    line in trial-id order. Written through write_atomic, so a crash
    leaves either the old file or the new one."""
    def fill(fh):
        fh.write(_json({"record": "header",
                        "format_version": _FORMAT_VERSION,
                        "space": study.space.as_dict(),
                        "objective": study.objective,
                        "sampler_seed": study.sampler_seed}) + "\n")
        for t in study.trials:
            fh.write(_json(_trial_record(t)) + "\n")
    write_atomic(path, fill)


def _append_trial(path, t: Trial):
    with open(path, "a") as fh:
        fh.write(_json(_trial_record(t)) + "\n")


def load_study(path) -> Study:
    """Read a study file. A torn final trial line (one cut short by a crash
    during an append) is dropped: suggestions are keyed by trial id, so
    that trial runs again with the same result. Any other unreadable line,
    or a trial record that holds other than what save_study writes,
    raises ConfigurationError naming the line."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if len(lines) > 1 and not text.endswith("\n"):
        lines.pop()
    lines = [(n, ln) for n, ln in enumerate(lines, 1) if ln.strip()]
    if not lines:
        raise ConfigurationError(f"empty study file: {path}")
    n = lines[0][0]
    try:
        head = json.loads(lines[0][1])
        if head.get("record") != "header":
            raise ConfigurationError(f"{path} does not start with a study header")
        if head.get("format_version") != _FORMAT_VERSION:
            raise ConfigurationError(f"{path} is not a version "
                                     f"{_FORMAT_VERSION} study file")
        study = Study(space=SearchSpace.from_dict(head["space"]),
                      objective=head["objective"],
                      sampler_seed=head["sampler_seed"])
        for n, ln in lines[1:]:
            study.trials.append(_trial(json.loads(ln)))
    except ConfigurationError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            f"corrupt study file {path}, line {n}: {type(exc).__name__}: "
            f"{exc}") from None
    expected = list(range(len(study.trials)))
    if [t.trial_id for t in study.trials] != expected:
        raise ConfigurationError(f"study file {path} has non-contiguous trial ids")
    return study
