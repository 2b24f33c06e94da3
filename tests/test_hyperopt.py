"""Search space, samplers, study persistence, delay sweep."""

import fcntl
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from delayrc import hyperopt, pipeline, tasks
from delayrc.exceptions import ConfigurationError
from delayrc.hyperopt import (
    SearchSpace,
    Study,
    Trial,
    load_study,
    resonance_sweep,
    run_study,
    save_study,
    tpe_suggest,
)


def quad_objective(params):
    # separable bowl with the optimum inside the box
    return ((params["rho"] - 0.3) ** 2
            + (params["G"] - 0.7) ** 2
            + 0.1 * (params["Phi0"] - 1.0) ** 2
            + 0.05 * (params["tau_over_T"] - 2.0) ** 2
            + 0.01 * (math.log10(params["lam"]) + 4) ** 2)


def search(objective, space, n_trials, seed=0, sampler="random"):
    # the study driver behind run_study, on a plain objective; the sampler,
    # its seed and its options are read from the study's header
    study = Study(space=space, objective={
        "seeds": {"sampler": seed}, "sampler": sampler, "n_startup": 20,
        "gamma": 0.25, "n_candidates": 24})
    return hyperopt._search(study, objective, n_trials)


def history(space, trials):
    return Study(space=space, objective={}, trials=trials)


# ------------------------------------------------------------------ space

def test_space_samples_stay_in_box():
    space = SearchSpace()
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        p = space.sample(rng)
        assert space.contains(p)
        assert 0 <= p["rho"] <= 1
        assert 0 < p["G"] <= 1.2          # zero gain is a dead loop
        assert 0 <= p["Phi0"] <= math.pi
        assert 0 < p["tau_over_T"] <= 5
        assert 1e-8 <= p["lam"] <= 1.0


def test_space_lambda_is_log_uniform():
    space = SearchSpace()
    rng = np.random.default_rng(1)
    logs = np.array([math.log10(space.sample(rng)["lam"]) for _ in range(4000)])
    assert abs(logs.mean() - (-4.0)) < 0.15
    # roughly equal mass in each decade
    hist, _ = np.histogram(logs, bins=8, range=(-8, 0))
    assert hist.min() > 4000 / 8 * 0.75


def test_space_validation_and_roundtrip():
    with pytest.raises(ConfigurationError):
        SearchSpace(rho=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        SearchSpace(lam=(0.0, 1.0))
    for bounds in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ConfigurationError, match="finite"):
            SearchSpace(G=bounds)
    with pytest.raises(ConfigurationError, match="finite"):
        SearchSpace(lam=(1e-8, math.inf))
    s = SearchSpace(G=(0.2, 0.9))
    assert SearchSpace.from_dict(s.as_dict()) == s


# --------------------------------------------------------------- samplers

def test_random_search_finds_quadratic_optimum():
    study = search(quad_objective, SearchSpace(), 200, seed=0)
    assert len(study.trials) == 200
    best = study.best
    assert best.loss < 0.05
    assert abs(best.params["rho"] - 0.3) < 0.2
    # best-so-far trace is monotone non-increasing
    seen, best_trace = np.inf, []
    for t in study.trials:
        seen = min(seen, t.loss)
        best_trace.append(seen)
    assert all(a >= b for a, b in zip(best_trace, best_trace[1:]))


def test_random_search_is_deterministic():
    a = search(quad_objective, SearchSpace(), 10, seed=4)
    b = search(quad_objective, SearchSpace(), 10, seed=4)
    assert [t.params for t in a.trials] == [t.params for t in b.trials]
    assert [t.loss for t in a.trials] == [t.loss for t in b.trials]
    c = search(quad_objective, SearchSpace(), 10, seed=5)
    assert [t.params for t in a.trials] != [t.params for t in c.trials]


def test_tpe_falls_back_to_uniform_on_short_history():
    space = SearchSpace()
    hist = [Trial(i, space.sample(np.random.default_rng(i)), float(i))
            for i in range(3)]
    rng = np.random.default_rng(0)
    p = tpe_suggest(history(space, hist), rng=rng)
    assert space.contains(p)
    # the draw must be the plain uniform sample for that rng state
    assert p == space.sample(np.random.default_rng(0))


def test_tpe_suggestions_concentrate_near_good_region():
    space = SearchSpace()
    rng = np.random.default_rng(7)
    hist = []
    for i in range(40):
        p = space.sample(rng)
        hist.append(Trial(i, p, quad_objective(p)))
    picks = [tpe_suggest(history(space, hist), rng=np.random.default_rng(s))
             for s in range(30)]
    rho = np.array([p["rho"] for p in picks])
    base = np.array([t.params["rho"] for t in hist])
    assert np.mean(np.abs(rho - 0.3)) < np.mean(np.abs(base - 0.3))
    for p in picks:
        assert space.contains(p)


def test_tpe_study_beats_random_on_quadratic():
    space = SearchSpace()
    s_tpe = search(quad_objective, space, 70, sampler="tpe")
    s_rnd = search(quad_objective, space, 70, sampler="random")
    tail = slice(20, None)
    mean_tpe = np.mean([t.loss for t in s_tpe.trials[tail]])
    mean_rnd = np.mean([t.loss for t in s_rnd.trials[tail]])
    assert mean_tpe < mean_rnd
    assert s_tpe.best.loss <= s_rnd.best.loss


def test_failed_trials_are_recorded_not_raised():
    def explosive(params):
        if params["rho"] > 0.5:
            raise ValueError("boom")
        return params["rho"]

    study = search(explosive, SearchSpace(), 30, seed=1)
    failed = [t for t in study.trials if t.status != "ok"]
    ok = study.ok_trials()
    assert failed and ok
    assert all(t.loss is None for t in failed)
    assert all("ValueError" in t.status for t in failed)
    assert study.best.params["rho"] <= 0.5


def test_non_finite_loss_marks_failure():
    def nan_obj(params):
        return float("nan")

    study = search(nan_obj, SearchSpace(), 3, seed=0)
    assert all(t.status != "ok" for t in study.trials)
    assert study.best is None


# ------------------------------------------------------------- persistence

def test_study_roundtrip(tmp_path):
    study = search(quad_objective, SearchSpace(G=(0.1, 1.0)), 8,
                          seed=2)
    path = tmp_path / "s.jsonl"
    save_study(study, path)
    back = load_study(path)
    assert back.space == study.space
    assert back.sampler_seed == study.sampler_seed
    assert len(back.trials) == 8
    for a, b in zip(study.trials, back.trials):
        assert a.trial_id == b.trial_id
        assert a.params == b.params
        assert a.loss == b.loss
        assert a.status == b.status


def test_saved_study_reloads_to_the_same_bytes(tmp_path):
    # failed trials and recorded wall times pass load_study's record checks
    def explosive(params):
        if params["rho"] > 0.5:
            raise ValueError("boom")
        return params["rho"]

    study = search(explosive, SearchSpace(), 0, seed=1)
    hyperopt._search(study, explosive, 12, record_timing=True)
    assert {t.ok for t in study.trials} == {True, False}
    assert all(t.wall_time > 0 for t in study.trials)
    path, again = tmp_path / "s.jsonl", tmp_path / "again.jsonl"
    save_study(study, path)
    save_study(load_study(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_study_file_is_stable_jsonl(tmp_path):
    study = search(quad_objective, SearchSpace(), 3, seed=0)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_study(study, p1)
    save_study(study, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["format_version"] == 1
    assert len(lines) == 1 + 3


def test_run_study_persists_and_resumes(tmp_path):
    path = tmp_path / "study.jsonl"
    kw = dict(task="sine_square", budget=6, n_startup=3,
              seeds={"sampler": 1, "data": 0, "mask": 0},
              task_options={"n_waveforms": 4, "periods_per_waveform": 8,
                            "washout": 2})
    full = run_study(path=None, **kw)
    part = run_study(path=path, **{**kw, "budget": 3})
    assert len(part.trials) == 3
    resumed = run_study(path=path, **kw)
    assert len(resumed.trials) == 6
    assert [t.params for t in resumed.trials] == [t.params for t in full.trials]
    assert [t.loss for t in resumed.trials] == [t.loss for t in full.trials]
    back = load_study(path)
    assert [t.loss for t in back.trials] == [t.loss for t in full.trials]


def test_load_study_drops_torn_final_line_only(tmp_path):
    study = search(quad_objective, SearchSpace(), 3, seed=0)
    path = tmp_path / "s.jsonl"
    save_study(study, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-9])
    back = load_study(path)
    assert [t.params for t in back.trials] == [t.params for t in study.trials[:2]]
    lines = whole.split(b"\n")
    lines[2] = lines[2][:-9]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ConfigurationError, match="corrupt"):
        load_study(path)
    path.write_bytes(whole.replace(b'"status"', b'"state"', 1))
    with pytest.raises(ConfigurationError, match="corrupt"):
        load_study(path)


def test_load_study_refuses_other_format_versions(tmp_path):
    path = tmp_path / "s.jsonl"
    save_study(search(quad_objective, SearchSpace(), 2), path)
    whole = path.read_bytes()
    assert b'"format_version":1,' in whole
    for header in (b'"format_version":99,', b""):
        path.write_bytes(whole.replace(b'"format_version":1,', header))
        with pytest.raises(ConfigurationError, match="version 1"):
            load_study(path)


def test_save_study_replaces_file_whole(tmp_path):
    study = search(quad_objective, SearchSpace(), 2, seed=0)
    path = tmp_path / "s.jsonl"
    save_study(study, path)
    before = path.read_bytes()
    # not serializable: fails midway
    study.objective = {**study.objective, "bad": object()}
    with pytest.raises(TypeError):
        save_study(study, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]


def test_run_study_resumes_torn_file(tmp_path):
    path = tmp_path / "study.jsonl"
    kw = dict(task="sine_square", n_startup=2,
              task_options={"n_waveforms": 4, "periods_per_waveform": 8,
                            "washout": 2})
    run_study(path=tmp_path / "full.jsonl", budget=4, **kw)
    run_study(path=path, budget=3, **kw)
    whole = path.read_bytes()
    run_study(path=path, budget=3, **kw)
    assert path.read_bytes() == whole   # an intact study keeps its bytes
    path.write_bytes(whole[:-12])
    resumed = run_study(path=path, budget=4, **kw)
    assert len(resumed.trials) == 4
    assert path.read_bytes() == (tmp_path / "full.jsonl").read_bytes()


def test_run_study_writes_its_file_once_when_it_opens(tmp_path,
                                                     monkeypatch):
    path = tmp_path / "study.jsonl"
    kw = dict(task="sine_square", sampler="random",
              task_options={"n_waveforms": 4, "periods_per_waveform": 8,
                            "washout": 2})
    saved = []
    real = hyperopt.save_study

    def counting(study, p):
        saved.append(len(study.trials))
        return real(study, p)
    monkeypatch.setattr(hyperopt, "save_study", counting)
    run_study(path=path, budget=2, **kw)
    whole = path.read_bytes()
    run_study(path=path, budget=2, **kw)   # intact, nothing to run
    assert path.read_bytes() == whole
    run_study(path=path, budget=3, **kw)
    assert saved == [0, 2, 2]


def _locked_elsewhere(folder):
    """True if another open file description holds the lock on folder."""
    fd = os.open(folder, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return False
    except BlockingIOError:
        return True
    finally:
        os.close(fd)


def test_run_study_refuses_a_locked_directory(tmp_path):
    path = tmp_path / "study.jsonl"
    kw = dict(task="sine_square", n_startup=2,
              task_options={"n_waveforms": 4, "periods_per_waveform": 8,
                            "washout": 2})
    run_study(path=path, budget=2, **kw)
    whole = path.read_bytes()
    fd = os.open(tmp_path, os.O_RDONLY)   # a second open file description
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(ConfigurationError, match="in use"):
            run_study(path=path, budget=3, **kw)
        assert run_study(path=None, budget=1, **kw).trials   # no file, no lock
    finally:
        os.close(fd)
    assert path.read_bytes() == whole
    assert [p.name for p in tmp_path.iterdir()] == ["study.jsonl"]
    assert len(run_study(path=path, budget=3, **kw).trials) == 3


def test_run_study_holds_the_lock_while_it_runs(tmp_path, monkeypatch):
    held = []

    def evaluate_series(series, cfg, lam, *args):
        held.append(_locked_elsewhere(tmp_path))
        return SimpleNamespace(nmse_test=lam)
    monkeypatch.setattr(pipeline, "evaluate_series", evaluate_series)
    run_study("sine_square", budget=2, sampler="random",
              path=tmp_path / "study.jsonl")
    assert held == [True, True]
    assert not _locked_elsewhere(tmp_path)   # released when it ends


def test_run_study_builds_its_series_once(tmp_path, monkeypatch):
    # fresh or resumed, a study builds its data seed's series once and
    # scores every trial on it
    calls = []
    real = tasks.gen_narma10

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)
    monkeypatch.setattr(tasks, "gen_narma10", counting)
    kw = dict(task="narma10", sampler="random", seeds={"data": 3},
              task_options={"length": 600, "washout": 20},
              path=tmp_path / "study.jsonl")
    for budget in (3, 5):
        calls.clear()
        assert len(run_study(budget=budget, **kw).trials) == budget
        assert calls == [3]


def test_run_study_rejects_mismatched_resume(tmp_path):
    path = tmp_path / "study.jsonl"
    kw = dict(task="sine_square", budget=2, n_startup=1,
              task_options={"n_waveforms": 4, "periods_per_waveform": 8,
                            "washout": 2})
    run_study(path=path, **kw)
    with pytest.raises(ConfigurationError):
        run_study(path=path, **{**kw, "seeds": {"data": 9}})


def test_run_study_validation():
    with pytest.raises(ConfigurationError):
        run_study(task="sine_square", budget=0)
    with pytest.raises(ConfigurationError, match="must be in"):
        run_study(task="sine_square", budget=hyperopt.MAX_BUDGET + 1)
    with pytest.raises(ConfigurationError):
        run_study(task="sine_square", budget=1, sampler="grid")
    with pytest.raises(ConfigurationError):
        run_study(task="nope", budget=1)


@pytest.mark.parametrize("option", [
    {"n_startup": 0}, {"n_startup": -5}, {"n_candidates": 0},
    {"gamma": math.nan}, {"gamma": math.inf}, {"gamma": -1.0},
    {"gamma": 0.0}, {"gamma": 1.5},
])
def test_run_study_refuses_bad_tpe_options_before_any_trial(tmp_path,
                                                             option):
    path = tmp_path / "study.jsonl"
    with pytest.raises(ConfigurationError, match=next(iter(option))):
        run_study(task="sine_square", budget=3, path=path, **option)
    assert not path.exists()


@pytest.mark.parametrize("option", [
    {"n_candidates": 0}, {"gamma": math.nan}, {"n_startup": 0},
])
def test_tpe_suggest_refuses_bad_options(option):
    # four trials reach the density model at n_startup=2; n_startup=0 asks
    # for it on an empty history
    trials = ([] if "n_startup" in option
              else search(quad_objective, SearchSpace(), 4).trials)
    with pytest.raises(ConfigurationError, match=next(iter(option))):
        tpe_suggest(history(SearchSpace(), trials),
                    rng=np.random.default_rng(0), **{"n_startup": 2, **option})


# ------------------------------------------------------------ delay sweep

def test_resonance_sweep_rows():
    base = dict(rho=0.9, G=0.56, Phi0=0.2, lam=1e-6)
    grid = (0.26, 0.5, 1.0)
    rows = resonance_sweep("sine_square", base, grid, repeats=2,
                           task_options={"n_waveforms": 4,
                                         "periods_per_waveform": 8,
                                         "washout": 2})
    assert [r.tau_over_T for r in rows] == list(grid)
    assert [r.d for r in rows] == [13, 25, 50]
    for r in rows:
        assert r.repeats == 2
        assert np.isfinite(r.nmse_mean)
        assert r.nmse_std >= 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_resonance_sweep_refuses_non_finite_grid_values(bad):
    with pytest.raises(ConfigurationError, match="finite"):
        resonance_sweep("sine_square", dict(rho=0.9, G=0.56, Phi0=0.2,
                                            lam=1e-6), (0.5, bad))


def test_resonance_sweep_refuses_bad_params_before_building_series(
        monkeypatch):
    calls = []
    real = tasks.gen_narma10

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)
    monkeypatch.setattr(tasks, "gen_narma10", counting)
    with pytest.raises(ConfigurationError, match="G must be positive"):
        resonance_sweep("narma10", dict(rho=0.9, G=0.0, Phi0=0.2, lam=1e-6),
                        (0.5, 1.0), repeats=2,
                        task_options={"length": 600, "washout": 20})
    assert calls == []


def test_resonance_sweep_builds_each_series_once(monkeypatch):
    calls = []
    real = tasks.gen_narma10

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(tasks, "gen_narma10", counting)
    base = dict(rho=0.9, G=0.56, Phi0=0.2, lam=1e-6)
    opts = {"length": 600, "washout": 20}
    grid = (0.5, 1.0, 1.5, 2.0)
    rows = resonance_sweep("narma10", base, grid, repeats=3, task_options=opts)
    assert calls == [0, 1, 2]
    # the numbers of evaluating each grid value over its seeds in turn
    eval_fn = pipeline.make_eval("narma10", options=opts)
    assert [r.tau_over_T for r in rows] == list(grid)
    for row in rows:
        losses = np.array([
            eval_fn({**base, "tau_over_T": row.tau_over_T}, r).nmse_test
            for r in range(3)])
        assert row.nmse_mean == float(losses.mean())
        assert row.nmse_std == float(losses.std())


@pytest.mark.parametrize("budget_rows", [None, 2])
def test_resonance_sweep_runs_ragged_seeds_in_lockstep(monkeypatch,
                                                       budget_rows):
    opts = {"n_waveforms": 4, "periods_per_waveform": 8, "washout": 2}
    real = tasks.gen_sine_square
    lengths = [real(4, (3, 5), 8, seed=s).n_steps for s in range(5)]
    assert len(set(lengths)) > 1   # the streams are ragged
    if budget_rows:   # room for exactly the two rows of seeds 2 and 3
        monkeypatch.setattr(hyperopt, "_LOCKSTEP_BYTES",
                            budget_rows * 8 * max(lengths[2:4]) * 50)
    calls, groups = [], []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    def recording(group, *args, **kwargs):
        groups.append(len(group))
        return real_rows(group, *args, **kwargs)

    real_rows = pipeline.evaluate_rows
    monkeypatch.setattr(tasks, "gen_sine_square", counting)
    monkeypatch.setattr(pipeline, "evaluate_rows", recording)
    base = dict(rho=0.9, G=0.56, Phi0=0.2, lam=1e-6)
    # 0.502 lands on d=25 like 0.5 and is collapsed; d=13 runs the block
    # recursion in groups of two or more rows and the per-sample loop in
    # one row, as in the one-row evaluations below; the others run the
    # block recursion
    grid = (0.26, 0.5, 0.502, 1.0, 2.0)
    rows = resonance_sweep("sine_square", base, grid, repeats=5,
                           task_options=opts)
    assert calls == [0, 1, 2, 3, 4]
    assert groups == ([5] * 4 if budget_rows is None else [2] * 4 + [2] * 4
                      + [1] * 4)
    # the numbers of evaluating each grid value over its seeds in turn
    eval_fn = pipeline.make_eval("sine_square", options=opts)
    assert [(r.tau_over_T, r.d) for r in rows] == [
        (0.26, 13), (0.5, 25), (1.0, 50), (2.0, 100)]
    for row in rows:
        losses = np.array([
            eval_fn({**base, "tau_over_T": row.tau_over_T}, r).nmse_test
            for r in range(5)])
        assert row.nmse_mean == float(losses.mean())
        assert row.nmse_std == float(losses.std())


def test_default_sine_square_seeds_run_in_groups_of_three_and_two():
    # under the real _LOCKSTEP_BYTES: the five default seeds run as 3 + 2,
    # and a sweep's three repeats (perfbench's sine_square-sweep) as one
    # group
    t, _, data = pipeline.task_setup("sine_square")
    first = pipeline.SEED_DEFAULTS["data"]

    def sizes(repeats):
        seeds = range(first, first + repeats)
        return [len(g) for g in hyperopt._lockstep_groups(data, seeds, t["k"])]
    assert sizes(5) == [3, 2]
    assert sizes(3) == [3]


def test_resonance_sweep_collapses_colliding_ratios():
    # 0.501 and 0.502 both round to d=25 at k=50: the first value is kept
    base = dict(rho=0.9, G=0.56, Phi0=0.2, lam=1e-6)
    rows = resonance_sweep("sine_square", base, (0.501, 0.502, 1.0), repeats=1,
                           task_options={"n_waveforms": 4,
                                         "periods_per_waveform": 8,
                                         "washout": 2})
    assert [(r.tau_over_T, r.d) for r in rows] == [(0.501, 25), (1.0, 50)]
