"""End-to-end command driver: artifacts, determinism, exit codes."""

import fcntl
import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delayrc import cli, dynamics, hyperopt, pipeline

from conftest import deadline, hash_tree, read_csv_rows

FAST_SS = ["task=sine_square", "task.n_waveforms=4", "task.periods=8",
           "task.washout=2"]
SRC = str(Path(__file__).resolve().parents[1] / "src")
DDE = ["dynamics.P_max=0.0003", "dynamics.G_star=1866.6666666666667"]


def test_regime_command_reports_chaos(run_cli):
    code, out, err, outdir = run_cli(["dynamics", "regime", "dynamics.G=1.49"])
    assert code == 0
    assert "chaotic" in out
    header, rows = read_csv_rows(outdir / "regime.csv")
    assert header == ["G", "M", "x_b", "regime", "period", "lyapunov"]
    assert rows[0][3] == "chaotic"
    assert float(rows[0][5]) > 0
    assert (outdir / "effective.cfg").exists()


def test_regime_command_stable_point(run_cli):
    code, out, _, outdir = run_cli(["dynamics", "regime"])  # default G=0.56
    assert code == 0
    assert "stable" in out


def test_cobweb_single_step(run_cli):
    code, out, _, outdir = run_cli(["dynamics", "cobweb", "dynamics.n=1"])
    assert code == 0
    header, rows = read_csv_rows(outdir / "cobweb.csv")
    assert header == ["x", "y"]
    assert len(rows) == 2


def test_bifurcation_axis_is_monotone(run_cli):
    code, _, _, outdir = run_cli([
        "dynamics", "bifurcation", "dynamics.lo=0.3", "dynamics.hi=1.2",
        "dynamics.steps=7", "dynamics.N_max=2"])
    assert code == 0
    _, rows = read_csv_rows(outdir / "bifurcation.csv")
    axis = [float(r[0]) for r in rows]
    assert axis == sorted(axis)
    branch_ids = {int(r[1]) for r in rows}
    assert -1 in branch_ids
    assert any(b >= 0 for b in branch_ids)


@pytest.mark.parametrize("n_max", ["0", "-1", "17"])
def test_bifurcation_n_max_is_bounded(run_cli, n_max):
    # an N_max of 0 or below would give a diagram with no branch points
    code, _, err, outdir = run_cli([
        "dynamics", "bifurcation", "dynamics.steps=3",
        f"dynamics.N_max={n_max}"])
    assert code == 2
    assert "N_max must be in [1, 16]" in err
    assert not (outdir / "bifurcation.csv").exists()


def test_dde_command(run_cli):
    code, out, _, outdir = run_cli([
        "dynamics", "dde", "dynamics.P_max=0.0003",
        "dynamics.G_star=1866.6666666666667", "dde.duration=5", "dde.dt=0.01"])
    assert code == 0
    _, rows = read_csv_rows(outdir / "dde_trace.csv")
    assert len(rows) == 501
    assert float(rows[0][0]) == 0.0


def test_run_writes_metrics_trace_weights(run_cli):
    code, out, _, outdir = run_cli(["run"] + FAST_SS)
    assert code == 0
    assert "nmse_test=" in out
    header, rows = read_csv_rows(outdir / "metrics.csv")
    metrics = {r[0]: float(r[1]) for r in rows}
    assert np.isfinite(metrics["nmse_test"])
    assert np.isfinite(metrics["nmse_train"])
    assert metrics["nrmse_test"] == pytest.approx(
        np.sqrt(metrics["nmse_test"]), rel=1e-12)
    header, rows = read_csv_rows(outdir / "trace.csv")
    assert header[-1] == "part"
    parts = {r[-1] for r in rows}
    assert parts == {"train", "test"}
    assert (outdir / "weights.csv").exists()


def test_run_vowels_reports_wer(run_cli):
    code, out, _, outdir = run_cli([
        "run", "task=vowels", "task.n_per_class=4", "task.washout=4"])
    assert code == 0
    # the rate prints as a plain float, as metrics.csv holds it
    wer = out.split("wer_test=")[1].split()[0]
    _, rows = read_csv_rows(outdir / "metrics.csv")
    metrics = {r[0]: float(r[1]) for r in rows}
    assert 0.0 <= metrics["wer_test"] <= 1.0
    assert wer == repr(metrics["wer_test"])


def test_run_is_deterministic_across_invocations(run_cli):
    code, _, _, outdir = run_cli(["run"] + FAST_SS)
    assert code == 0
    first = hash_tree(outdir)
    code, _, _, outdir = run_cli(["run"] + FAST_SS)
    assert code == 0
    assert hash_tree(outdir) == first


def test_rerun_from_echoed_config_is_identical(run_cli, tmp_path):
    code, _, _, outdir = run_cli(["run"] + FAST_SS)
    assert code == 0
    first = hash_tree(outdir)
    code, _, _, outdir = run_cli(["run", "--config", str(outdir / "effective.cfg")])
    assert code == 0
    assert hash_tree(outdir) == first


def test_override_beats_config_file(run_cli, tmp_path):
    cfgfile = tmp_path / "base.cfg"
    cfgfile.write_text("task=sine_square\ntask.n_waveforms=4\n"
                       "task.periods=8\ntask.washout=2\nreservoir.rho=0.1\n")
    code, _, _, outdir = run_cli(
        ["run", "--config", str(cfgfile), "reservoir.rho=0.9"])
    assert code == 0
    text = (outdir / "effective.cfg").read_text()
    assert "reservoir.rho=0.9" in text


def test_optimize_small_budget(run_cli):
    code, out, _, outdir = run_cli(
        ["optimize", "optimize.budget=5", "optimize.n_startup=2"] + FAST_SS)
    assert code == 0
    assert "best trial" in out
    lines = (outdir / "study.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 5
    best = (outdir / "best.cfg").read_text().splitlines()
    keys = {ln.split("=")[0] for ln in best}
    assert "command" in keys
    assert not any(k.startswith(("optimize.", "space.")) for k in keys)
    assert "command=run" in best


def test_best_config_is_runnable(run_cli):
    code, _, _, outdir = run_cli(
        ["optimize", "optimize.budget=3", "optimize.n_startup=1"] + FAST_SS)
    assert code == 0
    code, out, _, _ = run_cli(
        ["run", "--config", str(outdir / "best.cfg")], outdir="rerun")
    assert code == 0
    assert "nmse_test=" in out


def test_optimize_with_no_successful_trial_exits_3(run_cli):
    # every gain of this space drives the states past the float range, so
    # every trial fails; the washout leaves both sides steps to score
    code, out, err, outdir = run_cli(
        ["optimize", "task=narma10", "task.length=200", "task.washout=10",
         "optimize.budget=3", "space.G=1e308,1.7e308"])
    assert code == 3
    assert err == ("error: no successful trial: 3 trials failed, the first "
                   "failed:NumericsError: reservoir states left the finite "
                   "range; lower G, beta or rho\n")
    assert out == ""
    assert not (outdir / "best.cfg").exists()


def test_optimize_records_wall_times_only_when_asked(run_cli):
    args = ["optimize", "optimize.budget=3", "optimize.n_startup=2"] + FAST_SS
    walls = {}
    for name, extra in (("on", ["optimize.record_timings=true"]),
                        ("default", [])):
        code, _, _, outdir = run_cli(args + extra, outdir=name)
        assert code == 0
        lines = (outdir / "study.jsonl").read_text().splitlines()[1:]
        walls[name] = [json.loads(ln)["wall_time"] for ln in lines]
    assert len(walls["on"]) == 3 and all(w > 0 for w in walls["on"])
    assert walls["default"] == [0.0] * 3


def test_optimize_resume_completes_budget(run_cli):
    args = ["optimize", "optimize.n_startup=2", "seed.sampler=5"] + FAST_SS
    code, _, _, outdir = run_cli(args + ["optimize.budget=3"])
    assert code == 0
    code, _, _, outdir = run_cli(args + ["optimize.budget=6"])
    assert code == 0
    lines = (outdir / "study.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 6


def test_optimize_resume_of_another_format_version_exits_2(run_cli):
    args = ["optimize", "optimize.n_startup=2"] + FAST_SS
    code, _, _, outdir = run_cli(args + ["optimize.budget=2"])
    assert code == 0
    path = outdir / "study.jsonl"
    path.write_text(path.read_text().replace('"format_version":1,',
                                             '"format_version":99,'))
    code, _, err, _ = run_cli(args + ["optimize.budget=3"])
    assert code == 2
    assert "version 1" in err


def test_sweep_delay_collapses_duplicate_delays(run_cli):
    code, out, _, outdir = run_cli(
        ["sweep-delay", "sweep.grid=0.26,0.268,0.5", "sweep.repeats=1"] + FAST_SS)
    assert code == 0
    assert "1 duplicate" in out
    header, rows = read_csv_rows(outdir / "sweep.csv")
    assert header == ["tau_over_T", "d", "nmse_mean", "nmse_std", "repeats"]
    assert [int(r[1]) for r in rows] == [13, 25]


def test_sweep_delay_requires_grid(run_cli):
    code, _, err, _ = run_cli(["sweep-delay"] + FAST_SS)
    assert code == 2
    assert "sweep.grid" in err


# -------------------------------------------------------------- exit codes

def test_unknown_task_exits_2_with_usage(run_cli):
    code, _, err, _ = run_cli(["run", "task=parity"])
    assert code == 2
    assert "parity" in err
    assert "usage" in err


def test_unknown_key_exits_2(run_cli):
    code, _, err, _ = run_cli(["run", "reservoir.q=3"] + FAST_SS)
    assert code == 2
    assert "reservoir.q" in err


def test_bad_value_exits_2(run_cli):
    code, _, err, _ = run_cli(["run", "reservoir.k=five"] + FAST_SS)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["run", "reservoir.rho=nan"],
    ["run", "reservoir.Phi0=nan"],
    ["run", "reservoir.Phi0=inf"],
    ["run", "reservoir.beta=nan"],
    ["run", "reservoir.G=inf"],
    ["run", "reservoir.tau_over_T=inf"],
    ["run", "readout.lam=nan"],
    ["run", "readout.lam=inf"],
    ["dynamics", "regime", "dynamics.G=inf"],
    ["dynamics", "cobweb", "dynamics.x_b=nan"],
    ["dynamics", "cobweb", "dynamics.x0=nan"],
    ["dynamics", "dde"] + DDE + ["dde.duration=nan"],
    ["dynamics", "dde"] + DDE + ["dde.history_value=nan"],
])
def test_non_finite_value_exits_2(run_cli, argv):
    extra = FAST_SS if argv[0] == "run" else []
    code, _, err, _ = run_cli(argv + extra)
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("duration, dt", [
    ("1e12", "0.01"),      # a 728 TiB request if sized as asked
    ("1e300", "1e-300"),   # duration/dt overflows to inf
])
def test_dde_step_count_is_bounded(run_cli, duration, dt):
    code, _, err, outdir = run_cli(["dynamics", "dde"] + DDE + [
        f"dde.duration={duration}", f"dde.dt={dt}"])
    assert code == 2
    assert "steps" in err
    assert not (outdir / "dde_trace.csv").exists()


@pytest.mark.parametrize("argv, artifact", [
    (["dynamics", "cobweb", "dynamics.n=1000000000000"], "cobweb.csv"),
    (["dynamics", "bifurcation", "dynamics.steps=1000000000000"],
     "bifurcation.csv"),
])
def test_map_size_is_bounded(run_cli, argv, artifact):
    # sized as asked, either would need terabytes
    code, _, err, outdir = run_cli(argv)
    assert code == 2
    assert "more than" in err
    assert not (outdir / artifact).exists()


@pytest.fixture
def no_allocation(monkeypatch):
    """Make every data generator and the mask fail the test if reached: a
    size bound must refuse before anything is built."""
    from delayrc import reservoir, tasks

    def refuse(*args, **kwargs):
        raise AssertionError("built data or a mask past the size bound")
    for name in ("gen_narma10", "gen_sine_square", "gen_synthetic_vowels"):
        monkeypatch.setattr(tasks, name, refuse)
    monkeypatch.setattr(reservoir, "make_input_mask", refuse)


@pytest.mark.parametrize("command", ["run", "optimize", "sweep-delay"])
@pytest.mark.parametrize("argv", [
    ["task=narma10", "task.length=1000000000000"],
    ["task=sine_square", "task.n_waveforms=1000000000"],
    ["task=sine_square", "reservoir.k=1000000000"],
    ["task=vowels", "task.n_per_class=1000000000"],
])
def test_stream_size_is_bounded(run_cli, no_allocation, command, argv):
    # sized as asked, each stream would take terabytes of states
    extra = ["sweep.grid=1.0", "sweep.repeats=1"] if command == "sweep-delay" else []
    code, _, err, outdir = run_cli([command] + argv + extra)
    assert code == 2
    assert "more than" in err
    if command == "optimize":   # a refused study writes nothing
        assert not outdir.exists()
    else:
        assert sorted(os.listdir(outdir)) == ["effective.cfg"]


@pytest.mark.parametrize("argv", [
    ["sweep-delay", "sweep.grid=0.5", "sweep.repeats=1000000"],
    ["optimize", "optimize.budget=1000000000"],
    # the suggestion's density temporaries would take 37 GiB
    ["optimize", "optimize.budget=21", "optimize.n_candidates=1000000000"],
])
def test_repeats_and_budget_are_bounded(run_cli, monkeypatch, argv):
    # either loop would run past any deadline if taken as asked; each is
    # refused before the task is set up
    def refuse(*args, **kwargs):
        raise AssertionError("set up the task past the bound")
    monkeypatch.setattr(pipeline, "task_setup", refuse)
    code, _, err, outdir = run_cli(argv + FAST_SS)
    assert code == 2
    key = argv[-1].partition("=")[0].split(".")[1]
    assert err.startswith(f"error: {key} must be in [1, ")
    if argv[0] == "optimize":
        assert not outdir.exists()
    else:
        assert sorted(os.listdir(outdir)) == ["effective.cfg"]


@pytest.mark.parametrize("task", pipeline.TASK_IDS)
def test_schema_defaults_give_the_task_defaults(task):
    cfg = cli._resolve("run", None, [f"task={task}"])
    assert cli._task_options(cfg) == pipeline.TASK_DEFAULTS[task]


@pytest.mark.parametrize("key, fn, name", [
    *((f"optimize.{name}", hyperopt.run_study, name)
      for name in ("sampler", "n_startup", "gamma", "n_candidates")),
    *((f"optimize.{name}", hyperopt.tpe_suggest, name)
      for name in ("n_startup", "gamma", "n_candidates")),
    ("sweep.repeats", hyperopt.resonance_sweep, "repeats"),
    ("dynamics.N_max", dynamics.bifurcation_sweep, "N_max"),
])
def test_schema_defaults_are_the_function_defaults(key, fn, name):
    default = inspect.signature(fn).parameters[name].default
    assert cli._SCHEMA[key][1] == default


def test_state_overflow_exits_3_alike_on_every_strategy(run_cli):
    # a run drives one row, a two-repeat sweep two rows in lockstep, at
    # block widths d*rows 18 to 20 (np.sin(inf) is nan): every case ends
    # in the same error
    k = 50   # the default reservoir.k
    base = ["task=narma10", "task.length=200", "task.washout=5",
            "reservoir.G=1e308"]
    cases = []
    for ds, argv in (((19, 20), ["run", "reservoir.tau_over_T={}"]),
                     ((9, 10), ["sweep-delay", "sweep.grid={}",
                                "sweep.repeats=2"])):
        for d in ds:
            cases.append([a.format(d / k) for a in argv])
    errs = set()
    for argv in cases:
        code, _, err, _ = run_cli(argv + base)
        assert code == 3, err
        errs.add(err)
    assert len(errs) == 1
    assert "finite" in errs.pop()


@pytest.mark.parametrize("argv", [
    ["regime", "dynamics.G=1e308"],
    ["cobweb", "dynamics.G=1e308"],
    ["bifurcation", "dynamics.lo=1e307", "dynamics.hi=1e308",
     "dynamics.steps=2"],
])
def test_map_overflow_exits_3(tmp_path, argv):
    # the phase pi*(x + x_b) of an iterate near 1e308 overflows, and
    # math.sin(inf) raises
    code, err = run_fresh(tmp_path, ["dynamics"] + argv)
    assert code == 3, err
    assert "error: map iterates left the finite range" in err
    assert "RuntimeWarning" not in err


def test_map_overflow_exits_3_with_warnings_as_errors(tmp_path):
    # a warning on the way would raise under -W error and end the call
    # with another code and message
    code, err = run_fresh(tmp_path, [
        "dynamics", "bifurcation", "dynamics.lo=1e307", "dynamics.hi=1e308",
        "dynamics.steps=2"], flags=["-W", "error"])
    assert code == 3, err
    assert err == "error: map iterates left the finite range; lower G\n"


@pytest.mark.parametrize("lo, hi", [("-1e308", "1e308"),
                                    ("-inf", "0"), ("0", "inf")])
def test_bifurcation_range_too_wide_exits_2(tmp_path, lo, hi):
    # hi - lo overflows: refused by name before linspace warns or puts nan
    # on the axis
    code, err = run_fresh(tmp_path, [
        "dynamics", "bifurcation", "dynamics.axis=x_b", "dynamics.steps=5",
        f"dynamics.lo={lo}", f"dynamics.hi={hi}"], flags=["-W", "error"])
    assert code == 2, err
    assert err == (f"error: axis range [{float(lo)}, {float(hi)}] is too "
                   "wide: its width is not finite\n")


def run_fresh(outdir, argv, flags=(), preexec_fn=None):
    """(exit code, stderr) of the CLI in a fresh interpreter started with
    the interpreter flags given, so stderr holds any warning numpy prints on
    the way, as a user would see it. preexec_fn runs in the child before
    the interpreter starts."""
    env = {**os.environ, "DELAYRC_OUTDIR": str(outdir),
           "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in [SRC, os.environ.get("PYTHONPATH", "")] if p)}
    proc = subprocess.run([sys.executable, *flags, "-m", "delayrc"] + argv,
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=preexec_fn)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [
    # the drive overflows to inf
    ["dynamics.P_max=1e200", "dynamics.G_star=1e200"],
    # 1/V_pi is inf, and the phase of a zero trace 0*inf is nan
    DDE + ["dynamics.V_pi=1e-320"],
])
def test_dde_overflow_exits_3(tmp_path, argv):
    code, err = run_fresh(tmp_path, ["dynamics", "dde", "dde.duration=1"] + argv)
    assert code == 3, err
    assert "error: the DDE trace left the finite range" in err
    assert "RuntimeWarning" not in err
    assert sorted(os.listdir(tmp_path)) == ["effective.cfg"]


def test_bifurcation_with_roots_past_8192_ends(run_cli):
    # adjacent floats near 1e4 lie farther apart than the bisection
    # tolerance
    with deadline(60):
        code, _, err, outdir = run_cli([
            "dynamics", "bifurcation", "dynamics.lo=9999", "dynamics.hi=10000",
            "dynamics.steps=2", "dynamics.N_max=1"])
    assert code == 0, err
    _, rows = read_csv_rows(outdir / "bifurcation.csv")
    assert any(int(r[1]) >= 0 and float(r[2]) > 8192 for r in rows)


@pytest.mark.parametrize("override", [
    "seed.data=9", "optimize.width=0", "optimize.width=2",
    "optimize.width=257",
])
def test_refused_optimize_leaves_the_study_directory_alone(run_cli,
                                                           override):
    args = ["optimize", "optimize.n_startup=2", "optimize.budget=2"] + FAST_SS
    code, _, _, outdir = run_cli(args)
    assert code == 0
    before = hash_tree(outdir)
    code, _, err, _ = run_cli(args + ["optimize.budget=3", override])
    assert code == 2, err
    assert err.startswith("error: ")
    if override.startswith("optimize.width"):
        assert "optimize.width: trials run one at a time" in err
    assert hash_tree(outdir) == before


@pytest.mark.parametrize("argv", [
    ["run", "seed.mask=-1"],
    ["run", f"seed.mask={2**128}"],
    ["run", "seed.data=-1"],
    ["sweep-delay", "sweep.grid=0.5", "sweep.repeats=1", "seed.data=-1"],
    ["run", "task=vowels", "seed.data=-1"],
    ["optimize", "optimize.budget=1", "seed.sampler=-1"],
])
def test_seed_outside_philox_keys_exits_2(run_cli, argv):
    code, _, err, outdir = run_cli(argv[:1] + FAST_SS + argv[1:])
    assert code == 2, err
    assert err.startswith(f"error: {argv[-1].partition('=')[0]}: ")
    assert not outdir.exists()   # refused before anything is built


def test_negative_washout_exits_2(run_cli):
    code, _, err, _ = run_cli(["run"] + FAST_SS + ["task.washout=-5"])
    assert code == 2
    assert err.startswith("error: washout must be >= 0")


# budget 3 with two startup trials reaches the TPE suggestion, where the
# optimize.* options are used
@pytest.mark.parametrize("argv", [
    ["sweep-delay", "sweep.grid=0:inf:1"],
    ["sweep-delay", "sweep.grid=0:1e300:1e-300"],   # the step count is inf
    ["sweep-delay", "sweep.grid=1,inf"],
    ["optimize", "space.lam=1e-8,inf"],
    ["optimize", "space.G=0,inf"],
    ["optimize", "optimize.n_candidates=0"],
    ["optimize", "optimize.gamma=nan"],
    ["optimize", "optimize.gamma=inf"],
    ["optimize", "optimize.gamma=-1"],
    ["optimize", "optimize.n_startup=0"],
    ["optimize", "optimize.n_startup=-5"],
])
def test_bad_grid_space_and_tpe_option_exits_2(run_cli, argv):
    extra = (["sweep.repeats=1"] if argv[0] == "sweep-delay"
             else ["optimize.budget=3", "optimize.n_startup=2"])
    code, _, err, _ = run_cli(argv[:1] + extra + FAST_SS + argv[1:])
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _limit_address_space():
    # 2 GiB: enough for the CLI, far below the 7.45 GiB the grid would take
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_sweep_grid_size_is_bounded(tmp_path):
    # sized as asked, the range would take 7.45 GiB; the child runs under an
    # address-space limit, so the test cannot take that much either way
    code, err = run_fresh(tmp_path, ["sweep-delay", "sweep.grid=0:1e9:1",
                                     "sweep.repeats=1"] + FAST_SS,
                          preexec_fn=_limit_address_space)
    assert code == 2, err
    assert err.startswith("error: ") and "more than" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override", [
    "reservoir.k=0", "reservoir.M=2", "reservoir.beta=nan",
    "space.G=-1,-0.5", "space.tau_over_T=0,0.001",
])
def test_optimize_refuses_a_study_whose_every_trial_fails(run_cli,
                                                          monkeypatch,
                                                          override):
    # the template with the space's upper bounds builds no reservoir, or one
    # whose delay rounds below one sample; refused before the task is set up
    def refuse(*args, **kwargs):
        raise AssertionError("set up the task of a study that cannot run")
    monkeypatch.setattr(pipeline, "task_setup", refuse)
    code, _, err, outdir = run_cli(["optimize", "optimize.budget=3",
                                    "optimize.n_startup=2"] + FAST_SS
                                   + [override])
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("override, key", [
    ("space.tau_over_T=1e6,1e7", "tau_over_T"),   # every delay > the stream
    ("task.washout=150", "washout"),   # a side keeps no scoring step
])
def test_optimize_refuses_a_study_its_data_fails(run_cli, override, key):
    # checked on the study's 200-step series before the lock is taken
    code, _, err, outdir = run_cli(["optimize", "task=narma10",
                                    "task.length=200", "optimize.budget=2",
                                    override])
    assert code == 2, err
    assert err.startswith("error: ") and key in err
    assert not outdir.exists()


def test_period_point_search_is_bounded(tmp_path):
    # 20000 axis values with N up to 16 bracket about 6.3 million cells;
    # searched as asked, they end in MemoryError under this limit
    code, err = run_fresh(tmp_path, ["dynamics", "bifurcation",
                                     "dynamics.steps=20000",
                                     "dynamics.N_max=16"],
                          preexec_fn=_limit_address_space)
    assert code == 2, err
    assert err.startswith("error: ") and "more than" in err
    assert "dynamics.steps" in err and "dynamics.N_max" in err
    assert "Traceback" not in err
    assert not (tmp_path / "bifurcation.csv").exists()


def test_optimize_refuses_a_locked_study(run_cli):
    args = ["optimize", "optimize.n_startup=2", "optimize.budget=2"] + FAST_SS
    code, _, _, outdir = run_cli(args)
    assert code == 0
    before = hash_tree(outdir)
    fd = os.open(outdir, os.O_RDONLY)   # as a running optimize holds it
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code, _, err, _ = run_cli(args[:2] + ["optimize.budget=3"] + FAST_SS)
    finally:
        os.close(fd)
    assert code == 2
    assert "in use" in err
    after = hash_tree(outdir)
    assert sorted(after) == sorted(before)   # no lock file left behind
    for name in ("study.jsonl", "best.cfg", "effective.cfg"):
        assert after[name] == before[name]
    code, _, _, _ = run_cli(args[:2] + ["optimize.budget=3"] + FAST_SS)
    assert code == 0
    assert len((outdir / "study.jsonl").read_text().splitlines()) == 1 + 3


def test_mismatched_config_command_exits_2(run_cli, tmp_path):
    code, _, _, outdir = run_cli(["run"] + FAST_SS)
    assert code == 0
    code, _, err, _ = run_cli(
        ["sweep-delay", "--config", str(outdir / "effective.cfg")])
    assert code == 2
    assert "command" in err


def test_sub_sample_delay_exits_2(run_cli):
    code, _, err, _ = run_cli(["run", "reservoir.tau_over_T=0.005"] + FAST_SS)
    assert code == 2


def test_delay_longer_than_stream_exits_2(run_cli):
    code, _, err, _ = run_cli(["run", "reservoir.tau_over_T=1e300"] + FAST_SS)
    assert code == 2
    assert "longer than the stream" in err


def test_optimize_resumes_torn_study_file(run_cli):
    args = ["optimize", "optimize.n_startup=2", "seed.sampler=5"] + FAST_SS
    code, _, _, outdir = run_cli(args + ["optimize.budget=3"])
    assert code == 0
    path = outdir / "study.jsonl"
    path.write_bytes(path.read_bytes()[:-15])   # a crash mid-append
    code, _, _, outdir = run_cli(args + ["optimize.budget=4"])
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 4
    lines[1] = lines[1][:20]
    path.write_text("\n".join(lines) + "\n")
    code, _, err, _ = run_cli(args + ["optimize.budget=5"])
    assert code == 2
    assert "corrupt study file" in err


@pytest.mark.parametrize("damage", [
    lambda r: r.update(loss=None),
    lambda r: r.update(loss="0.5"),
    lambda r: r.update(status=5),
    lambda r: r.update(status="failed:ValueError: boom"),
    lambda r: r["params"].pop("G"),
    lambda r: r["params"].update(G="x"),
    lambda r: r["params"].update(G=float("inf")),
    lambda r: r["params"].update(x_b=0.5),
    lambda r: r.update(trial_id=0.0),
    lambda r: r.update(seed=1.5),
    lambda r: r.update(wall_time=float("nan")),
    lambda r: r.update(extra=1),
], ids=["ok-without-loss", "string-loss", "int-status", "failed-with-loss",
        "no-G", "string-G", "infinite-G", "sixth-param", "float-trial-id",
        "float-seed", "nan-wall-time", "extra-key"])
def test_optimize_refuses_a_damaged_trial_record(run_cli, damage):
    args = ["optimize", "optimize.n_startup=2", "optimize.budget=3"] + FAST_SS
    code, _, _, outdir = run_cli(args)
    assert code == 0
    path = outdir / "study.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["status"] == "ok"
    damage(record)
    lines[1] = json.dumps(record)   # a nan is written as NaN, which json reads
    path.write_text("\n".join(lines) + "\n")
    code, _, err, _ = run_cli(args)
    assert code == 2, err
    assert f"corrupt study file {path}, line 2" in err


def test_unparseable_flag_exits_2(run_cli, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--bogus-flag"])
    assert exc.value.code == 2


def test_singular_readout_exits_3(run_cli):
    # zero input with zero feedback gives constant states; with lam=0 the
    # normal equations are singular, which is a numerical (not config) error
    code, _, err, _ = run_cli(
        ["run", "task=narma10", "task.length=200", "task.washout=5",
         "reservoir.beta=0", "reservoir.rho=0", "readout.lam=0"])
    assert code == 3
    assert "singular" in err.lower()
