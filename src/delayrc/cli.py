"""Command-line interface.

Experiments are described by a flat key=value configuration (dotted
namespaces), assembled from built-in defaults, an optional --config file,
and key=value arguments, in that order. Every command writes the resolved
configuration to <out>/effective.cfg; re-running from that file reproduces
all outputs byte for byte. Exit codes: 0 ok, 2 configuration problem,
3 runtime or numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, dynamics, hyperopt, pipeline, tasks
from ._csvio import fmt, read_text, write_atomic, write_csv
from .exceptions import ConfigurationError, DataFormatError, DelayRCError

__all__ = ["main", "entrypoint"]


def _bool(raw: str) -> bool:
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _seed(raw: str) -> int:
    """An integer in [0, 2**128), the keys Philox takes for the mask."""
    v = int(raw)
    if not 0 <= v < 2**128:
        raise ConfigurationError(f"a seed must be in [0, 2**128), got {v}")
    return v


def _width(raw: str) -> int:
    """optimize.width, kept so that every effective.cfg that names it
    still runs: trials run one at a time, so 1 is its only value."""
    if int(raw) != 1:
        raise ConfigurationError(
            f"trials run one at a time, so the width must be 1, got {raw}")
    return 1


# the most values a range spec lo:hi:step may produce
MAX_RANGE_VALUES = 100_000


def _floats(raw: str) -> tuple:
    """Comma list '0.49,1.0' or inclusive range spec 'lo:hi:step' of
    finite values; a range spec gives at most MAX_RANGE_VALUES values."""
    values = [float(v) for v in raw.split(":" if ":" in raw else ",")]
    if not all(np.isfinite(values)):
        raise ConfigurationError(f"values must be finite, got {raw!r}")
    if ":" not in raw:
        return tuple(values)
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise ConfigurationError(f"bad range spec {raw!r}")
    # checked before any array is sized; the ratio is inf where hi - lo
    # overflows or step is tiny
    ratio = (hi - lo) / step
    if not ratio + 1 <= MAX_RANGE_VALUES:
        raise ConfigurationError(
            f"range spec {raw!r} asks for {ratio + 1:g} values, more than "
            f"{MAX_RANGE_VALUES:,}")
    n = int(round(ratio))
    return tuple(float(v) for v in (lo + step * np.arange(n + 1))
                 if v <= hi + 1e-12)


_SINE = pipeline.TASK_DEFAULTS["sine_square"]
_TEMPLATE = pipeline.TEMPLATE_DEFAULTS
# the map fields that come straight from dynamics.* keys
_OSC_FIELDS = ("G", "M", "x_b", "V_pi", "P_max", "G_star", "T_R", "tau")
# search dimension -> the key holding its value in a run config
_PARAM_KEYS = {"rho": "reservoir.rho", "G": "reservoir.G",
               "Phi0": "reservoir.Phi0", "tau_over_T": "reservoir.tau_over_T",
               "lam": "readout.lam"}

# key -> (coercer, default). None default means "only meaningful if set".
_SCHEMA = {
    "command": (str, None),
    "out": (str, None),
    **{f"seed.{name}": (_seed, v) for name, v in pipeline.SEED_DEFAULTS.items()},
    "task": (str, "sine_square"),
    "task.n_waveforms": (int, _SINE["n_waveforms"]),
    "task.spp_lo": (int, _SINE["samples_per_period"][0]),
    "task.spp_hi": (int, _SINE["samples_per_period"][1]),
    "task.periods": (int, _SINE["periods_per_waveform"]),
    "task.length": (int, pipeline.TASK_DEFAULTS["narma10"]["length"]),
    "task.fraction": (float, _SINE["fraction"]),
    "task.washout": (int, None),
    "task.path": (str, None),
    "task.n_per_class": (int, pipeline.TASK_DEFAULTS["vowels"]["n_per_class"]),
    "reservoir.k": (int, _TEMPLATE["k"]),
    "reservoir.beta": (float, _TEMPLATE["beta"]),
    "reservoir.M": (float, _TEMPLATE["M"]),
    "reservoir.rho": (float, 0.19),
    "reservoir.G": (float, 0.39),
    "reservoir.Phi0": (float, 0.67 * np.pi),
    "reservoir.tau_over_T": (float, 0.27),
    "readout.lam": (float, 1.4e-3),
    "readout.bias": (_bool, _TEMPLATE["add_bias"]),
    "optimize.budget": (int, 300),
    "optimize.sampler": (str, "tpe"),
    "optimize.n_startup": (int, hyperopt.N_STARTUP),
    "optimize.gamma": (float, hyperopt.GAMMA),
    "optimize.n_candidates": (int, hyperopt.N_CANDIDATES),
    "optimize.width": (_width, 1),
    "optimize.record_timings": (_bool, False),
    **{f"space.{name}": (_floats, getattr(hyperopt.SearchSpace, name))
       for name in _PARAM_KEYS},
    "sweep.grid": (_floats, None),
    "sweep.repeats": (int, hyperopt.REPEATS),
    "dynamics.G": (float, 0.56),
    # the other map fields default as OscillatorParams does
    **{f"dynamics.{f}": (float, getattr(dynamics.OscillatorParams, f))
       for f in _OSC_FIELDS[1:]},
    "dynamics.x0": (float, 0.1),
    "dynamics.n": (int, 100),
    "dynamics.N_max": (int, dynamics.N_MAX),
    "dynamics.axis": (str, "G"),
    "dynamics.lo": (float, 0.1),
    "dynamics.hi": (float, 1.6),
    "dynamics.steps": (int, 151),
    "dde.duration": (float, 50.0),
    "dde.dt": (float, 0.01),
    "dde.history_value": (float, 0.0),
}


def _coerce(key: str, raw):
    if key not in _SCHEMA:
        raise ConfigurationError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    coerce = _SCHEMA[key][0]
    try:
        return coerce(raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None
    except ValueError:
        raise ConfigurationError(
            f"bad value for {key!r}: {raw!r}") from None


def _load_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigurationError(f"config file not found: {path}")
    out = {}
    text = read_text(path, ConfigurationError)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _resolve(command: str, config_path, overrides) -> dict:
    cfg = {k: v for k, (_, v) in _SCHEMA.items() if v is not None}
    cfg["command"] = command
    layered = {}
    if config_path:
        layered.update(_load_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"expected key=value argument, got {item!r}")
        key, _, val = item.partition("=")
        layered[key.strip()] = val.strip()
    for key, raw in layered.items():
        if key == "command":
            if str(raw) != command:
                raise ConfigurationError(
                    f"config was written for command {raw!r}, invoked as {command!r}")
            continue
        cfg[key] = _coerce(key, raw)
    if "out" not in cfg or cfg["out"] is None:
        cfg["out"] = os.environ.get("DELAYRC_OUTDIR", "delayrc-out")
    return cfg


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(fmt(x) for x in v)
    return fmt(v)


def _write_cfg(cfg: dict, path, skip=()):
    """Flat key=value file, sorted by key, omitting keys starting with skip."""
    lines = [f"{k}={_fmt_value(cfg[k])}" for k in sorted(cfg)
             if not k.startswith(skip)]
    text = "\n".join(lines) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


def _echo_config(cfg: dict):
    os.makedirs(cfg["out"], exist_ok=True)
    _write_cfg(cfg, os.path.join(cfg["out"], "effective.cfg"))


def _comment(cfg, *seed_keys) -> str:
    seeds = " ".join(f"{k.split('.')[1]}={cfg[k]}" for k in seed_keys)
    return f"delayrc {__version__} | seeds: {seeds}" if seeds else f"delayrc {__version__}"


def _params(cfg) -> dict:
    return {name: cfg[key] for name, key in _PARAM_KEYS.items()}


def _seeds(cfg) -> dict:
    return {name: cfg[f"seed.{name}"] for name in pipeline.SEED_DEFAULTS}


def _task_options(cfg) -> dict:
    task = cfg["task"]
    washout = cfg.get("task.washout")
    if washout is None:
        washout = pipeline.TASK_DEFAULTS[task]["washout"]
    if task == "sine_square":
        return {"n_waveforms": cfg["task.n_waveforms"],
                "samples_per_period": (cfg["task.spp_lo"], cfg["task.spp_hi"]),
                "periods_per_waveform": cfg["task.periods"],
                "fraction": cfg["task.fraction"], "washout": washout}
    if task == "narma10":
        return {"length": cfg["task.length"], "fraction": cfg["task.fraction"],
                "washout": washout}
    return {"path": cfg.get("task.path"), "n_per_class": cfg["task.n_per_class"],
            "synthetic_seed": cfg["seed.data"], "washout": washout}


def _template(cfg) -> dict:
    return {"k": cfg["reservoir.k"], "beta": cfg["reservoir.beta"],
            "M": cfg["reservoir.M"], "add_bias": cfg["readout.bias"]}


def _space(cfg) -> hyperopt.SearchSpace:
    def pair(key):
        v = cfg[key]
        if len(v) != 2:
            raise ConfigurationError(f"{key} must be a lo,hi pair, got {v}")
        return (float(v[0]), float(v[1]))
    return hyperopt.SearchSpace(
        **{name: pair(f"space.{name}") for name in _PARAM_KEYS})


# ---------------------------------------------------------------- commands

def _oscillator(cfg) -> dynamics.OscillatorParams:
    return dynamics.OscillatorParams(
        **{f: cfg[f"dynamics.{f}"] for f in _OSC_FIELDS})


def cmd_dynamics(sub: str, cfg: dict) -> int:
    p = _oscillator(cfg)
    out = cfg["out"]
    note = _comment(cfg)
    if sub == "cobweb":
        pts = dynamics.cobweb(cfg["dynamics.x0"], cfg["dynamics.n"], p)
        dynamics.cobweb_to_csv(pts, os.path.join(out, "cobweb.csv"), note)
        print(f"cobweb: {len(pts)} points -> {out}/cobweb.csv")
    elif sub == "bifurcation":
        rows = dynamics.bifurcation_sweep(
            cfg["dynamics.axis"], (cfg["dynamics.lo"], cfg["dynamics.hi"]),
            cfg["dynamics.steps"], p, N_max=cfg["dynamics.N_max"])
        dynamics.bifurcation_to_csv(rows, os.path.join(out, "bifurcation.csv"), note)
        print(f"bifurcation: {len(rows)} axis values -> {out}/bifurcation.csv")
    elif sub == "regime":
        r = dynamics.classify_regime(p)
        dynamics.regime_to_csv([(p, r)], os.path.join(out, "regime.csv"), note)
        print(f"regime={r.kind} period={r.period} lyapunov={r.lyapunov!r}")
    elif sub == "dde":
        hist_v = cfg["dde.history_value"]
        t, V = dynamics.integrate_dde(p, lambda _t: hist_v,
                                      cfg["dde.duration"], cfg["dde.dt"])
        write_csv(os.path.join(out, "dde_trace.csv"), ["t", "V"],
                  ([float(a), float(b)] for a, b in zip(t, V)), note)
        print(f"dde: {t.size} samples -> {out}/dde_trace.csv")
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown dynamics subcommand {sub!r}")
    return 0


def cmd_run(cfg: dict) -> int:
    eval_fn = pipeline.make_eval(cfg["task"], _template(cfg), cfg["seed.mask"],
                                 _task_options(cfg))
    res = eval_fn(_params(cfg), cfg["seed.data"])
    out = cfg["out"]
    note = _comment(cfg, "seed.mask", "seed.data")

    metrics = [["nmse_train", res.nmse_train], ["nmse_test", res.nmse_test],
               ["nrmse_test", res.nrmse_test]]
    if res.wer is not None:
        metrics.append(["wer_test", res.wer])
    write_csv(os.path.join(out, "metrics.csv"), ["metric", "value"], metrics, note)

    series, split = res.series, res.split
    part = np.where(split.train.steps, "train", "test")
    o = series.y.shape[0]
    header = (["step", "u"] + [f"target_{j}" for j in range(o)]
              + [f"readout_{j}" for j in range(o)] + ["part"])

    def gen():
        for t in range(series.n_steps):
            yield ([t, float(series.u[t])]
                   + [float(series.y[j, t]) for j in range(o)]
                   + [float(res.y_hat[j, t]) for j in range(o)]
                   + [str(part[t])])
    write_csv(os.path.join(out, "trace.csv"), header, gen(), note)

    from .readout import weights_to_csv
    weights_to_csv(res.weights, os.path.join(out, "weights.csv"), note)
    line = f"task={cfg['task']} nmse_test={res.nmse_test!r} nrmse_test={res.nrmse_test!r}"
    if res.wer is not None:
        line += f" wer_test={res.wer!r}"
    print(line)
    return 0


def _study_path(cfg) -> str:
    return os.path.join(cfg["out"], "study.jsonl")


def cmd_optimize(cfg: dict) -> int:
    out = cfg["out"]
    study = hyperopt.run_study(
        cfg["task"], template=_template(cfg), space=_space(cfg),
        budget=cfg["optimize.budget"], seeds=_seeds(cfg),
        path=_study_path(cfg), sampler=cfg["optimize.sampler"],
        n_startup=cfg["optimize.n_startup"], gamma=cfg["optimize.gamma"],
        n_candidates=cfg["optimize.n_candidates"],
        record_timing=cfg["optimize.record_timings"],
        task_options=_task_options(cfg),
        # a refused study leaves its directory untouched
        on_open=lambda: _echo_config(cfg))
    best = study.best
    if best is None:    # budget >= 1, so every trial ran and failed
        raise DelayRCError(f"no successful trial: {len(study.trials)} trials "
                           f"failed, the first {study.trials[0].status}")
    best_cfg = {**cfg, "command": "run",
                **{key: best.params[name] for name, key in _PARAM_KEYS.items()}}
    _write_cfg(best_cfg, os.path.join(out, "best.cfg"),
               skip=("optimize.", "space.", "sweep."))
    print(f"best trial {best.trial_id}: loss={best.loss!r} params="
          + " ".join(f"{k}={best.params[k]!r}" for k in hyperopt.DIMS))
    print(f"study -> {out}/study.jsonl ({len(study.trials)} trials), "
          f"best config -> {out}/best.cfg")
    return 0


def cmd_sweep_delay(cfg: dict) -> int:
    grid = cfg.get("sweep.grid")
    if not grid:
        raise ConfigurationError("sweep.grid is required (comma list or lo:hi:step)")
    rows = hyperopt.resonance_sweep(
        cfg["task"], _params(cfg), grid, repeats=cfg["sweep.repeats"],
        template=_template(cfg), seeds=_seeds(cfg),
        task_options=_task_options(cfg))
    out = cfg["out"]
    write_csv(os.path.join(out, "sweep.csv"),
              ["tau_over_T", "d", "nmse_mean", "nmse_std", "repeats"],
              hyperopt.sweep_to_rows(rows),
              _comment(cfg, "seed.mask", "seed.data"))
    peak = max(rows, key=lambda r: r.nmse_mean)
    print(f"sweep: {len(rows)} rows ({len(grid) - len(rows)} duplicate delays "
          f"collapsed) -> {out}/sweep.csv")
    print(f"peak: tau_over_T={peak.tau_over_T!r} d={peak.d} "
          f"nmse_mean={peak.nmse_mean!r}")
    return 0


# ------------------------------------------------------------------ driver

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="delayrc",
        description="Delay-based reservoir computing simulator and optimizer")
    ap.add_argument("--version", action="version", version=f"delayrc {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.epilog = "trailing key=value arguments override config values"

    pd = sub.add_parser("dynamics", help="map analysis data (CSV)")
    pd.add_argument("sub", choices=["cobweb", "bifurcation", "regime", "dde"])
    common(pd)
    common(sub.add_parser("run", help="single end-to-end benchmark evaluation"))
    common(sub.add_parser("optimize", help="hyperparameter study on a benchmark"))
    common(sub.add_parser("sweep-delay", help="NMSE versus delay/clock ratio"))
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    ns, extras = ap.parse_known_args(argv)
    for item in extras:
        if item.startswith("-") or "=" not in item:
            ap.error(f"unrecognized argument: {item}")
    ns.overrides = extras
    command = ns.cmd if ns.cmd != "dynamics" else f"dynamics.{ns.sub}"
    try:
        cfg = _resolve(command, ns.config, ns.overrides)
        if cfg["task"] not in pipeline.TASK_IDS:
            raise ConfigurationError(
                f"unknown task {cfg['task']!r}, expected one of {pipeline.TASK_IDS}\n"
                + ap.format_usage())
        if ns.cmd == "optimize":
            return cmd_optimize(cfg)
        _echo_config(cfg)
        if ns.cmd == "dynamics":
            return cmd_dynamics(ns.sub, cfg)
        if ns.cmd == "run":
            return cmd_run(cfg)
        return cmd_sweep_delay(cfg)
    except (ConfigurationError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DelayRCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entrypoint():  # pragma: no cover - console script shim
    raise SystemExit(main())
