"""Span tracer for the delayrc benchmark's traced runs.

Each public function that one module calls in another is wrapped at the
binding its caller looks up (``pipeline.run_reservoir``, not
``reservoir.run_reservoir``), so the wrapper sees exactly the calls the
program makes. A span records (id, parent id, name, stage, start, end);
spans stay in memory and are summarised when the traced CLI call ends.
A stage's time is the self time of its spans: duration minus the part
covered by child spans.

The tracer only observes: every wrapper returns what the wrapped function
returns and re-raises what it raises, so traced runs write the same
artifacts as untraced ones (the benchmark checks this).
"""

import functools
import math
from collections import Counter
from time import perf_counter

# (module, attribute, stage). Module is the one the *caller* looks the
# name up in; the comment names the caller. Stage None: counted only.
BINDINGS = (
    ("cli", "write_csv", "cli.csv"),                       # cli commands
    ("dynamics", "bifurcation_to_csv", "cli.csv"),         # cli.cmd_dynamics
    ("dynamics", "bifurcation_sweep", "dynamics"),         # cli.cmd_dynamics
    ("dynamics", "fixed_points_of_iterate", "dynamics.fixed_points"),
    ("dynamics", "iterate", "dynamics.orbit"),             # bifurcation_sweep
    # ~100 calls per fixed_points_of_iterate call, each a few microseconds:
    # a span apiece would cost more than the call
    ("dynamics", "iterate_n", None),
    ("hyperopt", "run_study", "hyperopt"),                 # cli.cmd_optimize
    ("hyperopt", "resonance_sweep", "hyperopt"),           # cli.cmd_sweep_delay
    ("hyperopt", "_run_objective", "hyperopt"),            # run_study
    ("hyperopt", "_suggest", "hyperopt.suggest"),          # run_study
    ("hyperopt", "save_study", "hyperopt.io"),             # run_study
    ("hyperopt", "load_study", "hyperopt.io"),             # run_study
    ("hyperopt", "_append_trial", "hyperopt.io"),          # run_study
    ("pipeline", "make_eval", "pipeline.make_eval"),       # cli, hyperopt
    ("pipeline", "evaluate_series", "pipeline.eval"),      # eval_fn
    ("tasks", "gen_narma10", "tasks"),                     # eval_fn
    ("tasks", "gen_sine_square", "tasks"),                 # eval_fn
    ("tasks", "split_train_test", "tasks"),                # eval_fn
    ("pipeline", "make_input_mask", "reservoir"),          # evaluate_series
    ("pipeline", "run_reservoir", "reservoir"),            # evaluate_series
    ("_backend", "evolve_samples", "reservoir.kernel"),    # run_reservoir
    ("pipeline", "train_ridge", "readout.ridge"),          # evaluate_series
    ("pipeline", "predict", "readout.predict"),            # evaluate_series
    ("pipeline", "nmse", "readout.score"),                 # evaluate_series
    ("pipeline", "nrmse", "readout.score"),                # evaluate_series
    ("pipeline", "classify_sequences", "readout.score"),   # evaluate_series
)

# bytes the numpy block recursion moves per sample: read the fed-back
# sample, read the masked input, write the new sample (computed, not
# measured)
KERNEL_BYTES_PER_SAMPLE = 24


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, name, stage, t0, t1]
        self.stack = []
        self.counts = Counter()
        self.errors = Counter()  # (name, exception type) -> count
        self.seen_inputs = set()
        self.missing = []

    # ------------------------------------------------------------ wrapping

    def call(self, name, stage, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        rec = [len(self.spans), self.stack[-1] if self.stack else -1,
               name, stage, perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            rec[5] = perf_counter()
            self.stack.pop()

    def _spanned(self, fn, name, stage, attr):
        after = getattr(self, "_after_" + attr, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            out = self.call(name, stage, fn, *args, **kwargs)
            return after(out, *args, **kwargs) if after else out
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules):
        """Patch every binding in BINDINGS on the {name: module} map."""
        for mod_name, attr, stage in BINDINGS:
            mod, name = modules[mod_name], f"{mod_name}.{attr}"
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(name)
            elif stage is None:
                setattr(mod, attr, self._counted(fn, name))
            else:
                setattr(mod, attr, self._spanned(fn, name, stage, attr))

    # ------------------------------------------------- per-binding counters

    def _after_make_eval(self, eval_fn, *args, **kwargs):
        # the evaluator is a closure built per call: trace it where made
        return self._spanned(eval_fn, "pipeline.eval_fn", "pipeline.eval",
                             "eval_fn")

    def _generated(self, series, fn_name, args, kwargs):
        key = (fn_name, repr(args), repr(sorted(kwargs.items())))
        self.counts["tasks.generate"] += 1
        if key in self.seen_inputs:
            self.counts["tasks.generate_repeat"] += 1
        self.seen_inputs.add(key)
        return series

    def _after_gen_narma10(self, series, *args, **kwargs):
        self.counts["tasks.narma_regenerated"] += int(
            series.meta.get("regenerated", 0))
        return self._generated(series, "gen_narma10", args, kwargs)

    def _after_gen_sine_square(self, series, *args, **kwargs):
        return self._generated(series, "gen_sine_square", args, kwargs)

    def _after_evolve_samples(self, s, J, d, *args, **kwargs):
        self.counts["reservoir.samples"] += J.size
        self.counts["reservoir.kernel_steps"] += math.ceil(J.size / d)
        return s

    # ------------------------------------------------------------- summary

    def self_ms(self):
        """Self time per stage in ms, and per span name."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_stage, by_name = Counter(), Counter()
        for sid, _, name, stage, t0, t1 in self.spans:
            own = (t1 - t0 - child[sid]) * 1e3
            by_stage[stage] += own
            by_name[name] += own
        return by_stage, by_name

    def layer_metrics(self):
        """The benchmark's per-layer metrics that the trace itself gives."""
        st, _ = self.self_ms()
        c = self.counts
        durations = Counter()
        for _, _, name, _, t0, t1 in self.spans:
            durations[name] += (t1 - t0) * 1e3
        gen = c["tasks.generate"]
        samples = c["reservoir.samples"]
        kernel_ms = st["reservoir.kernel"]
        n_tasks = sum(c[f"tasks.{a}"] for _, a, s in BINDINGS if s == "tasks")
        return {
            "tasks.calls": n_tasks,
            "tasks.ms": st["tasks"],
            "tasks.repeat_frac": c["tasks.generate_repeat"] / gen if gen else 0.0,
            "tasks.narma_regenerated": c["tasks.narma_regenerated"],
            "reservoir.calls": c["pipeline.run_reservoir"],
            "reservoir.ms": st["reservoir"] + kernel_ms,
            "reservoir.kernel_ms": kernel_ms,
            "reservoir.samples": samples,
            "reservoir.kernel_steps": c["reservoir.kernel_steps"],
            "reservoir.bytes_computed": KERNEL_BYTES_PER_SAMPLE * samples,
            "reservoir.ns_per_sample": kernel_ms * 1e6 / samples if samples else 0.0,
            "readout.ridge_calls": c["pipeline.train_ridge"],
            "readout.ridge_ms": st["readout.ridge"],
            "readout.predict_ms": st["readout.predict"],
            "readout.score_ms": st["readout.score"],
            "readout.singular": self.errors[("pipeline.train_ridge",
                                             "SingularMatrixError")],
            # inclusive: everything building an evaluator costs
            "pipeline.make_eval_ms": durations["pipeline.make_eval"],
            "pipeline.eval_self_ms": st["pipeline.eval"],
            "hyperopt.suggest_calls": c["hyperopt._suggest"],
            "hyperopt.suggest_ms": st["hyperopt.suggest"],
            "hyperopt.io_ms": st["hyperopt.io"],
            "dynamics.fixed_points_calls": c["dynamics.fixed_points_of_iterate"],
            "dynamics.fixed_points_ms": st["dynamics.fixed_points"],
            "dynamics.iterate_n_calls": c["dynamics.iterate_n"],
            "dynamics.orbit_ms": st["dynamics.orbit"],
            "cli.self_ms": st["cli"],
            "cli.csv_ms": st["cli.csv"],
        }
