"""benchmarks/ab.py: alternated pairs and the BENCH section made of them."""

import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _trees(tmp_path):
    """Two trees holding only BENCHMARK.json, which is all a stub runner
    needs."""
    trees = {}
    for side in ab.SIDES:
        trees[side] = tmp_path / side
        trees[side].mkdir()
        (trees[side] / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    return trees


def test_perfbench_section_schema(tmp_path):
    trees = _trees(tmp_path)
    runs = []

    def runner(tree, workload, seed, seconds, command):
        side = Path(tree).name
        runs.append((side, workload, seed, seconds, tuple(command)))
        value = {m["name"]: 1.0 for m in DECLARED["end_to_end"]}
        # the change is faster on every pair and 20% heavier in memory
        value["ops_per_s"] = (20.0 if side == "change" else 10.0) + seed
        value["peak_rss_mb"] = 1.2 if side == "change" else 1.0
        return {"correct": True, "attempted": 60, "failed": 0,
                "metrics": {k: {"value": v, "unit": "-"}
                            for k, v in value.items()}}

    section = ab.perfbench(trees["parent"], trees["change"], 10,
                           runner=runner, log=io.StringIO())
    names = [w["name"] for w in DECLARED["workloads"]]
    assert len(runs) == 2 * 10 * len(names)
    # odd pairs run the parent first, even pairs the change; each pair runs
    # every workload; the run length and command come from BENCHMARK.json
    assert runs[:2] == [("parent", names[0], 1, DECLARED["run_seconds"],
                         tuple(DECLARED["command"]))] + [
        ("change", names[0], 1, DECLARED["run_seconds"],
         tuple(DECLARED["command"]))]
    assert [r[0] for r in runs[2 * len(names):2 * len(names) + 2]] == [
        "change", "parent"]
    assert list(section["workloads"]) == names

    # the schema of the BENCH files written by hand before the script
    old = json.loads((ROOT / "BENCH_16.json").read_text())["perfbench"]
    old_w = next(iter(old["workloads"].values()))
    assert set(old) - {"note"} <= set(section)
    for w in names:
        got = section["workloads"][w]
        assert set(got) == set(old_w)
        assert list(got["pairs"]) == [str(i) for i in range(1, 11)]
        for pair in got["pairs"].values():
            assert set(pair) == set(old_w["pairs"]["1"])
            assert pair["correct"] == {"parent": True, "change": True}
            assert pair["attempted_failed"]["change"] == [60, 0]
        summary = got["summary"]
        assert set(summary) == {m["name"] for m in DECLARED["end_to_end"]}
        for m in summary.values():
            assert set(old_w["summary"]["ops_per_s"]) <= set(m)
        ops = summary["ops_per_s"]
        assert ops["parent_median"] == 15.5 and ops["change_median"] == 25.5
        assert ops["parent_quartiles"] == [13.25, 17.75]
        assert ops["change_wins"] == "10/10" and ops["gain_rule"]
        assert ops["relative_worsening"] == round(-10 / 15.5, 4)
        assert ops["status"] == "within bound"
        rss = summary["peak_rss_mb"]
        assert rss["relative_worsening"] == 0.2
        assert rss["status"] == "worse than bound"
        assert rss["change_wins"] == "0/10" and not rss["gain_rule"]
        # ties count for neither side
        assert summary["ok_frac"]["change_wins"] == "0/10"
    json.dumps(section)


def test_gain_rule_needs_nine_tenths_and_the_parent_spread():
    pairs = {str(i): {"parent": {"x": p}, "change": {"x": c}}
             for i, (p, c) in enumerate([(10, 11)] * 8 + [(10, 9)] * 2, 1)}
    metric = [{"name": "x", "better": "higher", "bound": 0.25}]
    assert not ab.summarize(pairs, metric)["x"]["gain_rule"]     # 8/10
    pairs["9"]["change"]["x"] = 11
    assert ab.summarize(pairs, metric)["x"]["gain_rule"]         # 9/10
    # a parent spread wider than the gap between the medians
    for i, p in enumerate((5, 20) * 5, 1):
        pairs[str(i)]["parent"]["x"] = p
        pairs[str(i)]["change"]["x"] = p + 1
    assert ab.summarize(pairs, metric)["x"]["change_wins"] == "10/10"
    assert not ab.summarize(pairs, metric)["x"]["gain_rule"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    metric = [{"name": "x", "better": "higher", "bound": 0.25}]

    def status(parent, change):
        pairs = {str(i): {"parent": {"x": p}, "change": {"x": c}}
                 for i, (p, c) in enumerate(zip(parent, change), 1)}
        return ab.summarize(pairs, metric)["x"]["status"]
    # parent quartiles 8.5 and 11.5 about a median of 10: a spread of 30%
    wide = [6, 8, 8, 10, 10, 10, 10, 12, 12, 14]
    assert status(wide, wide) == "unresolved"
    assert status(wide, [w + 1 for w in wide]) == "unresolved"
    # every change run beats every parent run
    assert status(wide, [15] * 10) == "within bound"
    # a median past the bound stays worse than it
    assert status(wide, [5] * 10) == "worse than bound"
    # within the spread the bound resolves
    narrow = [9, 10, 10, 10, 10, 10, 10, 10, 10, 11]
    assert status(narrow, [v - 1 for v in narrow]) == "within bound"


def _forget_trees():
    for name in [n for n in sys.modules
                 if n.split(".")[0] in ("delayrc_parent", "delayrc_change")]:
        del sys.modules[name]


def test_calls_imports_both_trees_as_two_packages():
    out = io.StringIO()
    try:
        section = ab.calls(ROOT, ROOT, "names.append(pkg.__name__)",
                           setup="names = []", rounds=3, log=out)
        parent, change = (sys.modules[f"delayrc_{s}"] for s in ab.SIDES)
        assert parent is not change
        assert parent._kernels is not change._kernels
    finally:
        _forget_trees()
    assert len(section["parent_s"]) == len(section["change_s"]) == 3
    assert len(section["ratios"]) == 3
    # the statement sets no `out`, so there are no bits to compare
    assert section["bitwise"] is None
    assert "3 alternated rounds" in out.getvalue()


def test_calls_sees_every_submodule_of_both_trees(tmp_path):
    # the package's __init__ does not import cli; the statement reaches it
    # all the same, and the CLI runs on both trees
    try:
        section = ab.calls(
            ROOT, ROOT, "out = pkg.cli.main(['dynamics', 'regime', out_arg])",
            setup=f"out_arg = 'out=' + {str(tmp_path)!r}", rounds=1,
            log=io.StringIO())
    finally:
        _forget_trees()
    assert section["bitwise"] is True
    assert (tmp_path / "regime.csv").exists()


def test_captured_recursions_replay_on_both_trees(tmp_path, monkeypatch):
    import delayrc
    from delayrc import _backend
    path = tmp_path / "calls.npz"
    argv = ["sweep-delay", "sweep.grid=0.26,0.5", "sweep.repeats=2",
            "task=sine_square", "task.n_waveforms=4", "task.periods=8",
            "task.washout=2"]
    # the states the CLI call computes, to compare the replay with
    states = []
    evolve = _backend.evolve_samples

    def kept(*args):
        states.append(evolve(*args))
        return states[-1]
    monkeypatch.setattr(_backend, "evolve_samples", kept)
    assert ab.capture(path, argv) == 2       # one lockstep group per delay
    monkeypatch.setattr(_backend, "evolve_samples", evolve)
    captured = ab.load_calls(path)
    assert [(u.shape, d, h.shape) for u, _, d, _, h in captured] == [
        ((2, 128), 13, (13,)), ((2, 128), 25, (25,))]
    assert ab.replay(delayrc, captured) == [ab.digest(s) for s in states]
    out = io.StringIO()
    try:
        section = ab.calls(ROOT, ROOT, "out = replay(pkg, calls)",
                           setup=f"calls = load_calls({str(path)!r})",
                           rounds=2, log=out)
        differ = ab.calls(ROOT, ROOT, "out = [pkg.__name__]", rounds=1,
                          log=out)
    finally:
        _forget_trees()
    assert section["bitwise"] is True and "out bitwise" in out.getvalue()
    assert differ["bitwise"] is False and "out DIFFER" in out.getvalue()


def test_calls_compares_array_outputs_by_their_bits():
    # an array out is compared by dtype, shape and bytes, not by ==, which
    # is elementwise, takes -0.0 for 0.0 and never nan for nan
    log = io.StringIO()
    side = "pkg.__name__ == 'delayrc_parent'"
    try:
        orbit = ab.calls(ROOT, ROOT, "out = pkg.dynamics.iterate(0.1, 50, "
                         "pkg.dynamics.OscillatorParams(G=1.49))",
                         rounds=1, log=log)
        nan = ab.calls(ROOT, ROOT, "out = (np.array([np.nan]), [1.5])",
                       setup="import numpy as np", rounds=1, log=log)
        zero = ab.calls(ROOT, ROOT,
                        f"out = np.array([0.0 if {side} else -0.0])",
                        setup="import numpy as np", rounds=1, log=log)
        dtype = ab.calls(ROOT, ROOT,
                         f"out = np.zeros(2, float if {side} else int)",
                         setup="import numpy as np", rounds=1, log=log)
    finally:
        _forget_trees()
    assert orbit["bitwise"] is True and nan["bitwise"] is True
    assert zero["bitwise"] is False and dtype["bitwise"] is False
