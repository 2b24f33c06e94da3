"""Benchmark generators, the utterance loader, splits."""

import numpy as np
import pytest

from delayrc import tasks
from delayrc.exceptions import ConfigurationError, DataFormatError, NumericsError
from delayrc.tasks import (
    LabeledSeries,
    TEST_COUNTS,
    TRAIN_COUNTS,
    decode_multiplexed,
    encode_multiplexed,
    gen_narma10,
    gen_sine_square,
    gen_synthetic_vowels,
    load_japanese_vowels,
    narma10_recurrence,
    split_train_test,
)


# ---------------------------------------------------------- labeled series

def test_series_promotes_targets_to_2d():
    s = LabeledSeries(u=np.zeros(4), y=np.arange(4.0))
    assert s.y.shape == (1, 4)
    assert s.n_steps == 4


def test_series_rejects_length_mismatch():
    with pytest.raises(ConfigurationError):
        LabeledSeries(u=np.zeros(4), y=np.zeros(5))


def test_series_rejects_non_partition_segments():
    with pytest.raises(ConfigurationError):
        LabeledSeries(u=np.zeros(4), y=np.zeros(4), segments=((0, 2, 0), (3, 4, 1)))


# ------------------------------------------------------------- sine/square

def test_sine_square_balanced_and_seeded():
    s = gen_sine_square(seed=3)
    labels = [c for _, _, c in s.segments]
    assert len(labels) == 20
    assert sum(labels) == 10
    again = gen_sine_square(seed=3)
    assert np.array_equal(s.u, again.u)
    assert s.segments == again.segments
    assert not np.array_equal(s.u, gen_sine_square(seed=4).u)


def test_sine_square_segment_content():
    s = gen_sine_square(n_waveforms=8, samples_per_period=(3, 5),
                        periods_per_waveform=16, seed=0)
    for a, b, lab in s.segments:
        w = s.u[a:b]
        assert np.array_equal(s.y[0, a:b], np.full(b - a, float(lab)))
        # infer the period from the segment length factorization
        n = b - a
        P = n // 16
        assert P * 16 == n and 3 <= P <= 5
        if lab == 0:
            assert set(np.unique(w)) == {-1.0, 1.0}
            # first half of each period high, rest low
            expect = np.where(np.arange(n) % P < P / 2, 1.0, -1.0)
            assert np.array_equal(w, expect)
        else:
            assert np.allclose(w, np.sin(2 * np.pi * np.arange(n) / P), atol=1e-12)
            assert np.max(np.abs(w)) <= 1.0


def test_sine_square_periodicity():
    s = gen_sine_square(n_waveforms=4, samples_per_period=(4, 4),
                        periods_per_waveform=32, seed=1)
    for a, b, _ in s.segments:
        w = s.u[a:b]
        assert np.allclose(w[4:], w[:-4], atol=1e-9)


def test_sine_square_validation():
    with pytest.raises(ConfigurationError):
        gen_sine_square(n_waveforms=5)
    with pytest.raises(ConfigurationError):
        gen_sine_square(samples_per_period=(2, 5))
    with pytest.raises(ConfigurationError):
        gen_sine_square(samples_per_period=(5, 3))


# ----------------------------------------------------------------- narma10

def test_narma_zero_input_fixed_point():
    y = narma10_recurrence(np.zeros(4000))
    assert y[0] == 0.0
    assert y[1] == pytest.approx(0.1, abs=1e-15)
    # attracting root of 0.5 q^2 - 0.7 q + 0.1 = 0
    q = (0.7 - np.sqrt(0.49 - 0.2)) / 1.0
    assert y[-1] == pytest.approx(q, abs=1e-10)


def test_narma_oracle_direct():
    # transcription with explicit indexing on numpy entries, no vector ops,
    # compared bit for bit: a bounded draw; gen_narma10's first draw for
    # seed 83, which diverges to inf; and products past 1e308 of either
    # sign, which give inf and nan
    nonfinite = []
    for u in (np.random.default_rng(42).uniform(0, 0.5, 200),
              np.random.default_rng([83, 0]).uniform(0, 0.5, 2000),
              np.random.default_rng(9).uniform(-1e200, 1e200, 300)):
        y = np.zeros(u.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(u.size - 1):
                s = sum(y[t - i] for i in range(10) if t - i >= 0)
                y[t + 1] = (0.3 * y[t] + 0.05 * y[t] * s
                            + 1.5 * (u[t - 9] if t >= 9 else 0.0) * u[t] + 0.1)
        assert np.array_equal(narma10_recurrence(u).view(np.int64),
                              y.view(np.int64))
        nonfinite.append((np.isinf(y).any(), np.isnan(y).any()))
    assert nonfinite == [(False, False), (True, False), (True, True)]


def test_gen_narma_gives_up_after_bounded_attempts(monkeypatch):
    calls = []

    def diverging(u):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("gen_narma10 retries without a bound")
        return np.full(len(u), 2.0)

    monkeypatch.setattr(tasks, "narma10_recurrence", diverging)
    with pytest.raises(NumericsError):
        gen_narma10(50, seed=0)
    assert len(calls) == tasks.NARMA_MAX_ATTEMPTS


def test_gen_narma_bounded_and_seeded():
    s = gen_narma10(2000, seed=5)
    assert s.u.shape == (2000,)
    assert np.all(s.u >= 0) and np.all(s.u <= 0.5)
    assert np.max(np.abs(s.y)) <= 1.0
    assert s.meta["regenerated"] >= 0
    assert np.array_equal(s.y, gen_narma10(2000, seed=5).y)
    with pytest.raises(ConfigurationError):
        gen_narma10(10)


# ------------------------------------------------------------- vowel files

AE_BLOCK = """\
1.0 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.1 1.2
1.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.2 1.3

2.0 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.1 1.2
2.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.2 1.3
2.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9 1.0 1.1 1.3 1.4

"""


def _write_tiny_dataset(root):
    (root / "ae.train").write_text(AE_BLOCK)
    (root / "ae.test").write_text(AE_BLOCK.replace("1.0", "9.0", 1))
    counts = {"train": [1, 1, 0, 0, 0, 0, 0, 0, 0],
              "test": [0, 1, 1, 0, 0, 0, 0, 0, 0]}
    import json
    (root / "counts.json").write_text(json.dumps(counts))


def test_load_vowels_tiny_fixture(tmp_path):
    _write_tiny_dataset(tmp_path)
    samples = load_japanese_vowels(tmp_path)
    assert len(samples) == 4
    assert [s.split for s in samples] == ["train", "train", "test", "test"]
    assert [s.label for s in samples] == [0, 1, 1, 2]
    assert samples[0].frames.shape == (2, 12)
    assert samples[1].frames.shape == (3, 12)
    # standardization uses the training statistics
    train_frames = np.concatenate([samples[0].frames, samples[1].frames])
    assert np.allclose(train_frames.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train_frames.std(axis=0), 1.0, atol=1e-12)


def test_load_vowels_bad_column_count(tmp_path):
    _write_tiny_dataset(tmp_path)
    (tmp_path / "ae.train").write_text("0.1 0.2 0.3\n")
    with pytest.raises(DataFormatError) as exc:
        load_japanese_vowels(tmp_path)
    assert "line 1" in str(exc.value)
    assert "12" in str(exc.value)


def test_load_vowels_non_numeric(tmp_path):
    _write_tiny_dataset(tmp_path)
    bad = " ".join(["0.1"] * 11 + ["oops"]) + "\n"
    (tmp_path / "ae.test").write_text(bad)
    with pytest.raises(DataFormatError) as exc:
        load_japanese_vowels(tmp_path)
    assert "line 1" in str(exc.value)


def test_load_vowels_count_mismatch(tmp_path):
    _write_tiny_dataset(tmp_path)
    import json
    (tmp_path / "counts.json").write_text(
        json.dumps({"train": [5, 0, 0, 0, 0, 0, 0, 0, 0],
                    "test": [0, 1, 1, 0, 0, 0, 0, 0, 0]}))
    with pytest.raises(DataFormatError):
        load_japanese_vowels(tmp_path)


def test_load_vowels_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_japanese_vowels(tmp_path)


def test_canonical_counts():
    assert TRAIN_COUNTS == (30,) * 9
    assert sum(TRAIN_COUNTS) == 270
    assert TEST_COUNTS == (31, 35, 88, 44, 29, 24, 40, 50, 29)
    assert sum(TEST_COUNTS) == 370


# -------------------------------------------------------- synthetic vowels

def test_synthetic_vowels_structure():
    samples = gen_synthetic_vowels(10, seed=0)
    assert len(samples) == 90
    labels = sorted({s.label for s in samples})
    assert labels == list(range(9))
    for s in samples:
        assert s.frames.shape[1] == 12
        assert 12 <= s.frames.shape[0] < 26
        assert np.all(np.isfinite(s.frames))
    per_class = {c: [s for s in samples if s.label == c] for c in labels}
    for c, group in per_class.items():
        assert sum(1 for s in group if s.split == "train") == 5


def test_synthetic_vowels_deterministic():
    a = gen_synthetic_vowels(4, seed=9)
    b = gen_synthetic_vowels(4, seed=9)
    for s, t in zip(a, b):
        assert np.array_equal(s.frames, t.frames)


def test_synthetic_vowels_classes_are_separable():
    samples = gen_synthetic_vowels(40, seed=0)
    train = [s for s in samples if s.split == "train"]
    test = [s for s in samples if s.split == "test"]
    cent = {c: np.mean([s.frames.mean(axis=0) for s in train if s.label == c],
                       axis=0) for c in range(9)}

    def nearest(s):
        return min(cent, key=lambda c: np.linalg.norm(s.frames.mean(axis=0) - cent[c]))

    err = np.mean([nearest(s) != s.label for s in test])
    assert err < 0.30


# ---------------------------------------------------------------- encoding

def test_encode_decode_roundtrip():
    samples = gen_synthetic_vowels(2, seed=1)
    series = encode_multiplexed(samples, 9)
    assert series.u.ndim == 1
    assert series.y.shape[0] == 9
    assert np.allclose(series.y.sum(axis=0), 1.0)
    frames = decode_multiplexed(series)
    assert len(frames) == len(samples)
    for got, s in zip(frames, samples):
        assert np.array_equal(got, s.frames)
    for (a, b, c), s in zip(series.segments, samples):
        assert c == s.label
        assert b - a == s.frames.size


def test_encode_validation():
    samples = gen_synthetic_vowels(2, seed=1)
    with pytest.raises(ConfigurationError):
        encode_multiplexed(samples, 4)  # labels up to 8 out of range
    with pytest.raises(ConfigurationError):
        encode_multiplexed([], 9)


# ------------------------------------------------------------------ splits

def test_step_block_split_sizes():
    s = gen_narma10(20, seed=0)
    sp = split_train_test(s, 0.5, seed=0, unit="step-block")
    n_tr = int(sp.train.steps.sum())
    n_te = int(sp.test.steps.sum())
    assert {n_tr, n_te} == {10}
    assert not np.any(sp.train.steps & sp.test.steps)
    assert np.all(sp.train.steps | sp.test.steps)
    # both halves are contiguous runs
    for mask in (sp.train.steps, sp.test.steps):
        idx = np.flatnonzero(mask)
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


def test_step_block_split_large():
    s = gen_narma10(8000, seed=1)
    sp = split_train_test(s, 0.5, seed=1, unit="step-block")
    assert int(sp.train.steps.sum()) == 4000
    assert int(sp.test.steps.sum()) == 4000


def test_step_block_side_choice_is_seeded():
    s = gen_narma10(100, seed=0)
    first_is_train = set()
    for seed in range(12):
        sp = split_train_test(s, 0.5, seed=seed, unit="step-block")
        first_is_train.add(bool(sp.train.steps[0]))
    assert first_is_train == {True, False}
    a = split_train_test(s, 0.5, seed=3, unit="step-block")
    b = split_train_test(s, 0.5, seed=3, unit="step-block")
    assert np.array_equal(a.train.steps, b.train.steps)


def test_segment_split_is_stratified():
    s = gen_sine_square(n_waveforms=20, seed=2)
    sp = split_train_test(s, 0.5, seed=2, unit="segment")
    for part in (sp.train, sp.test):
        labs = [c for _, _, c in part.segments]
        assert len(labs) == 10
        assert sum(labs) == 5
    # segment step masks cover exactly their spans
    for part in (sp.train, sp.test):
        mask = np.zeros(s.n_steps, dtype=bool)
        for a, b, _ in part.segments:
            mask[a:b] = True
        assert np.array_equal(mask, part.steps)


def test_split_fraction_validation():
    s = gen_narma10(50, seed=0)
    with pytest.raises(ConfigurationError):
        split_train_test(s, 0.0)
    with pytest.raises(ConfigurationError):
        split_train_test(s, 1.5)
    with pytest.raises(ConfigurationError):
        split_train_test(s, 0.5, unit="bogus")
