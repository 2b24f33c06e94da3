"""Benchmark data: waveform classification, tenth-order NARMA regression,
and 9-speaker vowel sequence classification (file ingestion plus a
synthetic stand-in), with seeded train/test splitting."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import ConfigurationError, DataFormatError, NumericsError

__all__ = [
    "LabeledSeries", "SequenceSample", "Split", "SplitPart",
    "gen_sine_square", "gen_narma10", "narma10_recurrence",
    "load_japanese_vowels", "encode_multiplexed", "decode_multiplexed",
    "gen_synthetic_vowels", "split_train_test",
]

# input draws gen_narma10 tries before it gives up on a diverging series
NARMA_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class LabeledSeries:
    """Scalar input stream u paired with per-step targets y (channels x N).

    segments, when present, partition [0, N) into (start, end, label)
    spans for sequence classification.
    """

    u: np.ndarray
    y: np.ndarray
    segments: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:
            y = y[None, :]
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        if y.shape[1] != u.size:
            raise ConfigurationError(
                f"u has {u.size} steps but y has {y.shape[1]}")
        if self.segments is not None:
            segs = tuple((int(a), int(b), int(c)) for a, b, c in self.segments)
            object.__setattr__(self, "segments", segs)
            pos = 0
            for a, b, _ in segs:
                if a != pos or b <= a:
                    raise ConfigurationError("segments must partition [0, N)")
                pos = b
            if pos != u.size:
                raise ConfigurationError("segments must partition [0, N)")

    @property
    def n_steps(self) -> int:
        return self.u.size


def gen_sine_square(n_waveforms: int = 20, samples_per_period=(3, 5),
                    periods_per_waveform: int = 128, seed: int = 0) -> LabeledSeries:
    """Concatenated stream of unit-amplitude sine and square waveforms.

    Classes are exactly balanced and randomly ordered; each waveform gets a
    random integer period (in samples) from the given inclusive range.
    Target is 1 on sine steps, 0 on square steps. The defaults put several
    full periods in every waveform at 3 to 5 samples per period, which
    keeps the per-step class evidence within the short memory of a delay
    reservoir; longer periods make the task dramatically harder for any
    fixed operating point.
    """
    if n_waveforms < 2 or n_waveforms % 2:
        raise ConfigurationError(
            f"n_waveforms must be even and >= 2, got {n_waveforms}")
    lo, hi = int(samples_per_period[0]), int(samples_per_period[1])
    if lo < 3 or hi < lo:
        raise ConfigurationError(
            f"samples_per_period must satisfy 3 <= lo <= hi, got ({lo}, {hi})")
    if periods_per_waveform < 1:
        raise ConfigurationError("periods_per_waveform must be >= 1")
    rng = np.random.default_rng(seed)
    labels = rng.permutation([1] * (n_waveforms // 2) + [0] * (n_waveforms // 2))
    chunks, segs, pos = [], [], 0
    for lab in labels:
        P = int(rng.integers(lo, hi + 1))
        j = np.arange(P * periods_per_waveform)
        if lab:
            w = np.sin(2 * np.pi * j / P)
        else:
            w = np.where(j % P < P / 2, 1.0, -1.0)
        chunks.append(w)
        segs.append((pos, pos + w.size, int(lab)))
        pos += w.size
    u = np.concatenate(chunks)
    y = np.concatenate([np.full(b - a, float(c)) for a, b, c in segs])
    meta = {"task": "sine_square", "seed": seed, "n_waveforms": n_waveforms,
            "samples_per_period": (lo, hi),
            "periods_per_waveform": periods_per_waveform}
    return LabeledSeries(u=u, y=y, segments=tuple(segs), meta=meta)


def narma10_recurrence(u) -> np.ndarray:
    """Tenth-order NARMA response to a given input sequence, zero history.

    Steps on Python floats, whose + and * round as numpy's float64 does
    and overflow to inf and nan without a warning, reading u and writing y
    through memoryviews, whose items are Python floats. The sum reads the
    last ten outputs from a short list, which is faster than reading them
    back from y.
    """
    u = memoryview(np.asarray(u, dtype=float).ravel())
    out = np.zeros(len(u))
    y = memoryview(out)
    # yt is y(t); last holds y(t), y(t-1), ..., back to y(t-9) or y(0)
    yt, last = 0.0, []
    for t in range(len(u) - 1):
        last.insert(0, yt)
        del last[10:]
        acc = 0.0
        for v in last:
            acc += v
        u9 = u[t - 9] if t >= 9 else 0.0
        yt = 0.3 * yt + 0.05 * yt * acc + 1.5 * u9 * u[t] + 0.1
        y[t + 1] = yt
    return out


def gen_narma10(length: int, seed: int = 0) -> LabeledSeries:
    """Input drawn i.i.d. uniform on [0, 0.5]; target from the order-10
    recurrence. The recurrence can blow up for unlucky inputs, so any
    sequence with |y| > 1 is regenerated from a derived seed; the number of
    regenerations is recorded in meta. After NARMA_MAX_ATTEMPTS diverging
    draws NumericsError is raised.
    """
    if length < 11:
        raise ConfigurationError(f"length must be >= 11, got {length}")
    for attempt in range(NARMA_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        u = rng.uniform(0.0, 0.5, length)
        # a diverging draw may overflow to inf; it is rejected just below
        y = narma10_recurrence(u)
        if np.all(np.abs(y) <= 1.0):
            break
    else:
        raise NumericsError(
            f"NARMA10 recurrence diverged on all {NARMA_MAX_ATTEMPTS} input "
            f"draws (length={length}, seed={seed})")
    meta = {"task": "narma10", "seed": seed, "length": length,
            "regenerated": attempt}
    return LabeledSeries(u=u, y=y, meta=meta)


# ------------------------------------------------------------- vowel data

@dataclass(frozen=True)
class SequenceSample:
    """One utterance: frames (length x channels), speaker label, split tag."""

    frames: np.ndarray
    label: int
    split: str = "train"


N_VOWEL_CHANNELS = 12
N_VOWEL_SPEAKERS = 9
# canonical per-speaker utterance counts of the two distribution files
TRAIN_COUNTS = (30,) * 9
TEST_COUNTS = (31, 35, 88, 44, 29, 24, 40, 50, 29)
# frames per synthetic utterance, drawn from [lo, hi)
SYNTHETIC_FRAMES = (12, 26)


def _parse_blocks(path):
    """Blank-line separated blocks of whitespace rows, 12 floats each."""
    sequences, frames = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                if frames:
                    sequences.append((np.array(frames), lineno))
                    frames = []
                continue
            cols = line.split()
            if len(cols) != N_VOWEL_CHANNELS:
                raise DataFormatError(
                    f"expected {N_VOWEL_CHANNELS} columns, got {len(cols)}",
                    line=lineno)
            try:
                frames.append([float(c) for c in cols])
            except ValueError:
                raise DataFormatError("non-numeric value", line=lineno) from None
    if frames:
        sequences.append((np.array(frames), lineno))
    return sequences


def _assign_labels(sequences, counts, split, path):
    if sum(counts) != len(sequences):
        raise DataFormatError(
            f"{path}: found {len(sequences)} sequences, expected {sum(counts)} "
            f"from per-speaker counts {list(counts)}")
    out, idx = [], 0
    for label, count in enumerate(counts):
        for _ in range(count):
            out.append(SequenceSample(frames=sequences[idx][0], label=label,
                                      split=split))
            idx += 1
    return out


def load_japanese_vowels(path) -> list[SequenceSample]:
    """Load the 640 cepstrum-coefficient utterances of the 9-speaker set.

    path is a directory holding ae.train and ae.test. Speaker labels come
    from the documented per-speaker block counts; a counts.json sidecar
    ({"train": [...], "test": [...]}) overrides them. Channels are
    standardized to zero mean, unit variance using training statistics.
    """
    train_file = os.path.join(path, "ae.train")
    test_file = os.path.join(path, "ae.test")
    for f in (train_file, test_file):
        if not os.path.isfile(f):
            raise DataFormatError(f"missing dataset file: {f}")
    tr_counts, te_counts = TRAIN_COUNTS, TEST_COUNTS
    sidecar = os.path.join(path, "counts.json")
    if os.path.isfile(sidecar):
        with open(sidecar) as fh:
            man = json.load(fh)
        tr_counts = tuple(man.get("train", tr_counts))
        te_counts = tuple(man.get("test", te_counts))
    samples = _assign_labels(_parse_blocks(train_file), tr_counts, "train",
                             train_file)
    samples += _assign_labels(_parse_blocks(test_file), te_counts, "test",
                              test_file)
    train_frames = np.concatenate(
        [s.frames for s in samples if s.split == "train"])
    mean = train_frames.mean(axis=0)
    std = train_frames.std(axis=0)
    std[std == 0.0] = 1.0
    return [SequenceSample(frames=(s.frames - mean) / std, label=s.label,
                           split=s.split) for s in samples]


def gen_synthetic_vowels(n_per_class: int, seed: int = 0) -> list[SequenceSample]:
    """Stand-in for the real utterances when the files are absent.

    Each class is a random stable linear dynamical system (12 channels)
    with a class-specific drift, observed with noise. Classes are separable
    by construction but far from trivially so.
    """
    if n_per_class < 1:
        raise ConfigurationError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = np.random.default_rng([seed])
    out = []
    for label in range(N_VOWEL_SPEAKERS):
        A = rng.normal(0.0, 1.0, (N_VOWEL_CHANNELS, N_VOWEL_CHANNELS))
        radius = np.max(np.abs(np.linalg.eigvals(A)))
        A *= (0.6 + 0.25 * rng.random()) / radius
        drift = rng.normal(0.0, 0.8, N_VOWEL_CHANNELS)
        n_train = max(1, (n_per_class + 1) // 2)
        for j in range(n_per_class):
            L = int(rng.integers(*SYNTHETIC_FRAMES))
            x = rng.normal(0.0, 0.5, N_VOWEL_CHANNELS)
            frames = np.empty((L, N_VOWEL_CHANNELS))
            for t in range(L):
                x = A @ x + drift + rng.normal(0.0, 0.35, N_VOWEL_CHANNELS)
                frames[t] = x
            out.append(SequenceSample(
                frames=frames, label=label,
                split="train" if j < n_train else "test"))
    return out


def encode_multiplexed(samples, class_count: int) -> LabeledSeries:
    """Serialize frame sequences into one scalar stream.

    Each frame occupies n_channels consecutive input steps (channels in
    order); the target is the one-hot class vector held constant over the
    sequence. Segment spans are recorded for error-rate scoring.
    """
    if class_count < 2:
        raise ConfigurationError(f"class_count must be >= 2, got {class_count}")
    samples = list(samples)
    if not samples:
        raise ConfigurationError("no sequences to encode")
    n_ch = samples[0].frames.shape[1]
    chunks, segs, pos = [], [], 0
    for s in samples:
        if s.frames.ndim != 2 or s.frames.shape[1] != n_ch:
            raise ConfigurationError("all sequences must share the channel count")
        if not 0 <= s.label < class_count:
            raise ConfigurationError(
                f"label {s.label} out of range for {class_count} classes")
        flat = s.frames.ravel()
        chunks.append(flat)
        segs.append((pos, pos + flat.size, int(s.label)))
        pos += flat.size
    u = np.concatenate(chunks)
    y = np.zeros((class_count, u.size))
    for a, b, c in segs:
        y[c, a:b] = 1.0
    meta = {"task": "vowels", "n_channels": n_ch,
            "splits": tuple(s.split for s in samples)}
    return LabeledSeries(u=u, y=y, segments=tuple(segs), meta=meta)


def decode_multiplexed(series: LabeledSeries) -> list[np.ndarray]:
    """Inverse of encode_multiplexed (frame recovery, labels via segments)."""
    n_ch = series.meta["n_channels"]
    return [series.u[a:b].reshape(-1, n_ch) for a, b, _ in series.segments]


# ------------------------------------------------------------------ split

@dataclass(frozen=True)
class SplitPart:
    steps: np.ndarray           # boolean step mask
    segments: tuple = ()


class Split(NamedTuple):
    train: SplitPart
    test: SplitPart


def split_train_test(data: LabeledSeries, fraction: float, seed: int = 0,
                     unit: str = "step-block") -> Split:
    """Deterministic seeded train/test split.

    unit="step-block" cuts the stream into two contiguous blocks (the seed
    decides which side is train), preserving temporal alignment for
    regression tasks. unit="segment" assigns whole classification segments,
    stratified by class, never cutting one.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    n = data.n_steps
    rng = np.random.default_rng([seed])
    if unit == "step-block":
        cut = int(round(n * fraction))
        if cut < 1 or cut >= n:
            raise ConfigurationError(
                f"fraction {fraction} yields an empty side for {n} steps")
        first = np.zeros(n, dtype=bool)
        first[:cut] = True
        train_first = bool(rng.integers(0, 2))
        tr = first if train_first else ~first
        return Split(SplitPart(steps=tr), SplitPart(steps=~tr))
    if unit == "segment":
        if not data.segments:
            raise ConfigurationError("segment split requires segment metadata")
        by_class: dict[int, list[int]] = {}
        for idx, (_, _, c) in enumerate(data.segments):
            by_class.setdefault(c, []).append(idx)
        tr_idx = []
        for c in sorted(by_class):
            idx = np.array(by_class[c])
            take = int(round(fraction * idx.size))
            tr_idx.extend(idx[rng.permutation(idx.size)[:take]])
        tr_set = set(tr_idx)
        if not tr_set or len(tr_set) == len(data.segments):
            raise ConfigurationError(
                f"fraction {fraction} yields an empty side over "
                f"{len(data.segments)} segments")
        tr_mask = np.zeros(n, dtype=bool)
        tr_segs, te_segs = [], []
        for idx, (a, b, c) in enumerate(data.segments):
            if idx in tr_set:
                tr_mask[a:b] = True
                tr_segs.append((a, b, c))
            else:
                te_segs.append((a, b, c))
        return Split(SplitPart(steps=tr_mask, segments=tuple(tr_segs)),
                     SplitPart(steps=~tr_mask, segments=tuple(te_segs)))
    raise ConfigurationError(f"unit must be step-block or segment, got {unit!r}")

