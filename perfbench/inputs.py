"""Seeded input generation for the benchmark workloads.

Runs in the benchmark's parent process, before anything is timed, and
writes plain files (CSV or .npy) plus a ``spec.json`` that tells the child
interpreter what to run. Only numpy and scipy are used here: the program
under test receives the generated files and arrays, nothing else.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.signal

WORKLOADS = ("cli-eeg", "scale-k256", "dsc-stream")

# cli-eeg: the acceptance-10 montage and settings, 59 channels at 500 Hz, cut
# from 60 s to 20 s (236 windows) so that a run holds several passes
EEG_CHANNELS = 59
EEG_SECONDS = 20
EEG_RATE = 500.0
EEG_REGIMES_HZ = (5.0, 15.0, 40.0)
EEG_RADIUS = 0.9
# single-window encodes and single-token decodes per pass, 2500 samples each
EEG_LATENCY_OPS = 300
# untraced children (fresh interpreters) per run; each repeats its pass
EEG_CHILDREN = 3

# scale-k256: many short windows so k-means at K 256 dominates training.
SCALE_RATE = 100.0
SCALE_WINDOW = 100
SCALE_CHANNELS = 8
SCALE_WINDOWS_PER_CHANNEL = 150
SCALE_PROTOTYPES = 384
# the source models are the same for every seed, so the corpus has the same
# cluster structure and k-means about the same number of Lloyd iterations;
# the seed draws which source each window comes from, and its noise
SCALE_PROTOTYPE_SEED = 20240807
# k-means seeds tried per pass, keeping the lowest inertia as users do. One
# Lloyd run takes 7 to 16 iterations, depending on corpus and seed, so the
# training time of a seed differs from that of another by up to a fifth.
SCALE_RESTARTS = 3
SCALE_LATENCY_OPS = 300
SCALE_CHILDREN = 3

# dsc-stream: K 64 DSC codebooks over mixed 2 s windows, then single-window ops.
DSC_RATE = 500.0
DSC_WINDOW = 1000
DSC_TRAIN_CHANNELS = 8
DSC_TRAIN_WINDOWS_PER_CHANNEL = 100
DSC_STREAM_WINDOWS = 1000
DSC_CHILDREN = 3
DSC_CODEBOOKS = 4  # k-means seeds; single operations rotate over the codebooks
DSC_KINDS = ("noise", "impulse", "tone", "walk", "ar2")
DSC_SPECTRAL_STEPS = 40  # distinct tone frequencies and AR(2) resonances

ORDER = 16
LAMBDA = 0.2


def _ar2_denominator(peak_hz: float, radius: float, rate: float) -> np.ndarray:
    theta = 2.0 * np.pi * peak_hz / rate
    return np.array([1.0, -2.0 * radius * np.cos(theta), radius * radius])


def _filtered_noise(rng, denominator, n: int, warmup: int = 500) -> np.ndarray:
    noise = rng.normal(size=n + warmup)
    return scipy.signal.lfilter([1.0], denominator, noise)[warmup:]


def _write_csv(path: Path, names, data: np.ndarray) -> None:
    # repr-style round-trip digits, one column per channel
    np.savetxt(path, data.T, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def _eeg(rng, work: Path) -> dict:
    n = int(EEG_SECONDS * EEG_RATE)
    data = np.stack([
        _filtered_noise(rng, _ar2_denominator(EEG_REGIMES_HZ[c % 3], EEG_RADIUS, EEG_RATE), n)
        for c in range(EEG_CHANNELS)
    ])
    names = [f"ch{c}" for c in range(EEG_CHANNELS)]
    _write_csv(work / "series.csv", names, data)
    np.save(work / "series.npy", data)
    return {
        "csv": "series.csv",
        "npy": "series.npy",
        "rate": EEG_RATE,
        "window_sec": 5.0,
        "k": 64,
        "method": "lpc",
        "latency_ops": EEG_LATENCY_OPS,
        "children": EEG_CHILDREN,
    }


def _random_ar(rng, rate: float) -> np.ndarray:
    """Denominator of 1 to 3 random resonances (conjugate pole pairs)."""
    denominator = np.array([1.0])
    for _ in range(int(rng.integers(1, 4))):
        peak = rng.uniform(0.02, 0.48) * rate
        radius = rng.uniform(0.5, 0.97)
        denominator = np.convolve(denominator, _ar2_denominator(peak, radius, rate))
    return denominator


def _scale(rng, work: Path) -> dict:
    # windows are drawn from a finite pool of random source models, so the
    # corpus has cluster structure for k-means to find
    sources = np.random.default_rng(SCALE_PROTOTYPE_SEED)
    prototypes = [_random_ar(sources, SCALE_RATE) for _ in range(SCALE_PROTOTYPES)]
    picks = rng.integers(SCALE_PROTOTYPES, size=SCALE_CHANNELS * SCALE_WINDOWS_PER_CHANNEL)
    windows = np.stack([
        _filtered_noise(rng, prototypes[p], SCALE_WINDOW, warmup=200) for p in picks
    ])
    data = windows.reshape(SCALE_CHANNELS, SCALE_WINDOWS_PER_CHANNEL * SCALE_WINDOW)
    np.save(work / "series.npy", data)
    return {
        "npy": "series.npy",
        "rate": SCALE_RATE,
        "window": SCALE_WINDOW,
        "k": 256,
        "n_cepstra": 32,
        "restarts": SCALE_RESTARTS,
        "latency_ops": SCALE_LATENCY_OPS,
        "children": SCALE_CHILDREN,
    }


def _mixed_window(rng, index: int) -> np.ndarray:
    """Window ``index`` of the mixed corpus.

    Kind, tone frequency and resonance follow from the index alone, so every
    seed draws the same mix of signals; the seed sets phases, noise, impulse
    positions and walks.
    """
    n = DSC_WINDOW
    kind = DSC_KINDS[index % len(DSC_KINDS)]
    step = (index // len(DSC_KINDS)) % DSC_SPECTRAL_STEPS / DSC_SPECTRAL_STEPS
    if kind == "noise":
        return rng.normal(size=n)
    if kind == "impulse":
        x = np.zeros(n)
        x[rng.integers(0, n, size=3)] = 10.0 * rng.normal(size=3)
        return x
    if kind == "tone":
        t = np.arange(n) / DSC_RATE
        freq = (0.01 + 0.43 * step) * DSC_RATE
        return np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi)) + 0.1 * rng.normal(size=n)
    if kind == "walk":
        return np.cumsum(rng.normal(size=n))
    peak = (0.005 + 0.39 * step) * DSC_RATE
    return _filtered_noise(rng, _ar2_denominator(peak, 0.6 + 0.38 * step, DSC_RATE), n)


def _mixed_windows(rng, count: int) -> np.ndarray:
    return np.stack([_mixed_window(rng, i) for i in range(count)])


def _dsc(rng, work: Path) -> dict:
    train = _mixed_windows(rng, DSC_TRAIN_CHANNELS * DSC_TRAIN_WINDOWS_PER_CHANNEL)
    train = train.reshape(DSC_TRAIN_CHANNELS, DSC_TRAIN_WINDOWS_PER_CHANNEL * DSC_WINDOW)
    np.save(work / "train.npy", train)
    np.save(work / "stream.npy", _mixed_windows(rng, DSC_STREAM_WINDOWS))
    return {
        "train_npy": "train.npy",
        "stream_npy": "stream.npy",
        "rate": DSC_RATE,
        "window": DSC_WINDOW,
        "k": 64,
        "codebooks": DSC_CODEBOOKS,
        "children": DSC_CHILDREN,
    }


_GENERATORS = {"cli-eeg": _eeg, "scale-k256": _scale, "dsc-stream": _dsc}


def generate(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs under ``work``; return the spec path."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = _GENERATORS[workload](rng, work)
    spec.update(workload=workload, seed=seed, order=ORDER, lam=LAMBDA)
    path = work / "spec.json"
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path
