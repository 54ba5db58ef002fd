"""Shared fixtures and generators for the test suite."""

import math

import numpy as np
import scipy.signal

from lipcot import lpc_core, testkit

FS = 500.0

# Seeded AR(2) recovery fixture: conjugate pole pair at radius 0.9, 10 Hz.
AR2_COEFFS = (-1.7858, 0.81)

# Realization of the fixture whose single-shot periodogram argmax happens to
# coincide with the fitted-model spectrum argmax (most realizations of this
# broad resonance do not agree that tightly).
AR2_SPECTRUM_SEED = 16


def reference_burg_warped(x, order, lam):
    """The warped Burg recursion on one window, with plain-float k.

    The error power is updated stage by stage, power = max((1 - k^2) power, 0),
    with k = 0 where the denominator is 0. Returns the same 4-tuple as
    ``lpc_core.warped_burg``: (coeffs, noise_power, stage_powers, reflections).
    """
    f = b = x
    power = float(x @ x) / x.size
    powers, ks = [power], []
    a = np.ones(1)
    for _ in range(order):
        b_hat = scipy.signal.lfilter([1.0], [1.0, -lam], b[:-1] - lam * b[1:])
        f_hat = f[1:]
        denom = f_hat @ f_hat + b_hat @ b_hat
        k = -2.0 * (b_hat @ f_hat) / denom if denom > 0.0 else 0.0
        f, b = f_hat + k * b_hat, b_hat + k * f_hat
        power = max((1.0 - k * k) * power, 0.0)
        powers.append(power)
        ks.append(k)
        padded = np.append(a, 0.0)
        a = padded + k * padded[::-1]
    return a[1:], power, np.array(powers), np.array(ks)


def reference_horner_tf(model):
    """The warped-to-conventional Horner expansion over numpy arrays.

    Each step is two ``np.convolve`` calls on two-tap kernels;
    ``lpc_core.to_conventional_tf`` must give the same bytes. Returns
    ``(numerator, denominator)`` with exact trailing zeros trimmed, keeping
    at least one coefficient.
    """
    up = np.array([1.0, -model.lam])  # 1 - lam*z^-1
    down = np.array([-model.lam, 1.0])  # z^-1 - lam
    a_full = np.concatenate(([1.0], model.coeffs))
    numerator, denominator = np.ones(1), a_full[-1:]
    for a_k in a_full[-2::-1]:
        numerator = np.convolve(numerator, up)
        denominator = np.convolve(denominator, down) + a_k * numerator

    def trim(coeffs):
        last = coeffs.size
        while last > 1 and coeffs[last - 1] == 0.0:
            last -= 1
        return coeffs[:last]

    return trim(numerator), trim(denominator)


def reference_two_stage_synthesis(model, n, seed):
    """``synthesize`` as a cascade of two filters, for a model that needs no clamp.

    Seeded noise is shaped by sqrt(1 - lam^2) / (1 - lam*z^-1), then driven
    through ``to_conventional_tf``'s (1 - lam*z^-1)^L / D(z); the first
    max(10 * order, 500) outputs are dropped. Returns the samples.
    """
    warmup = max(10 * model.order, 500)
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(model.noise_power), n + warmup)
    lam = model.lam
    excitation = scipy.signal.lfilter([math.sqrt(1.0 - lam * lam)], [1.0, -lam], noise)
    return scipy.signal.lfilter(*lpc_core.to_conventional_tf(model), excitation)[warmup:]


def reference_cepstrum_to_lpc(ceps, order):
    """The cepstrum-to-LPC recursion over numpy scalars.

    a_1 = -c_1 and a_i = -c_i - sum_{m<i} (1 - m/i) a_m c_{i-m}, the sum
    folded from 0.0 in m order; ``latent.cepstrum_to_lpc`` must give the
    same bytes. Returns ``(coeffs, noise_power)``.
    """
    c = np.asarray(ceps, dtype=float)
    a = np.empty(order)
    a[0] = -c[1]
    for i in range(2, order + 1):
        acc = 0.0
        for m in range(1, i):
            acc += (1.0 - m / i) * a[m - 1] * c[i - m]
        a[i - 1] = -c[i] - acc
    return a, math.exp(c[0])


def reference_latent_to_model(values, method, order, sample_rate):
    """One latent point's inverse on its own, as ``decode_token`` once ran it per token.

    Returns ``(coeffs, noise_power)``, or the message of the
    ``NonRealizableError`` that refuses the point: a dominant-spectral
    expansion that leaves an imaginary residue, checked first, or a model
    past float64's range. ``latent.model_matrix`` must give the same bytes
    and the same messages.
    """
    values = np.asarray(values, dtype=float)
    beyond = "latent point maps to a model beyond float64's range"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if method.tag == "lpc":
                coeffs, noise_power = values[:order], math.exp(values[-1])
            elif method.tag == "cepstrum":
                weights = np.sqrt(np.concatenate(([1.0], np.arange(1, method.n_cepstra + 1))))
                coeffs, noise_power = reference_cepstrum_to_lpc(values / weights, order)
            else:
                radii = 1.0 - np.exp(-values[order : 2 * order] / 2.0)
                angles = 2.0 * np.pi * values[:order] / sample_rate
                expanded = lpc_core.poles_to_coeffs(radii * np.exp(1j * angles))
                residue = np.max(np.abs(expanded.imag))
                if residue >= 1e-6:
                    return f"pole expansion leaves imaginary residue {residue:.3g}"
                coeffs, noise_power = expanded.real, math.exp(values[-1])
    except OverflowError:
        return beyond
    if not (math.isfinite(noise_power) and np.all(np.isfinite(coeffs))):
        return beyond
    return coeffs, noise_power


def ar2_coeffs(pole_hz: float, radius: float = 0.9, fs: float = FS) -> tuple:
    """Predictor coefficients of a conjugate pole pair at angle ``pole_hz``.

    ``pole_hz`` is the pole angle in Hz, not the spectral peak: the AR(2)
    resonance sits below it, at cos(theta_peak) = (1+r^2)/(2r) * cos(theta_pole).
    """
    return (-2.0 * radius * np.cos(2.0 * np.pi * pole_hz / fs), radius * radius)


def random_stable_model(rng, order, lam=0.0, fs=FS, radius_range=(0.3, 0.95)):
    """A model built from random conjugate pole pairs (plus one real pole if odd)."""
    poles = []
    for _ in range(order // 2):
        radius = rng.uniform(*radius_range)
        angle = rng.uniform(0.1, np.pi - 0.1)
        pole = radius * np.exp(1j * angle)
        poles.extend([pole, pole.conjugate()])
    if order % 2:
        poles.append(complex(rng.uniform(0.1, radius_range[1])))
    coeffs = lpc_core.poles_to_coeffs(poles).real
    noise_power = float(rng.uniform(0.5, 2.0))
    return lpc_core.LpcModel(order, coeffs, noise_power, lam, fs)


def random_segments(rng, count, n_range=(64, 513), kinds=("noise",)):
    """Mixed test signals: white noise, near-constant, impulses, tones, walks."""
    segments = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(*n_range))
        if kind == "noise":
            x = rng.normal(size=n)
        elif kind == "near-constant":
            x = 1000.0 + 1e-6 * rng.normal(size=n)
        elif kind == "impulse":
            x = np.zeros(n)
            x[rng.integers(0, n, size=3)] = 10.0 * rng.normal(size=3)
        elif kind == "tone":
            t = np.arange(n)
            x = np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 2 * np.pi))
            x += 0.1 * rng.normal(size=n)
        else:  # "walk"
            x = np.cumsum(rng.normal(size=n))
        segments.append(lpc_core.Segment(x, FS))
    return segments


def predictable_windows(n: int) -> tuple:
    """Non-constant windows a lambda-0 fit predicts without error.

    Alternating +-1 is cancelled exactly by the first Burg stage (k = 1); a
    lone 1e-170 sample has a power that underflows to zero.
    """
    alternating = np.tile([1.0, -1.0], n // 2)
    lone = np.zeros(n)
    lone[n // 3] = 1e-170
    return alternating, lone


def ar2_fixture_series(seed: int, n: int = 2500) -> np.ndarray:
    return testkit.generate_ar(testkit.ArSpec(AR2_COEFFS, 1.0, seed=seed), n)


def purity(labels: np.ndarray, assignments: np.ndarray, k: int) -> float:
    total = 0
    for token in range(k):
        members = labels[assignments == token]
        if members.size:
            total += np.bincount(members).max()
    return total / labels.size
