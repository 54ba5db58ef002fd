"""Independent oracles for tests and acceptance runs.

A classical (unwarped) Burg estimator, a seeded autoregressive signal
generator, a DFT periodogram, and the cepstrum of a pole set by power sums.
The Burg estimator, the periodogram and the power sums deliberately share
no numeric kernels with the code they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.signal

from ._util import whole
from .errors import DegenerateInputError, InvalidOrderError, UnstableModelError


@dataclass(frozen=True)
class ArSpec:
    """An autoregressive source x_n = -sum(a_k x_{n-k}) + eta_n.

    ``coeffs`` follows the predictor-denominator sign convention, so the
    recursion subtracts them; ``noise_power`` is the variance of the seeded
    Gaussian driving noise.
    """

    coeffs: tuple
    noise_power: float
    seed: int

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coeffs)
        if not coeffs:
            raise ValueError("ArSpec needs at least one coefficient")
        roots = np.roots(np.concatenate(([1.0], coeffs)))
        if roots.size and np.abs(roots).max() >= 1.0:
            raise UnstableModelError("AR recursion is not stable")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
        object.__setattr__(self, "coeffs", coeffs)


def reference_burg(samples, order: int):
    """Textbook forward-backward Burg estimate of (coeffs, noise_power).

    Independent reference for the warped fit at lam = 0: real arithmetic,
    eagerly truncated error vectors, no shared code with the warped
    recursion. The input mean is removed before fitting.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    order = whole(order, "order")
    if order < 1 or n <= order:
        raise InvalidOrderError(f"need more samples ({n}) than the order ({order})")
    if np.all(x == x[0]):
        raise DegenerateInputError("constant signal has no power")
    x = x - x.mean()
    forward = x[1:].copy()
    backward = x[:-1].copy()
    a = np.array([1.0])
    error_power = float(x @ x) / n
    for _ in range(order):
        denom = forward @ forward + backward @ backward
        k = -2.0 * (forward @ backward) / denom if denom > 0.0 else 0.0
        a = np.append(a, 0.0)
        a = a + k * a[::-1]
        error_power *= 1.0 - k * k
        forward, backward = (forward + k * backward)[1:], (backward + k * forward)[:-1]
    return a[1:], error_power


def generate_ar(spec: ArSpec, n: int) -> np.ndarray:
    """Seeded realization of the AR source, warm-up prefix discarded."""
    n = whole(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    order = len(spec.coeffs)
    warmup = max(10 * order, 500)
    rng = np.random.default_rng(spec.seed)
    noise = rng.normal(0.0, math.sqrt(spec.noise_power), n + warmup)
    denominator = np.concatenate(([1.0], spec.coeffs))
    return scipy.signal.lfilter([1.0], denominator, noise)[warmup:]


def periodogram(samples, sample_rate: float):
    """One-sided DFT power spectral density.

    Bin k sits at k * sample_rate / N; values are |X_k|^2 / (N * sample_rate)
    with interior bins doubled, so the sum times the bin width recovers the
    mean square of the input.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("periodogram needs at least two samples")
    if not sample_rate > 0:
        raise ValueError("sample_rate must be positive")
    spectrum = np.fft.rfft(x)
    power = np.abs(spectrum) ** 2 / (n * sample_rate)
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin has no mirror image
    freqs = np.arange(power.size) * (sample_rate / n)
    return freqs, power


def cepstrum_from_poles(pole_values, noise_power: float, count: int) -> np.ndarray:
    """Cepstrum via the power-sum formula c_n = (1/n) * sum_m p_m^n, c_0 = log sigma^2.

    Independent of the coefficient recursion in ``latent``; used as a cross-check.
    """
    p = np.asarray(pole_values, dtype=complex)
    c = np.empty(count + 1)
    c[0] = math.log(noise_power)
    powers = np.ones_like(p)
    for n in range(1, count + 1):
        powers = powers * p
        c[n] = powers.sum().real / n
    return c
