"""Frequency-warped linear predictive coding.

Fits warped-Burg models to signal segments, locates their poles, evaluates
power spectra on arbitrary frequency grids, and resynthesizes stochastic
realizations by filtering seeded white noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.signal
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateInputError,
    FrequencyOutOfRangeError,
    InvalidLambdaError,
    InvalidOrderError,
    NonConvergenceError,
    UnstableModelError,
)

# Pole radii are pulled inside the unit circle by this margin before synthesis
# and before log-radius features: IIR filtering and -2*log(1 - r) diverge at r = 1.
MAX_POLE_RADIUS = 1.0 - 1e-8

# Slack on the unit-circle bound when deciding whether a model is stable.
STABILITY_TOL = 1e-9

_REAL_SNAP = 1e-9  # |imag| below this collapses onto the real axis

_FREQ_SLACK = 1e-12  # relative slack so grids built by repeated addition pass


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class Segment:
    """A finite window of real-valued samples at a fixed sampling rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = _as_float_vector(self.samples, "samples")
        if samples.size < 2:
            raise ValueError("a segment needs at least two samples")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class LpcModel:
    """Warped LPC coefficients plus the prediction-error power of the fit.

    ``coeffs`` holds a_1..a_L of the predictor denominator 1 + sum a_k d^k,
    where d is the warped delay (the plain unit delay when ``lam`` is 0).
    """

    order: int
    coeffs: np.ndarray
    noise_power: float
    lam: float
    sample_rate: float

    def __post_init__(self):
        order = int(self.order)
        if order < 1:
            raise InvalidOrderError("model order must be at least 1")
        coeffs = _as_float_vector(self.coeffs, "coeffs")
        if coeffs.size != order:
            raise ValueError(f"expected {order} coefficients, got {coeffs.size}")
        if not (math.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValueError("noise_power must be finite and non-negative")
        if not -1.0 < self.lam < 1.0:
            raise InvalidLambdaError(f"|lam| must be < 1, got {self.lam}")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_power", float(self.noise_power))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "sample_rate", float(self.sample_rate))


@dataclass(frozen=True)
class PoleSet:
    """Roots of the predictor polynomial in the (warped) z-plane."""

    poles: np.ndarray

    def __post_init__(self):
        poles = np.asarray(self.poles, dtype=complex)
        if poles.ndim != 1:
            raise ValueError("poles must be one-dimensional")
        object.__setattr__(self, "poles", poles)

    def __len__(self) -> int:
        return self.poles.size


def warped_burg(samples, order: int, lam: float):
    """Run the warped Burg recursion on a real zero-mean signal.

    Each stage replaces the unit delay of the backward prediction error with
    a first-order all-pass section of coefficient ``lam`` before applying the
    usual Burg reflection update, and tracks the prediction-error power
    through the per-stage factor (1 - k^2).

    Returns
    -------
    (coeffs, noise_power, stage_powers, reflections)
        ``stage_powers[0]`` is the raw input power and ``stage_powers[i]``
        the prediction-error power after stage ``i``; ``reflections`` holds
        the per-stage reflection coefficients.
    """
    x = np.asarray(samples, dtype=float)
    f = b = x
    power = float(x @ x) / x.size
    stage_powers = [power]
    reflections = []
    a = np.ones(1)
    for _ in range(order):
        # b_hat[j] = b[j] - lam*(b[j+1] - b_hat[j-1]): a one-pole recurrence
        # driven by u[j] = b[j] - lam*b[j+1] with zero initial state.
        u = b[:-1] - lam * b[1:]
        b_hat = scipy.signal.lfilter([1.0], [1.0, -lam], u)
        f_hat = f[1:]
        denom = f_hat @ f_hat + b_hat @ b_hat
        k = -2.0 * (b_hat @ f_hat) / denom if denom > 0.0 else 0.0
        f = f_hat + k * b_hat
        b = b_hat + k * f_hat
        power = max((1.0 - k * k) * power, 0.0)
        stage_powers.append(power)
        reflections.append(k)
        padded = np.append(a, 0.0)
        a = padded + k * padded[::-1]
    return a[1:], power, np.asarray(stage_powers), np.asarray(reflections)


def fit_burg_warped(segment: Segment, order: int, lam: float) -> LpcModel:
    """Fit a frequency-warped LPC model to a segment by Burg's method.

    The segment mean is removed before fitting; LPC assumes zero-mean data.
    Every reflection coefficient satisfies |k| <= 1, so the fitted predictor
    has all poles inside the closed unit disk and the per-stage error power
    never increases. A constant segment, and one the model predicts without
    error (zero final error power, so no log-power feature), raise
    ``DegenerateInputError``.
    """
    order = int(order)
    if not -1.0 < lam < 1.0:
        raise InvalidLambdaError(f"|lam| must be < 1, got {lam}")
    if order < 1:
        raise InvalidOrderError("order must be at least 1")
    n = len(segment)
    if n <= order:
        raise InvalidOrderError(f"need more samples ({n}) than the order ({order})")
    samples = segment.samples
    if np.all(samples == samples[0]):
        raise DegenerateInputError("constant segment: zero power after mean removal")
    coeffs, noise_power, _, _ = warped_burg(samples - samples.mean(), order, lam)
    if not noise_power > 0.0:
        raise DegenerateInputError("segment is predicted without error: zero noise power")
    return LpcModel(
        order=order,
        coeffs=coeffs,
        noise_power=noise_power,
        lam=lam,
        sample_rate=segment.sample_rate,
    )


def poles(model: LpcModel) -> PoleSet:
    """All roots of the predictor polynomial 1 + sum a_k z^-k.

    Computed as eigenvalues of the companion matrix, a backward-stable root
    finder whose complex roots come in exactly conjugate pairs; trailing zero
    coefficients come back as exact roots at the origin. Roots with |imag|
    below 1e-9 are snapped onto the real axis.
    """
    try:
        roots = np.roots(np.concatenate(([1.0], model.coeffs))).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"companion eigenvalues did not converge ({exc})") from None
    roots = np.where(np.abs(roots.imag) < _REAL_SNAP, roots.real + 0.0j, roots)
    return PoleSet(np.sort_complex(roots))


def poles_to_coeffs(pole_values) -> np.ndarray:
    """Expand a pole multiset back into predictor coefficients a_1..a_L.

    Returns complex coefficients; conjugate-closed inputs leave only
    rounding noise in the imaginary parts.
    """
    coeffs = np.ones(1, dtype=complex)
    for p in np.asarray(pole_values, dtype=complex):
        coeffs = np.convolve(coeffs, np.array([1.0, -p], dtype=complex))
    return coeffs[1:]


def warp_frequency(f, lam: float, sample_rate: float):
    """Map a natural frequency in Hz onto the warped frequency axis.

    Computed from the phase of the first-order all-pass delay with a
    two-argument arctangent, making the map continuous and strictly
    increasing from 0 to the Nyquist frequency; ``lam = 0`` is the identity.
    """
    if not -1.0 < lam < 1.0:
        raise InvalidLambdaError(f"|lam| must be < 1, got {lam}")
    if not sample_rate > 0:
        raise ValueError("sample_rate must be positive")
    freqs = np.asarray(f, dtype=float)
    nyquist = sample_rate / 2.0
    if np.any(np.abs(freqs) > nyquist * (1.0 + _FREQ_SLACK)):
        raise FrequencyOutOfRangeError(f"|f| must not exceed {nyquist} Hz")
    theta = 2.0 * np.pi * freqs / sample_rate
    warped = (sample_rate / (2.0 * np.pi)) * np.arctan2(
        (1.0 - lam * lam) * np.sin(theta),
        (1.0 + lam * lam) * np.cos(theta) - 2.0 * lam,
    )
    if warped.ndim == 0:
        return float(warped)
    return warped


def _warped_delay(freqs: np.ndarray, lam: float, sample_rate: float) -> np.ndarray:
    z_inv = np.exp(-2j * np.pi * freqs / sample_rate)
    if lam == 0.0:
        return z_inv
    return (z_inv - lam) / (1.0 - lam * z_inv)


def power_spectrum(model: LpcModel, freqs) -> np.ndarray:
    """Model power spectral density at the requested frequencies in Hz.

    Evaluates sigma^2 * |H|^2 with the warped delay substituted for z^-1;
    for ``lam = 0`` this is the ordinary all-pole spectrum. Outputs are
    positive and finite whenever all poles lie strictly inside the unit
    circle.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    nyquist = model.sample_rate / 2.0
    if np.any(np.abs(freqs) > nyquist * (1.0 + _FREQ_SLACK)):
        raise FrequencyOutOfRangeError(f"|f| must not exceed {nyquist} Hz")
    d = _warped_delay(freqs, model.lam, model.sample_rate)
    denom = npoly.polyval(d, np.concatenate(([1.0], model.coeffs)))
    return model.noise_power / np.abs(denom) ** 2


def _trim_trailing_zeros(coeffs: np.ndarray) -> np.ndarray:
    last = coeffs.size
    while last > 1 and coeffs[last - 1] == 0.0:
        last -= 1
    return coeffs[:last].copy()


def to_conventional_tf(model: LpcModel):
    """Expand the warped predictor into an ordinary rational transfer function.

    Substituting the all-pass delay D and clearing denominators gives

        H(z) = (1 - lam*z^-1)^L / sum_k a_k (z^-1 - lam)^k (1 - lam*z^-1)^(L-k)

    with a_0 = 1. Returns ``(numerator, denominator)`` coefficient arrays in
    ascending powers of z^-1 (exact trailing zeros trimmed); for ``lam = 0``
    this is (1) over (1, a_1, ..., a_L).
    """
    up = np.array([1.0, -model.lam])  # 1 - lam*z^-1
    down = np.array([-model.lam, 1.0])  # z^-1 - lam
    # Horner from a_L down: after step k, numerator = up^(L-k) and
    # denominator = sum_{j>=k} a_j down^(j-k) up^(L-j)
    a_full = np.concatenate(([1.0], model.coeffs))
    numerator, denominator = np.ones(1), a_full[-1:]
    for a_k in a_full[-2::-1]:
        numerator = np.convolve(numerator, up)
        denominator = np.convolve(denominator, down) + a_k * numerator
    return _trim_trailing_zeros(numerator), _trim_trailing_zeros(denominator)


def synthesize(model: LpcModel, n_samples: int, seed: int) -> Segment:
    """Draw a seeded noise realization and filter it through the model.

    Gaussian noise of variance ``noise_power`` is shaped by the one-pole
    section sqrt(1 - lam^2) / (1 - lam*z^-1) and then driven through the
    conventional rational form of the warped predictor. The shaping stage is
    the exact identity at lam = 0 and has unit power gain; it makes the
    excitation white in the warped-delay domain where the predictor was fit,
    so refitting a synthesized realization recovers the source model. A
    warm-up prefix of max(10 * order, 500) samples is discarded to flush
    filter transients. Deterministic for a fixed seed.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    pole_values = poles(model).poles
    radii = np.abs(pole_values)
    if np.any(radii > 1.0 + STABILITY_TOL):
        raise UnstableModelError(f"pole radius {radii.max():.12g} exceeds the unit circle")
    if np.any(radii > MAX_POLE_RADIUS):
        scale = np.minimum(radii, MAX_POLE_RADIUS) / np.where(radii == 0.0, 1.0, radii)
        coeffs = poles_to_coeffs(pole_values * scale).real
        model = LpcModel(model.order, coeffs, model.noise_power, model.lam, model.sample_rate)
    numerator, denominator = to_conventional_tf(model)
    warmup = max(10 * model.order, 500)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(model.noise_power), n_samples + warmup)
    lam = model.lam
    excitation = scipy.signal.lfilter([math.sqrt(1.0 - lam * lam)], [1.0, -lam], noise)
    out = scipy.signal.lfilter(numerator, denominator, excitation)[warmup:]
    return Segment(out, model.sample_rate)
