"""Frequency-warped linear predictive coding.

Fits warped-Burg models to signal segments, locates their poles, evaluates
power spectra on arbitrary frequency grids, and resynthesizes stochastic
realizations by filtering seeded white noise.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.signal
from numpy.polynomial import polynomial as npoly

from ._util import FieldEquality, built, shown, whole
from .errors import (
    DegenerateInputError,
    FrequencyOutOfRangeError,
    InvalidArgumentError,
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

# ``synthesize`` skips the eigenvalue problem for a model that
# ``certified_stable`` shows to keep its roots inside CERTIFIED_RADIUS even
# when its coefficients move by CERTIFIED_MARGIN relative, well past the
# rounding of the step-down and of LAPACK's companion eigenvalues (about
# order * eps). Decoded tokens of the benchmark's seed-101 codebooks clear
# it by over 1e4; pole sets whose computed eigenvalues crossed MAX_POLE_RADIUS
# from inside CERTIFIED_RADIUS fell short of it by over 1e17. The radius gap to
# MAX_POLE_RADIUS is a second, independent margin: a simple root moves by
# about eps under either route.
CERTIFIED_RADIUS = 1.0 - 1e-4
CERTIFIED_MARGIN = 1e-12

_REAL_SNAP = 1e-9  # |imag| below this collapses onto the real axis

_FREQ_SLACK = 1e-12  # relative slack so grids built by repeated addition pass


def _real(value) -> bool:
    # float first: for a float, the ABC check alone is several times slower
    return type(value) is float or (type(value) is not bool and isinstance(value, numbers.Real))


def check_lam(lam) -> float:
    """``lam`` as a float; ``InvalidLambdaError`` unless it is a number in (-1, 1), not a bool."""
    if not (_real(lam) and -1.0 < lam < 1.0):
        raise InvalidLambdaError(f"lambda must be a number in (-1, 1), got {shown(lam)}")
    return float(lam)


def check_rate(value, name: str = "sample_rate") -> float:
    """``value`` as a float, if it is a number in (0, inf) and not a bool; ``name`` names it."""
    # bounded by float64's largest value, not inf: a larger int would overflow float()
    if not (_real(value) and 0.0 < value <= sys.float_info.max):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {shown(value)}")
    return float(value)


def _check_band(freqs: np.ndarray, sample_rate: float) -> None:
    nyquist = sample_rate / 2.0
    if not np.all(np.abs(freqs) <= nyquist * (1.0 + _FREQ_SLACK)):  # NaN fails too
        raise FrequencyOutOfRangeError(f"|f| must not exceed {nyquist} Hz")


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite")
    return arr


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional")
    return _finite(arr, name)


def _check_noise_power(value) -> float:
    if not (_real(value) and 0.0 <= value <= sys.float_info.max):
        raise InvalidArgumentError(
            f"noise_power must be a finite non-negative number, got {shown(value)}"
        )
    return float(value)


@dataclass(frozen=True, eq=False)
class Segment(FieldEquality):
    """A finite window of real-valued samples at a fixed sampling rate.

    The constructor checks every field. ``synthesize`` builds its
    realization without it (``_util.built``) and keeps only the finiteness
    check, with its error, since filtering can overflow: the samples are a
    float64 vector of at least two, at the model's checked rate.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = _as_float_vector(self.samples, "samples")
        if samples.size < 2:
            raise InvalidArgumentError("a segment needs at least two samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", check_rate(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class LpcModel(FieldEquality):
    """Warped LPC coefficients plus the prediction-error power of the fit.

    ``coeffs`` holds a_1..a_L of the predictor denominator 1 + sum a_k d^k,
    where d is the warped delay (the plain unit delay when ``lam`` is 0).

    ``held_filter`` is derived, never compared or shown: None, or
    ``(coeff_bytes, numerator, denominator)``, a ``synthesis_filter``
    worked out in advance (``decode_token`` sets it from the book's decode
    table) for the coefficients whose bytes it names, as read-only arrays,
    or ``(coeff_bytes, None, message)`` for coefficients whose poles lie
    past the unit circle, with the ``UnstableModelError`` message. The
    numerator is the one synthesis numerator that every held filter of the
    book shares: sqrt(1 - lam^2) (1 - lam*z^-1)^(L-1), the shaping pole of
    ``synthesize`` cancelled against a zero of the conventional numerator.

    The constructor checks every field. Two library paths build a model
    from values they have just made, without it (``_util.built``):
    ``decode_token`` from its decode-table row, whose coefficients and
    power ``model_matrix`` found finite, at the book's order and lam and a
    rate it has checked, keeping no check; and ``fit_burg_warped``, keeping
    the two checks an overflowing fit can fail, finite coefficients and then
    a finite noise power, with the constructor's errors and messages.
    """

    order: int
    coeffs: np.ndarray
    noise_power: float
    lam: float
    sample_rate: float
    held_filter: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = check_order(self.order)
        coeffs = _as_float_vector(self.coeffs, "coeffs")
        if coeffs.size != order:
            raise InvalidArgumentError(f"expected {order} coefficients, got {coeffs.size}")
        noise_power = _check_noise_power(self.noise_power)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_power", noise_power)
        object.__setattr__(self, "lam", check_lam(self.lam))
        object.__setattr__(self, "sample_rate", check_rate(self.sample_rate))
        object.__setattr__(self, "held_filter", None)


@dataclass(frozen=True, eq=False)
class PoleSet(FieldEquality):
    """Roots of the predictor polynomial in the (warped) z-plane."""

    poles: np.ndarray

    def __post_init__(self):
        poles = np.asarray(self.poles, dtype=complex)
        if poles.ndim != 1:
            raise InvalidArgumentError("poles must be one-dimensional")
        if not np.all(np.isfinite(poles)):
            raise InvalidArgumentError("poles must be finite")
        object.__setattr__(self, "poles", poles)


def warped_burg(samples, order: int, lam: float):
    """Run the warped Burg recursion on one zero-mean window, or on each row of many.

    Each stage, run once over all rows, replaces the unit delay of the
    backward prediction error with a first-order all-pass section of
    coefficient ``lam`` before applying the usual Burg reflection update. The
    loop carries only the lattice: after it, each stage's error power is the
    input power times the running product of max(1 - k^2, 0).

    No stage allocates a temporary for a product. The all-pass input ``u``
    is formed in one array; the backward error is updated in place in
    ``lfilter``'s output, with ``u``, free by then, holding ``k`` times the
    forward error. A stack of windows takes ``u`` and the new forward error
    from contiguous prefixes of three buffers of the input's size (one for
    ``u``, two that the forward error alternates between), allocated once
    per call. Nothing reads the errors after the last stage, so it does not
    update them. Every element takes the same IEEE products and sums, in the
    same order, as ``f_hat + k*b_hat`` and ``b_hat + k*f_hat``. Each ufunc
    takes its output by position (parsing an out= keyword costs about 2% of
    a one-window fit of 100 samples), and ``lfilter`` takes its coefficients
    as arrays made once per call.

    One window, a 1-D input, keeps its lattice on arrays but carries each
    stage's k, the Levinson step-up and the stage powers in plain floats
    (``_burg_window``): the same IEEE operations in the same order, so the
    same bytes as its row in a stack, at less than numpy's per-call cost.

    Returns ``(coeffs, noise_power, stage_powers, reflections)``:
    ``stage_powers[..., 0]`` is the raw input power and ``stage_powers[..., i]``
    the error power after stage ``i``; ``reflections`` holds each stage's k.
    """
    x = np.asarray(samples, dtype=float)
    allpass = np.array([1.0]), np.array([1.0, -lam])
    if x.ndim == 1:  # by dimension, not row count: a 0-row stack slices samples too
        return _burg_window(x, order, lam, allpass)
    f = b = x
    ks = np.zeros(x.shape[:-1] + (order,))
    a = np.zeros(x.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    rows, pool = math.prod(x.shape[:-1]), np.empty((3, x.size))
    for i in range(order):
        m = x.shape[-1] - 1 - i  # samples per row at this stage
        shape, size = x.shape[:-1] + (m,), rows * m
        u, f_next = pool[0, :size].reshape(shape), pool[1 + i % 2, :size].reshape(shape)
        # b_hat[j] = b[j] - lam*(b[j+1] - b_hat[j-1]): a one-pole recurrence
        # driven by u[j] = b[j] - lam*b[j+1] with zero initial state
        np.multiply(b[..., 1:], lam, u)
        np.subtract(b[..., :-1], u, u)
        del b  # not held while lfilter writes the next one
        b = scipy.signal.lfilter(*allpass, u)  # b_hat, updated in place below
        f_hat = f[..., 1:]
        num = -2.0 * np.vecdot(b, f_hat)
        denom = np.vecdot(f_hat, f_hat) + np.vecdot(b, b)
        k = np.divide(num, denom, out=ks[..., i], where=denom > 0.0)[..., None]
        # Levinson step on a_0..a_{i+1}, a_{i+1} still 0: a_j += k * a_{i+1-j}
        a[..., 1 : i + 2] = a[..., 1 : i + 2] + k * a[..., i::-1]
        if i + 1 == order:
            break
        # f = f_hat + k*b_hat and b = b_hat + k*f_hat; u is free after lfilter
        f = np.add(f_hat, np.multiply(b, k, f_next), f_next)
        b += np.multiply(f_hat, k, u)
    power = np.vecdot(x, x)[..., None] / x.shape[-1]
    gains = np.maximum(1.0 - ks * ks, 0.0)
    powers = np.multiply.accumulate(np.concatenate((power, gains), axis=-1), axis=-1)
    return a[..., 1:], powers[..., -1], powers, ks


def _burg_window(x: np.ndarray, order: int, lam: float, allpass):
    """``warped_burg`` on one window, its per-stage scalars in plain floats.

    The lattice is the stack's, on arrays allocated where they are written:
    slicing buffers costs more than allocating one short window. Each
    stage's three dot products become floats once. k, the Levinson step-up
    ``a_j + k * a_{i+1-j}`` over a list, and the stage powers
    ``p * max(1 - k*k, 0)`` then take the stack's float operations in its
    order; numpy calls on the 17 terms of an order-16 fit cost about twice
    the Python float steps. The noise power is returned as a numpy float.
    """
    f = b = x
    a, ks = [1.0], []
    for i in range(order):
        u = np.multiply(b[1:], lam)
        np.subtract(b[:-1], u, u)
        del b
        b = scipy.signal.lfilter(*allpass, u)
        f_hat = f[1:]
        # ndarray.dot costs half of vecdot and sums the same: both start
        # BLAS's sum from +0.0, except that dot takes one element's bare
        # product, so + 0.0 turns a -0.0 there into vecdot's +0.0
        num = -2.0 * (float(b.dot(f_hat)) + 0.0)
        denom = float(f_hat.dot(f_hat)) + float(b.dot(b))
        k = num / denom if denom > 0.0 else 0.0
        ks.append(k)
        a.append(0.0)  # a_{i+1}, so a_{i+1} = 0 + k * a_0, as the stack sums it
        a = [1.0] + [a_j + k * a_r for a_j, a_r in zip(a[1:], a[i::-1])]
        if i + 1 == order:
            break
        f = np.multiply(b, k)
        np.add(f_hat, f, f)
        b += np.multiply(f_hat, k, u)
    power = float(x.dot(x)) / x.shape[-1]
    powers = [power]
    for k in ks:
        power *= max(1.0 - k * k, 0.0)
        powers.append(power)
    return np.array(a[1:]), np.float64(power), np.array(powers), np.array(ks)


def check_order(order: int, n_samples: int | None = None) -> int:
    """``order`` as a whole number; refuse one below 1, or one ``n_samples`` samples cannot fit.

    Every order in the library goes through this rule; a caller with no window passes no count.
    """
    order = whole(order, "order")
    if order < 1:
        raise InvalidOrderError("order must be at least 1")
    if n_samples is not None and n_samples <= order:
        raise InvalidOrderError(f"need more samples ({n_samples}) than the order ({order})")
    return order


def fit_windows(windows, order: int, lam: float):
    """Fit a warped-Burg model to each row of a windows x samples matrix.

    ``fit_burg_warped`` is its one-window call. Row means are removed first;
    LPC assumes zero-mean data. Returns ``(coeffs, noise_power, ok)``; ``ok``
    is False where a row is constant or predicted without error (zero final
    error power, so no log-power feature).
    """
    windows = np.asarray(windows, dtype=float)
    lam = check_lam(lam)
    n = windows.shape[-1]
    order = check_order(order, n)
    # a constant row becomes zeros, with no arithmetic, so power 0; the mean
    # is np.mean's sum and division, without its wrapper
    if windows.ndim == 1:  # one window: a test and a branch cost less than a mask
        constant = (windows == windows[0]).all()
        centred = np.zeros(n) if constant else windows - np.add.reduce(windows) / n
    else:
        constant = np.all(windows == windows[..., :1], axis=-1)
        centred = np.where(constant[..., None], 0.0, windows)
        centred -= np.add.reduce(centred, axis=-1, keepdims=True) / n
    coeffs, noise_power, _, _ = warped_burg(centred, order, lam)
    return coeffs, noise_power, noise_power > 0.0


def fit_burg_warped(segment: Segment, order: int, lam: float) -> LpcModel:
    """Fit a frequency-warped LPC model to a segment by Burg's method.

    Every reflection coefficient satisfies |k| <= 1, so the predictor has all
    poles inside the closed unit disk and the per-stage error power never
    increases. A degenerate segment (see ``fit_windows``) raises ``DegenerateInputError``.
    A fit past float64's range is refused as ``LpcModel`` refuses it.
    """
    coeffs, noise_power, ok = fit_windows(segment.samples, order, lam)
    if not ok:
        raise DegenerateInputError("constant segment, or one predicted without error")
    # fit_windows has checked the order and lam (these are the values its
    # checks return) and the segment its rate; only the arithmetic can overflow
    return built(
        LpcModel, order=int(order), coeffs=_finite(coeffs, "coeffs"),
        noise_power=_check_noise_power(noise_power), lam=float(lam),
        sample_rate=segment.sample_rate, held_filter=None,
    )


def _eigvals(companion: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"companion eigenvalues did not converge ({exc})") from None


def pole_matrix(coeffs) -> np.ndarray:
    """Poles of each row of a models x order coefficient matrix, each row sorted.

    Eigenvalues of stacked companion matrices, the LAPACK call ``np.roots``
    makes, so complex roots come in exactly conjugate pairs and trailing
    zero coefficients come back as exact roots at the origin. Roots with
    |imag| below 1e-9 are snapped onto the real axis.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows, order = coeffs.shape
    roots = np.zeros((rows, order), dtype=complex)
    if rows == 1:  # one 2-D companion matrix: no size groups, no mask scatter
        nonzero = np.flatnonzero(coeffs[0])
        if nonzero.size:
            size = int(nonzero[-1]) + 1  # the count of coefficients up to the last nonzero one
            companion = np.eye(size, k=-1)  # ones on the subdiagonal
            companion[0] = -coeffs[0, :size]
            roots[0, :size] = _eigvals(companion)
    else:
        # companion size: the count of coefficients up to the last nonzero one
        sizes = np.max((coeffs != 0.0) * np.arange(1, order + 1), axis=1, initial=0)
        for size in set(sizes.tolist()) - {0}:
            pick = sizes == size
            companion = np.zeros((np.count_nonzero(pick), size, size))
            companion[:, 0] = -coeffs[pick, :size]
            companion.reshape(-1, size * size)[:, size :: size + 1] = 1.0  # subdiagonal
            roots[pick, :size] = _eigvals(companion)
    roots = np.where(np.abs(roots.imag) < _REAL_SNAP, roots.real + 0.0j, roots)
    return np.sort_complex(roots)


def poles(model: LpcModel) -> PoleSet:
    """All roots of the predictor polynomial 1 + sum a_k z^-k (see ``pole_matrix``)."""
    return PoleSet(pole_matrix(model.coeffs[None])[0])


def certified_stable(coeffs) -> bool:
    """Whether every root of 1 + sum a_k z^-k lies inside ``CERTIFIED_RADIUS``
    with ``CERTIFIED_MARGIN`` to spare.

    The step-down (Schur-Cohn) recursion over Python floats on the scaled
    coefficients b_k = a_k r^-k peels off reflection coefficients; the roots
    lie inside r iff every one has |k| < 1 (Markel & Gray 1976). Each
    Levinson step scales |B| on |z| = 1 by a factor of at least 1 - |k|, so
    prod(1 - |k|) bounds |B| from below there. While that bound exceeds the
    margin times sum |b_k| (b_0 = 1), no coefficient change of that relative
    size can move a root out to r (Rouche). Clustered roots, whose computed
    eigenvalues scatter, get a tiny bound and fail; so does any overflow.
    """
    b, scale = [], 1.0
    for c in coeffs:
        scale /= CERTIFIED_RADIUS  # r^-k, inf past float range rather than an error
        b.append(c * scale)
    least = CERTIFIED_MARGIN * (1.0 + sum(map(abs, b)))
    bound = 1.0
    for m in range(len(b) - 1, -1, -1):  # b[:m + 1] holds the order-(m + 1) polynomial
        k = b[m]
        if not -1.0 < k < 1.0:
            return False
        bound *= 1.0 - abs(k)
        gain = 1.0 - k * k
        for i in range((m + 1) // 2):  # b_i and b_(m-1-i) in place, as a pair
            j = m - 1 - i
            b[i], b[j] = (b[i] - k * b[j]) / gain, (b[j] - k * b[i]) / gain
    return bound > least


def certified_rows(coeffs) -> np.ndarray:
    """``certified_stable`` of each row of a models x order matrix, as booleans.

    The step-down runs over every row at once, one array per coefficient
    index, in the scalar code's float order: the same ``scale`` sequence,
    the absolute sum added up from |b_0| one index at a time, and each
    step's pair updates (written as one block, b_i from b_i and b_(m-1-i)).
    A row whose |k| reaches 1 is False; its later arithmetic is ignored.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows, order = coeffs.shape
    scales, scale = [], 1.0
    for _ in range(order):
        scale /= CERTIFIED_RADIUS
        scales.append(scale)
    certified, bound = np.ones(rows, dtype=bool), np.ones(rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = coeffs.T * np.array(scales)[:, None]
        least = CERTIFIED_MARGIN * (1.0 + np.add.accumulate(np.abs(b), axis=0)[-1])
        for m in range(order - 1, -1, -1):
            k = b[m]
            certified &= (-1.0 < k) & (k < 1.0)
            bound *= 1.0 - np.abs(k)
            if m:
                b[:m] = (b[:m] - k * b[m - 1 :: -1]) / (1.0 - k * k)
    return certified & (bound > least)


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
    lam, sample_rate = check_lam(lam), check_rate(sample_rate)
    freqs = np.asarray(f, dtype=float)
    _check_band(freqs, sample_rate)
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
    return (z_inv - lam) / (1.0 - lam * z_inv)


def power_spectrum(model: LpcModel, freqs) -> np.ndarray:
    """Model power spectral density at the requested frequencies in Hz.

    Evaluates sigma^2 * |H|^2 with the warped delay substituted for z^-1;
    for ``lam = 0`` this is the ordinary all-pole spectrum. Outputs are
    positive and finite whenever all poles lie strictly inside the unit
    circle.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    _check_band(freqs, model.sample_rate)
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

    The Horner steps run over Python floats, since numpy calls on arrays of
    at most L + 1 terms cost more than the terms. Each two-tap convolution
    term is ``x * (-lam) + y``: one rounded product, since the other tap's
    product by 1 is exact, and one sum, the float order of ``np.convolve``.
    So the bytes are those of the ``np.convolve`` expansion. (Signed zeros
    may differ along the way, but not in the result: the last step adds
    1 * (1 - lam*z^-1)^L, which holds no -0.0, to every coefficient.)
    """
    neg_lam, a = -model.lam, model.coeffs.tolist()
    # Horner from a_L down, in place: after step s, numerator[:s + 1] holds
    # (1 - lam*z^-1)^s and denominator[:s + 1] holds
    # sum_{j>=L-s} a_j (z^-1 - lam)^(j-L+s) (1 - lam*z^-1)^(L-j)
    numerator = [1.0] + [0.0] * len(a)
    denominator = [a[-1]] + [0.0] * len(a)
    for s, a_k in enumerate(a[-2::-1] + [1.0], 1):
        for j in range(s, 0, -1):  # top down, so index j - 1 still holds step s - 1
            n = numerator[j] = numerator[j - 1] * neg_lam + numerator[j]
            denominator[j] = denominator[j] * neg_lam + denominator[j - 1] + a_k * n
        denominator[0] = denominator[0] * neg_lam + a_k  # a_k * numerator[0] is a_k
    return _trim_trailing_zeros(np.array(numerator)), _trim_trailing_zeros(np.array(denominator))


def conventional_rows(coeffs, lam: float):
    """``to_conventional_tf`` of each row of a models x order matrix, all at one ``lam``.

    Returns ``(numerator, denominators)``: the numerator, which depends only
    on ``lam``, once, and a list of each row's denominator, exact trailing
    zeros trimmed. The Horner steps are those of ``to_conventional_tf``: the
    numerator over plain floats, and each step's denominator entries as one
    block over every row, ``den[:, j] * neg_lam + den[:, j - 1] + a_k * n``,
    so the bytes are the same.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows, order = coeffs.shape
    neg_lam = -lam
    numerator = [1.0] + [0.0] * order
    denominator = np.zeros((rows, order + 1))
    denominator[:, 0] = coeffs[:, -1]
    # a_k of each step: a_(L-1) down to a_1, then a_0 = 1, whose products are exact
    steps = np.concatenate((coeffs[:, -2::-1], np.ones((rows, 1))), axis=1)
    for s, a_k in enumerate(steps.T, 1):
        for j in range(s, 0, -1):
            numerator[j] = numerator[j - 1] * neg_lam + numerator[j]
        n = np.array(numerator[1 : s + 1])
        # the right side reads step s - 1 throughout: it is built before it is stored
        block = denominator[:, 1 : s + 1] * neg_lam + denominator[:, :s] + a_k[:, None] * n
        denominator[:, 1 : s + 1] = block
        denominator[:, 0] = denominator[:, 0] * neg_lam + a_k
    sizes = ((denominator != 0.0) * np.arange(1, order + 2)).max(axis=1, initial=1)
    trimmed = [row[:size] for row, size in zip(denominator, sizes.tolist())]
    return _trim_trailing_zeros(np.array(numerator)), trimmed


@functools.lru_cache(maxsize=16)
def _synthesis_numerator(order: int, lam: float) -> np.ndarray:
    """sqrt(1 - lam^2) (1 - lam*z^-1)^(order - 1), the numerator ``synthesize`` runs.

    The Horner steps of ``to_conventional_tf``'s numerator, order - 1 of
    them, over Python floats; each coefficient is then multiplied by the
    gain and exact trailing zeros are trimmed, so lam = 0 gives ``[1.0]``.
    Held, read-only: it depends only on the order and lam, and its L^2 / 2
    steps would cost a lone model's synthesis more than the filter pass
    they save.
    """
    neg_lam = -lam
    numerator = [1.0] + [0.0] * (order - 1)
    for s in range(1, order):
        for j in range(s, 0, -1):
            numerator[j] = numerator[j - 1] * neg_lam + numerator[j]
    numerator = _trim_trailing_zeros(np.array(numerator) * math.sqrt(1.0 - lam * lam))
    numerator.flags.writeable = False
    return numerator


def synthesis_filter(model: LpcModel):
    """The ``(numerator, denominator)`` that ``synthesize`` filters noise through.

    White noise is shaped by sqrt(1 - lam^2) / (1 - lam*z^-1) and driven
    through the model's conventional form (1 - lam*z^-1)^L / D(z). The
    shaping pole cancels one of the L numerator zeros at z = lam, so the
    cascade is the one filter sqrt(1 - lam^2) (1 - lam*z^-1)^(L-1) / D(z):
    that numerator (``_synthesis_numerator``, one read-only array per order
    and lam) over ``to_conventional_tf``'s denominator D.

    A model's ``held_filter`` is returned, as its read-only arrays, or its
    held ``UnstableModelError`` raised, while the model's coefficients
    still have the bytes it was worked out for. Otherwise: a model that
    ``certified_stable`` passes is expanded as it is. Only otherwise are
    its poles found: one past the unit circle (with ``STABILITY_TOL``)
    raises ``UnstableModelError``, and radii past ``MAX_POLE_RADIUS`` are
    pulled in to it before ``to_conventional_tf``.
    A lone model takes these scalar steps: on one row they cost less than
    ``certified_rows`` and ``conventional_rows``.
    """
    held = model.held_filter
    if held is not None and held[0] == model.coeffs.tobytes():
        if held[1] is None:
            raise UnstableModelError(held[2])
        return held[1], held[2]
    if not certified_stable(model.coeffs.tolist()):
        pole_values = poles(model).poles
        radii = np.abs(pole_values)
        if np.any(radii > 1.0 + STABILITY_TOL):
            raise UnstableModelError(f"pole radius {radii.max():.12g} exceeds the unit circle")
        if np.any(radii > MAX_POLE_RADIUS):
            scale = np.minimum(radii, MAX_POLE_RADIUS) / np.where(radii == 0.0, 1.0, radii)
            coeffs = poles_to_coeffs(pole_values * scale).real
            model = LpcModel(model.order, coeffs, model.noise_power, model.lam, model.sample_rate)
    return _synthesis_numerator(model.order, model.lam), to_conventional_tf(model)[1]


def synthesize(model: LpcModel, n_samples: int, seed: int) -> Segment:
    """Draw a seeded noise realization and filter it through the model.

    Gaussian noise of variance ``noise_power`` goes through one filter, the
    model's ``synthesis_filter``. It is the cascade of the shaping section
    sqrt(1 - lam^2) / (1 - lam*z^-1) and the model's conventional form,
    with the shaping pole cancelled against a numerator zero. The shaping
    is the identity at lam = 0 and has unit power gain; it makes the
    excitation white in the warped-delay domain where the predictor was
    fit, so refitting a synthesized realization recovers the source model.
    The filter starts at rest and its first max(10 * order, 500) outputs
    are dropped; a sharp token, poles near the unit circle, can still start
    short of stationarity.
    Deterministic for a fixed seed, a whole number of at least 0.
    """
    n_samples = whole(n_samples, "n_samples")
    if n_samples < 2:
        raise InvalidArgumentError("synthesis needs at least two samples")
    seed = whole(seed, "seed", 0)
    numerator, denominator = synthesis_filter(model)
    warmup = max(10 * model.order, 500)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(model.noise_power), n_samples + warmup)
    out = scipy.signal.lfilter(numerator, denominator, noise)[warmup:]
    # n_samples float64 samples at a checked rate; only the filtering can overflow
    return built(Segment, samples=_finite(out, "samples"), sample_rate=model.sample_rate)
