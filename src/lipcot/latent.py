"""Latent feature spaces over LPC models.

Three reversible maps take a fitted model into a Euclidean feature space:
weighted coefficients plus log error power, weighted cepstrum coefficients,
and dominant spectral components built from pole angles and radii. Each map
has an exact algebraic inverse used when decoding tokens back into models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lpc_core
from .errors import (
    DimensionMismatchError,
    InsufficientCoefficientsError,
    LipcotError,
    NonRealizableError,
    UnstableModelError,
    ZeroNoisePowerError,
)

TAG_LPC = "lpc"
TAG_CEPSTRUM = "cepstrum"
TAG_DSC = "dsc"
_TAGS = (TAG_LPC, TAG_CEPSTRUM, TAG_DSC)


@dataclass(frozen=True)
class LatentMethod:
    """Which feature map to use, with its parameters.

    ``weights`` applies to the coefficient map (None means unit weights)
    and ``n_cepstra`` is the number of cepstrum terms kept.
    """

    tag: str
    weights: tuple | None = None
    n_cepstra: int | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown latent method tag {self.tag!r}")
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            if any(w <= 0 for w in weights):
                raise ValueError("feature weights must all be positive")
            object.__setattr__(self, "weights", weights)
        if self.n_cepstra is not None:
            if int(self.n_cepstra) < 1:
                raise ValueError("n_cepstra must be at least 1")
            object.__setattr__(self, "n_cepstra", int(self.n_cepstra))

    @classmethod
    def lpc_coeff(cls, weights=None) -> "LatentMethod":
        return cls(TAG_LPC, weights=weights)

    @classmethod
    def cepstrum(cls, n_cepstra: int) -> "LatentMethod":
        return cls(TAG_CEPSTRUM, n_cepstra=n_cepstra)

    @classmethod
    def dsc(cls) -> "LatentMethod":
        return cls(TAG_DSC)

    def resolve_cepstra(self, order: int) -> int:
        # default keeps dimensionality comparable to the pole-based space
        return self.n_cepstra if self.n_cepstra is not None else 2 * order

    def dimension(self, order: int) -> int:
        """Nominal feature dimension for a model of the given order."""
        if self.tag == TAG_LPC:
            return order + 1
        if self.tag == TAG_CEPSTRUM:
            return self.resolve_cepstra(order) + 1
        return 2 * order + 1

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "weights": list(self.weights) if self.weights is not None else None,
            "n_cepstra": self.n_cepstra,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LatentMethod":
        # older codebooks store "reduced": false; reduced DSC mode no longer exists
        if payload.get("reduced", False):
            raise LipcotError("reduced dominant-spectral codebooks are no longer supported")
        weights = payload.get("weights")
        return cls(
            payload["tag"],
            weights=tuple(weights) if weights is not None else None,
            n_cepstra=payload.get("n_cepstra"),
        )


@dataclass(frozen=True)
class LatentVector:
    """A point in one of the feature spaces."""

    method: LatentMethod
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("latent values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("latent values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.size


def _log_noise_power(model: lpc_core.LpcModel) -> float:
    if model.noise_power <= 0.0:
        raise ZeroNoisePowerError("log of noise power undefined for sigma^2 = 0")
    return math.log(model.noise_power)


def features_lpc_coeff(model: lpc_core.LpcModel, weights=None) -> LatentVector:
    """Weighted coefficients extended with the log prediction-error power."""
    log_power = _log_noise_power(model)
    if weights is None:
        scaled = model.coeffs.copy()
        method = LatentMethod.lpc_coeff()
    else:
        w = np.asarray(weights, dtype=float)
        if w.size != model.order:
            raise DimensionMismatchError(
                f"expected {model.order} weights, got {w.size}"
            )
        if np.any(w <= 0):
            raise ValueError("feature weights must all be positive")
        scaled = w * model.coeffs
        method = LatentMethod.lpc_coeff(tuple(w))
    return LatentVector(method, np.concatenate([scaled, [log_power]]))


def lpc_to_cepstrum(coeffs, noise_power: float, count: int) -> np.ndarray:
    """Cepstrum c_0..c_count of an all-pole model from its coefficients.

    c_0 is log sigma^2 and c_1 = -a_1; later terms follow the two-branch
    recursion that switches once the index passes the model order.
    """
    if noise_power <= 0.0:
        raise ZeroNoisePowerError("log of noise power undefined for sigma^2 = 0")
    a = np.asarray(coeffs, dtype=float)
    order = a.size
    c = np.empty(count + 1)
    c[0] = math.log(noise_power)
    for n in range(1, count + 1):
        if n == 1:
            c[1] = -a[0]
            continue
        acc = 0.0
        for m in range(1, min(n - 1, order) + 1):
            acc += (1.0 - m / n) * a[m - 1] * c[n - m]
        c[n] = (-a[n - 1] - acc) if n <= order else -acc
    return c


def cepstrum_from_poles(pole_values, noise_power: float, count: int) -> np.ndarray:
    """Cepstrum via the power-sum formula c_n = (1/n) * sum_m p_m^n.

    Independent of the coefficient recursion; used as a cross-check.
    """
    if noise_power <= 0.0:
        raise ZeroNoisePowerError("log of noise power undefined for sigma^2 = 0")
    p = np.asarray(pole_values, dtype=complex)
    c = np.empty(count + 1)
    c[0] = math.log(noise_power)
    powers = np.ones_like(p)
    for n in range(1, count + 1):
        powers = powers * p
        c[n] = powers.sum().real / n
    return c


def _sqrt_index_weights(count: int) -> np.ndarray:
    # (1, 1, sqrt(2), ..., sqrt(count)): makes Euclidean distance in the
    # feature space equal the index-weighted cepstral distance
    return np.sqrt(np.concatenate(([1.0], np.arange(1, count + 1))))


def features_cepstrum(model: lpc_core.LpcModel, n_cepstra: int) -> LatentVector:
    """First ``n_cepstra`` cepstrum coefficients, sqrt-index weighted."""
    n_cepstra = int(n_cepstra)
    if n_cepstra < 1:
        raise ValueError("n_cepstra must be at least 1")
    raw = lpc_to_cepstrum(model.coeffs, model.noise_power, n_cepstra)
    values = raw * _sqrt_index_weights(n_cepstra)
    return LatentVector(LatentMethod.cepstrum(n_cepstra), values)


def features_dsc(model: lpc_core.LpcModel) -> LatentVector:
    """Dominant spectral components: ordered pole angles and log radii.

    u_k converts each pole angle to Hz; v_k = -2*log(1 - |p_k|) grows with
    the sharpness of the corresponding spectral peak. Entries are sorted by
    |u| (ties broken by signed u ascending, so each conjugate pair puts its
    negative-frequency member first) and followed by log sigma^2.
    """
    log_power = _log_noise_power(model)
    pole_values = lpc_core.poles(model).poles
    radii = np.minimum(np.abs(pole_values), lpc_core.MAX_POLE_RADIUS)
    u = (model.sample_rate / (2.0 * np.pi)) * np.angle(pole_values)
    v = -2.0 * np.log1p(-radii)
    order_idx = np.lexsort((u, np.abs(u)))
    values = np.concatenate([u[order_idx], v[order_idx], [log_power]])
    return LatentVector(LatentMethod.dsc(), values)


def features(model: lpc_core.LpcModel, method: LatentMethod) -> LatentVector:
    """Map a model into the feature space selected by ``method``."""
    if method.tag == TAG_LPC:
        return features_lpc_coeff(model, method.weights)
    if method.tag == TAG_CEPSTRUM:
        return features_cepstrum(model, method.resolve_cepstra(model.order))
    return features_dsc(model)


def cepstrum_to_lpc(ceps, order: int):
    """Invert raw (unweighted) cepstrum coefficients to (coeffs, noise_power)."""
    c = np.asarray(ceps, dtype=float)
    order = int(order)
    if c.size < order + 1:
        raise InsufficientCoefficientsError(
            f"need at least {order + 1} cepstrum coefficients, got {c.size}"
        )
    a = np.empty(order)
    a[0] = -c[1]
    for i in range(2, order + 1):
        acc = 0.0
        for m in range(1, i):
            acc += (1.0 - m / i) * a[m - 1] * c[i - m]
        a[i - 1] = -c[i] - acc
    return a, math.exp(c[0])


def _dsc_to_model(
    vec: LatentVector, order: int, lam: float, sample_rate: float
) -> lpc_core.LpcModel:
    dim = vec.dimension
    if dim % 2 == 0:
        raise DimensionMismatchError(f"dominant-spectral vector of even size {dim}")
    n_entries = (dim - 1) // 2
    if n_entries != order:
        raise DimensionMismatchError(
            f"expected {2 * order + 1} values for order {order}, got {dim}"
        )
    u = vec.values[:n_entries]
    v = vec.values[n_entries : 2 * n_entries]
    radii = 1.0 - np.exp(-v / 2.0)
    angles = 2.0 * np.pi * u / sample_rate
    rebuilt = radii * np.exp(1j * angles)
    coeffs = lpc_core.poles_to_coeffs(rebuilt)
    residue = np.max(np.abs(coeffs.imag)) if coeffs.size else 0.0
    if residue >= 1e-6:
        raise NonRealizableError(
            f"pole expansion leaves imaginary residue {residue:.3g}"
        )
    return lpc_core.LpcModel(order, coeffs.real, math.exp(vec.values[-1]), lam, sample_rate)


def latent_to_model(
    vec: LatentVector, order: int, lam: float, sample_rate: float
) -> lpc_core.LpcModel:
    """Invert a latent vector back into an LPC model.

    Coefficient vectors divide out their weights; cepstrum vectors strip the
    sqrt-index weighting and run the inverse recursion; dominant-spectral
    vectors rebuild poles from (u, v) and expand them, rejecting points whose
    expansion is not a real-coefficient polynomial.
    """
    method = vec.method
    order = int(order)
    if method.tag == TAG_LPC:
        if vec.dimension != order + 1:
            raise DimensionMismatchError(
                f"expected {order + 1} values for order {order}, got {vec.dimension}"
            )
        if method.weights is None:
            coeffs = vec.values[:order].copy()
        else:
            coeffs = vec.values[:order] / np.asarray(method.weights)
        return lpc_core.LpcModel(
            order, coeffs, math.exp(vec.values[-1]), lam, sample_rate
        )
    if method.tag == TAG_CEPSTRUM:
        count = vec.dimension - 1
        raw = vec.values / _sqrt_index_weights(count)
        coeffs, noise_power = cepstrum_to_lpc(raw, order)
        return lpc_core.LpcModel(order, coeffs, noise_power, lam, sample_rate)
    return _dsc_to_model(vec, order, lam, sample_rate)


def distance(vec_a: LatentVector, vec_b: LatentVector) -> float:
    """Euclidean distance between two points of the same feature space."""
    if vec_a.method.tag != vec_b.method.tag or vec_a.dimension != vec_b.dimension:
        raise DimensionMismatchError("latent vectors disagree in method or dimension")
    return float(np.linalg.norm(vec_a.values - vec_b.values))


def _pole_cross_product(p: np.ndarray, q: np.ndarray) -> complex:
    return complex(np.prod(1.0 - np.outer(p, np.conj(q))))


def distance_pole(model_a: lpc_core.LpcModel, model_b: lpc_core.LpcModel) -> float:
    """Non-Euclidean pole-space distance between two stable models.

    Log-ratio of cross products of (1 - p_i * conj(p'_j)) terms over the
    self products of each pole set; reference metric only, not used in
    clustering.
    """
    p = lpc_core.poles(model_a).poles
    q = lpc_core.poles(model_b).poles
    if np.any(np.abs(p) >= 1.0) or np.any(np.abs(q) >= 1.0):
        raise UnstableModelError("pole distance needs all pole radii < 1")
    numerator = _pole_cross_product(p, q) * _pole_cross_product(q, p)
    denominator = _pole_cross_product(p, p) * _pole_cross_product(q, q)
    squared = math.log((numerator / denominator).real)
    return math.sqrt(max(squared, 0.0))
