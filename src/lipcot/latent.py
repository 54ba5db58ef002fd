"""Latent feature spaces over LPC models.

Three reversible maps take a fitted model into a Euclidean feature space:
coefficients plus log error power, weighted cepstrum coefficients,
and dominant spectral components built from pole angles and radii. Each map
has an exact algebraic inverse used when decoding tokens back into models.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import lpc_core
from ._util import FieldEquality, whole
from .errors import (
    DimensionMismatchError,
    InsufficientCoefficientsError,
    InvalidArgumentError,
    NonRealizableError,
    ZeroNoisePowerError,
)

TAG_LPC = "lpc"
TAG_CEPSTRUM = "cepstrum"
TAG_DSC = "dsc"
_TAGS = (TAG_LPC, TAG_CEPSTRUM, TAG_DSC)


@dataclass(frozen=True)
class LatentMethod:
    """Which feature map to use, with exactly the parameters that map reads.

    ``n_cepstra``, the number of cepstrum terms kept, belongs to the cepstrum
    map, which requires it; the other maps refuse it.
    """

    tag: str
    n_cepstra: int | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InvalidArgumentError(f"unknown latent method tag {self.tag!r}")
        if self.tag == TAG_CEPSTRUM:
            object.__setattr__(self, "n_cepstra", whole(self.n_cepstra, "n_cepstra", 1))
        elif self.n_cepstra is not None:
            raise InvalidArgumentError(f"the {self.tag} map takes no n_cepstra")

    @classmethod
    def lpc_coeff(cls) -> "LatentMethod":
        return cls(TAG_LPC)

    @classmethod
    def cepstrum(cls, n_cepstra: int) -> "LatentMethod":
        return cls(TAG_CEPSTRUM, n_cepstra=n_cepstra)

    @classmethod
    def dsc(cls) -> "LatentMethod":
        return cls(TAG_DSC)

    def dimension(self, order: int) -> int:
        """Feature dimension for a model of the given order."""
        if self.tag == TAG_CEPSTRUM:
            return self.n_cepstra + 1
        return order + 1 if self.tag == TAG_LPC else 2 * order + 1


@dataclass(frozen=True, eq=False)
class LatentVector(FieldEquality):
    """A point in one of the feature spaces."""

    method: LatentMethod
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", lpc_core._as_float_vector(self.values, "latent values"))

    @property
    def dimension(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class LatentCorpus(FieldEquality, Sequence):
    """Latent vectors of one method as one windows x dimensions matrix.

    The matrix is checked once, for its shape and finiteness. As a sequence,
    the corpus builds each row's ``LatentVector`` only when it is read; a
    slice is a corpus over the same rows.
    """

    method: LatentMethod
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidArgumentError("a latent corpus must be a windows-by-dimensions matrix")
        if not np.all(np.isfinite(matrix)):
            raise InvalidArgumentError("latent values must be finite")
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LatentCorpus(self.method, self.matrix[index])
        return LatentVector(self.method, self.matrix[operator.index(index)])

    def __iter__(self):
        return (LatentVector(self.method, row) for row in self.matrix)


def _log_powers(noise_power) -> np.ndarray:
    # math.log per row: np.log differs from it by an ulp on some inputs
    try:
        return np.array([math.log(p) for p in np.asarray(noise_power, dtype=float).tolist()])
    except ValueError:
        raise ZeroNoisePowerError("log of noise power undefined for sigma^2 = 0") from None


def _cepstrum_rows(coeffs: np.ndarray, log_power: np.ndarray, count: int) -> np.ndarray:
    # lpc_to_cepstrum on every row at once, each term in one float order
    rows, order = coeffs.shape
    if rows == 1:  # plain floats: numpy calls would cost more than the terms
        a, c = coeffs[0].tolist(), log_power.tolist()
    else:  # one array per coefficient index, over all rows
        a, c = list(coeffs.T), [log_power]
    for n in range(1, count + 1):
        acc = 0.0
        for m in range(1, min(n - 1, order) + 1):
            acc += (1.0 - m / n) * a[m - 1] * c[n - m]
        c.append((-a[n - 1] if n <= order else -0.0) - acc)  # -0.0 - acc is -acc
    return np.array(c).reshape(count + 1, rows).T


def _dsc_rows(coeffs: np.ndarray, log_power: np.ndarray, sample_rate: float) -> np.ndarray:
    pole_values = lpc_core.pole_matrix(coeffs)
    radii = np.minimum(np.abs(pole_values), lpc_core.MAX_POLE_RADIUS)
    u = (sample_rate / (2.0 * np.pi)) * np.angle(pole_values)
    v = -2.0 * np.log1p(-radii)
    order_idx = np.lexsort((u, np.abs(u)), axis=-1)
    rows = np.arange(len(order_idx))[:, None]
    return np.concatenate([u[rows, order_idx], v[rows, order_idx], log_power[:, None]], axis=1)


def feature_matrix(coeffs, noise_power, method: LatentMethod, sample_rate: float) -> np.ndarray:
    """Map models into the feature space selected by ``method``, one row each.

    ``coeffs`` is models x order and ``noise_power`` holds one power per
    model. ``features`` is a one-row call of this.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    log_power = _log_powers(noise_power)
    if method.tag == TAG_LPC:
        return np.concatenate([coeffs, log_power[:, None]], axis=1)
    if method.tag == TAG_CEPSTRUM:
        count = method.n_cepstra
        return _cepstrum_rows(coeffs, log_power, count) * _sqrt_index_weights(count)
    return _dsc_rows(coeffs, log_power, sample_rate)


def features(model: lpc_core.LpcModel, method: LatentMethod) -> LatentVector:
    """Map a model into the feature space selected by ``method``.

    The dominant-spectral (DSC) layout: u_k converts each pole angle to Hz;
    v_k = -2*log(1 - |p_k|) grows with the sharpness of the corresponding
    spectral peak. Entries are sorted by |u| (ties broken by signed u
    ascending, so each conjugate pair puts its negative-frequency member
    first) and followed by log sigma^2.
    """
    values = feature_matrix(model.coeffs[None], [model.noise_power], method, model.sample_rate)
    return LatentVector(method, values[0])


def lpc_to_cepstrum(coeffs, noise_power: float, count: int) -> np.ndarray:
    """Cepstrum c_0..c_count of an all-pole model from its coefficients.

    c_0 is log sigma^2 and c_1 = -a_1; later terms follow the two-branch
    recursion that switches once the index passes the model order.
    """
    a = np.asarray(coeffs, dtype=float)[None]
    return _cepstrum_rows(a, _log_powers([noise_power]), count)[0]


def _sqrt_index_weights(count: int) -> np.ndarray:
    # (1, 1, sqrt(2), ..., sqrt(count)): makes Euclidean distance in the
    # feature space equal the index-weighted cepstral distance
    return np.sqrt(np.concatenate(([1.0], np.arange(1, count + 1))))


def cepstrum_to_lpc(ceps, order: int):
    """Invert raw (unweighted) cepstrum coefficients to (coeffs, noise_power).

    The recursion runs over Python floats: its order^2 / 2 terms are too
    few for numpy calls to pay for themselves.
    """
    c = np.asarray(ceps, dtype=float)
    order = whole(order, "order")
    if c.size < order + 1:
        raise InsufficientCoefficientsError(
            f"need at least {order + 1} cepstrum coefficients, got {c.size}"
        )
    c = c.tolist()
    a = []
    for i in range(1, order + 1):
        acc = 0.0
        for m in range(1, i):
            acc += (1.0 - m / i) * a[m - 1] * c[i - m]
        a.append(-c[i] - acc)  # -c[1] - 0.0 is exactly -c[1] for i = 1
    return np.array(a), math.exp(c[0])


def latent_to_model(
    vec: LatentVector, order: int, lam: float, sample_rate: float
) -> lpc_core.LpcModel:
    """Invert a latent vector back into an LPC model.

    Coefficient vectors are read back as they are; cepstrum vectors strip the
    sqrt-index weighting and run the inverse recursion; dominant-spectral
    vectors rebuild poles from (u, v) and expand them, rejecting points whose
    expansion is not a real-coefficient polynomial. A point whose model
    overflows float64 raises ``NonRealizableError`` too.
    """
    method = vec.method
    order = whole(order, "order")
    if vec.dimension != method.dimension(order):
        raise DimensionMismatchError(
            f"expected {method.dimension(order)} values for order {order}, got {vec.dimension}"
        )
    try:
        # overflow is refused below, as a non-finite model, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if method.tag == TAG_LPC:
                coeffs, noise_power = vec.values[:order], math.exp(vec.values[-1])
            elif method.tag == TAG_CEPSTRUM:
                raw = vec.values / _sqrt_index_weights(method.n_cepstra)
                coeffs, noise_power = cepstrum_to_lpc(raw, order)
            else:
                radii = 1.0 - np.exp(-vec.values[order : 2 * order] / 2.0)
                angles = 2.0 * np.pi * vec.values[:order] / sample_rate
                expanded = lpc_core.poles_to_coeffs(radii * np.exp(1j * angles))
                residue = np.max(np.abs(expanded.imag)) if expanded.size else 0.0
                if residue >= 1e-6:
                    raise NonRealizableError(
                        f"pole expansion leaves imaginary residue {residue:.3g}"
                    )
                coeffs, noise_power = expanded.real, math.exp(vec.values[-1])
    except OverflowError:  # math.exp of a log power past float64's range
        noise_power = math.inf
    if not math.isfinite(noise_power) or not np.all(np.isfinite(coeffs)):
        raise NonRealizableError("latent point maps to a model beyond float64's range")
    return lpc_core.LpcModel(order, coeffs, noise_power, lam, sample_rate)
