"""Latent feature spaces over LPC models.

Three reversible maps take a fitted model into a Euclidean feature space:
coefficients plus log error power, weighted cepstrum coefficients,
and dominant spectral components built from pole angles and radii. Each map
has an exact algebraic inverse used when decoding tokens back into models.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import lpc_core
from ._util import FieldEquality, built, shown, whole
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
            raise InvalidArgumentError(f"unknown latent method tag {shown(self.tag)}")
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
    """A point in one of the feature spaces.

    The constructor checks its values. ``features`` builds its vector
    without it (``_util.built``) and keeps only the finiteness check, with
    its error: the map's row is a float64 vector, and only its arithmetic
    can overflow.
    """

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
    """``math.log`` of each noise power, in the input's shape.

    A zero power raises ``ZeroNoisePowerError``; a negative, NaN or
    non-numeric one raises ``InvalidArgumentError``, which shows it. As for
    ``LpcModel``'s noise power, a bool or a string is not a number.
    """
    try:
        powers = np.asarray(noise_power)
        kind = powers.dtype.kind
        numeric = kind in "iuf" or kind == "O" and all(map(lpc_core._real, powers.flat))
        powers = powers.astype(float, copy=False) if numeric else None
    except (OverflowError, TypeError, ValueError):
        powers = None
    if powers is None:
        raise InvalidArgumentError(f"noise power must be a number, got {shown(noise_power)}")
    values = powers.ravel().tolist()
    for p in values:
        if p == 0.0:
            raise ZeroNoisePowerError("log of noise power undefined for sigma^2 = 0")
        if not p > 0.0:
            raise InvalidArgumentError(f"noise power must be positive, got {shown(p)}")
    # math.log per row: np.log differs from it by an ulp on some inputs
    return np.array([math.log(p) for p in values]).reshape(powers.shape)


@functools.lru_cache(maxsize=16)
def _recursion_terms(order: int, count: int) -> tuple:
    # per n in 1..count, each term m < n, m <= order, of the sum over
    # (1 - m/n) a_m c_(n-m) as (m - 1, n - m, 1 - m/n): the list indices of
    # a_m and c_(n-m) and the weight, worked out once per (order, count)
    return tuple(
        tuple((m - 1, n - m, 1.0 - m / n) for m in range(1, min(n, order + 1)))
        for n in range(1, count + 1)
    )


def _recursion_sum(terms: tuple, a: list, c: list):
    # one entry of _recursion_terms, summed in both recursions' one float
    # order, of plain floats or of one array per coefficient index
    acc = 0.0
    for i, j, weight in terms:
        acc += weight * a[i] * c[j]
    return acc


def _cepstrum_rows(coeffs: np.ndarray, log_power: np.ndarray, count: int) -> np.ndarray:
    """``lpc_to_cepstrum`` on every row at once, each term in one float order.

    One row runs over plain floats, which cost less than numpy calls on one
    element; a stack runs over one array per coefficient index. Either way
    the term weights come from the table ``_recursion_terms`` holds.
    """
    rows, order = coeffs.shape
    if rows == 1:
        a, c = coeffs[0].tolist(), log_power.tolist()
    else:
        a, c = list(coeffs.T), [log_power]
    for n, terms in enumerate(_recursion_terms(order, count), 1):  # -0.0 - sum is -sum
        c.append((-a[n - 1] if n <= order else -0.0) - _recursion_sum(terms, a, c))
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
    coeffs, log_power = np.asarray(coeffs, dtype=float), _log_powers(noise_power)
    if coeffs.ndim != 2 or log_power.shape != coeffs.shape[:1]:
        raise InvalidArgumentError("expected a models-by-order matrix and a noise power per model")
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
    return built(LatentVector, method=method, values=lpc_core._finite(values[0], "latent values"))


def lpc_to_cepstrum(coeffs, noise_power: float, count: int) -> np.ndarray:
    """Cepstrum c_0..c_count of an all-pole model from its coefficients.

    c_0 is log sigma^2 and c_1 = -a_1; later terms follow the two-branch
    recursion that switches once the index passes the model order.
    """
    a, count = lpc_core._as_float_vector(coeffs, "coeffs")[None], whole(count, "count", 0)
    log_power = _log_powers(noise_power)
    if log_power.ndim:
        raise InvalidArgumentError("noise power must be one number")
    return _cepstrum_rows(a, log_power[None], count)[0]


@functools.lru_cache(maxsize=16)
def _sqrt_index_weights(count: int) -> np.ndarray:
    # (1, 1, sqrt(2), ..., sqrt(count)): makes Euclidean distance in the
    # feature space equal the index-weighted cepstral distance; held, read-only
    weights = np.sqrt(np.concatenate(([1.0], np.arange(1, count + 1))))
    weights.flags.writeable = False
    return weights


def _lpc_rows(ceps: np.ndarray, order: int) -> np.ndarray:
    # the inverse recursion on every row at once: one array per coefficient
    # index, each term in one float order
    rows, count = ceps.shape
    if count < order + 1:
        raise InsufficientCoefficientsError(
            f"need at least {order + 1} cepstrum coefficients, got {count}"
        )
    c = list(ceps.T)
    a = []
    # terms m < i only, which a holds by then; -c[1] - 0.0 is exactly -c[1]
    for i, terms in enumerate(_recursion_terms(order, order), 1):
        a.append(-c[i] - _recursion_sum(terms, a, c))
    return np.array(a).reshape(order, rows).T


def cepstrum_to_lpc(ceps, order: int):
    """Invert raw (unweighted) cepstrum coefficients to (coeffs, noise_power).

    a_1 = -c_1 and a_i = -c_i - sum_{m<i} (1 - m/i) a_m c_{i-m}: the
    recursion ``model_matrix`` runs, on one row. A model past float64's range
    is refused with ``model_matrix``'s ``NonRealizableError``.
    """
    c = lpc_core._as_float_vector(ceps, "cepstrum coefficients")[None]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        coeffs = _lpc_rows(c, lpc_core.check_order(order))
    noise_power = _exp_powers(c[:, 0])
    refusal = _overflow_refusals(coeffs, noise_power)[0]
    if refusal is not None:
        raise NonRealizableError(refusal)
    return coeffs[0], noise_power.item(0)


def _exp_powers(log_power: np.ndarray) -> np.ndarray:
    # math.exp per row, as _log_powers takes math.log; past float64's range is inf
    powers = []
    for value in log_power.tolist():
        try:
            powers.append(math.exp(value))
        except OverflowError:
            powers.append(math.inf)
    return np.array(powers)


def _overflow_refusals(coeffs: np.ndarray, noise_power: np.ndarray) -> list:
    # per row None, or the refusal of a model that overflows float64
    finite = np.isfinite(coeffs).all(axis=1) & np.isfinite(noise_power)
    beyond = "latent point maps to a model beyond float64's range"
    return [None if ok else beyond for ok in finite.tolist()]


def _dsc_inverse_rows(values: np.ndarray, order: int, sample_rate: float):
    # poles from (u, v), then one poles_to_coeffs per row: its np.convolve
    # sums are the bytes every DSC model is pinned to
    radii = 1.0 - np.exp(-values[:, order : 2 * order] / 2.0)
    angles = 2.0 * np.pi * values[:, :order] / sample_rate
    poles = radii * np.exp(1j * angles)
    expanded = np.empty_like(poles)
    for row, pole_values in zip(expanded, poles):
        row[:] = lpc_core.poles_to_coeffs(pole_values)
    return expanded.real, np.abs(expanded.imag).max(axis=1, initial=0.0)


def model_matrix(values, method: LatentMethod, order: int, sample_rate: float):
    """Invert latent points, one per row, into models: the inverse of ``feature_matrix``.

    Returns ``(coeffs, noise_power, refusals)``: rows x order coefficients,
    one noise power per row, and per row ``None`` or the message of the
    ``NonRealizableError`` that refuses it. A refused row's coefficients and
    noise power are what the inverse computed, not a model.

    Coefficient points are read back as they are; cepstrum points strip the
    sqrt-index weighting and run the inverse recursion; dominant-spectral
    points rebuild poles from (u, v) and expand them, and are refused when
    the expansion is not a real-coefficient polynomial. A point whose model
    overflows float64 is refused too. ``latent_to_model`` is a one-row call
    of this.
    """
    sample_rate = lpc_core.check_rate(sample_rate)
    order = lpc_core.check_order(order)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidArgumentError("latent values must be a rows-by-dimensions matrix")
    if values.shape[1] != method.dimension(order):
        raise DimensionMismatchError(
            f"expected {method.dimension(order)} values for order {order}, got {values.shape[1]}"
        )
    residues = None
    # overflow is refused below, as a non-finite model, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if method.tag == TAG_LPC:
            coeffs, log_power = values[:, :order], values[:, -1]
        elif method.tag == TAG_CEPSTRUM:
            raw = values / _sqrt_index_weights(method.n_cepstra)
            coeffs, log_power = _lpc_rows(raw, order), raw[:, 0]
        else:
            coeffs, residues = _dsc_inverse_rows(values, order, sample_rate)
            log_power = values[:, -1]
        noise_power = _exp_powers(log_power)
    refusals = _overflow_refusals(coeffs, noise_power)
    if residues is not None:
        for row in np.flatnonzero(residues >= 1e-6).tolist():
            refusals[row] = f"pole expansion leaves imaginary residue {residues[row]:.3g}"
    return coeffs, noise_power, refusals


def latent_to_model(
    vec: LatentVector, order: int, lam: float, sample_rate: float
) -> lpc_core.LpcModel:
    """Invert a latent vector back into an LPC model: a one-row ``model_matrix``.

    A vector whose length is not ``method.dimension(order)`` raises
    ``DimensionMismatchError``, a bad ``sample_rate`` ``InvalidArgumentError``,
    and a refused point ``NonRealizableError`` with ``model_matrix``'s message.
    """
    coeffs, noise_power, refusals = model_matrix(vec.values[None], vec.method, order, sample_rate)
    if refusals[0] is not None:
        raise NonRealizableError(refusals[0])
    return lpc_core.LpcModel(order, coeffs[0], noise_power.item(0), lam, sample_rate)
