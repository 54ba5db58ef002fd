"""Token vocabulary over a latent space: normalization, k-means, inversion.

Training z-scores the latent vectors, clusters them with seeded k-means++,
and freezes the normalization statistics alongside the centroids so that
encoding and decoding see exactly the space the vocabulary was built in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._util import write_text_atomic
from .errors import (
    DimensionMismatchError,
    InvalidTokenError,
    LipcotError,
    TooFewVectorsError,
)
from .latent import TAG_CEPSTRUM, LatentMethod, LatentVector, latent_to_model
from .lpc_core import LpcModel

CODEBOOK_FORMAT_VERSION = "1"

RESERVED_WORDS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class NormStats:
    """Per-dimension z-score statistics fit on the training vectors."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be matching one-dimensional arrays")
        if np.any(std <= 0):
            raise ValueError("std entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "NormStats":
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)  # degenerate dimensions pass through
        return cls(mean, std)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclass(frozen=True)
class Codebook:
    """K centroids in normalized latent space plus the model configuration."""

    k: int
    centroids: np.ndarray
    norm_stats: NormStats
    method: LatentMethod
    order: int
    lam: float
    seed: int
    version: str = CODEBOOK_FORMAT_VERSION

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=float)
        if centroids.shape != (self.k, self.norm_stats.mean.size):
            raise ValueError("centroid matrix shape disagrees with k and stats")
        if not np.all(np.isfinite(centroids)):
            raise ValueError("centroids must be finite")
        object.__setattr__(self, "centroids", centroids)

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]


# rows per chunk: the shortlist holds rows x k floats, not rows x k x d; only
# refined rows build their k x d differences
_ASSIGN_CHUNK = 256
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def nearest_centroids(points: np.ndarray, centroids: np.ndarray):
    """Each row's nearest centroid and squared distance: ``(labels, sq_dists)``.

    The answer is bit for bit that of direct differences,
    ``((x - c) ** 2).sum()`` over every centroid with ties to the lowest id,
    but most rows never build their (k, d) differences. Per chunk of rows,
    one GEMM shortlists ``G = ||c||^2 - 2 x.c``; the row constant ``||x||^2``
    changes no argmin and no gap.

    Why the shortlist is safe: let u = eps / 2, ``g(n) = n u / (1 - n u)``,
    S the exact squared distance and ``N = ||x||^2 + max ||c||^2``, so that
    ``S <= 2 N``. The direct value (one subtraction, one square, d - 1 sums
    of non-negative terms) is within ``g(d + 2) S <= 2 g(d + 2) N`` of S.
    G is within ``g(d) (||c||^2 + 2 |x| |c|) <= 2 g(d) N`` plus one final
    rounding of at most ``2 u N``, so within ``2 g(d + 1) N`` of
    ``S - ||x||^2``, whatever order BLAS sums in. Every entry of G is thus
    within ``4 g(d + 2) N ~ B / 2`` of its direct value less ``||x||^2``,
    with ``B = 4 (d + 2) (eps N + tiny)``; gradual underflow adds at most
    4 d half-subnormals, far below the ``tiny`` term. A centroid more than
    2B above a row's best G is therefore strictly farther by direct
    differences as well, with a factor 2 to spare for the rounding of B
    and of the comparison.

    A row keeps its shortlist label only when all k - 1 other centroids lie
    more than 2B above its best G. Every other row is decided by direct
    differences over all k centroids: exact ties, and, for k > 1, every row
    whose G or B is not finite. B is computed from 4N, which bounds every
    direct value, so it is infinite wherever direct differences could
    overflow, and their warnings are kept. Each returned distance is the
    direct difference to the chosen centroid, so neither output depends on
    how BLAS rounds or how many threads it runs.
    """
    n, d = points.shape
    k = centroids.shape[0]
    labels = np.empty(n, dtype=np.intp)
    ambiguous = []
    # only the shortlist is silenced: refined rows warn as direct differences do
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.vecdot(centroids, centroids)
        # 2B = 2 (d + 2) eps 4 (N + tiny / eps), infinite wherever 4N overflows
        two_b = np.vecdot(points, points) + (c_sq.max(initial=0.0) + _TINY / _EPS)
        two_b *= 4.0
        two_b *= 2 * (d + 2) * _EPS
        for start in range(0, n, _ASSIGN_CHUNK):
            g = points[start : start + _ASSIGN_CHUNK] @ centroids.T
            g *= -2.0
            g += c_sq
            labels[start : start + _ASSIGN_CHUNK] = g.argmin(axis=1)
            near = g.min(axis=1)
            near += two_b[start : start + _ASSIGN_CHUNK]
            # a NaN threshold leaves no entry far, so such a row counts as ambiguous
            far = g > near[:, None]
            if np.count_nonzero(far) != far.shape[0] * (k - 1):
                ambiguous.append(start + np.flatnonzero(far.sum(axis=1) != k - 1))
    for rows in ambiguous:
        block = ((points[rows, None, :] - centroids) ** 2).sum(axis=2)
        labels[rows] = np.argmin(block, axis=1)
    return labels, ((points - centroids.take(labels, axis=0)) ** 2).sum(axis=1)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total > 0.0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centroids[i] = points[idx]
        closest = np.minimum(closest, ((points - points[idx]) ** 2).sum(axis=1))
    return centroids


def _reseed_empty(points, centroids, labels, own_sq_dists):
    """Move each empty centroid onto the point farthest from its own centroid.

    A point that is the only member of its cluster is never taken, so a
    reseed never empties another cluster.
    """
    counts = np.bincount(labels, minlength=centroids.shape[0])
    for c in np.flatnonzero(counts == 0):
        far = int(np.argmax(np.where(counts[labels] > 1, own_sq_dists, -1.0)))
        counts[labels[far]] -= 1
        counts[c] = 1
        centroids[c] = points[far]
        labels[far] = c
    return centroids, labels


def kmeans_fit(points: np.ndarray, k: int, seed: int):
    """Seeded k-means++ plus Lloyd iterations on normalized vectors.

    Stops when the largest centroid displacement drops below 1e-6 or after
    300 iterations. Empty clusters are reseeded to the point farthest from
    its current centroid, so the recorded per-iteration inertia never
    increases.

    Returns ``(centroids, labels, inertia_history)``. Fewer than ``k``
    distinct points raise ``TooFewVectorsError``.
    """
    if np.unique(points, axis=0).shape[0] < k:
        raise TooFewVectorsError(f"need at least {k} distinct vectors")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    inertia_history = []
    for _ in range(_KMEANS_MAX_ITER):
        labels, own = nearest_centroids(points, centroids)
        centroids, labels = _reseed_empty(points, centroids, labels, own)
        inertia_history.append(float(((points - centroids[labels]) ** 2).sum()))
        # np.add.at sums each cluster in row order, as a masked mean would
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        new_centroids = sums / np.bincount(labels, minlength=k)[:, None]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < _KMEANS_TOL:
            break
    # final assignment against the final centroids; patch any stragglers
    labels, own = nearest_centroids(points, centroids)
    for _ in range(k):
        if np.bincount(labels, minlength=k).all():
            break
        centroids, labels = _reseed_empty(points, centroids, labels, own)
        labels, own = nearest_centroids(points, centroids)
    return centroids, labels, np.asarray(inertia_history)


def train_codebook(
    vectors, k: int, seed: int, *, order: int, lam: float
) -> Codebook:
    """Cluster latent vectors into a K-token vocabulary.

    Normalization statistics are fit on the training vectors and stored in
    the codebook; the same statistics are reused verbatim when encoding and
    decoding. Deterministic for a fixed seed and input order. Vectors that
    order-``order`` models cannot map to raise ``DimensionMismatchError``.
    """
    vectors = list(vectors)
    k, order = int(k), int(order)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(vectors) < k:
        raise TooFewVectorsError(f"need at least {k} vectors, got {len(vectors)}")
    method = vectors[0].method
    dim = vectors[0].dimension
    for vec in vectors:
        if vec.method.tag != method.tag or vec.dimension != dim:
            raise DimensionMismatchError("training vectors disagree in method or dimension")
    # decode inverts centroids at this order; cepstrum inversion reads the first order + 1 values
    if dim < order + 1 if method.tag == TAG_CEPSTRUM else dim != method.dimension(order):
        raise DimensionMismatchError(f"{method.tag} vectors of {dim} values for order {order}")
    matrix = np.stack([vec.values for vec in vectors])
    stats = NormStats.fit(matrix)
    normalized = stats.normalize(matrix)
    centroids, _, _ = kmeans_fit(normalized, k, seed)
    return Codebook(
        k=k,
        centroids=centroids,
        norm_stats=stats,
        method=method,
        order=order,
        lam=float(lam),
        seed=int(seed),
    )


def encode_matrix(codebook: Codebook, matrix: np.ndarray) -> np.ndarray:
    """Token id of each row of a matrix in the codebook's latent space.

    The nearest centroid in normalized space; ties go to the lowest id.
    """
    if matrix.shape[1] != codebook.dimension:
        raise DimensionMismatchError("vector does not live in the codebook's space")
    return nearest_centroids(codebook.norm_stats.normalize(matrix), codebook.centroids)[0]


def encode_vector(codebook: Codebook, vec: LatentVector) -> int:
    """Nearest-centroid token id in normalized space; ties go to the lowest id."""
    if vec.method.tag != codebook.method.tag:
        raise DimensionMismatchError("vector does not live in the codebook's space")
    return int(encode_matrix(codebook, vec.values[None])[0])


def decode_token(codebook: Codebook, token: int, sample_rate: float) -> LpcModel:
    """Invert a token to the LPC model at its denormalized cluster center."""
    token = int(token)
    if not 0 <= token < codebook.k:
        raise InvalidTokenError(f"token {token} outside [0, {codebook.k})")
    values = codebook.norm_stats.denormalize(codebook.centroids[token])
    vec = LatentVector(codebook.method, values)
    return latent_to_model(vec, codebook.order, codebook.lam, sample_rate)


def export_vocabulary(codebook: Codebook) -> list:
    """Reserved words followed by one word per token id."""
    return list(RESERVED_WORDS) + [f"t{i}" for i in range(codebook.k)]


def codebook_to_dict(codebook: Codebook) -> dict:
    return {
        "version": codebook.version,
        "method": codebook.method.to_dict(),
        "order": codebook.order,
        "lambda": codebook.lam,
        "k": codebook.k,
        "norm_mean": codebook.norm_stats.mean.tolist(),
        "norm_std": codebook.norm_stats.std.tolist(),
        "centroids": codebook.centroids.tolist(),
        "seed": codebook.seed,
    }


def codebook_from_dict(payload: dict) -> Codebook:
    """Rebuild a codebook; any malformed payload raises ``LipcotError``."""
    try:
        version = str(payload["version"])
        if version != CODEBOOK_FORMAT_VERSION:
            raise LipcotError(f"unsupported codebook version {version!r}")
        return Codebook(
            k=int(payload["k"]),
            centroids=np.asarray(payload["centroids"], dtype=float),
            norm_stats=NormStats(
                np.asarray(payload["norm_mean"], dtype=float),
                np.asarray(payload["norm_std"], dtype=float),
            ),
            method=LatentMethod.from_dict(payload["method"]),
            order=int(payload["order"]),
            lam=float(payload["lambda"]),
            seed=int(payload["seed"]),
            version=version,
        )
    except KeyError as exc:
        raise LipcotError(f"codebook is missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise LipcotError(f"malformed codebook ({exc})") from None


def save_codebook(codebook: Codebook, path) -> None:
    write_text_atomic(path, json.dumps(codebook_to_dict(codebook), indent=2) + "\n")


def load_codebook(path) -> Codebook:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise LipcotError(f"{path}: not valid JSON ({exc})") from None
    try:
        return codebook_from_dict(payload)
    except LipcotError as exc:
        raise LipcotError(f"{path}: {exc}") from None
