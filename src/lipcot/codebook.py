"""Token vocabulary over a latent space: normalization, k-means, inversion.

Training z-scores the latent vectors, clusters them with seeded k-means++,
and freezes the normalization statistics alongside the centroids so that
encoding and decoding see exactly the space the vocabulary was built in.
The module also owns the codebook file, ``book.json``, and the token words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._util import FieldEquality, read_json, whole, write_text_atomic
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidTokenError,
    LipcotError,
    NonRealizableError,
    TooFewVectorsError,
)
from .latent import LatentCorpus, LatentMethod, LatentVector, latent_to_model
from .lpc_core import LpcModel, _as_float_vector, check_lam

CODEBOOK_FORMAT_VERSION = "1"

RESERVED_WORDS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class NormStats(FieldEquality):
    """Per-dimension z-score statistics fit on the training vectors."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean, std = _as_float_vector(self.mean, "mean"), _as_float_vector(self.std, "std")
        if mean.shape != std.shape:
            raise InvalidArgumentError("mean and std must have the same length")
        if np.any(std <= 0):
            raise InvalidArgumentError("std entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "NormStats":
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            mean, std = matrix.mean(axis=0), matrix.std(axis=0)
        if not np.all(np.isfinite(std)):  # an infinite mean leaves no finite std
            raise LipcotError("the vectors' mean or spread is past float64's range")
        std = np.where(std == 0.0, 1.0, std)  # degenerate dimensions pass through
        return cls(mean, std)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def check_space(k, method: LatentMethod, order, lam, seed, width: int):
    """The codebook rule for ``width`` values per centroid; returns k, order, lam, seed, plain."""
    k, order, seed = whole(k, "k", 1), whole(order, "order", 1), whole(seed, "seed", 0)
    # decode inverts centroids at this order, and every inverse reads order + 1 values
    if width != method.dimension(order) or width <= order:
        raise DimensionMismatchError(f"{width} values disagree with {method} at order {order}")
    return k, order, check_lam(lam), seed


@dataclass(frozen=True, eq=False)
class Codebook(FieldEquality):
    """K centroids in normalized latent space plus the model configuration.

    ``centroid_sq_norms``, each centroid's squared norm for
    ``nearest_centroids``, is derived here once and never serialized.
    """

    k: int
    centroids: np.ndarray
    norm_stats: NormStats
    method: LatentMethod
    order: int
    lam: float
    seed: int
    centroid_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        width = self.norm_stats.mean.size
        fields = check_space(self.k, self.method, self.order, self.lam, self.seed, width)
        for name, value in zip(("k", "order", "lam", "seed"), fields):
            object.__setattr__(self, name, value)
        centroids = np.asarray(self.centroids, dtype=float)
        if centroids.shape != (self.k, width):
            raise InvalidArgumentError("centroid matrix shape disagrees with k and stats")
        if not np.all(np.isfinite(centroids)):
            raise InvalidArgumentError("centroids must be finite")
        object.__setattr__(self, "centroids", centroids)
        with np.errstate(over="ignore"):  # an infinite norm is the shortlist's to handle
            object.__setattr__(self, "centroid_sq_norms", np.vecdot(centroids, centroids))

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]


# rows per chunk: the shortlist holds rows x k floats, not rows x k x d; only
# refined rows build their k x d differences
_ASSIGN_CHUNK = 256
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def nearest_centroids(points: np.ndarray, centroids: np.ndarray, c_sq=None):
    """Each row's nearest centroid, as an array of labels.

    ``c_sq`` is ``np.vecdot(centroids, centroids)``, computed here when not
    given; a codebook passes the norms it holds.

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
    more than 2B above its best G. The runner-up test decides that in one
    pass: with the best entry set to +inf, the row minimum is the least of
    the other k - 1 entries, and it exceeds ``best + 2B`` exactly when each
    of them does; a NaN anywhere fails the comparison, as it failed the
    entry-wise one. Every other row is decided by direct differences over
    all k centroids: exact ties, and, for k > 1, every row whose G or B is
    not finite. B is computed from 4N, which bounds every direct value, so
    it is infinite wherever direct differences could overflow, and their
    warnings are kept. So the labels do not depend on how BLAS rounds or how
    many threads it runs. With k = 1 there is no other centroid, and no row
    is refined.

    G is formed as ``(-2 x) @ c.T + ||c||^2``: scaling by -2 is exact away
    from the subnormal range, so that product has the bits of
    ``-2 (x @ c.T)``, and it costs d products per row, not k.
    """
    n, d = points.shape
    k = centroids.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    labels = np.empty(n, dtype=np.intp)
    ambiguous = []
    # only the shortlist is silenced: refined rows warn as direct differences do
    with np.errstate(over="ignore", invalid="ignore"):
        if c_sq is None:
            c_sq = np.vecdot(centroids, centroids)
        # 2B = 2 (d + 2) eps 4 (N + tiny / eps), infinite wherever 4N overflows
        two_b = np.vecdot(points, points) + (c_sq.max(initial=0.0) + _TINY / _EPS)
        two_b *= 4.0
        two_b *= 2 * (d + 2) * _EPS
        row_starts = np.arange(0, min(n, _ASSIGN_CHUNK) * k, k)
        for start in range(0, n, _ASSIGN_CHUNK):
            g = (-2.0 * points[start : start + _ASSIGN_CHUNK]) @ centroids.T
            g += c_sq
            best = g.argmin(axis=1)
            labels[start : start + _ASSIGN_CHUNK] = best
            own = row_starts[: best.size] + best  # flat index of each row's best in g
            near = g.take(own)
            near += two_b[start : start + _ASSIGN_CHUNK]
            g.put(own, np.inf)
            # a NaN runner-up or threshold fails the test, so such a row is refined
            far = g.min(axis=1) > near
            if np.count_nonzero(far) != far.size:
                ambiguous.append(start + np.flatnonzero(~far))
    for rows in ambiguous:
        block = ((points[rows, None, :] - centroids) ** 2).sum(axis=2)
        labels[rows] = np.argmin(block, axis=1)
    return labels


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): each pick is drawn
    with probability proportional to its squared distance D^2 to the nearest
    centroid picked so far.

    One GEMV per pick gives every row's squared distance to the new centroid
    c = x_j by the expansion ``E = ||x||^2 - 2 x.c + ||c||^2``, with the
    squared norms ``||x||^2`` computed once. As in ``nearest_centroids``, E
    is within ``(d + 2) eps N`` of the exact distance S, with
    ``N = ||x||^2 + ||c||^2``, whatever order BLAS sums in. A row whose E is
    not above ``B = 4 (d + 2) (eps N + tiny)`` is recomputed by direct
    differences, ``((x - c) ** 2).sum()``. So every duplicate of a picked
    row (S = 0) keeps D^2 exactly 0 and is never drawn, and a zero total
    still means that every row is a picked one. B is computed from 4N, which
    bounds every direct value, so it is infinite wherever direct differences
    could overflow. A D^2 that is still infinite or NaN makes the total so,
    which raises one ``LipcotError`` and no warning.

    The draw is ``Generator.choice(n, p=D^2 / total)`` written out: one
    ``rng.random()`` located in the normalized cumulative sum, so the random
    stream is that of ``choice``. The other rows' D^2 differ from direct
    differences only by rounding, at most ``(d + 2) eps N`` each; a pick
    moves only if the draw lands within about that much of a boundary of
    the cumulative sum, so on any input the picks are those of direct
    differences but for a chance of that order per pick.
    """
    n, d = points.shape
    centroids = np.empty((k, d))
    idx = rng.integers(n)
    centroids[0] = points[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        x_sq = np.vecdot(points, points)
        four_n = 4.0 * (x_sq + _TINY / _EPS)
    closest = np.full(n, np.inf)
    for i in range(1, k):
        c = points[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            dist = points @ c
            dist *= -2.0
            dist += x_sq
            dist += x_sq[idx]
            bound = four_n + 4.0 * x_sq[idx]
            bound *= (d + 2) * _EPS
            # a NaN E or B is not above B either, so such a row is refined
            near = np.flatnonzero(~(dist > bound))
            dist[near] = ((points[near] - c) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
        total = closest.sum()
        if 0.0 < total < np.inf:
            cdf = np.cumsum(closest / total)
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
        elif total == 0.0:
            idx = rng.integers(n)
        else:  # an infinite or NaN D^2, which choice refused as well
            raise LipcotError("squared distances between the points are not finite")
        centroids[i] = points[idx]
    return centroids


def _reseed_empty(points, centroids, labels) -> int:
    """Move each empty centroid onto the point farthest from its own centroid.

    ``centroids`` and ``labels`` change in place; returns how many centroids
    moved. A point that is the only member of its cluster is never taken,
    so a reseed never empties another cluster.
    """
    counts = np.bincount(labels, minlength=centroids.shape[0])
    empty = np.flatnonzero(counts == 0)
    if not empty.size:
        return 0
    own_sq_dists = ((points - centroids[labels]) ** 2).sum(axis=1)  # before any moves
    for c in empty:
        far = int(np.argmax(np.where(counts[labels] > 1, own_sq_dists, -1.0)))
        counts[labels[far]] -= 1
        counts[c] = 1
        centroids[c] = points[far]
        labels[far] = c
    return empty.size


def kmeans_fit(points: np.ndarray, k: int, seed: int):
    """Seeded k-means++ plus Lloyd iterations on normalized vectors.

    Each iteration assigns every point to its nearest centroid, reseeds
    empty clusters to the point farthest from its current centroid (so the
    recorded per-iteration inertia never increases), and moves each
    centroid to the mean of its points. Lloyd stops at the first of:

    - an assignment equal to the previous iteration's, with no centroid
      reseeded: the centroids are then already the means of that very
      assignment, so the next means would equal them bit for bit (a shift
      of exactly 0). Those labels are returned as they are; a further
      assignment against the same centroids would give them again;
    - a largest centroid displacement below 1e-6;
    - 300 iterations.

    After the last two, the labels come from one more assignment against the
    final centroids, and any cluster left empty is reseeded.

    Returns ``(centroids, labels, inertia_history)``. Fewer than ``k``
    distinct points raise ``TooFewVectorsError``, and squared distances
    that are not finite raise ``LipcotError``.
    """
    seed = whole(seed, "seed", 0)
    if np.unique(points, axis=0).shape[0] < k:
        raise TooFewVectorsError(f"need at least {k} distinct vectors")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    d = points.shape[1]
    columns = np.arange(d)
    inertia_history, labels = [], None
    for _ in range(_KMEANS_MAX_ITER):
        previous, labels = labels, nearest_centroids(points, centroids)
        reseeded = _reseed_empty(points, centroids, labels)
        # unmoved centroids are already the means of an unchanged assignment
        settled = not reseeded and np.array_equal(labels, previous)
        inertia_history.append(float(((points - centroids[labels]) ** 2).sum()))
        if settled:
            break
        # bin (label, column) per entry; bincount visits each bin's rows in
        # row order from 0.0, as a masked mean would, signed zeros included
        bins = labels[:, None] * d + columns
        sums = np.bincount(bins.ravel(), weights=points.ravel(), minlength=k * d)
        new_centroids = sums.reshape(k, d) / np.bincount(labels, minlength=k)[:, None]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < _KMEANS_TOL:
            break
    if not settled:  # final assignment against the final centroids
        labels = nearest_centroids(points, centroids)
    for _ in range(k):  # patch any stragglers
        if np.bincount(labels, minlength=k).all():
            break
        _reseed_empty(points, centroids, labels)
        labels = nearest_centroids(points, centroids)
    return centroids, labels, np.asarray(inertia_history)


def train_codebook(
    vectors, k: int, seed: int, *, order: int, lam: float
) -> Codebook:
    """Cluster latent vectors into a K-token vocabulary.

    ``vectors`` is a ``LatentCorpus``, used as it is, or any iterable of
    ``LatentVector``, which is stacked into one matrix. Normalization
    statistics are fit on the training vectors and stored in the codebook;
    the same statistics are reused verbatim when encoding and decoding.
    Deterministic for a fixed seed and input order. Vectors of more than one
    method, or that order-``order`` models cannot map to, raise
    ``DimensionMismatchError``.
    """
    if not isinstance(vectors, LatentCorpus):
        vectors = list(vectors)
    if not vectors:
        raise TooFewVectorsError("need at least one vector")
    method, dim = vectors[0].method, vectors[0].dimension
    k, order, lam, seed = check_space(k, method, order, lam, seed, dim)
    if len(vectors) < k:
        raise TooFewVectorsError(f"need at least {k} vectors, got {len(vectors)}")
    if isinstance(vectors, LatentCorpus):
        matrix = vectors.matrix
    elif any(vec.method != method or vec.dimension != dim for vec in vectors):
        raise DimensionMismatchError(f"vectors disagree with {method} or order {order}")
    else:
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
        lam=lam,
        seed=seed,
    )


def encode_matrix(codebook: Codebook, matrix: np.ndarray) -> np.ndarray:
    """Token id of each row of a matrix in the codebook's latent space.

    The nearest centroid in normalized space; ties go to the lowest id. A
    row that is not finite there raises ``LipcotError``.
    """
    if matrix.shape[1] != codebook.dimension:
        raise DimensionMismatchError("vector does not live in the codebook's space")
    try:  # the kernel's shortlist silences its own overflow; any other is refused
        with np.errstate(over="raise", invalid="raise"):
            points = codebook.norm_stats.normalize(matrix)  # NaN and inf pass quietly
            if np.isfinite(points).all():
                return nearest_centroids(points, codebook.centroids, codebook.centroid_sq_norms)
    except FloatingPointError:
        pass
    raise LipcotError("a row is not finite, or past float64's range, in the codebook's space")


def encode_vector(codebook: Codebook, vec: LatentVector) -> int:
    """Nearest-centroid token id in normalized space; ties go to the lowest id."""
    if vec.method != codebook.method:
        raise DimensionMismatchError("vector does not live in the codebook's space")
    return int(encode_matrix(codebook, vec.values[None])[0])


def decode_token(codebook: Codebook, token: int, sample_rate: float) -> LpcModel:
    """Invert a token to the LPC model at its denormalized cluster center."""
    token = whole(token, "token")
    if not 0 <= token < codebook.k:
        raise InvalidTokenError(f"token {token} outside [0, {codebook.k})")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        values = codebook.norm_stats.denormalize(codebook.centroids[token])
    if not np.all(np.isfinite(values)):
        raise NonRealizableError(f"token {token} denormalizes past float64's range")
    vec = LatentVector(codebook.method, values)
    return latent_to_model(vec, codebook.order, codebook.lam, sample_rate)


def token_word(token: int) -> str:
    """The vocabulary's word for a token id."""
    return f"t{token}"


def export_vocabulary(codebook: Codebook) -> list:
    """Reserved words followed by one word per token id."""
    return list(RESERVED_WORDS) + [token_word(i) for i in range(codebook.k)]


def save_codebook(codebook: Codebook, path) -> None:
    """Write a format-"1" ``book.json``; the method's ``weights`` is always null."""
    method = codebook.method
    payload = {
        "version": CODEBOOK_FORMAT_VERSION,
        "method": {"tag": method.tag, "weights": None, "n_cepstra": method.n_cepstra},
        "order": codebook.order,
        "lambda": codebook.lam,
        "k": codebook.k,
        "norm_mean": codebook.norm_stats.mean.tolist(),
        "norm_std": codebook.norm_stats.std.tolist(),
        "centroids": codebook.centroids.tolist(),
        "seed": codebook.seed,
    }
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


def _items(value):
    return value if type(value) is list else (value,)


def _numbers_only(value) -> bool:
    """Whether a JSON value is numbers at most two lists deep; a bool is not a number.

    The centroid matrix is the deepest value a ``book.json`` holds, so
    nothing deeper is walked.
    """
    return all(type(cell) in (int, float) for item in _items(value) for cell in _items(item))


def load_codebook(path) -> Codebook:
    """Read a ``book.json``; any malformed file raises ``LipcotError`` naming ``path``."""
    payload = read_json(path)
    try:
        version = payload["version"]
        if version != CODEBOOK_FORMAT_VERSION:
            raise LipcotError(f"{path}: unsupported codebook version {version!r}")
        arrays = (payload["norm_mean"], payload["norm_std"], payload["centroids"])
        if not all(map(_numbers_only, arrays)):
            raise InvalidArgumentError(
                "norm_mean, norm_std and centroids must hold JSON numbers only"
            )
        method = payload["method"]
        if method.get("reduced", False):  # older books store "reduced": false, which loads
            raise LipcotError(
                f"{path}: reduced dominant-spectral codebooks are no longer supported"
            )
        if method.get("weights") is not None:
            raise InvalidArgumentError("no latent map takes weights")
        return Codebook(
            k=payload["k"],
            centroids=payload["centroids"],
            norm_stats=NormStats(payload["norm_mean"], payload["norm_std"]),
            method=LatentMethod(method["tag"], n_cepstra=method.get("n_cepstra")),
            order=payload["order"],
            lam=payload["lambda"],
            seed=payload["seed"],
        )
    except KeyError as exc:
        raise LipcotError(f"{path}: codebook is missing key {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError, DimensionMismatchError) as exc:
        raise LipcotError(f"{path}: malformed codebook ({exc})") from None
