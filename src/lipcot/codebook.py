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

from ._util import FieldEquality, built, read_json, shown, whole, write_text_atomic
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidTokenError,
    LipcotError,
    NonRealizableError,
    TooFewVectorsError,
    UnstableModelError,
)
from .latent import LatentCorpus, LatentMethod, LatentVector, model_matrix
from .lpc_core import (
    LpcModel,
    _as_float_vector,
    certified_rows,
    check_lam,
    check_order,
    check_rate,
    conventional_rows,
    synthesis_filter,
)

CODEBOOK_FORMAT_VERSION = "1"

RESERVED_WORDS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6


def _frozen(values: np.ndarray) -> np.ndarray:
    # a private read-only copy: a write to the caller's array, or to this
    # one, cannot leave what a codebook derives from it stale
    values = values.copy()
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class NormStats(FieldEquality):
    """Per-dimension z-score statistics fit on the training vectors, as read-only copies."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean, std = _as_float_vector(self.mean, "mean"), _as_float_vector(self.std, "std")
        if mean.shape != std.shape:
            raise InvalidArgumentError("mean and std must have the same length")
        if np.any(std <= 0):
            raise InvalidArgumentError("std entries must be positive")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "std", _frozen(std))

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
    """The codebook rule for ``width`` values per centroid; returns plain k, order, lam and seed."""
    k, order, seed = whole(k, "k", 1), check_order(order), whole(seed, "seed", 0)
    # decode inverts centroids at this order, and every inverse reads order + 1 values
    if width != method.dimension(order) or width <= order:
        raise DimensionMismatchError(f"{width} values disagree with {method} at order {order}")
    return k, order, check_lam(lam), seed


@dataclass(frozen=True, eq=False)
class Codebook(FieldEquality):
    """K centroids in normalized latent space plus the model configuration.

    ``centroid_sq_norms``, each centroid's squared norm for
    ``nearest_centroids``, is derived here once and never serialized.
    ``decode_table`` holds ``decode_book`` at the last rate ``decode_token``
    read, and each token's synthesis filter, as ``(sample_rate, coeffs,
    noise_power, refusals, filters)``, or None before the first decode; a
    filter is an ``LpcModel.held_filter`` or None for a refused token. It is
    never serialized or compared either.
    Both are derived from the centroids and statistics, so the book holds
    read-only copies of those arrays, and of the norms.
    """

    k: int
    centroids: np.ndarray
    norm_stats: NormStats
    method: LatentMethod
    order: int
    lam: float
    seed: int
    centroid_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    decode_table: tuple | None = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "centroids", _frozen(centroids))
        with np.errstate(over="ignore"):  # an infinite norm is the shortlist's to handle
            object.__setattr__(self, "centroid_sq_norms", _frozen(np.vecdot(centroids, centroids)))
        object.__setattr__(self, "decode_table", None)

    @property
    def dimension(self) -> int:
        return self.centroids.shape[1]


# rows per chunk: the shortlist holds rows x k floats, not rows x k x d; only
# refined rows build their k x d differences
_ASSIGN_CHUNK = 256
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _rounding_bound(x_sq, c_sq, d: int) -> np.ndarray:
    """2B per row, ``B = 4 (d + 2) (eps N + tiny)`` with ``N = ||x||^2 + max ||c||^2``.

    Infinite wherever 4N overflows; call it under ``np.errstate(over="ignore")``.
    """
    two_b = x_sq + (c_sq.max(initial=0.0) + _TINY / _EPS)
    two_b *= 4.0
    two_b *= 2 * (d + 2) * _EPS
    return two_b


def _ranked(scaled_rows, centroids, c_sq):
    """Each row's best column of ``G = scaled_rows @ centroids.T + c_sq``, that G and the runner-up.

    ``scaled_rows`` is ``-2 x``. The runner-up is the least of the other
    columns' G: with the best entry set to +inf, the row minimum.
    """
    g = scaled_rows @ centroids.T
    g += c_sq
    best = g.argmin(axis=1)
    own = np.arange(0, g.size, g.shape[1]) + best  # flat index of each row's best in g
    best_g = g.take(own)
    g.put(own, np.inf)
    return best, best_g, g.min(axis=1)


def _certified(best_g, runner_up, two_b):
    """Rows whose best G is their nearest centroid by direct differences.

    Each column of G lies within B/2 of its direct value less ``||x||^2``
    (``nearest_centroids``), so a row is certified when every other column
    is at least ``runner_up`` and that is more than 2B above ``best_g``. A
    NaN anywhere fails the comparison, so such a row is not certified.
    """
    return runner_up > best_g + two_b


def _direct(points, centroids):
    """Labels by direct differences over every centroid, ties to the lowest id."""
    return np.argmin(((points[:, None, :] - centroids) ** 2).sum(axis=2), axis=1)


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

    The bound (``_rounding_bound``), the ranking of a block of G
    (``_ranked``), the certification rule (``_certified``) and the direct
    differences (``_direct``) are shared with ``kmeans_fit``'s Lloyd
    assignments (``_LloydShortlist``), which hold G across iterations.
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
        two_b = _rounding_bound(np.vecdot(points, points), c_sq, d)
        for start in range(0, n, _ASSIGN_CHUNK):
            rows = slice(start, start + _ASSIGN_CHUNK)
            best, best_g, runner_up = _ranked(-2.0 * points[rows], centroids, c_sq)
            labels[rows] = best
            certified = _certified(best_g, runner_up, two_b[rows])
            if np.count_nonzero(certified) != certified.size:
                ambiguous.append(start + np.flatnonzero(~certified))
    for rows in ambiguous:
        labels[rows] = _direct(points[rows], centroids)
    return labels


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator, x_sq=None, scaled=None, check=None
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): each pick is drawn
    with probability proportional to its squared distance D^2 to the nearest
    centroid picked so far.

    One GEMV per pick gives every row's squared distance to the new centroid
    c = x_j by the expansion ``E = ||x||^2 - 2 x.c + ||c||^2``, with the
    squared norms ``||x||^2`` computed once. As in ``nearest_centroids``, E
    is within ``(d + 2) eps N`` of the exact distance S, with
    ``N = ||x||^2 + ||c||^2``, whatever order BLAS sums in. A row whose E is
    not above ``B = 4 (d + 2) (eps N + tiny)`` is near. The pick itself is
    always near (S = 0). When it is the only near row, its D^2 is written
    as 0, the bits its direct difference gives; otherwise every near row is
    recomputed by direct differences, ``((x - c) ** 2).sum()``. So every
    duplicate of a picked row (S = 0) keeps D^2 exactly 0 and is never
    drawn, and a zero total still means that every row is a picked one. B is
    computed from 4N, which bounds every direct value, so it is infinite,
    and the row near, wherever direct differences could overflow.
    A D^2 that is still infinite or NaN makes the total so, which raises one
    ``LipcotError`` and no warning.

    The fixed costs are paid once per call, not per pick: the points are
    scaled by -2 once, which is exact away from the subnormal range, so
    ``(-2 x) @ c`` has the bits of ``-2 (x @ c)``, and one ``np.errstate``
    covers the whole pick loop. ``x_sq`` and ``scaled``, ``np.vecdot(points,
    points)`` and ``-2.0 * points``, are computed here when not given;
    ``kmeans_fit`` passes the ones its Lloyd assignments reuse.

    The draw is ``Generator.choice(n, p=D^2 / total)`` written out: one
    ``rng.random()`` located in the normalized cumulative sum, so the random
    stream is that of ``choice``. The other rows' D^2 differ from direct
    differences only by rounding, at most ``(d + 2) eps N`` each; a pick
    moves only if the draw lands within about that much of a boundary of
    the cumulative sum, so on any input the picks are those of direct
    differences but for a chance of that order per pick.

    ``check``, when given, is called with no arguments the first time the
    total is not positive and finite, before the draw or the refusal;
    ``kmeans_fit`` refuses too few distinct rows there.
    """
    n, d = points.shape
    centroids = np.empty((k, d))
    idx = rng.integers(n)
    centroids[0] = points[idx]
    closest = np.full(n, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        if x_sq is None:
            x_sq = np.vecdot(points, points)
        if scaled is None:
            scaled = -2.0 * points  # exact: (-2 x) @ c has the bits of -2 (x @ c)
        four_n = 4.0 * (x_sq + _TINY / _EPS)
        for i in range(1, k):
            c = points[idx]
            dist = scaled @ c
            dist += x_sq
            dist += x_sq[idx]
            bound = four_n + 4.0 * x_sq[idx]
            bound *= (d + 2) * _EPS
            # a NaN E or B is not above B either, so such a row is refined
            near = np.flatnonzero(~(dist > bound))
            if near.size == 1 and near[0] == idx:  # the pick alone: its direct D^2 is 0
                dist[idx] = 0.0
            else:
                dist[near] = ((points[near] - c) ** 2).sum(axis=1)
            np.minimum(closest, dist, out=closest)
            total = closest.sum()
            if check is not None and not 0.0 < total < np.inf:
                check()
                check = None
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


class _LloydShortlist:
    """Lloyd's assignments, for centroids of which only some move per iteration.

    Each row holds the column of its best G (``best``), that G (``best_g``)
    and a lower bound on every other column's G (``bound``), for the
    centroids ``held``. A centroid whose values do not change keeps its
    direct differences, and every G computed for it lies within B/2 of
    them less ``||x||^2`` (``nearest_centroids``), whatever GEMM computed
    it. So what a row holds stays valid for the columns that did not move.

    ``assign`` computes G only for the moved columns, in blocks of at most
    ``_ASSIGN_CHUNK`` x k values. A row's candidates are those columns and
    its held best, unless that moved: the new best is their least G, and
    the new bound the lesser of the old bound and the candidates'
    runner-up. A row that ``_certified`` passes, with B from the current
    ``max ||c||^2``, keeps its best; the others get a full row of G under
    the same rule, and direct differences decide those still uncertain. The
    labels are thus those of ``nearest_centroids``, bit for bit. When every
    centroid moved, as on the first call, the candidates were every column
    and an uncertain row goes straight to direct differences; when none
    moved, the held labels are returned.
    """

    def __init__(self, points, x_sq, scaled):
        n = points.shape[0]
        self.points, self.x_sq, self.scaled = points, x_sq, scaled
        self.held = None
        self.best = np.zeros(n, dtype=np.intp)
        self.best_g = np.full(n, np.inf)
        self.bound = np.full(n, np.inf)
        self.labels = np.zeros(n, dtype=np.intp)

    def assign(self, centroids: np.ndarray) -> np.ndarray:
        """Each point's nearest centroid, as a fresh array of labels."""
        (n, d), k = self.points.shape, centroids.shape[0]
        if k == 1:
            return np.zeros(n, dtype=np.intp)
        if self.held is None:
            moved = np.ones(k, dtype=bool)
        else:
            moved = (centroids != self.held).any(axis=1)
        columns = np.flatnonzero(moved)
        if not columns.size:
            return self.labels.copy()
        self.held = centroids.copy()
        every = columns.size == k
        if every:  # no column lies outside the candidates
            self.bound.fill(np.inf)
        certified = np.empty(n, dtype=bool)
        # only the shortlist is silenced: refined rows warn as direct differences do
        with np.errstate(over="ignore", invalid="ignore"):
            c_sq = np.vecdot(centroids, centroids)
            two_b = _rounding_bound(self.x_sq, c_sq, d)
            moved_c, moved_sq = (centroids, c_sq) if every else (centroids[columns], c_sq[columns])
            step = _ASSIGN_CHUNK * k // columns.size
            for start in range(0, n, step):
                rows = slice(start, start + step)
                j, g_min, g_second = _ranked(self.scaled[rows], moved_c, moved_sq)
                # +inf stands for a held best that moved, which is among the
                # columns: the strict < never keeps it, even against an inf G
                held_best = self.best[rows]
                held_g = np.where(moved[held_best], np.inf, self.best_g[rows])
                self.best[rows] = np.where(held_g < g_min, held_best, columns[j])
                self.best_g[rows] = np.minimum(held_g, g_min)
                runner_up = np.minimum(np.maximum(held_g, g_min), g_second)
                np.minimum(self.bound[rows], runner_up, out=self.bound[rows])
                certified[rows] = _certified(self.best_g[rows], self.bound[rows], two_b[rows])
            uncertain = np.flatnonzero(~certified)
            if not every:  # a full row of G for each uncertain row
                for start in range(0, uncertain.size, _ASSIGN_CHUNK):
                    rows = uncertain[start : start + _ASSIGN_CHUNK]
                    best, best_g, runner_up = _ranked(self.scaled[rows], centroids, c_sq)
                    self.best[rows], self.best_g[rows], self.bound[rows] = best, best_g, runner_up
                    certified[rows] = _certified(best_g, runner_up, two_b[rows])
                uncertain = uncertain[~certified[uncertain]]
        self.labels[:] = self.best
        for start in range(0, uncertain.size, _ASSIGN_CHUNK):
            rows = uncertain[start : start + _ASSIGN_CHUNK]
            self.labels[rows] = _direct(self.points[rows], centroids)
        return self.labels.copy()


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

    Every assignment gives the labels of ``nearest_centroids``, bit for
    bit, but through one ``_LloydShortlist`` for the whole fit: after the
    first, G is recomputed only for the centroids that moved, plus full
    rows for the few rows the held bounds leave uncertain. The ``-2 x`` and
    ``||x||^2`` it reads are those of the k-means++ seeding.

    Returns ``(centroids, labels, inertia_history)``. Fewer than ``k``
    distinct points raise ``TooFewVectorsError``, and squared distances
    that are not finite raise ``LipcotError``; the first error wins.

    The distinct rows are counted only where the seeding meets a D^2 total
    that is not positive and finite. With fewer than ``k`` of them it
    always does, before pick ``k``: each pick drawn from a positive total is
    a row no pick duplicates, since a duplicate of a pick has D^2 exactly 0.
    """

    def distinct_rows():
        if np.unique(points, axis=0).shape[0] < k:
            raise TooFewVectorsError(f"need at least {k} distinct vectors")

    seed = whole(seed, "seed", 0)
    if len(points) < k:  # an empty matrix gives the seeding no first pick
        distinct_rows()
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # the shortlist's to handle
        x_sq, scaled = np.vecdot(points, points), -2.0 * points
    centroids = _kmeans_pp_init(points, k, rng, x_sq, scaled, distinct_rows)
    shortlist = _LloydShortlist(points, x_sq, scaled)
    d = points.shape[1]
    columns = np.arange(d)
    inertia_history, labels = [], None
    for _ in range(_KMEANS_MAX_ITER):
        previous, labels = labels, shortlist.assign(centroids)
        reseeded = _reseed_empty(points, centroids, labels)
        # unmoved centroids are already the means of an unchanged assignment
        settled = not reseeded and np.array_equal(labels, previous)
        inertia_history.append(float(((points - centroids[labels]) ** 2).sum()))
        if settled:
            break
        # bin (label, column) per entry; bincount visits each bin's rows in
        # row order from 0.0, as a masked mean would, signed zeros included
        bins = (labels[:, None] * d + columns).ravel()
        sums = np.bincount(bins, weights=points.ravel(), minlength=k * d)
        del bins  # not held through the next assignment
        new_centroids = sums.reshape(k, d) / np.bincount(labels, minlength=k)[:, None]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < _KMEANS_TOL:
            break
    if not settled:  # final assignment against the final centroids
        labels = shortlist.assign(centroids)
    for _ in range(k):  # patch any stragglers
        if np.bincount(labels, minlength=k).all():
            break
        _reseed_empty(points, centroids, labels)
        labels = shortlist.assign(centroids)
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


def decode_book(codebook: Codebook, sample_rate: float):
    """Every token's model at ``sample_rate``: ``model_matrix`` of the denormalized centroids.

    Returns ``(coeffs, noise_power, refusals)`` with one row per token. A
    centroid that denormalizes past float64's range is refused with a
    message that names its token.
    """
    sample_rate = check_rate(sample_rate)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        values = codebook.norm_stats.denormalize(codebook.centroids)
    coeffs, noise_power, refusals = model_matrix(
        values, codebook.method, codebook.order, sample_rate
    )
    for token in np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist():
        refusals[token] = f"token {token} denormalizes past float64's range"
    return coeffs, noise_power, refusals


def _held_filters(codebook: Codebook, sample_rate: float, coeffs, noise_power, refusals) -> list:
    """Each token's ``LpcModel.held_filter``, or None for a refused token.

    Certified rows (``certified_rows``) are expanded together by
    ``conventional_rows``, over one shared numerator. A decodable row that
    fails the certificate goes through the one-row ``synthesis_filter``
    (poles, then the clamp). One whose poles lie past the unit circle holds
    the ``UnstableModelError`` message instead of a filter, so
    ``synthesize`` raises the same error without finding the poles again.
    """
    filters = [None] * codebook.k
    rows = np.flatnonzero([refusal is None for refusal in refusals])
    certified = certified_rows(coeffs[rows])
    numerator, denominators = conventional_rows(coeffs[rows[certified]], codebook.lam)
    numerator.flags.writeable = False
    for token, denominator in zip(rows[certified].tolist(), denominators):
        denominator.flags.writeable = False
        filters[token] = (coeffs[token].tobytes(), numerator, denominator)
    for token in rows[~certified].tolist():
        model = LpcModel(
            codebook.order, coeffs[token], noise_power.item(token), codebook.lam, sample_rate
        )
        try:
            pair = synthesis_filter(model)
        except UnstableModelError as exc:
            filters[token] = (coeffs[token].tobytes(), None, str(exc))
            continue
        except LipcotError:
            continue
        filters[token] = (coeffs[token].tobytes(), *map(_frozen, pair))
    return filters


def decode_token(codebook: Codebook, token: int, sample_rate: float) -> LpcModel:
    """Invert a token to the LPC model at its denormalized cluster center.

    The token and the rate are checked first. The model is then read from
    the book's ``decode_table``, which ``decode_book`` and each token's
    synthesis filter fill on the first decode at a rate, and refill when the
    rate changes. A refused token raises ``NonRealizableError`` with its
    row's message; an accepted one gives a fresh model over a copy of its
    row, holding the token's filter as its ``held_filter``.
    """
    token = whole(token, "token")
    if not 0 <= token < codebook.k:
        raise InvalidTokenError(f"token {token} outside [0, {codebook.k})")
    sample_rate = check_rate(sample_rate)
    table = codebook.decode_table
    if table is None or table[0] != sample_rate:
        inverse = decode_book(codebook, sample_rate)
        table = (sample_rate, *inverse, _held_filters(codebook, sample_rate, *inverse))
        object.__setattr__(codebook, "decode_table", table)
    _, coeffs, noise_power, refusals, filters = table
    if refusals[token] is not None:
        raise NonRealizableError(refusals[token])
    # the row is finite (model_matrix refused the others), at the book's checked order and lam
    return built(
        LpcModel, order=codebook.order, coeffs=coeffs[token].copy(),
        noise_power=noise_power.item(token), lam=codebook.lam, sample_rate=sample_rate,
        held_filter=filters[token],
    )


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
            raise LipcotError(f"{path}: unsupported codebook version {shown(version)}")
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
