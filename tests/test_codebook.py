import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FS, purity, random_stable_model
from lipcot import codebook as cb
from lipcot import latent, lpc_core
from lipcot.errors import (
    DimensionMismatchError,
    InvalidTokenError,
    LipcotError,
    TooFewVectorsError,
)


def blob_vectors(rng, centers, count, spread=1.0):
    """Latent vectors drawn around the given centers; returns (vectors, labels)."""
    method = latent.LatentMethod.lpc_coeff()
    vectors, labels = [], []
    for label, center in enumerate(centers):
        for _ in range(count):
            vectors.append(
                latent.LatentVector(method, center + spread * rng.normal(size=len(center)))
            )
            labels.append(label)
    return vectors, np.array(labels)


def reference_kmeans_pp_init(points, k, rng):
    """k-means++ seeding by direct differences and ``rng.choice``."""
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


def reference_kmeans_fit(points, k, seed, events):
    """kmeans_fit as a full (n, k, d) distance tensor and k masked means.

    Counts the rows with tied nearest centroids and the reseeded centroids
    in ``events``.
    """

    def sq_dist(centroids):
        return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)

    def reseed_empty(centroids, labels, sq_dists):
        for c in range(centroids.shape[0]):
            if np.any(labels == c):
                continue
            events["reseeds"] += 1
            assigned = sq_dists[np.arange(points.shape[0]), labels].copy()
            # the only member of a cluster is never taken: that would empty it
            sizes = np.array([np.sum(labels == label) for label in labels])
            assigned[sizes == 1] = -1.0
            far = int(np.argmax(assigned))
            centroids[c] = points[far]
            labels[far] = c
        return centroids, labels

    centroids = reference_kmeans_pp_init(points, k, np.random.default_rng(seed))
    inertia_history = []
    for _ in range(300):
        sq_dists = sq_dist(centroids)
        nearest = sq_dists == sq_dists.min(axis=1, keepdims=True)
        events["ties"] += int((nearest.sum(axis=1) > 1).sum())
        labels = np.argmin(sq_dists, axis=1)
        centroids, labels = reseed_empty(centroids, labels, sq_dists)
        inertia_history.append(float(((points - centroids[labels]) ** 2).sum()))
        new_centroids = np.stack([points[labels == c].mean(axis=0) for c in range(k)])
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < 1e-6:
            break
    sq_dists = sq_dist(centroids)
    labels = np.argmin(sq_dists, axis=1)
    for _ in range(k):
        if all(np.any(labels == c) for c in range(k)):
            break
        centroids, labels = reseed_empty(centroids, labels, sq_dists)
        sq_dists = sq_dist(centroids)
        labels = np.argmin(sq_dists, axis=1)
    return centroids, labels, np.asarray(inertia_history)


def reference_nearest_centroids(points, centroids):
    """The shortlist kernel with an entry-wise far test: six k-wide passes per chunk."""
    n, d = points.shape
    k = centroids.shape[0]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    labels = np.empty(n, dtype=np.intp)
    ambiguous = []
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.vecdot(centroids, centroids)
        two_b = np.vecdot(points, points) + (c_sq.max(initial=0.0) + tiny / eps)
        two_b *= 4.0
        two_b *= 2 * (d + 2) * eps
        for start in range(0, n, cb._ASSIGN_CHUNK):
            g = points[start : start + cb._ASSIGN_CHUNK] @ centroids.T
            g *= -2.0
            g += c_sq
            labels[start : start + cb._ASSIGN_CHUNK] = g.argmin(axis=1)
            near = g.min(axis=1)
            near += two_b[start : start + cb._ASSIGN_CHUNK]
            far = g > near[:, None]
            if np.count_nonzero(far) != far.shape[0] * (k - 1):
                ambiguous.append(start + np.flatnonzero(far.sum(axis=1) != k - 1))
    for rows in ambiguous:
        block = ((points[rows, None, :] - centroids) ** 2).sum(axis=2)
        labels[rows] = np.argmin(block, axis=1)
    return labels


def reference_lloyd_fit(points, k, seed, events):
    """kmeans_fit over the entry-wise shortlist, with cluster sums by ``np.add.at``.

    Shares the seeding and the reseed rule with ``kmeans_fit``, and counts
    the reseeding steps in ``events``.
    """

    def reseed_empty(centroids, labels):
        events["reseeds"] += int(cb._reseed_empty(points, centroids, labels) > 0)
        return centroids, labels

    centroids = cb._kmeans_pp_init(points, k, np.random.default_rng(seed))
    inertia_history = []
    for _ in range(300):
        labels = reference_nearest_centroids(points, centroids)
        centroids, labels = reseed_empty(centroids, labels)
        inertia_history.append(float(((points - centroids[labels]) ** 2).sum()))
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        new_centroids = sums / np.bincount(labels, minlength=k)[:, None]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < 1e-6:
            break
    labels = reference_nearest_centroids(points, centroids)
    for _ in range(k):
        if np.bincount(labels, minlength=k).all():
            break
        centroids, labels = reseed_empty(centroids, labels)
        labels = reference_nearest_centroids(points, centroids)
    return centroids, labels, np.asarray(inertia_history)


def held_norms(centroids):
    """The squared centroid norms a codebook over ``centroids`` derives and holds.

    An lpc codebook of order d - 1 holds d values per centroid. No codebook
    holds one value, since its order would be 0; for d = 1 this returns
    None, and the kernel computes the norms itself.
    """
    k, d = centroids.shape
    if d == 1:
        return None
    stats = cb.NormStats(np.zeros(d), np.ones(d))
    method = latent.LatentMethod.lpc_coeff()
    return cb.Codebook(k, centroids, stats, method, d - 1, 0.0, 0).centroid_sq_norms


def direct_nearest(points, centroids):
    """Labels from the full (n, k, d) difference tensor."""
    full = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(full, axis=1)


@st.composite
def quarter_grid_cases(draw):
    """Points and centroids on a quarter grid, so exact distance ties abound.

    Some centroids are exact copies of others; there may be one centroid,
    one row or no rows at all. A shift of the whole grid keeps direct
    differences exact but leaves the GEMM expansion rounding errors far
    above the grid's gaps, so the refinement decides; a scale makes every
    arithmetic inexact.
    """
    d = draw(st.integers(1, 5))
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, cb._ASSIGN_CHUNK + 40)))
    grid = st.integers(-8, 8)
    points = draw(hnp.arrays(np.int64, (n, d), elements=grid)) / 4.0
    centroids = draw(hnp.arrays(np.int64, (draw(st.integers(1, 12)), d), elements=grid)) / 4.0
    copies = draw(st.lists(st.integers(0, centroids.shape[0] - 1), max_size=3))
    order = draw(st.permutations(range(centroids.shape[0] + len(copies))))
    centroids = np.concatenate([centroids, centroids[copies]])[list(order)]
    shift = draw(st.sampled_from([0.0, 1e3, 1e8]))
    scale = draw(st.sampled_from([1.0, 0.1, 1e140, 1e-140]))
    return (points + shift) * scale, (centroids + shift) * scale


class TestNearestCentroids:
    @settings(max_examples=300, deadline=None)
    @given(quarter_grid_cases())
    def test_matches_direct_differences_on_tie_heavy_grids(self, case):
        points, centroids = case
        want_labels = direct_nearest(points, centroids)
        for c_sq in (None, held_norms(centroids)):
            labels = cb.nearest_centroids(points, centroids, c_sq)
            np.testing.assert_array_equal(labels, want_labels)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-160])
    def test_matches_direct_differences_at_extreme_scales(self, scale):
        # 1e-160 squares to subnormals: only the bound's absolute term holds there
        rng = np.random.default_rng(12)
        points = rng.integers(-4, 5, size=(300, 6)) / 4.0 * scale
        centroids = rng.integers(-4, 5, size=(40, 6)) / 4.0 * scale
        centroids[7] = centroids[30]
        want_labels = direct_nearest(points, centroids)
        for c_sq in (None, held_norms(centroids)):
            labels = cb.nearest_centroids(points, centroids, c_sq)
            np.testing.assert_array_equal(labels, want_labels)

    def test_integer_rows_match_direct_differences(self):
        points = np.random.default_rng(3).integers(-3, 4, size=(50, 3))
        centroids = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        labels = cb.nearest_centroids(points, centroids)
        np.testing.assert_array_equal(labels, direct_nearest(points, centroids))

    def test_near_ties_the_gemm_shortlist_gets_wrong_are_refined(self):
        # norms near 1e8 leave the expansion ||c||^2 - 2 x.c an absolute
        # rounding error of a few units, against gaps of at most 0.4 here
        rng = np.random.default_rng(20)
        points = np.column_stack([
            1e8 + rng.uniform(-1.0, 1.0, 200),
            0.5 + rng.uniform(-0.1, 0.1, 200),
            rng.uniform(-1.0, 1.0, 200),
        ])
        centroids = np.array([[1e8, 0.0, 0.0], [1e8, 1.0, 0.0]])
        want_labels = direct_nearest(points, centroids)
        c_sq = (centroids**2).sum(axis=1)
        shortlist = np.argmin((points**2).sum(axis=1)[:, None] + c_sq - 2.0 * points @ centroids.T, axis=1)
        assert np.any(shortlist != want_labels)
        np.testing.assert_array_equal(cb.nearest_centroids(points, centroids), want_labels)

    @pytest.mark.parametrize(
        "points, centroids",
        [
            # ||x||^2 overflows, the differences do not: direct differences are silent
            ([[1e155, 1e155], [1e155, 1.00001e155]], [[1e155, 1e155], [1.00001e155, 1e155]]),
            # a difference overflows: direct differences warn, and so must the kernel
            ([[1e200, 0.0], [-1e200, 0.0]], [[-1e200, 0.0], [1e200, 0.0]]),
            # only the distance to the far centroid overflows; ||x||^2 + ||c||^2 does not
            ([[8e153, 0.0]], [[8e153, 0.0], [-8e153, 0.0]]),
            ([[np.inf, 0.0], [np.nan, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
        ],
        ids=["shortlist-overflow", "difference-overflow", "far-overflow", "non-finite"],
    )
    def test_warns_exactly_as_direct_differences(self, points, centroids):
        points, centroids = np.array(points), np.array(centroids)
        outcome = []
        for kernel in (direct_nearest, cb.nearest_centroids):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                labels = kernel(points, centroids)
            outcome.append((labels.tolist(), {str(w.message) for w in caught}))
        assert outcome[1] == outcome[0]

    def test_one_centroid_refines_no_row(self):
        # 4N overflows, and the first row's direct difference would too
        points = np.array([[1e200, 0.0], [-1e200, 1.0], [np.nan, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labels = cb.nearest_centroids(points, np.array([[-1e200, 0.0]]))
        assert labels.tolist() == [0, 0, 0, 0]
        assert not caught

    def test_chunked_matches_unchunked_expression(self):
        rng = np.random.default_rng(8)
        points = rng.integers(-3, 4, size=(2 * cb._ASSIGN_CHUNK + 37, 5)).astype(float)
        centroids = rng.integers(-3, 4, size=(20, 5)) / 2.0
        centroids[11] = centroids[4]  # an exact duplicate: row ties go to id 4
        full = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = cb.nearest_centroids(points, centroids)
        np.testing.assert_array_equal(labels, np.argmin(full, axis=1))
        assert not np.any(labels == 11)


# 400 points on a 5 x 5 lattice: exact distance ties at every step
LATTICE = np.random.default_rng(0).integers(-2, 3, size=(400, 2)).astype(float)
# 41 points (40 distinct) on a quarter grid: exact ties, and Lloyd empties a
# centroid that is reseeded
QUARTER_CAUCHY = np.round(np.random.default_rng(11011).standard_cauchy(size=(41, 2)) * 4) / 4


def cepstrum_corpus(rows):
    """z-scored cepstra (d 33) of order-16 Burg fits to 100-sample windows of 48 AR sources."""
    rng = np.random.default_rng(2024)
    sources = [random_stable_model(rng, 16, fs=100.0) for _ in range(48)]
    windows = np.stack(
        [lpc_core.synthesize(sources[i % 48], 100, i).samples for i in range(rows)]
    )
    coeffs, noise_power, ok = lpc_core.fit_windows(windows, 16, 0.0)
    assert ok.all()
    method = latent.LatentMethod.cepstrum(32)
    matrix = latent.feature_matrix(coeffs, noise_power, method, 100.0)
    return cb.NormStats.fit(matrix).normalize(matrix)


class TestKmeansPlusPlusSeeding:
    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda: cepstrum_corpus(600), 256),
            (lambda: LATTICE, 12),
            (lambda: QUARTER_CAUCHY, 27),
            # 0.1 is inexact, so neither distance form is exact arithmetic
            (lambda: LATTICE * 0.1, 12),
            # five copies of 64 rows: every copy of a pick must keep D^2 exactly 0
            (lambda: np.repeat(cepstrum_corpus(64), 5, axis=0), 64),
            # past the 64 distinct rows the total is exactly 0 and picks are uniform
            (lambda: np.repeat(cepstrum_corpus(64), 5, axis=0), 80),
        ],
        ids=[
            "cepstrum-k256", "lattice-k12", "cauchy-k27", "scaled-lattice-k12", "repeated-k64",
            "repeated-k80",
        ],
    )
    def test_picks_match_direct_differences_and_choice(self, make, k):
        points = make()
        distinct = min(k, np.unique(points, axis=0).shape[0])
        for seed in range(200):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_kmeans_pp_init(points, k, want_rng)
            got = cb._kmeans_pp_init(points, k, got_rng)
            assert got.tobytes() == want.tobytes(), f"seed {seed}"
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, f"seed {seed}"
            # no row is drawn twice while a distinct one is left
            assert np.unique(got, axis=0).shape[0] == distinct, f"seed {seed}"

    @pytest.mark.parametrize(
        "run, error",
        [
            # Generator.choice refuses an infinite total
            (reference_kmeans_pp_init, ValueError),
            (cb._kmeans_pp_init, LipcotError),
            (lambda points, k, rng: cb.kmeans_fit(points, k, 0), LipcotError),
        ],
        ids=["reference_kmeans_pp_init", "_kmeans_pp_init", "kmeans_fit"],
    )
    def test_overflowing_distances_are_refused(self, run, error):
        points = np.array([[0.0, 0.0], [1e200, 0.0], [-1e200, 1.0]])
        with warnings.catch_warnings(record=True) as caught, pytest.raises(error) as raised:
            warnings.simplefilter("always")
            run(points, 3, np.random.default_rng(0))
        assert "\n" not in str(raised.value)
        # direct differences warn on the way to choice's refusal; lipcot's refusal is all
        assert bool(caught) == (error is ValueError)


class TestLloydFloatOrder:
    """``kmeans_fit`` keeps the bytes of the entry-wise shortlist and ``np.add.at`` sums.

    The inputs are inexact, so another summation order would show in the
    centroids' bytes.
    """

    @pytest.mark.parametrize(
        "make, k, reseeds",
        [
            (lambda: cepstrum_corpus(600), 64, False),
            (lambda: cepstrum_corpus(600), 256, False),
            # a cluster of only -0.0 sums to 0.0 from a 0.0 start, not to -0.0
            (lambda: np.column_stack([cepstrum_corpus(600), np.full(600, -0.0)]), 64, False),
            # Lloyd empties a cluster on seed 0, which is reseeded
            (lambda: QUARTER_CAUCHY * 0.1, 27, True),
        ],
        ids=["cepstrum-k64", "cepstrum-k256", "negative-zero-column-k64", "reseeding-k27"],
    )
    def test_matches_the_entry_wise_shortlist_and_add_at(self, make, k, reseeds):
        points = make()
        events = {"reseeds": 0}
        for seed in range(20):
            expected = reference_lloyd_fit(points, k, seed, events)
            for want, got in zip(expected, cb.kmeans_fit(points, k, seed)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f"seed {seed}"
        assert (events["reseeds"] > 0) == reseeds

    def test_a_reseed_keeps_lloyd_going_though_the_labels_repeat(self, monkeypatch):
        # The second coordinates differ by 1e-170, whose square underflows, so
        # the two points at x = 0 are at squared distance 0 from each other, as
        # are the two at x = 1. From these centroids the first iteration
        # reseeds centroid 2 onto point 0; the second gives point 0 to centroid
        # 0, at the same distance, and reseeds it back: the assignment repeats
        # right after a reseed, and Lloyd must go on.
        points = np.array([[0.0, 0.0], [0.0, 1e-170], [1.0, 0.0], [1.0, 1e-170]])
        start = np.array([[0.4, 0.0], [1.1, 0.0], [5.0, 0.0]])
        monkeypatch.setattr(cb, "_kmeans_pp_init", lambda points, k, rng: start.copy())
        events = {"reseeds": 0}
        expected = reference_lloyd_fit(points, 3, 0, events)
        assert events["reseeds"] >= 2 and len(expected[2]) == 2
        for want, got in zip(expected, cb.kmeans_fit(points, 3, 0)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLloydEarlyStop:
    @pytest.mark.parametrize(
        "make, k",
        [(lambda: cepstrum_corpus(600), 64), (lambda: cepstrum_corpus(600), 256), (lambda: LATTICE, 12)],
        ids=["cepstrum-k64", "cepstrum-k256", "lattice-k12"],
    )
    def test_a_settled_assignment_is_not_recomputed(self, make, k, monkeypatch):
        points, calls = make(), []

        def counted(*args, **kwargs):
            calls.append(None)
            return nearest(*args, **kwargs)

        nearest = cb.nearest_centroids
        monkeypatch.setattr(cb, "nearest_centroids", counted)
        for seed in range(5):
            calls.clear()
            centroids, labels, history = cb.kmeans_fit(points, k, seed)
            # one assignment per iteration, and none after the last
            assert len(calls) == len(history), f"seed {seed}"
            assert labels.tobytes() == nearest(points, centroids).tobytes(), f"seed {seed}"


class TestTraining:
    def test_k1_centroid_is_normalized_mean(self):
        rng = np.random.default_rng(0)
        vectors, _ = blob_vectors(rng, [np.zeros(3)], 40)
        book = cb.train_codebook(vectors, 1, seed=5, order=2, lam=0.0)
        np.testing.assert_allclose(book.centroids[0], np.zeros(3), atol=1e-12)
        assert all(cb.encode_vector(book, v) == 0 for v in vectors)

    def test_two_distant_blobs_split_cleanly(self):
        rng = np.random.default_rng(1)
        centers = [np.zeros(4), np.full(4, 10.0)]
        vectors, labels = blob_vectors(rng, centers, 60)
        book = cb.train_codebook(vectors, 2, seed=9, order=3, lam=0.0)
        assignments = np.array([cb.encode_vector(book, v) for v in vectors])
        assert purity(labels, assignments, 2) == 1.0

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors, _ = blob_vectors(rng, [np.zeros(3), np.full(3, 4.0)], 30)
        paths = []
        for run in range(2):
            book = cb.train_codebook(vectors, 2, seed=13, order=2, lam=0.2)
            path = tmp_path / f"book{run}.json"
            cb.save_codebook(book, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(3)
        points = np.concatenate(
            [rng.normal(size=(50, 5)), 6.0 + rng.normal(size=(50, 5))]
        )
        _, _, history = cb.kmeans_fit(points, 4, seed=7)
        assert np.all(np.diff(history) <= 1e-9)

    @pytest.mark.parametrize(
        "k, points",
        [(12, LATTICE), (27, QUARTER_CAUCHY)],
        ids=["12", "27"],
    )
    def test_kmeans_matches_full_tensor_masked_mean_reference(self, k, points):
        events = {"ties": 0, "reseeds": 0}
        expected = reference_kmeans_fit(points, k, 0, events)
        assert events["ties"] > 0
        assert (events["reseeds"] > 0) == (k == 27)
        for want, got in zip(expected, cb.kmeans_fit(points, k, 0)):
            np.testing.assert_array_equal(got, want)

    def test_reseed_never_empties_a_singleton_cluster(self):
        # an empty centroid's farthest point is here the only member of its
        # cluster; taking it would leave a 0/0 mean
        points = np.round(np.random.default_rng(13413).standard_cauchy(size=(43, 2)) * 4) / 4
        events = {"ties": 0, "reseeds": 0}
        expected = reference_kmeans_fit(points, 27, 0, events)
        assert events["reseeds"] > 0
        centroids, labels, history = cb.kmeans_fit(points, 27, 0)
        assert np.all(np.isfinite(centroids)) and np.all(np.isfinite(history))
        assert np.all(np.diff(history) <= 0.0)
        assert set(labels.tolist()) == set(range(27))
        for want, got in zip(expected, (centroids, labels, history)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "k, points",
        [
            (5, np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 4, axis=0)),
            (27, np.random.default_rng(0).integers(-2, 3, size=(400, 2)).astype(float)),
        ],
        ids=["3-distinct-k5", "25-distinct-k27"],
    )
    def test_kmeans_refuses_fewer_distinct_points_than_k(self, k, points):
        # surplus centroids could only duplicate others and stay unused
        with pytest.raises(TooFewVectorsError):
            cb.kmeans_fit(points, k, seed=0)

    def test_every_token_gets_training_vectors(self):
        rng = np.random.default_rng(4)
        vectors, _ = blob_vectors(rng, [np.zeros(4), np.full(4, 8.0)], 50)
        book = cb.train_codebook(vectors, 6, seed=3, order=3, lam=0.0)
        assignments = {cb.encode_vector(book, v) for v in vectors}
        assert assignments == set(range(6))

    def test_too_few_vectors(self):
        rng = np.random.default_rng(5)
        vectors, _ = blob_vectors(rng, [np.zeros(3)], 2)
        with pytest.raises(TooFewVectorsError):
            cb.train_codebook(vectors, 5, seed=0, order=2, lam=0.0)

    def test_no_vectors(self):
        with pytest.raises(TooFewVectorsError, match="at least one vector"):
            cb.train_codebook([], 1, seed=0, order=2, lam=0.0)

    def test_too_few_distinct_vectors(self):
        method = latent.LatentMethod.lpc_coeff()
        vectors = [latent.LatentVector(method, [1.0, 2.0, 0.0]) for _ in range(10)]
        with pytest.raises(TooFewVectorsError):
            cb.train_codebook(vectors, 2, seed=0, order=2, lam=0.0)

    def test_mixed_dimensions_rejected(self):
        method = latent.LatentMethod.lpc_coeff()
        vectors = [
            latent.LatentVector(method, [1.0, 0.0]),
            latent.LatentVector(method, [1.0, 0.0, 0.0]),
        ]
        with pytest.raises(DimensionMismatchError):
            cb.train_codebook(vectors, 1, seed=0, order=1, lam=0.0)

    def test_mixed_methods_of_one_dimension_rejected(self):
        # order-2 lpc and cepstrum(2) vectors both hold 3 values; only the methods differ
        vectors = [
            latent.LatentVector(method, [1.0, float(i), 0.0])
            for i, method in enumerate([
                latent.LatentMethod.lpc_coeff(),
                latent.LatentMethod.lpc_coeff(),
                latent.LatentMethod.cepstrum(2),
                latent.LatentMethod.lpc_coeff(),
            ])
        ]
        with pytest.raises(DimensionMismatchError):
            cb.train_codebook(vectors, 2, seed=0, order=2, lam=0.0)

    @pytest.mark.parametrize(
        "method, fit_order, order",
        [
            (latent.LatentMethod.lpc_coeff(), 4, 8),
            (latent.LatentMethod.dsc(), 4, 3),
            (latent.LatentMethod.cepstrum(5), 4, 6),
        ],
    )
    def test_order_the_vectors_cannot_come_from(self, method, fit_order, order):
        # every decode_token on such a codebook would fail, so training refuses it
        rng = np.random.default_rng(8)
        vectors = [
            latent.features(random_stable_model(rng, fit_order), method) for _ in range(6)
        ]
        with pytest.raises(DimensionMismatchError):
            cb.train_codebook(vectors, 3, seed=0, order=order, lam=0.2)
        book = cb.train_codebook(vectors, 3, seed=0, order=fit_order, lam=0.2)
        assert book.order == fit_order


class TestEncodeDecode:
    @pytest.fixture()
    def trained(self):
        rng = np.random.default_rng(6)
        centers = [np.zeros(3), np.full(3, 6.0), np.array([6.0, -6.0, 0.0])]
        vectors, _ = blob_vectors(rng, centers, 40)
        return cb.train_codebook(vectors, 3, seed=21, order=2, lam=0.0)

    def test_centroid_maps_to_own_token(self, trained):
        for token in range(trained.k):
            values = trained.norm_stats.denormalize(trained.centroids[token])
            vec = latent.LatentVector(trained.method, values)
            assert cb.encode_vector(trained, vec) == token

    def test_tie_breaks_to_lowest_id(self):
        stats = cb.NormStats(np.zeros(2), np.ones(2))
        centroids = np.array([[5.0, 5.0], [9.0, 9.0], [1.0, 0.0], [8.0, 0.0], [9.0, 0.0], [-1.0, 0.0]])
        book = cb.Codebook(
            k=6, centroids=centroids, norm_stats=stats,
            method=latent.LatentMethod.lpc_coeff(), order=1, lam=0.0, seed=0,
        )
        midpoint = latent.LatentVector(book.method, [0.0, 0.0])
        assert cb.encode_vector(book, midpoint) == 2

    def test_decode_then_reencode_is_identity(self, trained):
        for token in range(trained.k):
            model = cb.decode_token(trained, token, FS)
            vec = latent.features(model, trained.method)
            assert cb.encode_vector(trained, vec) == token

    def test_k1_codebook_reproduces_its_vector(self):
        rng = np.random.default_rng(7)
        model = random_stable_model(rng, 3)
        vec = latent.features(model, latent.LatentMethod.lpc_coeff())
        vectors = [
            latent.LatentVector(vec.method, vec.values + 1e-13 * rng.normal(size=4))
            for _ in range(5)
        ]
        book = cb.train_codebook(vectors, 1, seed=0, order=3, lam=0.0)
        decoded = cb.decode_token(book, 0, FS)
        np.testing.assert_allclose(decoded.coeffs, model.coeffs, atol=1e-6)

    def test_invalid_token(self, trained):
        with pytest.raises(InvalidTokenError):
            cb.decode_token(trained, trained.k, FS)

    def test_wrong_space_rejected(self, trained):
        vec = latent.LatentVector(latent.LatentMethod.dsc(), [0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            cb.encode_vector(trained, vec)

    def test_matrix_of_another_width_is_refused(self, trained):
        with pytest.raises(DimensionMismatchError):
            cb.encode_matrix(trained, np.zeros((2, trained.dimension + 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_refused(self, trained, value):
        # each such row was once given token 0 without a word
        matrix = np.zeros((3, trained.dimension))
        cb.encode_matrix(trained, matrix)
        matrix[1, 0] = value
        with pytest.raises(LipcotError, match="not finite"):
            cb.encode_matrix(trained, matrix)


class TestNormStats:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(30, 5)) * 3.0 + 1.0
        stats = cb.NormStats.fit(matrix)
        np.testing.assert_allclose(
            stats.denormalize(stats.normalize(matrix)), matrix, atol=1e-12
        )

    def test_zero_variance_dimension_passes_through(self):
        matrix = np.column_stack([np.ones(10), np.arange(10.0)])
        stats = cb.NormStats.fit(matrix)
        assert stats.std[0] == 1.0

    @pytest.mark.parametrize(
        "mean, std", [([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf])],
        ids=["nan-mean", "inf-std"],
    )
    def test_non_finite_stats_are_refused(self, mean, std):
        with pytest.raises(ValueError, match="finite"):
            cb.NormStats(np.array(mean), np.array(std))

    def test_spread_past_float64_is_refused_at_training(self):
        # squared deviations of +-1e300 overflow, so the std would be inf
        vectors = [
            latent.LatentVector(latent.LatentMethod.lpc_coeff(), [sign * 1e300, float(i), 0.0])
            for i, sign in enumerate([1.0, -1.0] * 4)
        ]
        with pytest.raises(LipcotError, match="float64"):
            cb.train_codebook(vectors, 2, seed=0, order=2, lam=0.0)


class TestVocabulary:
    def test_reserved_words_then_tokens(self):
        book = _tiny_book(k=64)
        words = cb.export_vocabulary(book)
        assert len(words) == 69
        assert words[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        assert words[5] == "t0" and words[-1] == "t63"

    def test_k1_vocabulary(self):
        words = cb.export_vocabulary(_tiny_book(k=1))
        assert len(words) == 6
        assert words[-1] == "t0"

    def test_export_is_stable(self):
        book = _tiny_book(k=8)
        assert cb.export_vocabulary(book) == cb.export_vocabulary(book)


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        vectors, _ = blob_vectors(rng, [np.zeros(3), np.full(3, 5.0)], 20)
        book = cb.train_codebook(vectors, 2, seed=17, order=2, lam=0.2)
        path = tmp_path / "book.json"
        cb.save_codebook(book, path)
        loaded = cb.load_codebook(path)
        assert loaded.k == book.k
        assert loaded.order == book.order
        assert loaded.lam == book.lam
        assert loaded.seed == book.seed
        assert loaded.method == book.method
        np.testing.assert_array_equal(loaded.centroids, book.centroids)
        np.testing.assert_array_equal(loaded.norm_stats.mean, book.norm_stats.mean)
        np.testing.assert_array_equal(loaded.norm_stats.std, book.norm_stats.std)

    def test_payload_fields(self, tmp_path):
        book = _tiny_book(k=2)
        path = tmp_path / "book.json"
        cb.save_codebook(book, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "version", "method", "order", "lambda", "k",
            "norm_mean", "norm_std", "centroids", "seed",
        }

    def test_two_loads_of_one_book_compare_equal(self, tmp_path):
        path = tmp_path / "book.json"
        cb.save_codebook(_tiny_book(k=3), path)
        book = cb.load_codebook(path)
        assert book == cb.load_codebook(path)
        payload = json.loads(path.read_text())
        payload["centroids"][1][2] += 0.5
        path.write_text(json.dumps(payload))
        assert book != cb.load_codebook(path)

    def test_held_norms_change_no_bytes_equality_or_repr(self, tmp_path):
        book = _tiny_book(k=3)
        norms = np.vecdot(book.centroids, book.centroids)
        assert book.centroid_sq_norms.tobytes() == norms.tobytes()
        # the same fields again: the derived norms are a new array, which == never reads
        fields = {f.name: getattr(book, f.name) for f in dataclasses.fields(book) if f.init}
        twin = cb.Codebook(**fields)
        assert twin.centroid_sq_norms is not book.centroid_sq_norms
        assert twin == book
        assert repr(twin) == repr(book) and "centroid_sq_norms" not in repr(book)
        path = tmp_path / "book.json"
        cb.save_codebook(book, path)
        payload = json.loads(path.read_text())
        assert "centroid_sq_norms" not in payload
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"
        cb.save_codebook(cb.load_codebook(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_lpc_weights_are_refused(self, tmp_path):
        # books store "weights": null; no map takes weights, of any count
        path = tmp_path / "book.json"
        cb.save_codebook(_tiny_book(k=2), path)  # order 2
        payload = json.loads(path.read_text())
        assert payload["method"]["weights"] is None
        for weights in ([1.0], [1.0, 2.0], [1.0, 1.0, 1.0]):
            payload["method"]["weights"] = weights
            path.write_text(json.dumps(payload))
            with pytest.raises(LipcotError, match="malformed codebook"):
                cb.load_codebook(path)

    def test_saved_books_carry_the_format_version(self, tmp_path):
        book = _tiny_book(k=2)
        with pytest.raises(TypeError):
            dataclasses.replace(book, version="2")
        path = tmp_path / "book.json"
        cb.save_codebook(book, path)
        assert json.loads(path.read_text())["version"] == cb.CODEBOOK_FORMAT_VERSION
        cb.save_codebook(cb.load_codebook(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _tiny_book(k):
    dim = 3
    rng = np.random.default_rng(k)
    return cb.Codebook(
        k=k,
        centroids=rng.normal(size=(k, dim)),
        norm_stats=cb.NormStats(np.zeros(dim), np.ones(dim)),
        method=latent.LatentMethod.lpc_coeff(),
        order=2,
        lam=0.0,
        seed=0,
    )
