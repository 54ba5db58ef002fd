import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FS, purity, random_stable_model
from lipcot import codebook as cb
from lipcot import latent
from lipcot.errors import (
    DimensionMismatchError,
    InvalidTokenError,
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

    centroids = cb._kmeans_pp_init(points, k, np.random.default_rng(seed))
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


def direct_nearest(points, centroids):
    """Labels and squared distances from the full (n, k, d) difference tensor."""
    full = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(full, axis=1), full.min(axis=1)


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
        labels, sq_dists = cb.nearest_centroids(points, centroids)
        want_labels, want_sq_dists = direct_nearest(points, centroids)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(sq_dists, want_sq_dists)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-160])
    def test_matches_direct_differences_at_extreme_scales(self, scale):
        # 1e-160 squares to subnormals: only the bound's absolute term holds there
        rng = np.random.default_rng(12)
        points = rng.integers(-4, 5, size=(300, 6)) / 4.0 * scale
        centroids = rng.integers(-4, 5, size=(40, 6)) / 4.0 * scale
        centroids[7] = centroids[30]
        labels, sq_dists = cb.nearest_centroids(points, centroids)
        want_labels, want_sq_dists = direct_nearest(points, centroids)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(sq_dists, want_sq_dists)

    def test_integer_rows_match_direct_differences(self):
        points = np.random.default_rng(3).integers(-3, 4, size=(50, 3))
        centroids = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        labels, sq_dists = cb.nearest_centroids(points, centroids)
        want_labels, want_sq_dists = direct_nearest(points, centroids)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(sq_dists, want_sq_dists)

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
        want_labels, want_sq_dists = direct_nearest(points, centroids)
        c_sq = (centroids**2).sum(axis=1)
        shortlist = np.argmin((points**2).sum(axis=1)[:, None] + c_sq - 2.0 * points @ centroids.T, axis=1)
        assert np.any(shortlist != want_labels)
        labels, sq_dists = cb.nearest_centroids(points, centroids)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(sq_dists, want_sq_dists)

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
                labels, sq_dists = kernel(points, centroids)
            outcome.append((labels.tolist(), sq_dists.tobytes(), {str(w.message) for w in caught}))
        assert outcome[1] == outcome[0]

    def test_chunked_matches_unchunked_expression(self):
        rng = np.random.default_rng(8)
        points = rng.integers(-3, 4, size=(2 * cb._ASSIGN_CHUNK + 37, 5)).astype(float)
        centroids = rng.integers(-3, 4, size=(20, 5)) / 2.0
        centroids[11] = centroids[4]  # an exact duplicate: row ties go to id 4
        full = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels, sq_dists = cb.nearest_centroids(points, centroids)
        np.testing.assert_array_equal(labels, np.argmin(full, axis=1))
        np.testing.assert_array_equal(sq_dists, full.min(axis=1))
        assert not np.any(labels == 11)


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
        [
            # 400 points on a 5 x 5 lattice: exact distance ties at every step
            (12, np.random.default_rng(0).integers(-2, 3, size=(400, 2)).astype(float)),
            # 41 points (40 distinct) on a quarter grid: exact ties, and Lloyd
            # empties a centroid that is reseeded
            (27, np.round(np.random.default_rng(11011).standard_cauchy(size=(41, 2)) * 4) / 4),
        ],
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
        vec = latent.features_lpc_coeff(model)
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
