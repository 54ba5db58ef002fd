import csv
import errno
import io
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lipcot
from conftest import FS, ar2_coeffs, predictable_windows, reference_burg_warped
from lipcot import codebook as cb
from lipcot import latent, lpc_core, pipeline, testkit
from lipcot.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    EmptyCorpusError,
    InvalidArgumentError,
    InvalidLambdaError,
    InvalidOrderError,
    InvalidWindowError,
    LayoutUnsupportedError,
    LipcotError,
)


def small_series(seed=0, n_channels=3, n_samples=1200, fs=100.0):
    rng = np.random.default_rng(seed)
    data = []
    for c in range(n_channels):
        coeffs = ar2_coeffs([5.0, 15.0, 40.0][c % 3], fs=500.0)
        data.append(testkit.generate_ar(testkit.ArSpec(coeffs, 1.0, seed=seed + c), n_samples))
    return pipeline.MultichannelSeries(
        np.stack(data), fs, [f"ch{c}" for c in range(n_channels)]
    )


def small_config(window=300, hop=None, order=4, lam=0.2):
    return pipeline.TokenizerConfig(
        order, lam, window, hop if hop is not None else window,
        latent.LatentMethod.lpc_coeff(),
    )


def train_small_book(series, config, k=3, seed=5):
    vectors, _ = pipeline.fit_corpus([series], config)
    return cb.train_codebook(vectors, k, seed, order=config.order, lam=config.lam)


def reference_features(a, noise_power, method, sample_rate):
    """One model's latent row by scalar loops and ``np.roots``."""
    log_power = math.log(noise_power)
    order = a.size
    if method.tag == latent.TAG_LPC:
        return np.concatenate([a, [log_power]])
    if method.tag == latent.TAG_CEPSTRUM:
        count = method.n_cepstra
        c = np.empty(count + 1)
        c[0] = log_power
        for n in range(1, count + 1):
            acc = 0.0
            for m in range(1, min(n - 1, order) + 1):
                acc += (1.0 - m / n) * a[m - 1] * c[n - m]
            c[n] = (-a[n - 1] - acc) if n <= order else -acc
        return c * np.sqrt(np.concatenate(([1.0], np.arange(1, count + 1))))
    roots = np.roots(np.concatenate(([1.0], a))).astype(complex)
    roots = np.sort_complex(np.where(np.abs(roots.imag) < 1e-9, roots.real + 0.0j, roots))
    u = sample_rate / (2.0 * np.pi) * np.angle(roots)
    v = -2.0 * np.log1p(-np.minimum(np.abs(roots), lpc_core.MAX_POLE_RADIUS))
    index = np.lexsort((u, np.abs(u)))
    return np.concatenate([u[index], v[index], [log_power]])


def assert_cells_match_per_window_fits(series, config):
    """``_fit_cells`` equals window-by-window fits, byte for byte.

    Two references: the scalar loops above, and the public single-window
    calls (``Segment``, ``fit_burg_warped``, ``features``). Degenerate
    windows must be the rows marked not ok.
    """
    matrix, ok = pipeline._fit_cells(series, config)
    cell = 0
    for samples in series.data:
        for start in range(0, series.n_samples - config.window + 1, config.hop):
            x = samples[start : start + config.window]
            a, power, _, _ = reference_burg_warped(x - x.mean(), config.order, config.lam)
            degenerate = bool(np.all(x == x[0])) or not power > 0.0
            assert ok[cell] != degenerate, f"cell {cell}"
            if degenerate:
                with pytest.raises(DegenerateInputError):
                    lpc_core.fit_burg_warped(lpc_core.Segment(x, series.sample_rate), config.order, config.lam)
            else:
                want = reference_features(a, power, config.method, series.sample_rate)
                model = lpc_core.fit_burg_warped(lpc_core.Segment(x, series.sample_rate), config.order, config.lam)
                one_row = latent.features(model, config.method).values
                assert matrix[cell].tobytes() == want.tobytes() == one_row.tobytes(), f"cell {cell}"
            cell += 1
    assert cell == ok.size


def mixed_channel(rng, kind, n):
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "alternating":  # predicted without error at lambda 0
        return np.resize([1.0, -1.0], n)
    x = rng.normal(size=n)
    if kind == "walk":
        return np.cumsum(x)
    if kind == "patchy":  # a constant stretch makes some windows constant
        x[n // 4 : 3 * n // 4] = 2.5
    return x


class TestBatchedFit:
    @settings(max_examples=60, deadline=None)
    @given(
        method=st.sampled_from(["lpc", "cepstrum", "cepstrum-2-order", "dsc"]),
        order=st.integers(1, 20),
        lam=st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
        window_extra=st.integers(1, 60),
        hop_fraction=st.floats(0.05, 1.0),
        windows=st.integers(1, 6),
        kinds=st.lists(
            st.sampled_from(["noise", "walk", "patchy", "constant", "alternating"]),
            min_size=1, max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_cells_equal_per_window_fits(
        self, method, order, lam, window_extra, hop_fraction, windows, kinds, seed
    ):
        rng = np.random.default_rng(seed)
        window = order + window_extra
        hop = max(1, int(round(hop_fraction * window)))
        n = window + (windows - 1) * hop + int(rng.integers(0, hop))
        data = np.stack([mixed_channel(rng, kind, n) for kind in kinds])
        chosen = {
            "lpc": latent.LatentMethod.lpc_coeff(),
            "cepstrum": latent.LatentMethod.cepstrum(int(rng.integers(1, 3 * order + 2))),
            "cepstrum-2-order": latent.LatentMethod.cepstrum(2 * order),  # the CLI's choice
            "dsc": latent.LatentMethod.dsc(),
        }[method]
        series = pipeline.MultichannelSeries(data, 100.0, [f"c{i}" for i in range(len(kinds))])
        config = pipeline.TokenizerConfig(order, lam, window, hop, chosen)
        assert_cells_match_per_window_fits(series, config)

    def test_windows_spanning_several_chunks(self):
        # 2 x 75 windows of 1000 samples at hop 250, in chunks of 32 cells: the
        # third chunk crosses the channel boundary at cell 75, the fifth is a ragged 22
        window, hop, count = 1000, 250, 75
        step = pipeline._FIT_CHUNK_SAMPLES // window
        assert count > 2 * step and count % step and 2 * count % step
        rng = np.random.default_rng(12)
        n = window + (count - 1) * hop
        data = np.stack([mixed_channel(rng, "walk", n), mixed_channel(rng, "patchy", n)])
        series = pipeline.MultichannelSeries(data, 500.0, ["walk", "patchy"])
        config = pipeline.TokenizerConfig(16, 0.2, window, hop, latent.LatentMethod.dsc())
        _, ok = pipeline._fit_cells(series, config)
        assert ok.size == 2 * count and 0 < np.count_nonzero(~ok) < count
        assert_cells_match_per_window_fits(series, config)

    def test_chunks_span_channels(self, monkeypatch):
        # 59 channels x 4 windows of 2500 samples: 236 cells in 19 chunks of at most
        # 13 windows, where one chunk per channel would make 59
        sizes = []
        fit_windows = lpc_core.fit_windows

        def counting(windows, order, lam):
            sizes.append(windows.size)
            return fit_windows(windows, order, lam)

        monkeypatch.setattr(lpc_core, "fit_windows", counting)
        data = np.random.default_rng(3).normal(size=(59, 10000))
        series = pipeline.MultichannelSeries(data, 500.0, [f"c{i}" for i in range(59)])
        config = pipeline.TokenizerConfig(4, 0.2, 2500, 2500, latent.LatentMethod.lpc_coeff())
        _, ok = pipeline._fit_cells(series, config)
        assert ok.size == 236 and ok.all()
        assert len(sizes) == 19 and max(sizes) <= pipeline._FIT_CHUNK_SAMPLES
        assert sum(sizes) == 236 * 2500


class TestSegmentation:
    """Full windows start at 0, hop, 2*hop, ...; a remainder shorter than a window is dropped."""

    def test_one_minute_at_500hz_gives_twelve_windows(self):
        assert pipeline.window_count(30000, 2500, 2500) == 12

    def test_trailing_remainder_dropped(self):
        assert pipeline.window_count(12, 5, 5) == 2

    def test_overlapping_starts(self):
        # cells start at 0, 2, 4 and 6, each the same bytes as its own fit
        data = np.random.default_rng(4).normal(size=(2, 12))
        series = pipeline.MultichannelSeries(data, FS, ["a", "b"])
        config = pipeline.TokenizerConfig(2, 0.2, 5, 2, latent.LatentMethod.lpc_coeff())
        _, ok = pipeline._fit_cells(series, config)
        assert ok.size == 2 * 4
        assert_cells_match_per_window_fits(series, config)

    def test_window_shorter_than_series_gives_nothing(self):
        assert pipeline.window_count(4, 5, 5) == 0

    def test_bad_window_or_hop(self):
        for window, hop in [(0, 1), (5, 6), (5, 0)]:
            with pytest.raises(InvalidWindowError):
                pipeline.TokenizerConfig(4, 0.2, window, hop, latent.LatentMethod.lpc_coeff())

    def test_order_the_window_cannot_fit(self):
        # refused with fit_windows' message, before any window is fitted
        for order, message in [(0, "at least 1"), (-5, "at least 1"), (5, r"samples \(5\)")]:
            with pytest.raises(InvalidOrderError, match=message):
                pipeline.TokenizerConfig(order, 0.2, 5, 5, latent.LatentMethod.lpc_coeff())

    def test_count_identity_over_random_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            window = int(rng.integers(2, 80))
            hop = int(rng.integers(1, window + 1))
            expected = (n - window) // hop + 1 if n >= window else 0
            assert pipeline.window_count(n, window, hop) == expected


def test_every_export_resolves():
    missing = [name for name in lipcot.__all__ if not hasattr(lipcot, name)]
    assert missing == []


@pytest.mark.parametrize(
    "make",
    [
        lambda x: latent.LatentVector(latent.LatentMethod.lpc_coeff(), x),
        lambda x: latent.LatentCorpus(latent.LatentMethod.lpc_coeff(), np.stack([x, -x])),
        lambda x: lpc_core.LpcModel(3, x / 10.0, 1.0, 0.0, FS),
        lambda x: lpc_core.Segment(x, FS),
        lambda x: lpc_core.PoleSet(x / 10.0),
        lambda x: cb.NormStats(x, x + 1.0),
        lambda x: cb.Codebook(
            1, x[None], cb.NormStats(np.zeros(3), np.ones(3)),
            latent.LatentMethod.lpc_coeff(), 2, 0.0, 0,
        ),
        lambda x: pipeline.MultichannelSeries(x[None], FS, ["a"]),
    ],
    ids=[
        "LatentVector", "LatentCorpus", "LpcModel", "Segment", "PoleSet", "NormStats",
        "Codebook", "MultichannelSeries",
    ],
)
def test_array_fields_compare_by_value(make):
    # the generated == compared two distinct arrays with ==, which raised ValueError
    values = np.array([1.0, 2.0, 3.0])
    item = make(values)
    assert item == make(values.copy()) and not item != make(values.copy())
    changed = values.copy()
    changed[1] = 2.5
    assert item != make(changed) and item != "not the same type"
    with pytest.raises(TypeError, match=type(item).__name__):
        hash(item)


def _whole_book(k):
    """An lpc codebook of order 2 whose k tokens all decode."""
    centroids = np.arange(3.0 * k).reshape(k, 3) / 10.0
    stats = cb.NormStats(np.zeros(3), np.ones(3))
    return cb.Codebook(k, centroids, stats, latent.LatentMethod.lpc_coeff(), 2, 0.0, 0)


def _distinct_lpc_vectors(count):
    method = latent.LatentMethod.lpc_coeff()
    return [latent.LatentVector(method, [i / 10.0, (i % 3) / 10.0, 0.0]) for i in range(count)]


@pytest.mark.parametrize(
    "make, fraction, integer",
    [
        (latent.LatentMethod.cepstrum, (2.9,), (np.int64(2),)),
        (
            lambda order: lpc_core.LpcModel(order, [-0.5, 0.1], 1.0, 0.0, FS),
            (2.7,), (np.int64(2),),
        ),
        (
            lambda k: cb.train_codebook(_distinct_lpc_vectors(6), k=k, seed=0, order=2, lam=0.0),
            (2.5,), (np.int64(2),),
        ),
        (
            lambda *sizes: pipeline.TokenizerConfig(
                sizes[0], 0.0, *sizes[1:], latent.LatentMethod.lpc_coeff()
            ),
            (4.5, 100.7, 50.2), (np.int64(4), np.int64(100), np.int64(50)),
        ),
        (
            lambda token: pipeline.TokenSequence([token], pipeline.LAYOUT_TEMPORAL),
            (1.9,), (np.int64(1),),
        ),
        (lambda token: cb.decode_token(_whole_book(3), token, FS), (2.7,), (np.int64(2),)),
        (
            lambda n: lpc_core.synthesize(lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS), n, 0),
            (100.9,), (np.int64(100),),
        ),
        (
            lambda k: cb.Codebook(
                k, np.zeros((1, 2)), cb.NormStats(np.zeros(2), np.ones(2)),
                latent.LatentMethod.lpc_coeff(), 1, 0.0, 0,
            ),
            (True,), (np.int64(1),),
        ),
    ],
    ids=[
        "cepstrum-count", "model-order", "train-k", "config-sizes", "sequence-token",
        "decode-token", "synth-samples", "codebook-boolean-k",
    ],
)
def test_fractional_or_boolean_integer_arguments_are_refused(make, fraction, integer):
    # each was once truncated: decode_token(book, 2.7) decoded token 2
    make(*integer)
    with pytest.raises(ValueError, match="must be an integer"):
        make(*fraction)


BAD_SEEDS = (None, True, 2.5, "3", -1)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: lpc_core.synthesize(lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, FS), 100, seed),
        lambda seed: pipeline.decode_sequence(
            pipeline.TokenSequence([0, 1], pipeline.LAYOUT_TEMPORAL), _whole_book(2), 100, FS, seed
        ),
        lambda seed: cb.kmeans_fit(np.arange(12.0).reshape(6, 2), 2, seed),
    ],
    ids=["synthesize", "decode-sequence", "kmeans-fit"],
)
def test_seeds_follow_one_rule(make):
    # synthesize(model, n, None) once drew from OS entropy, True ran as seed 1,
    # and decode_sequence failed on None + 0 with a bare TypeError
    make(np.int64(3))
    for seed in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed must be"):
            make(seed)


BAD_LAMBDAS = ("0.2", True, math.nan, 1.0, None)
BAD_RATES = (math.inf, math.nan, 0, True, "500")
BAD_POWERS = (True, "1.0", None, math.nan, -1.0, math.inf)
WINDOWS = [[0.0, 1.0, 0.5, -1.0, 0.25, 2.0]]


@pytest.mark.parametrize(
    "make, valid, bad, error, rule",
    [
        *[
            (make, np.float64(0.2), BAD_LAMBDAS, InvalidLambdaError, "lambda must be")
            for make in (
                lambda lam: lpc_core.LpcModel(2, [-0.5, 0.1], 1.0, lam, FS),
                lambda lam: lpc_core.fit_windows(WINDOWS, 2, lam),
                lambda lam: lpc_core.warp_frequency(10.0, lam, FS),
                lambda lam: pipeline.TokenizerConfig(
                    4, lam, 100, 50, latent.LatentMethod.lpc_coeff()
                ),
                lambda lam: cb.train_codebook(
                    _distinct_lpc_vectors(6), k=2, seed=0, order=2, lam=lam
                ),
            )
        ],
        *[
            (make, np.float64(FS), BAD_RATES, ValueError, "sample_rate must be")
            for make in (
                lambda rate: lpc_core.Segment(WINDOWS[0], rate),
                lambda rate: lpc_core.LpcModel(1, [-0.5], 1.0, 0.0, rate),
                lambda rate: pipeline.MultichannelSeries(WINDOWS, rate, ["c0"]),
                lambda rate: lpc_core.warp_frequency(0.0, 0.2, rate),
            )
        ],
        (
            lambda power: lpc_core.LpcModel(1, [-0.5], power, 0.0, FS),
            np.float64(1.0), BAD_POWERS, ValueError, "noise_power must be",
        ),
    ],
    ids=[
        "model-lambda", "fit-lambda", "warp-lambda", "config-lambda", "train-lambda",
        "segment-rate", "model-rate", "series-rate", "warp-rate", "model-noise-power",
    ],
)
def test_lambda_and_rate_arguments_follow_one_rule(make, valid, bad, error, rule):
    # TokenizerConfig once took lam=1.5, Segment an infinite rate and LpcModel
    # a boolean noise power
    make(valid)
    for value in bad:
        with pytest.raises(error, match=rule):
            make(value)


@pytest.mark.parametrize(
    "data, names, rule",
    [
        (np.ones(5), ["a"], "channels-by-samples"),
        ([[0.0, math.nan]], ["a"], "finite"),
        (np.ones((2, 5)), ["a"], "one channel name"),
    ],
    ids=["one-dimensional", "nan", "name-count"],
)
def test_series_refusals(data, names, rule):
    with pytest.raises(ValueError, match=rule):
        pipeline.MultichannelSeries(data, FS, names)


def test_token_sequence_of_an_unknown_layout():
    with pytest.raises(ValueError, match="unknown layout"):
        pipeline.TokenSequence([0], "diagonal")


class TestFitCorpus:
    def test_vector_count_and_order(self):
        series = small_series()
        vectors, skipped = pipeline.fit_corpus([series], small_config())
        assert skipped == 0
        assert len(vectors) == series.n_channels * 4  # 1200 / 300

    def test_constant_channel_skipped_with_count(self):
        live = np.random.default_rng(0).normal(size=900)
        for flat in (np.ones(900), *(np.tile(w, 3) for w in predictable_windows(300))):
            series = pipeline.MultichannelSeries(np.vstack([flat, live]), 100.0, ["flat", "live"])
            vectors, skipped = pipeline.fit_corpus([series], small_config(lam=0.0))
            assert skipped == 3  # every window of the flat channel
            assert len(vectors) == 3

    def test_deterministic_output(self):
        series = small_series()
        first, _ = pipeline.fit_corpus([series], small_config())
        second, _ = pipeline.fit_corpus([series], small_config())
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.values, b.values)

    def test_empty_corpus(self):
        data = np.ones((2, 900))
        series = pipeline.MultichannelSeries(data, 100.0, ["a", "b"])
        with pytest.raises(EmptyCorpusError):
            pipeline.fit_corpus([series], small_config())

    @pytest.mark.parametrize(
        "method", [latent.LatentMethod.cepstrum(6), latent.LatentMethod.dsc()], ids=lambda m: m.tag
    )
    def test_empty_corpus_maps_chunks_of_no_rows(self, method):
        # every chunk is degenerate, so each feature map gets a 0-row matrix
        series = pipeline.MultichannelSeries(np.ones((2, 900)), 100.0, ["a", "b"])
        config = pipeline.TokenizerConfig(4, 0.2, 300, 300, method)
        with pytest.raises(EmptyCorpusError):
            pipeline.fit_corpus([series], config)


def corpus_series():
    """Two series of other lengths; the first has a flat channel, whose windows are skipped."""
    live = small_series()
    flat = np.vstack([np.ones(900), np.random.default_rng(1).normal(size=900)])
    return [pipeline.MultichannelSeries(flat, FS, ["flat", "live"]), live]


class TestLatentCorpus:
    @pytest.mark.parametrize(
        "method",
        [latent.LatentMethod.lpc_coeff(), latent.LatentMethod.cepstrum(6), latent.LatentMethod.dsc()],
        ids=lambda m: m.tag,
    )
    def test_rows_are_the_per_window_vectors(self, method):
        series_set = corpus_series()
        config = pipeline.TokenizerConfig(4, 0.2, 300, 200, method)
        corpus, skipped = pipeline.fit_corpus(series_set, config)
        # the vectors fit_corpus built one by one before it returned a corpus
        fits = [pipeline._fit_cells(series, config) for series in series_set]
        vectors = [latent.LatentVector(method, row) for rows, ok in fits for row in rows[ok]]
        assert skipped == 4 and len(corpus) == len(vectors) == 19
        assert corpus.method == method
        assert corpus.matrix.tobytes() == np.stack([v.values for v in vectors]).tobytes()

    def test_index_slice_and_iteration_give_the_rows(self):
        corpus, _ = pipeline.fit_corpus(corpus_series(), small_config())
        rows = corpus.matrix
        read = {
            "index": [corpus[i] for i in range(len(corpus))],
            "negative index": [corpus[i - len(corpus)] for i in range(len(corpus))],
            "iteration": list(corpus),
            "slice": list(corpus[:2]) + list(corpus[2:5]) + list(corpus[5:]),
        }
        for how, vectors in read.items():
            assert len(vectors) == len(rows), how
            for vec, row in zip(vectors, rows):
                assert isinstance(vec, latent.LatentVector), how
                assert vec.method == corpus.method and vec.values.tobytes() == row.tobytes(), how
        part = corpus[1:7:2]
        assert isinstance(part, latent.LatentCorpus) and part.method == corpus.method
        assert part.matrix.tobytes() == rows[1:7:2].tobytes()
        with pytest.raises(IndexError):
            corpus[len(corpus)]

    def test_corpus_and_its_list_train_the_same_book(self):
        corpus, _ = pipeline.fit_corpus(corpus_series(), small_config())
        books = [
            cb.train_codebook(vectors, 5, 3, order=4, lam=0.2)
            for vectors in (corpus, list(corpus), iter(corpus))
        ]
        for book in books[1:]:
            assert book.centroids.tobytes() == books[0].centroids.tobytes()
            assert book.centroid_sq_norms.tobytes() == books[0].centroid_sq_norms.tobytes()
            assert book.norm_stats.mean.tobytes() == books[0].norm_stats.mean.tobytes()
            assert book.norm_stats.std.tobytes() == books[0].norm_stats.std.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_refused(self, value):
        matrix = np.zeros((3, 5))
        matrix[1, 2] = value
        with pytest.raises(InvalidArgumentError, match="finite"):
            latent.LatentCorpus(latent.LatentMethod.lpc_coeff(), matrix)

    def test_matrix_of_other_rank_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="windows-by-dimensions"):
            latent.LatentCorpus(latent.LatentMethod.lpc_coeff(), np.zeros(5))

    def test_a_list_mixing_methods_is_still_refused(self):
        corpus, _ = pipeline.fit_corpus(corpus_series(), small_config())
        # a cepstrum(4) vector holds 5 values, as the order-4 lpc rows do
        vectors = list(corpus) + [latent.LatentVector(latent.LatentMethod.cepstrum(4), np.ones(5))]
        with pytest.raises(DimensionMismatchError):
            cb.train_codebook(vectors, 2, 0, order=4, lam=0.2)
        book = cb.train_codebook(corpus, 2, 0, order=4, lam=0.2)
        assert book.method == corpus.method

    def test_membership_index_and_count(self):
        corpus, _ = pipeline.fit_corpus(corpus_series(), small_config())
        assert corpus.index(corpus[3]) == 3
        assert corpus[5] in corpus and corpus.count(corpus[5]) == 1

    def test_no_series_is_an_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            pipeline.fit_corpus([], small_config())


class TestEncodeSeries:
    def test_positions_layout_shape(self):
        series = small_series()
        config = small_config()
        book = train_small_book(series, config)
        sequences = pipeline.encode_series(
            series, book, config.window, config.hop, pipeline.LAYOUT_POSITIONS
        )
        assert len(sequences) == 4
        assert all(len(seq) == series.n_channels for seq in sequences)

    def test_temporal_layout_shape(self):
        series = small_series()
        config = small_config()
        book = train_small_book(series, config)
        sequences = pipeline.encode_series(
            series, book, config.window, config.hop, pipeline.LAYOUT_TEMPORAL
        )
        assert len(sequences) == series.n_channels
        assert all(len(seq) == 4 for seq in sequences)

    def test_layouts_agree_cellwise(self):
        series = small_series()
        config = small_config()
        book = train_small_book(series, config)
        by_window = pipeline.encode_series(
            series, book, config.window, config.hop, pipeline.LAYOUT_POSITIONS
        )
        by_channel = pipeline.encode_series(
            series, book, config.window, config.hop, pipeline.LAYOUT_TEMPORAL
        )
        for w, seq in enumerate(by_window):
            for c, token in enumerate(seq.tokens):
                assert token == by_channel[c].tokens[w]

    def test_short_series_encodes_to_nothing(self):
        series = small_series(n_samples=100)
        config = small_config()
        book = train_small_book(small_series(), config)
        assert pipeline.encode_series(series, book, 300, 300, pipeline.LAYOUT_POSITIONS) == []

    def test_degenerate_segment_still_tokenized(self):
        config = small_config(lam=0.0)
        book = train_small_book(small_series(), config)
        live = small_series(n_samples=900).data[0]
        tokens = []
        for flat in (np.ones(900), *(np.tile(w, 3) for w in predictable_windows(300))):
            series = pipeline.MultichannelSeries(np.vstack([flat, live]), 100.0, ["flat", "live"])
            sequences = pipeline.encode_series(
                series, book, config.window, config.hop, pipeline.LAYOUT_TEMPORAL
            )
            assert len(sequences[0]) == 3  # the flat channel still yields tokens
            tokens.append(sequences[0].tokens)
        # every degenerate window gets the same zero-signal fallback token
        assert len(set(tokens)) == 1 and len(set(tokens[0])) == 1

    @pytest.mark.parametrize(
        "method",
        [
            latent.LatentMethod.lpc_coeff(),
            latent.LatentMethod.cepstrum(6),
            latent.LatentMethod.dsc(),
        ],
        ids=lambda m: m.tag,
    )
    def test_matches_per_window_encode(self, method):
        data = small_series().data.copy()
        data[1] = 2.5  # a constant channel takes the fallback in every window
        series = pipeline.MultichannelSeries(data, 100.0, ["a", "flat", "c"])
        config = pipeline.TokenizerConfig(4, 0.2, 300, 150, method)
        book = train_small_book(series, config)

        def reference(samples):
            segment = lpc_core.Segment(samples, series.sample_rate)
            try:
                model = lpc_core.fit_burg_warped(segment, book.order, book.lam)
            except DegenerateInputError:
                model = lpc_core.LpcModel(
                    book.order, np.zeros(book.order), pipeline.DEGENERATE_NOISE_FLOOR,
                    book.lam, series.sample_rate,
                )
            return cb.encode_vector(book, latent.features(model, book.method))

        starts = range(0, series.n_samples - 300 + 1, 150)
        grid = [[reference(row[s : s + 300]) for s in starts] for row in series.data]
        temporal = pipeline.encode_series(series, book, 300, 150, pipeline.LAYOUT_TEMPORAL)
        positions = pipeline.encode_series(series, book, 300, 150, pipeline.LAYOUT_POSITIONS)
        assert [seq.tokens for seq in temporal] == [tuple(row) for row in grid]
        assert [seq.tokens for seq in positions] == [tuple(col) for col in zip(*grid)]

    def test_unknown_layout(self):
        series = small_series()
        config = small_config()
        book = train_small_book(series, config)
        with pytest.raises(LayoutUnsupportedError):
            pipeline.encode_series(series, book, 300, 300, "diagonal")


class TestDecodeSequence:
    def test_length_bookkeeping(self):
        config = small_config()
        book = train_small_book(small_series(), config)
        seq = pipeline.TokenSequence([0], pipeline.LAYOUT_TEMPORAL)
        out = pipeline.decode_sequence(seq, book, 2500, 500.0, seed=4)
        assert out.size == 2500

    def test_deterministic(self):
        config = small_config()
        book = train_small_book(small_series(), config)
        seq = pipeline.TokenSequence([0, 1, 2], pipeline.LAYOUT_TEMPORAL)
        a = pipeline.decode_sequence(seq, book, 400, 500.0, seed=4)
        b = pipeline.decode_sequence(seq, book, 400, 500.0, seed=4)
        np.testing.assert_array_equal(a, b)
        assert a.size == 1200

    def test_empty_sequence_is_an_empty_signal(self):
        seq = pipeline.TokenSequence([], pipeline.LAYOUT_TEMPORAL)
        out = pipeline.decode_sequence(seq, _whole_book(2), 400, FS, seed=0)
        assert out.dtype == float and out.shape == (0,)

    def test_positions_layout_rejected(self):
        config = small_config()
        book = train_small_book(small_series(), config)
        seq = pipeline.TokenSequence([0, 1], pipeline.LAYOUT_POSITIONS)
        with pytest.raises(LayoutUnsupportedError):
            pipeline.decode_sequence(seq, book, 400, 500.0, seed=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        series = small_series(n_channels=2, n_samples=50)
        path = tmp_path / "series.csv"
        path.write_text(pipeline.format_series_csv(series.channel_names, series.data))
        names, data = pipeline.read_series_csv(path)
        assert names == ["ch0", "ch1"]
        np.testing.assert_array_equal(data, series.data)

    @settings(max_examples=100, deadline=None)
    @given(
        data=hnp.arrays(
            float,
            st.tuples(st.integers(1, 4), st.integers(1, 20)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(data=np.array([[-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]]))
    def test_round_trip_keeps_every_finite_value(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "series.csv"
        names = [f"c{i}" for i in range(data.shape[0])]
        path.write_text(pipeline.format_series_csv(names, data))
        read_names, read_data = pipeline.read_series_csv(path)
        assert read_names == names
        np.testing.assert_array_equal(read_data, data)
        np.testing.assert_array_equal(np.signbit(read_data), np.signbit(data))

    @pytest.mark.parametrize(
        "names",
        [["x,y", "b"], ['a"b', "c"], ["line\nbreak", '"', ","]],
        ids=["comma", "quote", "mixed"],
    )
    def test_round_trip_keeps_names_that_need_quoting(self, tmp_path, names):
        data = np.arange(2.0 * len(names)).reshape(len(names), 2)
        path = tmp_path / "series.csv"
        path.write_text(pipeline.format_series_csv(names, data))
        read_names, read_data = pipeline.read_series_csv(path)
        assert read_names == names
        np.testing.assert_array_equal(read_data, data)

    def test_plain_names_are_written_unquoted(self):
        text = pipeline.format_series_csv(["ch0", "ch 1"], np.array([[1.5], [-2.0]]))
        assert text == "ch0,ch 1\n1.5,-2.0\n"

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [0, 1])
    def test_streamed_file_equals_the_whole_text(self, tmp_path, blocks, offset):
        # 0, 1, block - 1, block and block + 1 rows
        n_rows = max(0, blocks * pipeline._CSV_BLOCK_ROWS + offset)
        names = ["x,y", 'a"b', "line\nbreak"]
        data = np.random.default_rng(n_rows).standard_normal((3, n_rows)) * 1e-3
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(names)
        reference = header.getvalue() + "".join(
            ",".join(repr(float(value)) for value in row) + "\n" for row in data.T
        )
        path = tmp_path / "out.csv"
        pipeline.write_series_csv(path, names, data)
        assert pipeline.format_series_csv(names, data) == reference
        assert path.read_bytes() == reference.encode()

    def test_failure_after_the_first_block_keeps_the_old_file(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen

        def fdopen(fd, *args, **kwargs):
            stream = real_fdopen(fd, *args, **kwargs)
            real_write, writes = stream.write, itertools.count()

            def write(text):
                if next(writes) == 2:  # the header, the first block, then the disk is full
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_write(text)

            stream.write = write
            return stream

        path = tmp_path / "out.csv"
        path.write_text("old\n")
        monkeypatch.setattr(os, "fdopen", fdopen)
        with pytest.raises(OSError, match="No space left"):
            pipeline.write_series_csv(path, ["a"], np.ones((1, 3 * pipeline._CSV_BLOCK_ROWS)))
        assert path.read_text() == "old\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize(
        "text, names, rows",
        [
            ("a,b", ["a", "b"], []),
            ("a,b\n\n\n", ["a", "b"], []),
            ("a,b\n\n1,2\n\n3,4\n\n", ["a", "b"], [[1, 2], [3, 4]]),
            ("a,b\r\n1,2\r\n3,4\r\n", ["a", "b"], [[1, 2], [3, 4]]),
            ('"a","x,y"\n"1.5","-2"\n', ["a", "x,y"], [[1.5, -2]]),
            (" a , b \n 1 , 2 \n", ["a", "b"], [[1, 2]]),
        ],
        ids=["header-no-newline", "blank-body", "blank-lines", "crlf", "quoted", "spaces"],
    )
    def test_accepted_layouts(self, tmp_path, text, names, rows):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        read_names, data = pipeline.read_series_csv(path)
        assert read_names == names
        np.testing.assert_array_equal(data, np.array(rows, dtype=float).reshape(-1, 2).T)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        names, data = pipeline.read_series_csv(path)
        assert names == ["a", "b"]
        assert data.shape == (2, 0)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,x\n")
        with pytest.raises(LipcotError):
            pipeline.read_series_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(LipcotError):
            pipeline.read_series_csv(path)
