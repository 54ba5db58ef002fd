import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FS, ar2_coeffs, predictable_windows
from lipcot import codebook as cb
from lipcot import latent, lpc_core, pipeline, testkit
from lipcot.errors import (
    DegenerateInputError,
    EmptyCorpusError,
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


class TestSegmentation:
    def test_one_minute_at_500hz_gives_twelve_windows(self):
        segments = pipeline.segment_series(np.arange(30000.0), 2500, 2500, 500.0)
        assert len(segments) == 12
        assert all(len(s) == 2500 for s in segments)

    def test_trailing_remainder_dropped(self):
        segments = pipeline.segment_series(np.arange(12.0), 5, 5, FS)
        assert len(segments) == 2

    def test_overlapping_starts(self):
        segments = pipeline.segment_series(np.arange(12.0), 5, 2, FS)
        assert len(segments) == 4
        starts = [s.samples[0] for s in segments]
        assert starts == [0.0, 2.0, 4.0, 6.0]

    def test_window_shorter_than_series_gives_nothing(self):
        assert pipeline.segment_series(np.arange(4.0), 5, 5, FS) == []

    def test_bad_window_or_hop(self):
        with pytest.raises(InvalidWindowError):
            pipeline.segment_series(np.arange(10.0), 0, 1, FS)
        with pytest.raises(InvalidWindowError):
            pipeline.segment_series(np.arange(10.0), 5, 6, FS)
        with pytest.raises(InvalidWindowError):
            pipeline.segment_series(np.arange(10.0), 5, 0, FS)

    def test_count_identity_over_random_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            window = int(rng.integers(2, 80))
            hop = int(rng.integers(1, window + 1))
            expected = (n - window) // hop + 1 if n >= window else 0
            assert pipeline.window_count(n, window, hop) == expected


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
