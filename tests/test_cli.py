import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AR2_SPECTRUM_SEED, ar2_coeffs, ar2_fixture_series, predictable_windows
from lipcot import cli, latent, lpc_core, pipeline, testkit
from lipcot import codebook as cb
from lipcot.errors import LipcotError, NonRealizableError

FS = 500.0


def write_corpus_csv(path, n_channels=3, n_samples=6000, seed=0):
    data, names = [], []
    for c in range(n_channels):
        coeffs = ar2_coeffs([5.0, 15.0, 40.0][c % 3])
        data.append(
            testkit.generate_ar(testkit.ArSpec(coeffs, 1.0, seed=seed + c), n_samples)
        )
        names.append(f"ch{c}")
    path.write_text(pipeline.format_series_csv(names, np.stack(data)))
    return names


@pytest.fixture()
def workspace(tmp_path):
    csv_path = tmp_path / "series.csv"
    write_corpus_csv(csv_path)
    book_path = tmp_path / "book.json"
    status = cli.main([
        "train", str(csv_path), "--out", str(book_path),
        "--k", "4", "--order", "4", "--lambda", "0.2",
        "--window-sec", "2", "--seed", "3", "--sample-rate", "500",
    ])
    assert status == 0
    return tmp_path, csv_path, book_path


class TestTrain:
    def test_writes_codebook_and_vocabulary(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        assert book_path.exists()
        vocab = (tmp_path / "book.json.vocab").read_text().splitlines()
        assert len(vocab) == 4 + 5
        assert vocab[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]

    def test_reports_counts(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "2", "--order", "4", "--window-sec", "2",
            "--seed", "0", "--sample-rate", "500",
        ])
        assert status == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k 2"
        assert out[1].startswith("inertia ")
        counts = [int(line.split()[1]) for line in out[2:]]
        assert sum(counts) == 3 * 6  # channels x windows

    def test_deterministic_across_runs(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        blobs = []
        for run in range(2):
            out = tmp_path / f"book{run}.json"
            status = cli.main([
                "train", str(csv_path), "--out", str(out),
                "--k", "3", "--order", "4", "--window-sec", "2",
                "--seed", "7", "--sample-rate", "500",
            ])
            assert status == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_k_larger_than_corpus_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "64", "--order", "4", "--window-sec", "2",
            "--seed", "0", "--sample-rate", "500",
        ])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_predictable_window_skipped_then_encoded(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        names, data = pipeline.read_series_csv(csv_path)
        data[1, 1000:2000] = predictable_windows(1000)[0]
        csv_path.write_text(pipeline.format_series_csv(names, data))
        book_path, tokens_path = tmp_path / "b.json", tmp_path / "t.txt"
        common = ["--order", "4", "--lambda", "0", "--window-sec", "2", "--sample-rate", "500"]
        assert cli.main([
            "train", str(csv_path), "--out", str(book_path), "--k", "2", *common
        ]) == 0
        assert "skipped 1 degenerate segments" in capsys.readouterr().err
        assert cli.main([
            "encode", str(csv_path), "--codebook", str(book_path), "--out", str(tokens_path),
            *common,
        ]) == 0
        assert [len(line.split()) for line in tokens_path.read_text().splitlines()] == [3] * 6

    def test_cepstrum_keeps_twice_the_order(self, tmp_path):
        # the library has no default term count; the CLI's --method cepstrum picks 2 * order
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        book_path = tmp_path / "b.json"
        status = cli.main([
            "train", str(csv_path), "--out", str(book_path), "--method", "cepstrum",
            "--k", "2", "--order", "8", "--window-sec", "2", "--seed", "0", "--sample-rate", "500",
        ])
        assert status == 0
        method = json.loads(book_path.read_text())["method"]
        assert method == {"tag": "cepstrum", "weights": None, "n_cepstra": 16}

    def test_sidecar_sample_rate(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        (tmp_path / "series.csv.json").write_text(json.dumps({"sample_rate": 500}))
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "2", "--order", "4", "--window-sec", "2", "--seed", "0",
        ])
        assert status == 0

    def test_sidecars_that_disagree_on_the_rate(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, rate in zip(paths, (500, 250)):
            write_corpus_csv(path)
            (tmp_path / f"{path.name}.json").write_text(json.dumps({"sample_rate": rate}))
        status = cli.main([
            "train", *map(str, paths), "--out", str(tmp_path / "b.json"),
            "--k", "2", "--order", "4", "--window-sec", "2",
        ])
        assert status == 1
        assert "250.0 != 500.0" in assert_one_error_line(capsys, paths[1])
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("case", ["body-not-numbers", "sidecar-rate"])
    def test_a_bad_last_input_writes_nothing(self, tmp_path, capsys, case):
        # the first two inputs are read and fitted before the third is refused
        paths = [tmp_path / f"{name}.csv" for name in "abc"]
        for seed, path in enumerate(paths):
            write_corpus_csv(path, seed=seed)
            (tmp_path / f"{path.name}.json").write_text(json.dumps({"sample_rate": 500}))
        if case == "body-not-numbers":
            paths[2].write_text(paths[2].read_text() + "0.5,x,0.5\n")
        else:
            (tmp_path / "c.csv.json").write_text(json.dumps({"sample_rate": 250}))
        book_path = tmp_path / "book.json"
        status = cli.main([
            "train", *map(str, paths), "--out", str(book_path),
            "--k", "2", "--order", "4", "--window-sec", "2",
        ])
        assert status == 1
        err = assert_one_error_line(capsys, paths[2])
        assert ("expected 3 numbers" if case == "body-not-numbers" else "250.0 != 500.0") in err
        assert not book_path.exists() and not (tmp_path / "book.json.vocab").exists()

    def test_many_recordings_train_in_bounded_memory(self, tmp_path, capsys):
        # eight recordings of 8 x 20000 samples, 1.28 MB each: reading them all
        # before fitting peaked at 3.4x one recording's run
        paths = [tmp_path / f"r{i}.csv" for i in range(8)]
        for seed, path in enumerate(paths):
            names = write_corpus_csv(path, n_channels=8, n_samples=20000, seed=10 * seed)
        _, data = pipeline.read_series_csv(paths[0])
        data[0, :5000] = 0.25  # five constant windows, skipped
        paths[0].write_text(pipeline.format_series_csv(names, data))

        def peak(inputs):
            tracemalloc.start()
            try:
                status = cli.main([
                    "train", *map(str, inputs), "--out", str(tmp_path / "b.json"),
                    "--k", "4", "--order", "4", "--window-sec", "2", "--sample-rate", "500",
                ])
                return status, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (one_status, one), (all_status, every) = peak(paths[:1]), peak(paths)
        assert one_status == all_status == 0
        assert every <= 1.5 * one, (every, one)
        assert capsys.readouterr().err.count("skipped 5 degenerate segments") == 2

        config = pipeline.TokenizerConfig(4, 0.2, 1000, 1000, latent.LatentMethod.lpc_coeff())
        series_set = [
            pipeline.MultichannelSeries(data, FS, names)
            for names, data in map(pipeline.read_series_csv, paths)
        ]
        listed, listed_skipped = pipeline.fit_corpus(series_set, config)
        streamed, streamed_skipped = pipeline.fit_corpus(iter(series_set), config)
        assert listed.matrix.tobytes() == streamed.matrix.tobytes()
        assert listed_skipped == streamed_skipped == 5

    def test_missing_sample_rate(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "2", "--window-sec", "2", "--seed", "0",
        ])
        assert status == 1
        assert "sample-rate" in capsys.readouterr().err


class TestEncode:
    def test_positions_layout_lines(self, workspace):
        tmp_path, csv_path, book_path = workspace
        tokens = tmp_path / "tokens.txt"
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(book_path),
            "--out", str(tokens), "--layout", "positions",
            "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 0
        lines = tokens.read_text().splitlines()
        assert len(lines) == 6  # 6000 samples / 1000-sample windows
        assert all(len(line.split()) == 3 for line in lines)
        assert all(word.startswith("t") for word in lines[0].split())

    def test_temporal_layout_and_json_records(self, workspace):
        tmp_path, csv_path, book_path = workspace
        tokens = tmp_path / "tokens.txt"
        records_path = tmp_path / "tokens.json"
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(book_path),
            "--out", str(tokens), "--layout", "temporal",
            "--window-sec", "2", "--sample-rate", "500",
            "--json", str(records_path),
        ])
        assert status == 0
        lines = tokens.read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split()) == 6 for line in lines)
        records = json.loads(records_path.read_text())
        assert len(records) == 18
        assert {r["channel"] for r in records} == {"ch0", "ch1", "ch2"}
        assert {r["window"] for r in records} == set(range(6))

    def test_config_mismatch_flag(self, workspace, capsys):
        tmp_path, csv_path, book_path = workspace
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(book_path),
            "--out", str(tmp_path / "t.txt"), "--order", "8",
            "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--lambda", "0.5"), ("--method", "dsc")], ids=["lambda", "method"]
    )
    def test_codebook_flag_that_disagrees(self, workspace, capsys, flag, value):
        tmp_path, csv_path, book_path = workspace
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(book_path), "--out", str(tmp_path / "t.txt"),
            flag, value, "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert f"{flag} {value} disagrees" in assert_one_error_line(capsys)

    def test_one_sample_hop(self, tmp_path):
        # the library takes any hop of 1 <= hop <= window; so do train and encode
        csv_path, book_path, tokens = tmp_path / "short.csv", tmp_path / "b.json", tmp_path / "t.txt"
        write_corpus_csv(csv_path, n_samples=60)
        rate = ["--window-sec", "0.5", "--hop-sec", "0.01", "--sample-rate", "100"]
        assert cli.main([
            "train", str(csv_path), "--out", str(book_path), "--k", "2", "--order", "2", *rate,
        ]) == 0
        assert cli.main([
            "encode", str(csv_path), "--codebook", str(book_path), "--out", str(tokens),
            "--layout", "positions", *rate,
        ]) == 0
        lines = tokens.read_text().splitlines()
        assert len(lines) == 11  # (60 - 50) / 1 + 1 windows of 50 samples
        assert all(len(line.split()) == 3 for line in lines)

    def test_empty_csv_body(self, workspace):
        tmp_path, _, book_path = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text("ch0,ch1\n")
        out = tmp_path / "empty.tokens"
        status = cli.main([
            "encode", str(empty), "--codebook", str(book_path),
            "--out", str(out), "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 0
        assert out.read_text() == ""

    def test_header_only_and_one_row_csvs_give_one_empty_line_per_channel(self, workspace):
        # neither holds a window; the header-only file once gave no lines at all
        tmp_path, _, book_path = workspace
        written = []
        for name, text in (("header", "ch0,ch1\n"), ("row", "ch0,ch1\n0.5,-0.25\n")):
            csv_path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.tokens"
            csv_path.write_text(text)
            assert cli.main([
                "encode", str(csv_path), "--codebook", str(book_path), "--out", str(out),
                "--layout", "temporal", "--window-sec", "2", "--sample-rate", "500",
            ]) == 0
            written.append(out.read_text())
        assert written == ["\n\n", "\n\n"]


class TestDecode:
    def test_lengths_and_determinism(self, workspace):
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text("t0 t1 t2\n")
        outputs = []
        for run in range(2):
            out = tmp_path / f"dec{run}.csv"
            status = cli.main([
                "decode", str(token_file), "--codebook", str(book_path),
                "--out", str(out), "--window-sec", "2",
                "--sample-rate", "500", "--seed", "9",
            ])
            assert status == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        names, data = pipeline.read_series_csv(tmp_path / "dec0.csv")
        assert names == ["seq0"]
        assert data.shape == (1, 3000)

    def test_blank_lines_only_decode_to_an_empty_file(self, workspace):
        tmp_path, _, book_path = workspace
        token_file, out = tmp_path / "blank.txt", tmp_path / "d.csv"
        token_file.write_text("\n  \n\t\n")
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path), "--out", str(out),
            "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 0
        assert out.read_text() == ""

    def test_lines_of_different_lengths_are_refused_before_decoding(
        self, workspace, capsys, monkeypatch
    ):
        def no_decode(*args, **kwargs):
            raise AssertionError("decode_sequence was called")

        tmp_path, _, book_path = workspace
        token_file, out = tmp_path / "ragged.txt", tmp_path / "d.csv"
        token_file.write_text("t0 t1\nt2\n")
        monkeypatch.setattr(pipeline, "decode_sequence", no_decode)
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path), "--out", str(out),
            "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "different lengths" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_more_than_2_to_the_53_samples_in_all_is_one_error_line(self, workspace, capsys):
        # 2048 lines of 2**50 samples fill 2**63 bytes, past what numpy sizes at all
        tmp_path, _, book_path = workspace
        token_file, out = tmp_path / "many.txt", tmp_path / "d.csv"
        token_file.write_text("t0\n" * 2048)
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path), "--out", str(out),
            "--window-sec", str(2.0**50), "--sample-rate", "1",
        ])
        assert status == 1
        assert "exceed 2**53" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_csv_output_holds_the_matrix_and_one_block(self, workspace):
        # the decoded floats are 1 MiB; as one string the CSV text alone is about 2.5 MiB
        tmp_path, _, book_path = workspace
        lines, tokens, window = 16, 8, 1000
        token_file = tmp_path / "lines.txt"
        words = [" ".join(f"t{(i + j) % 4}" for j in range(tokens)) for i in range(lines)]
        token_file.write_text("\n".join(words) + "\n")
        tracemalloc.start()
        try:
            status = cli.main([
                "decode", str(token_file), "--codebook", str(book_path),
                "--out", str(tmp_path / "d.csv"), "--window-sec", "2", "--sample-rate", "500",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        matrix = lines * tokens * window * 8
        # a block of 256 rows of 16 values, as floats and text, is about 0.3 MiB;
        # the rest is one line's synthesis and the codebook
        assert peak <= matrix + 2**20, (peak, matrix)

    def test_unknown_word_named_in_error(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text("t0 t99\n")
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path),
            "--out", str(tmp_path / "d.csv"), "--window-sec", "2",
            "--sample-rate", "500",
        ])
        assert status == 1
        assert "t99" in capsys.readouterr().err

    def test_reserved_word_rejected(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text("[MASK] t0\n")
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path),
            "--out", str(tmp_path / "d.csv"), "--window-sec", "2",
            "--sample-rate", "500",
        ])
        assert status == 1
        assert "[MASK]" in capsys.readouterr().err

    def test_hop_flag_is_refused(self, workspace, capsys):
        # decode reads whole windows back to back; a hop it ignores is refused
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text("t0 t1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "decode", str(token_file), "--codebook", str(book_path),
                "--out", str(tmp_path / "d.csv"), "--window-sec", "2",
                "--hop-sec", "0.5", "--sample-rate", "500",
            ])
        assert exc.value.code == 2
        assert "--hop-sec" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


class TestSpectrum:
    def test_ar2_peaks_agree_between_columns(self, tmp_path):
        csv_path = tmp_path / "fixture.csv"
        x = ar2_fixture_series(seed=AR2_SPECTRUM_SEED)
        csv_path.write_text(pipeline.format_series_csv(["ch0"], x[None, :]))
        out = tmp_path / "spec.csv"
        status = cli.main([
            "spectrum", str(csv_path), "--sample-rate", "500",
            "--order", "2", "--lambda", "0", "--grid-hz", "0.1",
            "--out", str(out),
        ])
        assert status == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        freqs, lpc_psd, per_psd = rows[:, 0], rows[:, 1], rows[:, 2]
        np.testing.assert_allclose(freqs, np.arange(len(freqs)) * 0.1, atol=1e-9)
        assert freqs[-1] <= 250.0 + 1e-6
        lpc_peak = freqs[np.argmax(lpc_psd)]
        per_peak = freqs[np.argmax(per_psd)]
        assert abs(lpc_peak - per_peak) <= 1.0

    def test_flat_noise_dynamic_range_below_6db(self, tmp_path):
        rng = np.random.default_rng(0)
        csv_path = tmp_path / "noise.csv"
        csv_path.write_text(
            pipeline.format_series_csv(["n"], rng.normal(size=30000)[None, :])
        )
        out = tmp_path / "spec.csv"
        status = cli.main([
            "spectrum", str(csv_path), "--sample-rate", "500",
            "--order", "16", "--lambda", "0.2", "--grid-hz", "0.5",
            "--out", str(out),
        ])
        assert status == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        lpc_psd = rows[:, 1]
        dynamic_range_db = 10 * np.log10(lpc_psd.max() / lpc_psd.min())
        assert dynamic_range_db < 6.0


    @pytest.fixture()
    def three_channels(self, tmp_path):
        # the header "1" names channel 0, while index 1 is channel "x"
        data = np.random.default_rng(1).normal(size=(3, 400))
        csv_path = tmp_path / "three.csv"
        csv_path.write_text(pipeline.format_series_csv(["1", "x", "y"], data))
        return csv_path, data

    def spectrum_text(self, csv_path, *flags):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main([
                "spectrum", str(csv_path), "--sample-rate", "500", "--order", "4",
                "--grid-hz", "10", *flags,
            ])
        assert status == 0
        return out.getvalue()

    @pytest.mark.parametrize(
        "requested, channel", [("y", 2), ("x", 1), ("2", 2), ("1", 0)],
        ids=["name", "other-name", "index", "name-beats-index"],
    )
    def test_channel_by_name_or_index(self, tmp_path, three_channels, requested, channel):
        csv_path, data = three_channels
        alone = tmp_path / "alone.csv"
        alone.write_text(pipeline.format_series_csv(["c"], data[channel : channel + 1]))
        assert self.spectrum_text(csv_path, "--channel", requested) == self.spectrum_text(alone)

    @pytest.mark.parametrize(
        "requested, message",
        [("z", "unknown channel 'z'"), ("3", "index 3 out of range"), ("-1", "index -1 out of")],
    )
    def test_channel_that_is_not_there(self, capsys, three_channels, requested, message):
        csv_path, _ = three_channels
        status = cli.main([
            "spectrum", str(csv_path), "--sample-rate", "500", "--channel", requested,
        ])
        assert status == 1
        assert message in assert_one_error_line(capsys)

    def test_stdout_holds_what_out_writes(self, tmp_path, three_channels):
        csv_path, _ = three_channels
        out = tmp_path / "spec.csv"
        assert self.spectrum_text(csv_path, "--out", str(out)) == ""
        assert self.spectrum_text(csv_path) == out.read_text()

    def test_one_sample_is_refused(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("a\n1.5\n")
        status = cli.main(["spectrum", str(csv_path), "--sample-rate", "500"])
        assert status == 1
        assert "at least two samples" in assert_one_error_line(capsys)


class TestRoundTrip:
    def test_train_encode_decode_encode_preserves_most_tokens(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path, n_samples=30000)
        book = tmp_path / "book.json"
        first = tmp_path / "first.tok"
        decoded = tmp_path / "decoded.csv"
        second = tmp_path / "second.tok"
        assert cli.main([
            "train", str(csv_path), "--out", str(book), "--k", "3",
            "--order", "4", "--lambda", "0.2", "--window-sec", "5",
            "--seed", "2", "--sample-rate", "500",
        ]) == 0
        assert cli.main([
            "encode", str(csv_path), "--codebook", str(book), "--out", str(first),
            "--layout", "temporal", "--window-sec", "5", "--sample-rate", "500",
        ]) == 0
        assert cli.main([
            "decode", str(first), "--codebook", str(book), "--out", str(decoded),
            "--window-sec", "5", "--sample-rate", "500", "--seed", "1",
        ]) == 0
        assert cli.main([
            "encode", str(decoded), "--codebook", str(book), "--out", str(second),
            "--layout", "temporal", "--window-sec", "5", "--sample-rate", "500",
        ]) == 0
        capsys.readouterr()
        before = first.read_text().split()
        after = second.read_text().split()
        assert len(before) == len(after) == 36
        rate = sum(a == b for a, b in zip(before, after)) / len(before)
        print(f"cli round-trip token match rate: {rate:.3f}")
        assert rate > 0.5


class TestSynth:
    def test_synthesizes_requested_duration(self, workspace):
        tmp_path, _, book_path = workspace
        out = tmp_path / "synth.csv"
        status = cli.main([
            "synth", "--codebook", str(book_path), "--token", "1",
            "--seconds", "2", "--sample-rate", "500", "--seed", "5",
            "--out", str(out),
        ])
        assert status == 0
        names, data = pipeline.read_series_csv(out)
        assert names == ["t1"]
        assert data.shape == (1, 1000)

    def test_missing_sample_rate_is_one_error_line(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        status = cli.main([
            "synth", "--codebook", str(book_path), "--token", "0",
            "--seconds", "2", "--out", str(tmp_path / "s.csv"),
        ])
        assert status == 1
        assert "--sample-rate" in assert_one_error_line(capsys)

    def test_one_sample_is_one_error_line(self, workspace, capsys):
        # 0.01 s at 100 Hz is one sample; a realization needs two
        tmp_path, _, book_path = workspace
        out = tmp_path / "s.csv"
        status = cli.main([
            "synth", "--codebook", str(book_path), "--token", "0",
            "--seconds", "0.01", "--sample-rate", "100", "--out", str(out),
        ])
        assert status == 1
        assert "below two samples" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "decode"])
    def test_out_of_memory_is_one_error_line(self, workspace, capsys, monkeypatch, command):
        # synth --seconds 1e9 at 500 Hz asks numpy for 3.64 TiB; nothing is allocated here
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.64 TiB for an array")

        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text("t0\n")
        monkeypatch.setattr(cli.lpc_core, "synthesize", refuse)
        out = tmp_path / "s.csv"
        argv = {
            "synth": ["synth", "--token", "0", "--seconds", "1e9"],
            "decode": ["decode", str(token_file), "--window-sec", "1e9"],
        }[command]
        status = cli.main([
            *argv, "--codebook", str(book_path), "--sample-rate", "500", "--out", str(out),
        ])
        assert status == 1
        assert "3.64 TiB" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_sample_rate_help_promises_no_sidecar(self, capsys):
        # synth has no input file, so there is no <input>.json to fall back to
        with pytest.raises(SystemExit):
            cli.main(["synth", "--help"])
        assert "sidecar" not in capsys.readouterr().out


def test_outputs_get_the_mode_open_gives(workspace):
    tmp_path, csv_path, book_path = workspace
    (tmp_path / "line.txt").write_text("t0 t1\n")
    common = ["--window-sec", "2", "--sample-rate", "500"]
    runs = {
        "tokens.txt": ["encode", str(csv_path), "--codebook", str(book_path),
                       "--json", str(tmp_path / "tokens.json"), *common],
        "decoded.csv": ["decode", str(tmp_path / "line.txt"), "--codebook", str(book_path),
                        *common],
        "synth.csv": ["synth", "--codebook", str(book_path), "--token", "0", "--seconds", "2",
                      "--sample-rate", "500"],
        "spectrum.csv": ["spectrum", str(csv_path), "--sample-rate", "500"],
    }
    for out, argv in runs.items():
        assert cli.main([*argv, "--out", str(tmp_path / out)]) == 0, out
    with open(tmp_path / "plain", "w"):
        pass
    expected = (tmp_path / "plain").stat().st_mode & 0o777
    written = [*runs, "tokens.json", "book.json", "book.json.vocab"]
    assert {name: (tmp_path / name).stat().st_mode & 0o777 for name in written} == dict.fromkeys(
        written, expected
    )


class TestSampleCounts:
    def test_products_near_an_integer_round(self):
        # 0.29 * 100 is 28.999999999999996 in binary floating point
        assert cli._window_samples(0.29, 100.0, "window") == 29

    def test_fractional_products_floor(self):
        assert cli._window_samples(0.295, 100.0, "window") == 29

    def test_non_finite_durations_are_refused(self):
        with pytest.raises(LipcotError):
            cli._window_samples(float("nan"), 100.0, "window")

    def test_counts_from_two_to_the_53_are_refused(self):
        # past 2**53 a float64 names no single whole count; 1e300 samples once
        # ended in numpy's 'Maximum allowed dimension exceeded' traceback
        assert cli._window_samples(2.0**53 - 1, 1.0, "window") == 2**53 - 1
        for seconds in (2.0**53, 1e300):
            with pytest.raises(LipcotError, match="below 2\\*\\*53"):
                cli._window_samples(seconds, 1.0, "window")

    def test_synth_uses_the_same_rule(self, workspace):
        tmp_path, _, book_path = workspace
        out = tmp_path / "short.csv"
        status = cli.main([
            "synth", "--codebook", str(book_path), "--token", "0",
            "--seconds", "0.29", "--sample-rate", "100", "--out", str(out),
        ])
        assert status == 0
        _, data = pipeline.read_series_csv(out)
        assert data.shape == (1, 29)


def assert_one_error_line(capsys, path=None):
    err = capsys.readouterr().err
    assert err.startswith("error: " if path is None else f"error: {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    return err


class TestBadInputs:
    """Every malformed input ends in one 'error: ...' line and exit 1.

    The line starts 'error: <path>: ' when a file is at fault.
    """

    def encode_with_book(self, workspace, edit):
        tmp_path, csv_path, book_path = workspace
        payload = json.loads(book_path.read_text())
        edit(payload)
        bad_book = tmp_path / "bad.json"
        bad_book.write_text(json.dumps(payload))
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(bad_book),
            "--out", str(tmp_path / "t.txt"), "--window-sec", "2", "--sample-rate", "500",
        ])
        return status, bad_book

    def test_codebook_missing_key(self, workspace, capsys):
        status, path = self.encode_with_book(workspace, lambda p: p.pop("centroids"))
        assert status == 1
        assert_one_error_line(capsys, path)

    def test_codebook_unknown_method_tag(self, workspace, capsys):
        status, path = self.encode_with_book(
            workspace, lambda p: p["method"].update(tag="wavelet")
        )
        assert status == 1
        assert_one_error_line(capsys, path)

    @pytest.mark.parametrize(
        "method",
        [
            {"tag": "cepstrum", "weights": None, "n_cepstra": None},
            {"tag": "lpc", "weights": None, "n_cepstra": 8},
            {"tag": "dsc", "weights": [1.0] * 4, "n_cepstra": None},
            {"tag": "lpc", "weights": [1.0] * 4, "n_cepstra": None},
        ],
        ids=["cepstrum-without-count", "lpc-with-count", "dsc-with-weights", "lpc-with-weights"],
    )
    def test_codebook_method_with_fields_its_map_does_not_read(self, workspace, capsys, method):
        status, path = self.encode_with_book(workspace, lambda p: p.update(method=method))
        assert status == 1
        assert "malformed codebook" in assert_one_error_line(capsys, path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["norm_mean"].__setitem__(0, math.nan),
            lambda p: p["norm_std"].__setitem__(0, math.inf),
            lambda p: p.update(k=math.inf),
            lambda p: p.update(order=math.inf),
            lambda p: p.update(seed=math.inf),
            lambda p: p.update(order=4.9),
            lambda p: p.update(k=True),
            lambda p: p.update(seed=True),
            lambda p: p.update(seed=3.0),
            lambda p: p.update(method={"tag": "cepstrum", "weights": None, "n_cepstra": 4.0}),
        ],
        ids=[
            "nan-mean", "inf-std", "inf-k", "inf-order", "inf-seed",
            "fractional-order", "boolean-k", "boolean-seed", "float-seed", "float-n-cepstra",
        ],
    )
    def test_codebook_non_finite_field(self, workspace, capsys, edit):
        # a NaN mean would encode every window as t0; an order of 4.9 would load as 4
        status, path = self.encode_with_book(workspace, edit)
        assert status == 1
        assert "malformed codebook" in assert_one_error_line(capsys, path)
        assert not (workspace[0] / "t.txt").exists()

    def test_codebook_negative_order_is_refused_before_it_sizes_a_matrix(self, workspace, capsys):
        status, _ = self.encode_with_book(workspace, lambda p: p.update(order=-5))
        assert status == 1
        assert "order must be at least 1" in assert_one_error_line(capsys)

    def test_huge_order_is_refused_before_it_sizes_a_matrix(self, tmp_path, capsys, monkeypatch):
        # an order of 1e9 would size a 119 GiB latent matrix
        def no_allocation(*args, **kwargs):
            raise AssertionError("a matrix was sized from the order")

        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path, n_samples=1000)
        monkeypatch.setattr(pipeline.np, "zeros", no_allocation)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"), "--k", "2",
            "--order", "1000000000", "--window-sec", "1", "--sample-rate", "500",
        ])
        assert status == 1
        assert "need more samples (500) than the order (1000000000)" in assert_one_error_line(
            capsys
        )

    def test_lpc_codebook_with_fewer_weights_than_its_order(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        payload = json.loads(book_path.read_text())
        payload["method"]["weights"] = [1.0] * (payload["order"] - 1)
        bad_book = tmp_path / "bad.json"
        bad_book.write_text(json.dumps(payload))
        token_file = tmp_path / "line.txt"
        token_file.write_text("t1 t0\n")
        common = ["--codebook", str(bad_book), "--out", str(tmp_path / "o"), "--sample-rate", "500"]
        for argv in (
            ["synth", "--token", "0", "--seconds", "2"],
            ["decode", str(token_file), "--window-sec", "2"],
        ):
            assert cli.main([*argv, *common]) == 1
            assert "malformed codebook" in assert_one_error_line(capsys, bad_book)
            assert not (tmp_path / "o").exists()

    def test_token_with_a_pole_outside_the_unit_circle(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        payload = json.loads(book_path.read_text())
        # the lpc map of the workspace's order-4 book: a_1..a_4, then log power
        values = np.append(lpc_core.poles_to_coeffs([1.1, 0.3, 0.2, 0.1]).real, 0.0)
        centroid = (values - np.array(payload["norm_mean"])) / np.array(payload["norm_std"])
        payload["centroids"][0] = centroid.tolist()
        book_path.write_text(json.dumps(payload))
        token_file = tmp_path / "line.txt"
        token_file.write_text("t1 t0\n")
        common = ["--codebook", str(book_path), "--out", str(tmp_path / "o"), "--sample-rate", "500"]
        for argv in (
            ["synth", "--token", "0", "--seconds", "2"],
            ["decode", str(token_file), "--window-sec", "2"],
        ):
            assert cli.main([*argv, *common]) == 1
            assert "exceeds the unit circle" in assert_one_error_line(capsys)
            assert not (tmp_path / "o").exists()

    def test_cepstrum_codebook_of_order_zero(self, tmp_path, capsys):
        # an order-0 cepstrum book passes the dimension check; the model refuses it
        csv_path, book_path = tmp_path / "s.csv", tmp_path / "b.json"
        write_corpus_csv(csv_path, n_samples=1000)
        assert cli.main([
            "train", str(csv_path), "--out", str(book_path), "--k", "2", "--order", "2",
            "--method", "cepstrum", "--window-sec", "1", "--sample-rate", "500",
        ]) == 0
        capsys.readouterr()
        payload = json.loads(book_path.read_text())
        payload["order"] = 0
        book_path.write_text(json.dumps(payload))
        status = cli.main([
            "synth", "--codebook", str(book_path), "--token", "0", "--seconds", "1",
            "--sample-rate", "500", "--out", str(tmp_path / "o.csv"),
        ])
        assert status == 1
        assert "order must be at least 1" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("step", ["inf", "nan", "0", "-0.5"])
    def test_spectrum_grid_step_that_is_not_positive_and_finite(self, tmp_path, capsys, step):
        csv_path = tmp_path / "noise.csv"
        write_corpus_csv(csv_path, n_channels=1, n_samples=1000)
        out = tmp_path / "spec.csv"
        status = cli.main([
            "spectrum", str(csv_path), "--sample-rate", "500", "--grid-hz", step,
            "--out", str(out),
        ])
        assert status == 1
        assert "--grid-hz" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_spectrum_grid_too_fine_is_refused_before_it_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        # 250 Hz / 1e-13 is 2.5e15 points; building them would end in MemoryError
        def no_allocation(*args, **kwargs):
            raise AssertionError("the grid was built")

        csv_path = tmp_path / "noise.csv"
        write_corpus_csv(csv_path, n_channels=1, n_samples=1000)
        monkeypatch.setattr(cli.np, "arange", no_allocation)
        status = cli.main(["spectrum", str(csv_path), "--sample-rate", "500", "--grid-hz", "1e-13"])
        assert status == 1
        assert "--grid-hz" in assert_one_error_line(capsys)

    def test_spectrum_grid_cap_counts_points(self, tmp_path, capsys, monkeypatch):
        # 250 Hz in steps of 25 is int(10) + 1 = 11 points; steps of 22.5 give 12
        csv_path = tmp_path / "noise.csv"
        write_corpus_csv(csv_path, n_channels=1, n_samples=1000)
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 11)
        out = tmp_path / "spec.csv"
        argv = ["spectrum", str(csv_path), "--sample-rate", "500", "--out", str(out)]
        assert cli.main([*argv, "--grid-hz", "25"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 11
        assert cli.main([*argv, "--grid-hz", "22.5"]) == 1
        assert "more than 11 points" in assert_one_error_line(capsys)

    def test_codebook_unsupported_version(self, workspace, capsys):
        status, path = self.encode_with_book(workspace, lambda p: p.update(version="2"))
        assert status == 1
        assert_one_error_line(capsys, path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["norm_mean"].__setitem__(0, str(p["norm_mean"][0])),
            lambda p: p["centroids"][0].__setitem__(0, True),
            lambda p: p.update(version=1),
        ],
        ids=["string-mean", "boolean-centroid", "integer-version"],
    )
    def test_codebook_value_of_another_json_type(self, workspace, capsys, edit):
        # each once loaded, read by float() or str() as what it spells
        status, path = self.encode_with_book(workspace, edit)
        assert status == 1
        assert_one_error_line(capsys, path)
        assert not (workspace[0] / "t.txt").exists()

    def encode_csv(self, workspace, header, row):
        """Encode a two-window CSV whose eighth line is replaced by ``row``."""
        tmp_path, _, book_path = workspace
        csv_path = tmp_path / "bad.csv"
        rows = [header] + [f"{i}.0,{-i}.0" for i in range(2000)]
        if row is not None:
            rows[7] = row
        csv_path.write_text("\n".join(rows) + "\n")
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(book_path),
            "--out", str(tmp_path / "t.txt"), "--window-sec", "2", "--sample-rate", "500",
        ])
        return status, csv_path

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_csv_non_finite_cell(self, workspace, capsys, cell):
        status, csv_path = self.encode_csv(workspace, "a,b", f"1.0,{cell}")
        assert status == 1
        assert_one_error_line(capsys, csv_path)

    @pytest.mark.parametrize(
        "header, row",
        [
            ("a,b", "1.0,#2"),
            ("a,b", "#1.0,2.0"),
            ("a,b", "1.0"),
            ("a", None),
            ("a,b", "1.0,x"),
            ("a,b", "1_0,2.0"),
            ("a,b", "1.0,2.0,"),
            ("a,b", "   "),
        ],
        ids=[
            "hash-cell", "hash-row", "ragged-row", "wider-than-header", "non-numeric",
            "underscore-digits", "trailing-comma", "whitespace-row",
        ],
    )
    def test_csv_malformed_body(self, workspace, capsys, header, row):
        status, csv_path = self.encode_csv(workspace, header, row)
        assert status == 1
        err = assert_one_error_line(capsys, csv_path)
        # lipcot's own words: the column count, no numpy row number or usecols advice
        assert f"expected {header.count(',') + 1} numbers" in err
        assert "usecols" not in err and "row " not in err

    @pytest.mark.parametrize(
        "text",
        [
            "sample_rate = 500\n", '{"sample_rate": "fast"}', "[500]",
            # each once read through float(): true as 1 Hz, "500" and " 5e2 " as 500 Hz
            '{"sample_rate": true}', '{"sample_rate": "500"}', '{"sample_rate": " 5e2 "}', "{}",
        ],
    )
    def test_sidecar_not_json_or_without_rate(self, tmp_path, capsys, text):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        sidecar = tmp_path / "series.csv.json"
        sidecar.write_text(text)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "2", "--order", "4", "--window-sec", "2", "--seed", "0",
        ])
        assert status == 1
        assert_one_error_line(capsys, sidecar)

    @pytest.mark.parametrize("rate", ["inf", "0"])
    @pytest.mark.parametrize("command", ["train", "encode", "decode", "spectrum", "synth"])
    def test_sample_rate_that_is_not_positive_and_finite(self, workspace, capsys, command, rate):
        # --sample-rate inf once passed and ended in a sample count or grid error
        tmp_path, csv_path, book_path = workspace
        tokens_path = tmp_path / "line.txt"
        tokens_path.write_text("t0 t1\n")
        argv = {
            "train": ["train", str(csv_path), "--k", "2", "--order", "4"],
            "encode": ["encode", str(csv_path), "--codebook", str(book_path)],
            "decode": ["decode", str(tokens_path), "--codebook", str(book_path)],
            "spectrum": ["spectrum", str(csv_path)],
            "synth": ["synth", "--codebook", str(book_path), "--token", "0", "--seconds", "2"],
        }[command]
        out = tmp_path / "out"
        status = cli.main([*argv, "--out", str(out), "--sample-rate", rate])
        assert status == 1
        assert "--sample-rate must be positive" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "encode", "spectrum"])
    def test_empty_csv_has_no_header(self, workspace, capsys, command):
        tmp_path, _, book_path = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        argv = {
            "train": ["train", str(empty), "--out", str(tmp_path / "b.json"), "--k", "2"],
            "encode": ["encode", str(empty), "--codebook", str(book_path), "--out", str(tmp_path / "t")],
            "spectrum": ["spectrum", str(empty)],
        }[command]
        status = cli.main([*argv, "--order", "4", "--sample-rate", "500"])
        assert status == 1
        assert "missing header row" in assert_one_error_line(capsys, empty)

    def test_codebook_that_is_not_json(self, workspace, capsys):
        tmp_path, csv_path, _ = workspace
        bad_book = tmp_path / "bad.json"
        bad_book.write_text("k = 4\n")
        status = cli.main([
            "encode", str(csv_path), "--codebook", str(bad_book), "--out", str(tmp_path / "t"),
            "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "not valid JSON" in assert_one_error_line(capsys, bad_book)

    def test_out_that_is_a_directory_leaves_no_temporary_file(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        out = tmp_path / "taken"
        out.mkdir()
        status = cli.main([
            "synth", "--codebook", str(book_path), "--token", "0", "--seconds", "2",
            "--sample-rate", "500", "--out", str(out),
        ])
        assert status == 1
        assert_one_error_line(capsys)
        assert list(tmp_path.glob(".tmp-*")) == []
        assert out.is_dir() and list(out.iterdir()) == []

    @pytest.mark.parametrize("method", ["lpc", "cepstrum"])
    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_order_below_one(self, tmp_path, capsys, method, order):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"), "--method", method,
            "--k", "2", "--order", order, "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "--order" in assert_one_error_line(capsys)

    def test_k_below_one(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "0", "--order", "4", "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "--k" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["train", "decode", "synth"])
    def test_negative_seed(self, workspace, capsys, command):
        tmp_path, csv_path, book_path = workspace
        tokens_path = tmp_path / "line.txt"
        tokens_path.write_text("t0 t1\n")
        argv = {
            "train": ["train", str(csv_path), "--k", "2", "--order", "4"],
            "decode": ["decode", str(tokens_path), "--codebook", str(book_path)],
            "synth": ["synth", "--codebook", str(book_path), "--token", "0", "--seconds", "2"],
        }[command]
        status = cli.main([
            *argv, "--out", str(tmp_path / "out"), "--seed", "-1", "--sample-rate", "500",
        ])
        assert status == 1
        assert "--seed" in assert_one_error_line(capsys)

    def test_token_word_with_non_ascii_digits(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text("t0 t\u00b2\n")
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path),
            "--out", str(tmp_path / "d.csv"), "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "t\u00b2" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("word", ["t01", "t00", "t0001"])
    def test_token_word_with_leading_zeros(self, workspace, capsys, word):
        # the vocabulary spells token 1 as t1 only, so t01 is not one of its words
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_text(f"t1 {word}\n")
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path),
            "--out", str(tmp_path / "d.csv"), "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert f"unknown token word {word!r}" in assert_one_error_line(capsys)
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", ["train", "encode"])
    def test_hop_below_one_sample(self, workspace, capsys, command):
        tmp_path, csv_path, book_path = workspace
        argv = {
            "train": ["train", str(csv_path), "--k", "2"],
            "encode": ["encode", str(csv_path), "--codebook", str(book_path)],
        }[command]
        status = cli.main([
            *argv, "--out", str(tmp_path / "out"), "--window-sec", "2",
            "--hop-sec", "0.001", "--sample-rate", "500",
        ])
        assert status == 1
        assert "hop of 0.001 s is below one sample at 500.0 Hz" in assert_one_error_line(capsys)

    def test_spectrum_of_a_predictable_channel(self, tmp_path, capsys):
        csv_path = tmp_path / "alternating.csv"
        csv_path.write_text(pipeline.format_series_csv(["x"], predictable_windows(1000)[0][None]))
        status = cli.main([
            "spectrum", str(csv_path), "--sample-rate", "500", "--lambda", "0",
        ])
        assert status == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["train", "encode", "spectrum"])
    @pytest.mark.parametrize("line", [0, 7, 1500], ids=["header", "early-body", "late-body"])
    def test_csv_that_is_not_utf8(self, workspace, capsys, command, line):
        # a late line sits past the reader's first buffer, where numpy's parser meets it
        tmp_path, _, book_path = workspace
        csv_path = tmp_path / "bad.csv"
        lines = [b"a,b"] + [f"{i}.0,{-i}.0".encode() for i in range(2000)]
        lines[line] = lines[line][:1] + b"\xff" + lines[line][1:]
        csv_path.write_bytes(b"\n".join(lines) + b"\n")
        argv = {
            "train": ["train", str(csv_path), "--out", str(tmp_path / "b.json"), "--k", "2"],
            "encode": [
                "encode", str(csv_path), "--codebook", str(book_path),
                "--out", str(tmp_path / "t.txt"),
            ],
            "spectrum": ["spectrum", str(csv_path)],
        }[command]
        window = [] if command == "spectrum" else ["--window-sec", "2"]
        status = cli.main([*argv, *window, "--order", "4", "--sample-rate", "500"])
        assert status == 1
        assert "not utf-8 text" in assert_one_error_line(capsys, csv_path)

    def test_token_file_that_is_not_utf8(self, workspace, capsys):
        tmp_path, _, book_path = workspace
        token_file = tmp_path / "line.txt"
        token_file.write_bytes(b"t0 t\xff1\n")
        status = cli.main([
            "decode", str(token_file), "--codebook", str(book_path),
            "--out", str(tmp_path / "d.csv"), "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert "not utf-8 text" in assert_one_error_line(capsys, token_file)

    @pytest.mark.parametrize("command", ["train", "encode", "spectrum"])
    def test_csv_header_cell_past_the_csv_field_limit(self, workspace, capsys, command):
        # csv.reader refuses a field past 131072 characters with its own error, once a traceback
        tmp_path, _, book_path = workspace
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text("a," + "b" * 200_000 + "\n" + "1.0,-1.0\n" * 2000)
        out = tmp_path / "out"
        argv = {
            "train": ["train", str(csv_path), "--k", "2", "--window-sec", "2"],
            "encode": ["encode", str(csv_path), "--codebook", str(book_path), "--window-sec", "2"],
            "spectrum": ["spectrum", str(csv_path)],
        }[command]
        status = cli.main([*argv, "--out", str(out), "--order", "4", "--sample-rate", "500"])
        assert status == 1
        assert "field limit" in assert_one_error_line(capsys, csv_path)
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, message",
        [
            ("nested-100000", "not valid JSON"),
            ("leading-xff", "not utf-8 text"),
            ("centroids-nested-600", "numbers only"),
        ],
    )
    def test_codebook_the_json_reader_refuses(self, workspace, capsys, case, message):
        # nesting once ended in a RecursionError traceback, from the parser or the number check
        tmp_path, _, book_path = workspace
        good = book_path.read_bytes()
        bad_book = tmp_path / "bad.json"
        bad_book.write_bytes({
            "nested-100000": nested_lists(100_000),
            "leading-xff": b"\xff" + good,
            "centroids-nested-600": json.dumps({**json.loads(good), "centroids": "@"})
            .encode()
            .replace(b'"@"', nested_lists(600)),
        }[case])
        tokens_path = tmp_path / "line.txt"
        tokens_path.write_text("t0 t1\n")
        out = tmp_path / "d.csv"
        status = cli.main([
            "decode", str(tokens_path), "--codebook", str(bad_book),
            "--out", str(out), "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        assert message in assert_one_error_line(capsys, bad_book)
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, message",
        [("long-lambda", "malformed codebook"), ("version-nested-800", "unsupported codebook version")],
    )
    def test_codebook_refusal_echoes_a_bounded_value(self, workspace, capsys, case, message):
        # the whole value was echoed: a 100081-byte line, or 1600 brackets
        tmp_path, _, book_path = workspace
        good = json.loads(book_path.read_text())
        bad_book = tmp_path / "bad.json"
        bad_book.write_bytes({
            "long-lambda": json.dumps({**good, "lambda": "x" * 100_000}).encode(),
            "version-nested-800": json.dumps({**good, "version": "@"})
            .encode()
            .replace(b'"@"', nested_lists(800)),
        }[case])
        tokens_path = tmp_path / "line.txt"
        tokens_path.write_text("t0 t1\n")
        status = cli.main([
            "decode", str(tokens_path), "--codebook", str(bad_book),
            "--out", str(tmp_path / "d.csv"), "--window-sec", "2", "--sample-rate", "500",
        ])
        assert status == 1
        err = assert_one_error_line(capsys, bad_book)
        assert message in err and err.endswith("...)\n" if case == "long-lambda" else "...\n")
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "case, message",
        [("nested-100000", "not valid JSON"), ("leading-xff", "not utf-8 text")],
    )
    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_sidecar_the_json_reader_refuses(self, workspace, capsys, command, case, message):
        tmp_path, csv_path, book_path = workspace
        tokens_path = tmp_path / "line.txt"
        tokens_path.write_text("t0 t1\n")
        source = csv_path if command == "encode" else tokens_path
        sidecar = tmp_path / (source.name + ".json")
        sidecar.write_bytes({
            "nested-100000": nested_lists(100_000),
            "leading-xff": b'\xff{"sample_rate": 500}',
        }[case])
        out = tmp_path / "out"
        status = cli.main([
            command, str(source), "--codebook", str(book_path),
            "--out", str(out), "--window-sec", "2",
        ])
        assert status == 1
        assert message in assert_one_error_line(capsys, sidecar)
        assert not out.exists()


def nested_lists(depth):
    """JSON text of ``depth`` nested empty lists."""
    return b"[" * depth + b"]" * depth


def centroid_past_float64(payload):
    payload["centroids"][0][0] = 1e308
    payload["norm_std"][0] = 10.0  # 1e308 * 10 overflows on denormalization


def log_power_past_exp(payload):
    payload["norm_mean"][-1] = 1000.0  # exp(1000) is past float64's range


def dsc_log_radius_past_exp(payload):
    payload["norm_mean"][4] = -2000.0  # order 4: the first pole's radius is 1 - exp(1000)


class TestUnrealizableTokens:
    """A codebook that loads but whose token 0 has no float64 model.

    ``synth`` and ``decode`` each end in one 'error:' line and exit 1. The
    suite turns warnings into errors, so an overflow warning fails the test.
    """

    @pytest.mark.parametrize(
        "method, edit",
        [
            ("lpc", centroid_past_float64),
            ("lpc", log_power_past_exp),
            ("dsc", dsc_log_radius_past_exp),
        ],
        ids=["non-finite-values", "log-power-overflow", "dsc-log-radius-overflow"],
    )
    def test_synth_and_decode_refuse(self, tmp_path, capsys, method, edit):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        book_path = tmp_path / "book.json"
        common = ["--window-sec", "2", "--sample-rate", "500"]
        assert cli.main([
            "train", str(csv_path), "--out", str(book_path), "--method", method,
            "--k", "4", "--order", "4", "--seed", "3", *common,
        ]) == 0
        payload = json.loads(book_path.read_text())
        edit(payload)
        book_path.write_text(json.dumps(payload))
        with pytest.raises(NonRealizableError):
            cb.decode_token(cb.load_codebook(book_path), 0, 500.0)
        token_file = tmp_path / "line.txt"
        token_file.write_text("t1 t0\n")
        capsys.readouterr()
        for argv in (
            ["synth", "--token", "0", "--seconds", "2", "--sample-rate", "500"],
            ["decode", str(token_file), *common],
        ):
            status = cli.main([*argv, "--codebook", str(book_path), "--out", str(tmp_path / "o")])
            assert status == 1
            assert_one_error_line(capsys)
            assert not (tmp_path / "o").exists()


# each field of a book.json that an edit can reach, as a path of keys and indices
BOOK_FIELDS = [
    ("version",), ("method",), ("method", "tag"), ("method", "weights"),
    ("method", "n_cepstra"), ("method", "reduced"), ("order",), ("lambda",), ("k",),
    ("seed",), ("norm_mean",), ("norm_mean", 0), ("norm_std",), ("norm_std", -1),
    ("centroids",), ("centroids", 0), ("centroids", -1, 0),
]
JSON_VALUES = [
    None, True, False, 0, 1, -1, 2**63, -(2**63), 1e308, -1e308, 0.5, 1.5, -1.5, 1e-320,
    "", "0.2", "lpc", [], [1.0], [[0.0]], {}, {"tag": "dsc"}, math.nan, math.inf, -math.inf,
]
# values that fill a field in its own shape: a book whose numbers reach past float64
EXTREMES = [1e300, -1e300, 1e-300, 1e308, -1e308, 1e-320, 0.0, -1.0, math.nan, math.inf]


@st.composite
def book_edits(draw):
    """(book, field, kind, value): set the field to a JSON value, fill it in its own
    shape with an extreme, drop the last entry of its last row, or delete it."""
    book = draw(st.sampled_from(["lpc", "cepstrum", "dsc"]))
    field = draw(st.sampled_from(BOOK_FIELDS))
    kind = draw(st.sampled_from(["set", "fill", "ragged", "drop"]))
    value = None
    if kind in ("set", "fill"):
        value = draw(st.sampled_from(JSON_VALUES if kind == "set" else EXTREMES))
    return book, field, kind, value


def edit_book(payload, field, kind, value):
    *parents, key = field
    for part in parents:
        payload = payload[part]
    if isinstance(payload, dict):  # "reduced" is absent from new books
        payload.setdefault(key, None)
    old = payload[key]
    if kind == "drop":
        del payload[key]
    elif kind == "set":
        payload[key] = value
    elif kind == "fill":
        payload[key] = np.full(np.shape(old), value).tolist()
    elif isinstance(old, list) and old and isinstance(old[-1], list):  # ragged, as the rest
        payload[key] = old[:-1] + [old[-1][:-1]]
    else:
        payload[key] = old[:-1] if isinstance(old, list) else [old]


@pytest.fixture(scope="module")
def trained_books(tmp_path_factory):
    """A directory with a small CSV, a token line, and lpc.json, cepstrum.json and dsc.json."""
    work = tmp_path_factory.mktemp("books")
    write_corpus_csv(work / "series.csv", n_channels=2, n_samples=1000)
    (work / "line.txt").write_text("t0 t1\n")
    for method in ("lpc", "cepstrum", "dsc"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([
                "train", str(work / "series.csv"), "--out", str(work / f"{method}.json"),
                "--method", method, "--k", "3", "--order", "4", "--window-sec", "0.5",
                "--sample-rate", "500",
            ]) == 0
    return work


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edit=book_edits())
@example(edit=("cepstrum", ("method", "n_cepstra"), "set", 2**63))
@example(edit=("lpc", ("norm_std",), "fill", 1e-300))
def test_edited_books_run_or_end_in_one_error_line(trained_books, edit):
    # the commands run in-process: a warning, or a traceback, fails the draw
    work = trained_books
    book, field, kind, value = edit
    payload = json.loads((work / f"{book}.json").read_text())
    edit_book(payload, field, kind, value)
    (work / "bad.json").write_text(json.dumps(payload))
    common = ["--codebook", str(work / "bad.json"), "--sample-rate", "500"]
    for argv in (
        ["encode", str(work / "series.csv"), "--window-sec", "0.5"],
        ["decode", str(work / "line.txt"), "--window-sec", "0.5"],
        ["synth", "--token", "0", "--seconds", "0.5"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main([*argv, *common, "--out", str(work / "out")])
        lines = err.getvalue().splitlines()
        one_error = status == 1 and len(lines) == 1 and lines[0].startswith("error: ")
        assert (status == 0 and not lines) or one_error, (argv[0], status, lines)


# the flags each command takes, and for each flag the values a user can give
# that sit at or past the edge of its rule; none of these sample counts lies
# between 2**31 and 2**53, where a run would really try to allocate it
FLOAT_EXTREMES = ["0", "-1", "-1e300", "-inf", "1e-300", "1e300", "nan", "inf"]
FLAG_VALUES = {
    "--window-sec": FLOAT_EXTREMES, "--hop-sec": FLOAT_EXTREMES,
    "--seconds": FLOAT_EXTREMES, "--sample-rate": FLOAT_EXTREMES,
    "--grid-hz": FLOAT_EXTREMES, "--lambda": FLOAT_EXTREMES,
    "--order": ["0", "-1"], "--k": ["0", "-1"], "--seed": ["0", "-1"],
}
COMMAND_FLAGS = {
    "train": ["--window-sec", "--hop-sec", "--sample-rate", "--lambda", "--order", "--k", "--seed"],
    "encode": ["--window-sec", "--hop-sec", "--sample-rate", "--lambda", "--order"],
    "decode": ["--window-sec", "--sample-rate", "--seed"],
    "spectrum": ["--sample-rate", "--grid-hz", "--lambda", "--order"],
    "synth": ["--seconds", "--sample-rate", "--seed"],
}


def base_argv(work, command, out):
    """A run of ``command`` on the trained_books directory that exits 0 as it stands."""
    book, rate = ["--codebook", str(work / "lpc.json")], ["--sample-rate", "500"]
    return {
        "train": ["train", str(work / "series.csv"), "--k", "3", "--order", "4",
                  "--window-sec", "0.5", *rate],
        "encode": ["encode", str(work / "series.csv"), *book, "--window-sec", "0.5", *rate],
        "decode": ["decode", str(work / "line.txt"), *book, "--window-sec", "0.5", *rate],
        "spectrum": ["spectrum", str(work / "series.csv"), "--order", "4", *rate],
        "synth": ["synth", *book, "--token", "0", "--seconds", "0.5", *rate],
    }[command] + ["--out", str(out)]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command, flags in COMMAND_FLAGS.items()
        for flag in flags
        for value in FLAG_VALUES[flag]
    ],
)
def test_flag_extremes_run_or_end_in_one_error_line(
    trained_books, tmp_path, capsys, command, flag, value
):
    # the last of a repeated flag wins, so the extreme replaces the base value
    status = cli.main([*base_argv(trained_books, command, tmp_path / "out"), flag, value])
    err = capsys.readouterr().err
    if status == 0:
        assert "error:" not in err
    else:
        assert status == 1 and err.startswith("error: ") and err.count("\n") == 1, err


def test_a_negative_number_joins_only_a_flag_that_takes_a_value():
    unjoined = ["--help", "-1e300", "--he", "-1", "--", "-inf", "--out", "-x"]
    argv = ["synth", "--seconds", "-1e300", "--lambda", "-inf", "--seed=1", "-2", *unjoined]
    assert cli._join_flag_values(argv) == [
        "synth", "--seconds=-1e300", "--lambda=-inf", "--seed=1", "-2", *unjoined
    ]


def test_base_runs_exit_zero(trained_books, tmp_path, capsys):
    for command in COMMAND_FLAGS:
        assert cli.main(base_argv(trained_books, command, tmp_path / "out")) == 0, command


@pytest.mark.parametrize("layout", ["positions", "temporal"])
def test_window_longer_than_the_series_sizes_nothing(trained_books, tmp_path, capsys, layout):
    # a 1e9 s window once sized a 3.64 TiB offset array before finding no full window
    outputs = []
    for seconds in ("10", "1e9"):
        out = tmp_path / f"tokens-{seconds}.txt"
        argv = base_argv(trained_books, "encode", out)
        assert cli.main([*argv, "--window-sec", seconds, "--layout", layout]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] == ("" if layout == "positions" else "\n\n")
