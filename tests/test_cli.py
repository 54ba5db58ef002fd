import json

import numpy as np
import pytest

from conftest import AR2_SPECTRUM_SEED, ar2_coeffs, ar2_fixture_series, predictable_windows
from lipcot import cli, pipeline, testkit
from lipcot.errors import LipcotError

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

    def test_sidecar_sample_rate(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        write_corpus_csv(csv_path)
        (tmp_path / "series.csv.json").write_text(json.dumps({"sample_rate": 500}))
        status = cli.main([
            "train", str(csv_path), "--out", str(tmp_path / "b.json"),
            "--k", "2", "--order", "4", "--window-sec", "2", "--seed", "0",
        ])
        assert status == 0

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


class TestSampleCounts:
    def test_products_near_an_integer_round(self):
        # 0.29 * 100 is 28.999999999999996 in binary floating point
        assert cli._window_samples(0.29, 100.0, "window") == 29

    def test_fractional_products_floor(self):
        assert cli._window_samples(0.295, 100.0, "window") == 29

    def test_non_finite_durations_are_refused(self):
        with pytest.raises(LipcotError):
            cli._window_samples(float("nan"), 100.0, "window")

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

    def test_codebook_unsupported_version(self, workspace, capsys):
        status, path = self.encode_with_book(workspace, lambda p: p.update(version="2"))
        assert status == 1
        assert_one_error_line(capsys, path)

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
        assert_one_error_line(capsys, csv_path)

    @pytest.mark.parametrize(
        "text", ["sample_rate = 500\n", '{"sample_rate": "fast"}', "[500]"]
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

    def test_spectrum_of_a_predictable_channel(self, tmp_path, capsys):
        csv_path = tmp_path / "alternating.csv"
        csv_path.write_text(pipeline.format_series_csv(["x"], predictable_windows(1000)[0][None]))
        status = cli.main([
            "spectrum", str(csv_path), "--sample-rate", "500", "--lambda", "0",
        ])
        assert status == 1
        assert_one_error_line(capsys)
