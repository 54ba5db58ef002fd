"""Command-line surface: train, encode, decode, spectrum, and synth over files.

Windows, hops and synth durations are given in seconds and converted with
the sampling rate: a product within 1e-9 of a whole number of samples rounds
to it (0.29 s at 100 Hz is 29 samples), and any other fractional count is
floored. All randomness flows from a single --seed flag, so every command is
deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import codebook as cb
from . import latent
from . import lpc_core
from . import pipeline
from . import testkit
from ._util import write_text_atomic
from .errors import ConfigMismatchError, LipcotError, UnknownWordError

DEFAULT_ORDER = 16
DEFAULT_LAMBDA = 0.2
DEFAULT_WINDOW_SEC = 5.0
DEFAULT_K = 64
DEFAULT_SEED = 0
DEFAULT_GRID_HZ = 0.1

_METHODS = {
    "lpc": latent.LatentMethod.lpc_coeff(),
    "cepstrum": latent.LatentMethod(latent.TAG_CEPSTRUM),
    "dsc": latent.LatentMethod.dsc(),
}

# spreads per-line decode seeds so token indices never collide across lines
_LINE_SEED_STRIDE = 1_000_003

# seconds * rate this close to an integer is taken as that integer, so that
# binary rounding (0.29 * 100 = 28.999...) does not drop a sample
_SAMPLE_COUNT_TOL = 1e-9


def _resolve_sample_rate(path: str, flag_value) -> float:
    """Sampling rate from the flag, else from a '<input>.json' sidecar."""
    if flag_value is not None:
        if not flag_value > 0:
            raise LipcotError("--sample-rate must be positive")
        return float(flag_value)
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise LipcotError(f"{sidecar}: not valid JSON ({exc})") from None
        try:
            rate = float(payload["sample_rate"])
        except (KeyError, TypeError, ValueError):
            rate = math.nan
        if not 0 < rate < math.inf:
            raise LipcotError(f"{sidecar}: missing or invalid sample_rate")
        return rate
    raise LipcotError(f"no --sample-rate given and no sidecar {sidecar}")


def _sample_count(seconds: float, sample_rate: float) -> int:
    """Whole samples in ``seconds``: rounded within 1e-9, otherwise floored."""
    exact = seconds * sample_rate
    if not math.isfinite(exact):
        raise LipcotError(f"{seconds} s at {sample_rate} Hz is not a finite sample count")
    nearest = round(exact)
    return nearest if abs(exact - nearest) < _SAMPLE_COUNT_TOL else math.floor(exact)


def _window_samples(seconds: float, sample_rate: float, name: str) -> int:
    count = _sample_count(seconds, sample_rate)
    if count < 2:
        raise LipcotError(f"{name} of {seconds} s is below two samples at {sample_rate} Hz")
    return count


def _read_series(path: str, sample_rate: float):
    names, data = pipeline.read_series_csv(path)
    if data.shape[1] == 0:
        return names, None
    return names, pipeline.MultichannelSeries(data, sample_rate, names)


def _token_lines(sequences) -> str:
    return "".join(" ".join(f"t{t}" for t in seq.tokens) + "\n" for seq in sequences)


def _check_codebook_flags(book: cb.Codebook, args) -> None:
    if args.order is not None and args.order != book.order:
        raise ConfigMismatchError(
            f"--order {args.order} disagrees with codebook order {book.order}"
        )
    if args.lam is not None and args.lam != book.lam:
        raise ConfigMismatchError(
            f"--lambda {args.lam} disagrees with codebook lambda {book.lam}"
        )
    if args.method is not None and _METHODS[args.method].tag != book.method.tag:
        raise ConfigMismatchError(
            f"--method {args.method} disagrees with codebook method {book.method.tag}"
        )


def cmd_train(args) -> int:
    sample_rate = _resolve_sample_rate(args.inputs[0], args.sample_rate)
    window = _window_samples(args.window_sec, sample_rate, "window")
    hop_sec = args.hop_sec if args.hop_sec is not None else args.window_sec
    hop = _window_samples(hop_sec, sample_rate, "hop")
    method = _METHODS[args.method]
    config = pipeline.TokenizerConfig(args.order, args.lam, window, hop, method)
    if args.k < 1:
        raise LipcotError(f"--k must be at least 1, got {args.k}")

    series_set = []
    for path in args.inputs:
        rate = _resolve_sample_rate(path, args.sample_rate)
        if rate != sample_rate:
            raise ConfigMismatchError(f"{path}: sampling rate {rate} != {sample_rate}")
        _, series = _read_series(path, rate)
        if series is not None:
            series_set.append(series)

    vectors, skipped = pipeline.fit_corpus(series_set, config)
    if skipped:
        print(f"warning: skipped {skipped} degenerate segments", file=sys.stderr)
    book = cb.train_codebook(
        vectors, args.k, args.seed, order=args.order, lam=args.lam
    )
    cb.save_codebook(book, args.out)
    vocab_path = args.vocab if args.vocab else args.out + ".vocab"
    write_text_atomic(vocab_path, "\n".join(cb.export_vocabulary(book)) + "\n")

    normalized = book.norm_stats.normalize(np.stack([vec.values for vec in vectors]))
    assignments, _ = cb.nearest_centroids(normalized, book.centroids)
    inertia = float(((normalized - book.centroids[assignments]) ** 2).sum())
    print(f"k {book.k}")
    print(f"inertia {inertia:.6f}")
    for token, count in enumerate(np.bincount(assignments, minlength=book.k)):
        print(f"t{token} {count}")
    return 0


def cmd_encode(args) -> int:
    book = cb.load_codebook(args.codebook)
    _check_codebook_flags(book, args)
    sample_rate = _resolve_sample_rate(args.input, args.sample_rate)
    window = _window_samples(args.window_sec, sample_rate, "window")
    hop_sec = args.hop_sec if args.hop_sec is not None else args.window_sec
    hop = _window_samples(hop_sec, sample_rate, "hop")

    names, series = _read_series(args.input, sample_rate)
    if series is None:
        sequences = []
    else:
        sequences = pipeline.encode_series(series, book, window, hop, args.layout)
    write_text_atomic(args.out, _token_lines(sequences))

    if args.json:
        records = []
        for s, seq in enumerate(sequences):
            for position, token in enumerate(seq.tokens):
                channel = position if args.layout == pipeline.LAYOUT_POSITIONS else s
                window_idx = s if args.layout == pipeline.LAYOUT_POSITIONS else position
                records.append(
                    {
                        "channel": names[channel],
                        "window": window_idx,
                        "token": token,
                    }
                )
        write_text_atomic(args.json, json.dumps(records, indent=2) + "\n")
    return 0


def _parse_token_word(word: str, k: int) -> int:
    digits = word[1:]
    if word.startswith("t") and digits.isascii() and digits.isdigit():
        token = int(digits)
        if token < k:
            return token
    raise UnknownWordError(f"unknown token word {word!r}")


def cmd_decode(args) -> int:
    book = cb.load_codebook(args.codebook)
    sample_rate = _resolve_sample_rate(args.tokens, args.sample_rate)
    window = _window_samples(args.window_sec, sample_rate, "window")
    with open(args.tokens) as fh:
        lines = [line.split() for line in fh if line.strip()]
    columns = []
    for index, words in enumerate(lines):
        tokens = [_parse_token_word(word, book.k) for word in words]
        seq = pipeline.TokenSequence(tokens, pipeline.LAYOUT_TEMPORAL)
        columns.append(
            pipeline.decode_sequence(
                seq, book, window, sample_rate, args.seed + index * _LINE_SEED_STRIDE
            )
        )
    if not columns:
        write_text_atomic(args.out, "")
        return 0
    lengths = {col.size for col in columns}
    if len(lengths) != 1:
        raise LipcotError("token lines decode to different lengths")
    names = [f"seq{i}" for i in range(len(columns))]
    write_text_atomic(args.out, pipeline.format_series_csv(names, np.stack(columns)))
    return 0


def _select_channel(names, data, requested):
    if requested is None:
        return 0
    if requested in names:
        return names.index(requested)
    try:
        index = int(requested)
    except ValueError:
        raise LipcotError(f"unknown channel {requested!r}") from None
    if not 0 <= index < len(names):
        raise LipcotError(f"channel index {index} out of range")
    return index


def cmd_spectrum(args) -> int:
    sample_rate = _resolve_sample_rate(args.input, args.sample_rate)
    names, data = pipeline.read_series_csv(args.input)
    if data.shape[1] < 2:
        raise LipcotError("spectrum needs at least two samples")
    channel = _select_channel(names, data, args.channel)
    samples = data[channel]

    segment = lpc_core.Segment(samples, sample_rate)
    model = lpc_core.fit_burg_warped(segment, args.order, args.lam)
    step = args.grid_hz
    if not step > 0:
        raise LipcotError("--grid-hz must be positive")
    nyquist = sample_rate / 2.0
    grid = np.arange(int(nyquist / step) + 1) * step
    lpc_psd = lpc_core.power_spectrum(model, grid)
    per_freqs, per_power = testkit.periodogram(samples - samples.mean(), sample_rate)
    per_on_grid = np.interp(grid, per_freqs, per_power)

    text = pipeline.format_series_csv(
        ["frequency", "lpc_psd", "periodogram_psd"], np.stack([grid, lpc_psd, per_on_grid])
    )
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    book = cb.load_codebook(args.codebook)
    if not args.sample_rate or not args.sample_rate > 0:
        raise LipcotError("--sample-rate must be positive")
    n_samples = _sample_count(args.seconds, args.sample_rate)
    if n_samples < 1:
        raise LipcotError("--seconds too short for one sample")
    model = cb.decode_token(book, args.token, args.sample_rate)
    segment = lpc_core.synthesize(model, n_samples, args.seed)
    write_text_atomic(
        args.out, pipeline.format_series_csv([f"t{args.token}"], segment.samples[None, :])
    )
    return 0


def _add_rate_flag(parser) -> None:
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=None,
        help="sampling rate in Hz (falls back to a '<input>.json' sidecar)",
    )


def _add_window_flags(parser) -> None:
    parser.add_argument("--window-sec", type=float, default=DEFAULT_WINDOW_SEC)
    parser.add_argument(
        "--hop-sec", type=float, default=None, help="default: the window (no overlap)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipcot",
        description="Tokenize time series through warped-LPC latent spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a codebook over CSV inputs")
    train.add_argument("inputs", nargs="+", help="CSV files, one column per channel")
    train.add_argument("--out", required=True, help="codebook JSON path")
    train.add_argument("--vocab", default=None, help="vocabulary path (default: <out>.vocab)")
    train.add_argument("--order", type=int, default=DEFAULT_ORDER)
    train.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    train.add_argument("--method", choices=sorted(_METHODS), default="lpc")
    train.add_argument("--k", type=int, default=DEFAULT_K)
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_window_flags(train)
    _add_rate_flag(train)
    train.set_defaults(func=cmd_train)

    encode = sub.add_parser("encode", help="tokenize a CSV with a trained codebook")
    encode.add_argument("input")
    encode.add_argument("--codebook", required=True)
    encode.add_argument("--out", required=True, help="token file path")
    encode.add_argument("--json", default=None, help="also write per-token JSON records")
    encode.add_argument(
        "--layout",
        choices=[pipeline.LAYOUT_POSITIONS, pipeline.LAYOUT_TEMPORAL],
        default=pipeline.LAYOUT_POSITIONS,
    )
    encode.add_argument("--order", type=int, default=None)
    encode.add_argument("--lambda", dest="lam", type=float, default=None)
    encode.add_argument("--method", choices=sorted(_METHODS), default=None)
    _add_window_flags(encode)
    _add_rate_flag(encode)
    encode.set_defaults(func=cmd_encode)

    decode = sub.add_parser("decode", help="synthesize a CSV from a token file")
    decode.add_argument("tokens", help="token file, one temporal sequence per line")
    decode.add_argument("--codebook", required=True)
    decode.add_argument("--out", required=True, help="output CSV path")
    decode.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_window_flags(decode)
    _add_rate_flag(decode)
    decode.set_defaults(func=cmd_decode)

    spectrum = sub.add_parser(
        "spectrum", help="tabulate model and periodogram spectra for a channel"
    )
    spectrum.add_argument("input")
    spectrum.add_argument("--channel", default=None, help="channel name or index")
    spectrum.add_argument("--order", type=int, default=DEFAULT_ORDER)
    spectrum.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    spectrum.add_argument("--grid-hz", type=float, default=DEFAULT_GRID_HZ)
    spectrum.add_argument("--out", default=None, help="default: stdout")
    _add_rate_flag(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    synth = sub.add_parser("synth", help="synthesize one token's realization to CSV")
    synth.add_argument("--codebook", required=True)
    synth.add_argument("--token", type=int, required=True)
    synth.add_argument("--seconds", type=float, required=True)
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    synth.add_argument("--out", required=True)
    _add_rate_flag(synth)
    synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise LipcotError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (LipcotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
