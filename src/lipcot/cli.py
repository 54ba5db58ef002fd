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
from ._util import read_json, whole, write_text_atomic
from .errors import ConfigMismatchError, LipcotError, UnknownWordError

DEFAULT_ORDER = 16
DEFAULT_LAMBDA = 0.2
DEFAULT_WINDOW_SEC = 5.0
DEFAULT_K = 64
DEFAULT_SEED = 0
DEFAULT_GRID_HZ = 0.1
_MAX_GRID_POINTS = 1_000_000  # spectrum rows; a finer grid is refused before it is built

_METHODS = (latent.TAG_CEPSTRUM, latent.TAG_DSC, latent.TAG_LPC)

# spreads per-line decode seeds so token indices never collide across lines
_LINE_SEED_STRIDE = 1_000_003

# seconds * rate this close to an integer is taken as that integer, so that
# binary rounding (0.29 * 100 = 28.999...) does not drop a sample
_SAMPLE_COUNT_TOL = 1e-9

# from here on a float64 no longer names one whole count; every count below it
# that does not fit in memory ends in MemoryError
_MAX_SAMPLE_COUNT = 2.0**53


def _resolve_sample_rate(path: str, flag_value) -> float:
    """Sampling rate from the flag, else from a '<input>.json' sidecar."""
    if flag_value is not None:
        return lpc_core.check_rate(flag_value, "--sample-rate")
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        payload = read_json(sidecar)
        if not isinstance(payload, dict) or "sample_rate" not in payload:
            raise LipcotError(f"{sidecar}: not a JSON object with a sample_rate key")
        return lpc_core.check_rate(payload["sample_rate"], f"{sidecar}: sample_rate")
    raise LipcotError(f"no --sample-rate given and no sidecar {sidecar}")


def _sample_count(seconds: float, sample_rate: float) -> int:
    """Whole samples in ``seconds``: rounded within 1e-9, otherwise floored."""
    exact = seconds * sample_rate
    if not abs(exact) < _MAX_SAMPLE_COUNT:  # NaN fails too
        raise LipcotError(
            f"{seconds} s at {sample_rate} Hz is not a finite sample count below 2**53"
        )
    nearest = round(exact)
    return nearest if abs(exact - nearest) < _SAMPLE_COUNT_TOL else math.floor(exact)


def _window_samples(seconds: float, sample_rate: float, name: str, least: int = 2) -> int:
    """``seconds`` in whole samples; fewer than ``least``, one or two, are refused."""
    count = _sample_count(seconds, sample_rate)
    if count < least:
        below = "one sample" if least == 1 else "two samples"
        raise LipcotError(f"{name} of {seconds} s is below {below} at {sample_rate} Hz")
    return count


def _hop_samples(args, sample_rate: float) -> int:
    """``--hop-sec`` in whole samples, the window when not given; at least one."""
    seconds = args.window_sec if args.hop_sec is None else args.hop_sec
    return _window_samples(seconds, sample_rate, "hop", 1)


def _read_series(path: str, sample_rate: float):
    names, data = pipeline.read_series_csv(path)
    if data.shape[1] == 0:
        return names, None
    return names, pipeline.MultichannelSeries(data, sample_rate, names)


def _token_lines(sequences) -> str:
    return "".join(" ".join(map(cb.token_word, seq.tokens)) + "\n" for seq in sequences)


def _check_codebook_flags(book: cb.Codebook, args) -> None:
    if args.order is not None and args.order != book.order:
        raise ConfigMismatchError(
            f"--order {args.order} disagrees with codebook order {book.order}"
        )
    if args.lam is not None and args.lam != book.lam:
        raise ConfigMismatchError(
            f"--lambda {args.lam} disagrees with codebook lambda {book.lam}"
        )
    if args.method is not None and args.method != book.method.tag:
        raise ConfigMismatchError(
            f"--method {args.method} disagrees with codebook method {book.method.tag}"
        )


def cmd_train(args) -> int:
    sample_rate = _resolve_sample_rate(args.inputs[0], args.sample_rate)
    window = _window_samples(args.window_sec, sample_rate, "window")
    hop = _hop_samples(args, sample_rate)
    whole(args.order, "--order", 1)
    whole(args.k, "--k", 1)
    # the cepstrum keeps 2 * order terms, as many values as the dsc space has
    n_cepstra = 2 * args.order if args.method == latent.TAG_CEPSTRUM else None
    method = latent.LatentMethod(args.method, n_cepstra=n_cepstra)
    config = pipeline.TokenizerConfig(args.order, args.lam, window, hop, method)

    series_set = []
    for index, path in enumerate(args.inputs):
        rate = _resolve_sample_rate(path, args.sample_rate) if index else sample_rate
        if rate != sample_rate:
            raise ConfigMismatchError(f"{path}: sampling rate {rate} != {sample_rate}")
        _, series = _read_series(path, rate)
        if series is not None:
            series_set.append(series)

    corpus, skipped = pipeline.fit_corpus(series_set, config)
    if skipped:
        print(f"warning: skipped {skipped} degenerate segments", file=sys.stderr)
    book = cb.train_codebook(corpus, args.k, args.seed, order=args.order, lam=args.lam)
    cb.save_codebook(book, args.out)
    vocab_path = args.vocab if args.vocab else args.out + ".vocab"
    write_text_atomic(vocab_path, "\n".join(cb.export_vocabulary(book)) + "\n")

    normalized = book.norm_stats.normalize(corpus.matrix)
    assignments = cb.nearest_centroids(normalized, book.centroids)
    inertia = float(((normalized - book.centroids[assignments]) ** 2).sum())
    print(f"k {book.k}")
    print(f"inertia {inertia:.6f}")
    for token, count in enumerate(np.bincount(assignments, minlength=book.k)):
        print(f"{cb.token_word(token)} {count}")
    return 0


def cmd_encode(args) -> int:
    book = cb.load_codebook(args.codebook)
    _check_codebook_flags(book, args)
    sample_rate = _resolve_sample_rate(args.input, args.sample_rate)
    window = _window_samples(args.window_sec, sample_rate, "window")
    hop = _hop_samples(args, sample_rate)

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


def cmd_decode(args) -> int:
    book = cb.load_codebook(args.codebook)
    sample_rate = _resolve_sample_rate(args.tokens, args.sample_rate)
    window = _window_samples(args.window_sec, sample_rate, "window")
    with open(args.tokens) as fh:
        try:
            lines = [line.split() for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise LipcotError(f"{args.tokens}: not {exc.encoding} text ({exc.reason})") from None
    ids = {cb.token_word(token): token for token in range(book.k)}
    try:
        sequences = [
            pipeline.TokenSequence([ids[word] for word in words], pipeline.LAYOUT_TEMPORAL)
            for words in lines
        ]
    except KeyError as exc:
        raise UnknownWordError(f"unknown token word {exc.args[0]!r}") from None
    if not sequences:
        write_text_atomic(args.out, "")
        return 0
    if len({len(seq) for seq in sequences}) != 1:  # refused before anything is decoded
        raise LipcotError("token lines decode to different lengths")
    shape = (len(sequences), len(sequences[0]) * window)
    if shape[0] * shape[1] >= _MAX_SAMPLE_COUNT:
        raise LipcotError(f"{shape[0]} lines of {shape[1]} samples each exceed 2**53 samples")
    signal = np.empty(shape)
    for i, seq in enumerate(sequences):
        seed = args.seed + i * _LINE_SEED_STRIDE
        signal[i] = pipeline.decode_sequence(seq, book, window, sample_rate, seed)
    pipeline.write_series_csv(args.out, [f"seq{i}" for i in range(shape[0])], signal)
    return 0


def _select_channel(names, requested):
    if requested in names:
        return names.index(requested)
    try:
        index = 0 if requested is None else int(requested)
    except ValueError:
        raise LipcotError(f"unknown channel {requested!r}") from None
    if not 0 <= index < len(names):
        raise LipcotError(f"channel index {index} out of range")
    return index


def cmd_spectrum(args) -> int:
    from . import testkit  # test oracles; only this command needs the periodogram

    sample_rate = _resolve_sample_rate(args.input, args.sample_rate)
    step, nyquist = lpc_core.check_rate(args.grid_hz, "--grid-hz"), sample_rate / 2.0
    if nyquist / step >= _MAX_GRID_POINTS:  # the grid has int(nyquist / step) + 1 points
        raise LipcotError(
            f"--grid-hz {step} gives more than {_MAX_GRID_POINTS} points up to {nyquist} Hz"
        )
    names, data = pipeline.read_series_csv(args.input)
    channel = _select_channel(names, args.channel)
    samples = data[channel]

    segment = lpc_core.Segment(samples, sample_rate)
    model = lpc_core.fit_burg_warped(segment, args.order, args.lam)
    grid = np.arange(int(nyquist / step) + 1) * step
    lpc_psd = lpc_core.power_spectrum(model, grid)
    per_freqs, per_power = testkit.periodogram(samples - samples.mean(), sample_rate)
    per_on_grid = np.interp(grid, per_freqs, per_power)

    names = ["frequency", "lpc_psd", "periodogram_psd"]
    table = np.stack([grid, lpc_psd, per_on_grid])
    if args.out:
        pipeline.write_series_csv(args.out, names, table)
    else:
        pipeline.render_series_csv(sys.stdout, names, table)
    return 0


def cmd_synth(args) -> int:
    book = cb.load_codebook(args.codebook)
    sample_rate = lpc_core.check_rate(args.sample_rate, "--sample-rate")
    n_samples = _window_samples(args.seconds, sample_rate, "duration")
    # one token decoded as a one-token line: position 0 draws seed --seed
    seq = pipeline.TokenSequence([args.token], pipeline.LAYOUT_TEMPORAL)
    samples = pipeline.decode_sequence(seq, book, n_samples, sample_rate, args.seed)
    pipeline.write_series_csv(args.out, [cb.token_word(args.token)], samples[None, :])
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
    train.add_argument("--method", choices=_METHODS, default=latent.TAG_LPC)
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
    encode.add_argument("--method", choices=_METHODS, default=None)
    _add_window_flags(encode)
    _add_rate_flag(encode)
    encode.set_defaults(func=cmd_encode)

    decode = sub.add_parser("decode", help="synthesize a CSV from a token file")
    decode.add_argument("tokens", help="token file, one temporal sequence per line")
    decode.add_argument("--codebook", required=True)
    decode.add_argument("--out", required=True, help="output CSV path")
    decode.add_argument("--seed", type=int, default=DEFAULT_SEED)
    decode.add_argument("--window-sec", type=float, default=DEFAULT_WINDOW_SEC)
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
    synth.add_argument("--sample-rate", type=float, default=None, help="sampling rate in Hz")
    synth.set_defaults(func=cmd_synth)

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_flag_values(argv) -> list:
    """Join a long flag and a following number that starts with '-' into ``--flag=value``.

    argparse reads only plain negative numbers such as -1 as values; -1e300,
    -inf and -nan would read as a missing value and end in a usage message.
    ``--help`` (or a prefix of it, ``--`` included) takes no value.
    """
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        takes_value = flag[:2] == "--" and "=" not in flag and not "--help".startswith(flag)
        if takes_value and token[:1] == "-" and _is_number(token):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv))
    try:
        whole(getattr(args, "seed", 0), "--seed", 0)
        return args.func(args)
    except (LipcotError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
