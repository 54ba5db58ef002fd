"""sha256 digests of lipcot's outputs on the benchmark's own seeded inputs.

usage: python3 tools/digests.py SRC_DIR [--seeds 101 102 103] [--workloads NAME ...]
                                [--write FILE]

SRC_DIR is the directory that holds the ``lipcot`` package to digest (the
``src`` of a checkout). The inputs come from ``perfbench/inputs.generate``
of the checkout this script sits in, so two checkouts are compared on the
same data:

    python3 tools/digests.py /path/to/parent/src > parent.txt
    python3 tools/digests.py src > change.txt
    diff parent.txt change.txt

``--write FILE`` writes the lines to FILE instead, after a line naming the
numpy, scipy and BLAS builds they came from. ``tests/digests-101.txt`` is
such a file, and ``tests/test_digests.py`` recomputes it:

    python3 tools/digests.py src --seeds 101 --write tests/digests-101.txt

Each line reads ``workload seed key digest``. Per workload and seed it covers
every trained codebook (``book.json`` bytes, and as ``bookN.reload`` the bytes
of a save, load and second save), tokens in both layouts, ``decoded.csv``,
``synth.csv`` (token 0 for one window), ``spectrum.csv`` (channel 0, and as
``spectrum.lam0.csv`` again with ``--lambda 0``) and the ``train`` report
(cli-eeg), and the single-window
encodes and single-token decodes the benchmark runs: each window's
``fit_burg_warped`` coefficients and noise power, each token, each
refusal with its error type, and each realization's samples. The
``features.<workload>`` key covers the bytes of ``features`` on each of
those windows, so a change to one window's features that moves no token
still shows. Per codebook it
also covers every token's decode: the model's coefficients and noise power,
its poles, the numerator and denominator of ``synthesis_filter``, the filter
``synthesize`` really uses (clamped where it clamps), and the samples of
``synthesize(model, 64, token)``, each part or its refusal with the error
type. A decoded model holds its token's filter (``LpcModel.held_filter``),
which the book's decode table works out for every token at once, so the
``bookN.filters`` and ``bookN.realizations`` keys read the held filters and
pin them to the bytes that a model's own filter gives. Per codebook it
also covers, as ``bookN.kmeans`` (``book.kmeans`` on cli-eeg), the labels
and inertia history of ``kmeans_fit`` on the book's normalized training
matrix, which ``book.json`` does not hold. On scale-k256, the
``fallback.<map>`` keys cover ``fit_corpus`` and ``encode_series`` for each
latent map on a seeded series of constant, all-zero and live windows at an
overlapping hop, so the skipped rows and the zero-signal tokens are pinned,
and the ``corpus.<map>`` keys cover ``fit_corpus`` for each latent map across
three seeded series of different lengths, one with constant and all-zero
windows and one shorter than a window. On dsc-stream, whose map reads the
rate, the ``bookN.<part>@1000`` keys cover every token's decode again at
1000 Hz, between the decodes at the workload's own rate. Per workload the
``burg.<workload>`` key covers all four outputs of ``warped_burg``
(coefficients, noise power, stage powers and reflections) on the first
chunk of windows that ``fit_corpus`` fits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _book_digests(prefix: str, book, work: Path) -> dict:
    """``book.json`` bytes as saved, and again after a load and a second save."""
    from lipcot import codebook

    path = work / "digest-book.json"
    codebook.save_codebook(book, path)
    saved = path.read_bytes()
    codebook.save_codebook(codebook.load_codebook(path), path)
    return {f"{prefix}.json": _sha(saved), f"{prefix}.reload": _sha(path.read_bytes())}


def _kmeans_digest(prefix: str, book, corpus) -> dict:
    """The labels and inertia history of the k-means run behind ``book``."""
    from lipcot import codebook

    normalized = book.norm_stats.normalize(corpus.matrix)
    _, labels, history = codebook.kmeans_fit(normalized, book.k, book.seed)
    return {f"{prefix}.kmeans": _sha(labels.astype(np.int64).tobytes() + history.tobytes())}


def _burg_digest(name: str, data: np.ndarray, config) -> dict:
    """All four outputs of ``warped_burg`` on the first chunk ``fit_corpus`` fits.

    The chunk is the first ``_FIT_CHUNK_SAMPLES // window`` (channel, window)
    cells in channel-major order, with their row means removed.
    """
    from lipcot import lpc_core, pipeline

    views = np.lib.stride_tricks.sliding_window_view(data, config.window, axis=1)
    step = max(1, pipeline._FIT_CHUNK_SAMPLES // config.window)
    chunk = views[:, :: config.hop].reshape(-1, config.window)[:step]
    centred = chunk - chunk.mean(axis=-1, keepdims=True)
    outputs = lpc_core.warped_burg(centred, config.order, config.lam)
    return {f"burg.{name}": _sha(b"".join(np.asarray(v).tobytes() for v in outputs))}


def _outcome(function, *args):
    from lipcot import LipcotError

    try:
        return function(*args)
    except LipcotError as exc:
        return type(exc).__name__


def _model_hex(model) -> str:
    """A model's coefficient and noise-power bytes, in hex."""
    return model.coeffs.tobytes().hex() + "/" + np.float64(model.noise_power).tobytes().hex()


def _token_models(prefix: str, book, rate: float) -> dict:
    """Every token's decoded model, poles, synthesis filter and realization, or the refusal."""
    from lipcot import codebook, lpc_core

    def filter_bytes(model):
        numerator, denominator = lpc_core.synthesis_filter(model)
        return numerator.tobytes().hex() + "/" + denominator.tobytes().hex()

    parts = {"models": [], "poles": [], "filters": [], "realizations": []}
    for token in range(book.k):
        model = _outcome(codebook.decode_token, book, token, rate)
        if isinstance(model, str):
            for entries in parts.values():
                entries.append(model)
            continue
        parts["models"].append(_model_hex(model))
        pole_set = _outcome(lpc_core.poles, model)
        parts["poles"].append(pole_set if isinstance(pole_set, str) else pole_set.poles.tobytes().hex())
        parts["filters"].append(_outcome(filter_bytes, model))
        realization = _outcome(lpc_core.synthesize, model, 64, token)
        parts["realizations"].append(
            realization if isinstance(realization, str) else realization.samples.tobytes().hex()
        )
    return {f"{prefix}.{key}": _sha(json.dumps(entries).encode()) for key, entries in parts.items()}


def _single_ops(books, windows, rate: float, base_seed: int) -> dict:
    """The benchmark's closed loop: op ``i`` on book ``i % len(books)``."""
    from lipcot import codebook, latent, lpc_core

    def fit(book, samples):
        return lpc_core.fit_burg_warped(lpc_core.Segment(samples, rate), book.order, book.lam)

    def encode(book, model):
        return codebook.encode_vector(book, latent.features(model, book.method))

    def decode(book, token, seed):
        model = codebook.decode_token(book, token, rate)
        return lpc_core.synthesize(model, windows.shape[1], seed).samples

    fits, tokens, refusals, samples = [], [], [], hashlib.sha256()
    for i, window in enumerate(windows):
        book = books[i % len(books)]
        model = _outcome(fit, book, window)
        fits.append(model if isinstance(model, str) else _model_hex(model))
        tokens.append(model if isinstance(model, str) else _outcome(encode, book, model))
    for i in range(len(windows)):
        book = books[i % len(books)]
        result = _outcome(decode, book, i // len(books) % book.k, base_seed + i)
        refusals.append(result if isinstance(result, str) else None)
        if not isinstance(result, str):
            samples.update(result.tobytes())
    return {
        "single.fits": _sha(json.dumps(fits).encode()),
        "single.tokens": _sha(json.dumps(tokens).encode()),
        "single.refusals": _sha(json.dumps(refusals).encode()),
        "single.samples": samples.hexdigest(),
    }


def _feature_digest(name: str, books, windows, rate: float) -> dict:
    """The ``features`` bytes of each single-op window: window ``i`` on book ``i % len(books)``."""
    from lipcot import latent, lpc_core

    def feature_bytes(book, samples):
        model = lpc_core.fit_burg_warped(lpc_core.Segment(samples, rate), book.order, book.lam)
        return latent.features(model, book.method).values.tobytes().hex()

    values = [_outcome(feature_bytes, books[i % len(books)], w) for i, w in enumerate(windows)]
    return {f"features.{name}": _sha(json.dumps(values).encode())}


def cli_eeg(spec: dict, work: Path) -> dict:
    from lipcot import cli, codebook, pipeline

    csv, book_path = work / spec["csv"], work / "book.json"
    common = ["--window-sec", str(spec["window_sec"]), "--sample-rate", str(spec["rate"])]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = cli.main([
            "train", str(csv), "--out", str(book_path), "--order", str(spec["order"]),
            "--lambda", str(spec["lam"]), "--k", str(spec["k"]), "--method", spec["method"],
            "--seed", str(spec["seed"]), *common,
        ])
    out = {"train.status": str(status), "train.stdout": _sha(printed.getvalue().encode())}
    out["book.json"] = _sha(book_path.read_bytes())
    out["book.json.vocab"] = _sha((work / "book.json.vocab").read_bytes())
    for layout in ("positions", "temporal"):
        tokens = work / f"tokens-{layout}.txt"
        status = cli.main([
            "encode", str(csv), "--codebook", str(book_path), "--out", str(tokens),
            "--layout", layout, "--json", str(tokens) + ".json", *common,
        ])
        out[f"tokens.{layout}"] = _sha(f"{status}\n".encode() + tokens.read_bytes())
        out[f"tokens.{layout}.json"] = _sha((work / f"tokens-{layout}.txt.json").read_bytes())
    decoded = work / "decoded.csv"
    status = cli.main([
        "decode", str(work / "tokens-temporal.txt"), "--codebook", str(book_path),
        "--out", str(decoded), "--seed", str(spec["seed"]), *common,
    ])
    out["decoded.csv"] = _sha(f"{status}\n".encode() + decoded.read_bytes())
    for command, argv in (
        ("synth", ["synth", "--codebook", str(book_path), "--token", "0",
                   "--seconds", str(spec["window_sec"]), "--seed", str(spec["seed"])]),
        ("spectrum", ["spectrum", str(csv), "--order", str(spec["order"]),
                      "--lambda", str(spec["lam"])]),
        ("spectrum.lam0", ["spectrum", str(csv), "--order", str(spec["order"]),
                           "--lambda", "0"]),
    ):
        written = work / f"{command}.csv"
        status = cli.main([*argv, "--sample-rate", str(spec["rate"]), "--out", str(written)])
        out[f"{command}.csv"] = _sha(f"{status}\n".encode() + written.read_bytes())

    data = np.load(work / spec["npy"])
    window = int(spec["window_sec"] * spec["rate"])
    n_windows = data.shape[1] // window
    windows = data[:, : n_windows * window].reshape(-1, window)[: spec["latency_ops"]]
    book = codebook.load_codebook(book_path)
    out["book.reload"] = _book_digests("book", book, work)["book.reload"]
    names, rows = pipeline.read_series_csv(csv)
    series = pipeline.MultichannelSeries(rows, spec["rate"], names)
    config = pipeline.TokenizerConfig(book.order, book.lam, window, window, book.method)
    corpus, _ = pipeline.fit_corpus([series], config)
    out.update(_kmeans_digest("book", book, corpus))
    out.update(_token_models("book", book, spec["rate"]))
    out.update(_single_ops([book], windows, spec["rate"], spec["seed"]))
    out.update(_feature_digest("cli-eeg", [book], windows, spec["rate"]))
    out.update(_burg_digest("cli-eeg", series.data, config))
    return out


def _fallback_digests(seed: int) -> dict:
    """``fit_corpus`` and ``encode_series`` per latent map where many windows are degenerate."""
    from lipcot import LatentMethod, codebook, pipeline

    rng = np.random.default_rng(seed)
    live = rng.normal(size=1000)
    live[200:400] = 1.5  # constant windows, and windows that are partly constant
    live[600:800] = 0.0
    data = np.stack([live, np.zeros(1000), np.cumsum(rng.normal(size=1000))])
    series = pipeline.MultichannelSeries(data, 100.0, ["live", "zero", "walk"])
    out = {}
    for method in (LatentMethod.lpc_coeff(), LatentMethod.cepstrum(8), LatentMethod.dsc()):
        config = pipeline.TokenizerConfig(4, 0.2, 40, 25, method)
        corpus, skipped = pipeline.fit_corpus([series], config)
        out[f"fallback.{method.tag}.fit_corpus"] = _sha(corpus.matrix.tobytes() + f"{skipped}".encode())
        book = codebook.train_codebook(corpus, 8, seed, order=4, lam=0.2)
        sequences = pipeline.encode_series(series, book, 40, 25, "temporal")
        out[f"fallback.{method.tag}.tokens"] = _sha(json.dumps([s.tokens for s in sequences]).encode())
    return out


def _corpus_digests(seed: int) -> dict:
    """``fit_corpus`` per latent map across recordings of different lengths."""
    from lipcot import LatentMethod, pipeline

    rng = np.random.default_rng(seed)
    patchy = rng.normal(size=900)
    patchy[100:300] = -0.75  # constant windows, and windows that are partly constant
    series_set = [
        pipeline.MultichannelSeries(np.stack([patchy, np.zeros(900)]), 100.0, ["patchy", "zero"]),
        pipeline.MultichannelSeries(rng.normal(size=(3, 30)), 100.0, ["a", "b", "c"]),
        pipeline.MultichannelSeries(np.cumsum(rng.normal(size=(1, 1300)), axis=1), 100.0, ["walk"]),
    ]
    out = {}
    for method in (LatentMethod.lpc_coeff(), LatentMethod.cepstrum(8), LatentMethod.dsc()):
        config = pipeline.TokenizerConfig(4, 0.2, 50, 50, method)
        corpus, skipped = pipeline.fit_corpus(series_set, config)
        out[f"corpus.{method.tag}"] = _sha(corpus.matrix.tobytes() + f"{skipped}".encode())
    return out


def scale_k256(spec: dict, work: Path) -> dict:
    from lipcot import LatentMethod, codebook, pipeline

    data = np.load(work / spec["npy"])
    series = pipeline.MultichannelSeries(data, spec["rate"], [f"c{i}" for i in range(len(data))])
    window = spec["window"]
    config = pipeline.TokenizerConfig(
        spec["order"], spec["lam"], window, window, LatentMethod.cepstrum(spec["n_cepstra"])
    )
    corpus, skipped = pipeline.fit_corpus([series], config)
    out = {"fit_corpus": _sha(corpus.matrix.tobytes() + f"{skipped}".encode())}
    windows = data[:, : (data.shape[1] // window) * window].reshape(-1, window)
    windows = windows[: spec["latency_ops"]]
    for restart in range(spec["restarts"]):
        book = codebook.train_codebook(
            corpus, spec["k"], spec["seed"] * spec["restarts"] + restart,
            order=spec["order"], lam=spec["lam"],
        )
        out.update(_book_digests(f"book{restart}", book, work))
        out.update(_kmeans_digest(f"book{restart}", book, corpus))
        for layout in ("positions", "temporal"):
            sequences = pipeline.encode_series(series, book, window, window, layout)
            out[f"book{restart}.tokens.{layout}"] = _sha(
                json.dumps([s.tokens for s in sequences]).encode()
            )
        out.update(_token_models(f"book{restart}", book, spec["rate"]))
        ops = _single_ops([book], windows, spec["rate"], spec["seed"])
        out.update({f"book{restart}.{key}": value for key, value in ops.items()})
    # every restart's book has the order, lam and map that features read
    out.update(_feature_digest("scale-k256", [book], windows, spec["rate"]))
    out.update(_fallback_digests(spec["seed"]))
    out.update(_corpus_digests(spec["seed"]))
    out.update(_burg_digest("scale-k256", data, config))
    return out


def dsc_stream(spec: dict, work: Path) -> dict:
    from lipcot import LatentMethod, codebook, pipeline

    train = np.load(work / spec["train_npy"])
    series = pipeline.MultichannelSeries(train, spec["rate"], [f"c{i}" for i in range(len(train))])
    window = spec["window"]
    config = pipeline.TokenizerConfig(
        spec["order"], spec["lam"], window, window, LatentMethod.dsc()
    )
    corpus, _ = pipeline.fit_corpus([series], config)
    out, books = {}, []
    for c in range(spec["codebooks"]):
        book = codebook.train_codebook(
            corpus, spec["k"], spec["seed"] * spec["codebooks"] + c,
            order=spec["order"], lam=spec["lam"],
        )
        books.append(book)
        out.update(_book_digests(f"book{c}", book, work))
        out.update(_kmeans_digest(f"book{c}", book, corpus))
        out.update(_token_models(f"book{c}", book, spec["rate"]))
        at_1000 = _token_models(f"book{c}", book, 1000.0)
        out.update({f"{key}@1000": value for key, value in at_1000.items()})
    for layout in ("positions", "temporal"):
        sequences = pipeline.encode_series(series, books[0], window, window, layout)
        out[f"book0.tokens.{layout}"] = _sha(json.dumps([s.tokens for s in sequences]).encode())
    stream = np.load(work / spec["stream_npy"])
    out.update(_single_ops(books, stream, spec["rate"], spec["seed"]))
    out.update(_feature_digest("dsc-stream", books, stream, spec["rate"]))
    out.update(_burg_digest("dsc-stream", train, config))
    return out


WORKLOADS = {"cli-eeg": cli_eeg, "scale-k256": scale_k256, "dsc-stream": dsc_stream}


def environment() -> str:
    """The numpy, scipy and BLAS builds that compute the digests; ``poles`` depend on LAPACK."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
    return f"numpy {np.__version__}, scipy {scipy.__version__}, blas {blas}"


def digest_lines(seeds, workloads):
    """Yield the ``workload seed key digest`` lines of the importable lipcot package."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for name in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                spec = json.loads(inputs.generate(name, seed, work).read_text())
                for key, value in WORKLOADS[name](spec, work).items():
                    yield f"{name} {seed} {key} {value}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", help="directory holding the lipcot package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--write", metavar="FILE", help="write the lines, after their environment")
    args = parser.parse_args(argv)

    src = Path(args.src_dir).resolve()
    sys.path.insert(0, str(src))
    import lipcot

    if Path(lipcot.__file__).resolve().parent != src / "lipcot":
        raise SystemExit(f"imported lipcot from {lipcot.__file__}, not from {src}")

    lines = digest_lines(args.seeds, args.workloads)
    if args.write:
        text = "".join(f"{line}\n" for line in lines)
        Path(args.write).write_text(f"# environment: {environment()}\n{text}")
        return 0
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
