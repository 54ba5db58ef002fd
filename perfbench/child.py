"""One benchmark repetition in a fresh interpreter, started by run.py.

usage: python3 perfbench/child.py SPEC_JSON OUT_DIR MODE DEADLINE ROUNDTRIP

MODE is ``off`` (untraced), ``spans`` (traced) or ``alloc`` (traced, with
tracemalloc around the functions in tracing.ALLOC_TRACED). DEADLINE is a
``time.monotonic()`` reading. ROUNDTRIP is 1 if the first pass refits
every realization (see ``single_ops``), else 0. The child times
``import lipcot.cli`` as set-up, prepares the workload named in the spec,
then runs the workload's pass over the generated inputs. An untraced child
repeats the pass while another one can end before DEADLINE; a traced child
runs it once. The child records its peak RSS after the first pass, checks
every output, and writes ``result.json`` (and ``spans.json`` when traced)
into OUT_DIR.

Every pass does the same work on the same inputs, so run.py can take the
median time of each stage and of each single operation over all passes.
Times are reported in reference seconds (see ``Clock``): the speed of a
shared host's CPU moves by up to half from one second to the next, and the
reference kernel run beside the workload measures that speed.

A single encode or decode that raises ``LipcotError``, the program's typed
refusal, is counted as refused and the run goes on. A CLI command that
exits non-zero, or an output that fails a check, is recorded in
``failures``. Any other exception, a refused library stage included, ends
the child with a traceback and a non-zero exit status.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

np = None  # numpy, bound in main() once the set-up import has been timed


def _thread_count() -> int:
    """Threads of this process, BLAS pools included (0 where unreadable)."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return 0


# The reference kernel's time on the baseline machine (README.md) when
# nothing else loads its CPU. Reference seconds are wall seconds scaled by
# this over the kernel's time measured during and around the work.
REF_NOMINAL_S = 1.6e-3
REF_PERIOD_S = 0.06  # the kernel is sampled this often while the workload runs
REF_BURST = 10  # kernel runs right after set-up, which has none inside it
REF_WINDOW_S = 0.3  # kernel runs this close to an interval scale it


class Clock:
    """Wall-clock intervals, scaled by the speed of a fixed reference kernel.

    The kernel does what lipcot spends its time on, as lipcot did it when
    the benchmark was written: the warped Burg recursion on a 1000-sample
    window, Durand-Kerner steps on its predictor polynomial, parsing CSV
    lines, and a broadcast distance matrix as in k-means. It is a frozen
    copy and never calls lipcot, so a change to the program leaves it as it
    is. While sampling, an interval timer interrupts the workload every
    ``REF_PERIOD_S`` and runs the kernel in the main thread, between two
    bytecodes of the workload.

    An interval's reference time is its wall time, less the samples taken
    inside it, times ``REF_NOMINAL_S`` over the median kernel time within
    ``REF_WINDOW_S`` of it.
    """

    def __init__(self):
        import scipy.signal

        rng = np.random.default_rng(0)
        self._lfilter = scipy.signal.lfilter
        self._x = self._lfilter([1.0], [1.0, -1.6, 0.81], rng.normal(size=1000))
        self._angles = 0.4 + 2.0 * np.pi * np.arange(16) / 16
        self._lines = [",".join(f"{v:.17g}" for v in row) for row in rng.normal(size=(6, 59))]
        self._points = rng.normal(size=(64, 33))
        self._centroids = rng.normal(size=(64, 33))
        self.starts = []  # samples, perf_counter seconds, ascending
        self.ends = []
        self.took = []  # the timed kernel run of each sample, seconds
        self._running = False
        self._kernel()  # warm, untimed

    def _kernel(self) -> float:
        lam = 0.2
        f = self._x.astype(complex)
        b = f.copy()
        a = np.ones(1, dtype=complex)
        for _ in range(16):
            u = b[:-1] - lam * b[1:]
            b_hat = self._lfilter([1.0], [1.0, -lam], u)
            f_hat = f[1:]
            k = -2.0 * np.vdot(b_hat, f_hat) / (
                np.vdot(f_hat, f_hat).real + np.vdot(b_hat, b_hat).real
            )
            f = f_hat + k * b_hat
            b = b_hat + np.conj(k) * f_hat
            padded = np.append(a, 0.0)
            a = padded + k * np.conj(padded[::-1])
        roots = 0.9 * np.exp(1j * self._angles)
        for _ in range(8):
            diffs = roots[:, None] - roots[None, :]
            np.fill_diagonal(diffs, 1.0)
            roots = roots - np.polyval(a, roots) / diffs.prod(axis=1)
        s = sum(sum(float(v) for v in line.split(",")) for line in self._lines)
        d = ((self._points[:, None, :] - self._centroids[None]) ** 2).sum(axis=2)
        return s + float(d.min(axis=1).sum()) + float(np.abs(roots).sum())

    def reference(self, *_) -> None:
        """Take one sample; also the interval timer's signal handler.

        The kernel runs twice and the second, warm run is timed: a single
        run after the workload has filled the caches varies more from one
        process to the next than the workload does.
        """
        if self._running:
            return
        self._running = True
        first = time.perf_counter()
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.starts.append(first)
        self.ends.append(end)
        self.took.append(end - start)
        self._running = False

    def sample(self, on: bool) -> None:
        """Start or stop running the kernel every ``REF_PERIOD_S``."""
        if on:
            signal.signal(signal.SIGALRM, self.reference)
            signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def net(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] less the samples taken inside it."""
        inside = range(bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end))
        return end - start - sum(self.ends[i] - self.starts[i] for i in inside)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]."""
        near = self.took[
            bisect.bisect_left(self.ends, start - REF_WINDOW_S) :
            bisect.bisect_right(self.starts, end + REF_WINDOW_S)
        ]
        return self.net(start, end) * REF_NOMINAL_S / statistics.median(near or self.took)

    def factor(self) -> float:
        """Median kernel time over its time on the baseline machine."""
        return statistics.median(self.took) / REF_NOMINAL_S


class Run:
    """Inputs, operation counts, timings and check results of one child.

    Timings are kept as wall intervals and turned into reference seconds
    once the child has run all its passes.
    """

    def __init__(self, spec: dict, work: Path, out: Path, clock: Clock):
        self.spec = spec
        self.work = work
        self.out = out
        self.clock = clock
        self.attempted = 0
        self.refused = 0
        self.failures = []
        self.stages = {}  # stage -> {"items": n, "intervals": [one per pass]}
        self.encode = []  # one list per pass of intervals; None where refused
        self.decode = []
        self.roundtrips = [0, 0]  # recovered, attempted
        self.roundtrip = False  # refit the realizations of the first pass
        self.digests = {}
        self.inertia_per_window = None
        self.setup_extra = []  # intervals of work a workload counts as set-up

    def op(self, function, *args):
        """Run one single encode or decode; return (result or None if refused, interval)."""
        from lipcot import LipcotError

        self.attempted += 1
        start = time.perf_counter()
        try:
            result = function(*args)
        except LipcotError:
            self.refused += 1
            return None, (start, time.perf_counter())
        return result, (start, time.perf_counter())

    def stage_op(self, function, *args, **kwargs):
        """Run one CLI command or library stage; return (result, interval).

        The workload cannot go on without the result, so a refusal ends the
        repetition with its traceback.
        """
        self.attempted += 1
        start = time.perf_counter()
        result = function(*args, **kwargs)
        return result, (start, time.perf_counter())

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def stage(self, name: str, intervals: list, items: int) -> None:
        """Record one pass of a stage made of the given wall intervals."""
        entry = self.stages.setdefault(name, {"items": items, "intervals": []})
        entry["intervals"].append(intervals)

    def seconds(self, intervals) -> float:
        return sum(self.clock.seconds(*interval) for interval in intervals)

    def timings(self) -> dict:
        """Every recorded timing in reference seconds or milliseconds."""

        def ms(passes):
            seconds = self.clock.seconds
            return [[None if iv is None else seconds(*iv) * 1e3 for iv in p] for p in passes]

        return {
            "setup_extra_s": self.seconds(self.setup_extra),
            "stages": {
                name: {"items": e["items"], "seconds": [self.seconds(p) for p in e["intervals"]]}
                for name, e in self.stages.items()
            },
            "encode_ms": ms(self.encode),
            "decode_ms": ms(self.decode),
        }

    def digest(self, key: str, data: bytes) -> None:
        """Record an output's digest; every pass must give the same one."""
        value = hashlib.sha256(data).hexdigest()
        self.check(self.digests.setdefault(key, value) == value, f"{key} differs between passes")


def _encode_window(book, samples, rate):
    from lipcot import codebook, latent, lpc_core

    model = lpc_core.fit_burg_warped(lpc_core.Segment(samples, rate), book.order, book.lam)
    return codebook.encode_vector(book, latent.features(model, book.method))


def _decode_token(book, token, n_samples, rate, seed):
    from lipcot import codebook, lpc_core

    return lpc_core.synthesize(codebook.decode_token(book, token, rate), n_samples, seed).samples


def single_ops(run: Run, books, windows, rate: float, base_seed: int, roundtrip: bool) -> None:
    """Closed loop of single-window encodes, then single-token decodes.

    Operation ``i`` uses codebook ``i % len(books)``; decodes cycle through
    each codebook's tokens in order. With ``roundtrip``, each realization is
    refit and re-encoded outside the timed call; a decode counts as
    recovered when that returns its own token. Refused decodes count as
    misses.
    """
    from lipcot import LipcotError

    n_samples = windows.shape[1]
    encode, decode, tokens, outcomes = [], [], [], []
    for i, samples in enumerate(windows):
        book = books[i % len(books)]
        token, interval = run.op(_encode_window, book, samples, rate)
        encode.append(None if token is None else interval)
        if token is not None:
            run.check(0 <= token < book.k, f"encoded token {token} outside [0, {book.k})")
        tokens.append(token)
    for i in range(len(windows)):
        book = books[i % len(books)]
        token = i // len(books) % book.k
        samples, interval = run.op(_decode_token, book, token, n_samples, rate, base_seed + i)
        decode.append(None if samples is None else interval)
        if samples is None:
            outcomes.append(None)
            continue
        run.check(
            samples.shape == (n_samples,) and bool(np.isfinite(samples).all()),
            f"token {token} decoded to a bad realization",
        )
        if roundtrip:
            try:
                recovered = _encode_window(book, samples, rate) == token
            except LipcotError:
                recovered = False
            run.roundtrips[0] += recovered
            outcomes.append(int(recovered))
    if roundtrip:
        run.roundtrips[1] += len(windows)
        run.digest("single_ops.roundtrips", json.dumps(outcomes).encode())
    refused = [interval is None for interval in decode]
    run.digest("single_ops", json.dumps([tokens, refused]).encode())
    run.encode.append(encode)
    run.decode.append(decode)


def _inertia_per_window(book, vectors) -> float:
    """Mean squared normalized distance of each vector to its nearest centroid."""
    z = book.norm_stats.normalize(np.stack([vec.values for vec in vectors]))
    total = 0.0
    for chunk in np.array_split(z, max(1, len(z) // 256)):
        total += ((chunk[:, None, :] - book.centroids[None]) ** 2).sum(axis=2).min(axis=1).sum()
    return total / len(z)


def cli_eeg(run: Run):
    """CLI train, encode --layout temporal and decode on the 59-channel CSV."""
    from lipcot import cli, codebook

    spec, out = run.spec, run.out
    csv = run.work / spec["csv"]
    book_path, tokens_path, decoded_path = out / "book.json", out / "tokens.txt", out / "decoded.csv"
    data = np.load(run.work / spec["npy"])
    window = int(spec["window_sec"] * spec["rate"])
    n_windows = data.shape[1] // window
    windows = data[:, : n_windows * window].reshape(-1, window)[: spec["latency_ops"]].copy()
    shape = data.shape
    del data
    common = ["--window-sec", str(spec["window_sec"]), "--sample-rate", str(spec["rate"])]
    k = spec["k"]

    def one_pass(index: int) -> None:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status, interval = run.stage_op(cli.main, [
                "train", str(csv), "--out", str(book_path), "--order", str(spec["order"]),
                "--lambda", str(spec["lam"]), "--k", str(k), "--method", spec["method"],
                "--seed", str(spec["seed"]), *common,
            ])
        run.check(status == 0, f"train exited with {status}")
        run.stage("train", [interval], shape[0] * n_windows)

        status, interval = run.stage_op(cli.main, [
            "encode", str(csv), "--codebook", str(book_path), "--out", str(tokens_path),
            "--layout", "temporal", *common,
        ])
        run.check(status == 0, f"encode exited with {status}")
        run.stage("encode", [interval], shape[0] * n_windows)

        status, interval = run.stage_op(cli.main, [
            "decode", str(tokens_path), "--codebook", str(book_path), "--out", str(decoded_path),
            "--seed", str(spec["seed"]), *common,
        ])
        run.check(status == 0, f"decode exited with {status}")
        run.stage("decode", [interval], shape[0] * n_windows * window)

        lines = printed.getvalue().splitlines()
        run.check(lines[:1] == [f"k {k}"] and len(lines) == k + 2, "train printed an unexpected report")
        if index == 0:
            inertia = float(lines[1].split()[1]) if len(lines) > 1 else float("nan")
            run.inertia_per_window = inertia / (shape[0] * n_windows)
        for path in (book_path, tokens_path, decoded_path):
            run.digest(path.name, path.read_bytes())

        book = codebook.load_codebook(book_path)
        single_ops(run, [book], windows, spec["rate"], spec["seed"], run.roundtrip and index == 0)

    return one_pass, lambda: _check_cli_outputs(run, shape, n_windows, window)


def _check_cli_outputs(run, shape, n_windows, window) -> None:
    out, k = run.out, run.spec["k"]
    vocab = (out / "book.json.vocab").read_text().splitlines()
    run.check(len(vocab) == k + 5, f"vocabulary has {len(vocab)} words, want {k + 5}")

    token_lines = (out / "tokens.txt").read_text().splitlines()
    words = [line.split() for line in token_lines]
    run.check(
        len(words) == shape[0] and all(len(w) == n_windows for w in words),
        f"token file is not {shape[0]} lines of {n_windows} tokens",
    )
    run.check(
        all(w.startswith("t") and w[1:].isdigit() and int(w[1:]) < k for line in words for w in line),
        "token file holds words outside t0..t{K-1}",
    )

    # parsed with numpy, not the program's reader, so traced runs see only the workload
    with open(out / "decoded.csv") as fh:
        header = fh.readline().rstrip("\n").split(",")
        decoded = np.loadtxt(fh, delimiter=",", ndmin=2).T
    run.check(
        decoded.shape == (shape[0], n_windows * window) and len(header) == shape[0],
        f"decoded CSV has shape {decoded.shape}",
    )
    run.check(bool(np.isfinite(decoded).all()), "decoded CSV holds non-finite samples")


def scale_k256(run: Run):
    """fit_corpus, best-of-3-seeds train_codebook at K 256, encode_series."""
    from lipcot import LatentMethod, codebook, pipeline

    spec = run.spec
    data = np.load(run.work / spec["npy"])
    series = pipeline.MultichannelSeries(data, spec["rate"], [f"c{i}" for i in range(len(data))])
    window = spec["window"]
    n_windows = len(data) * (data.shape[1] // window)
    windows = data[:, : (data.shape[1] // window) * window].reshape(-1, window)
    windows = windows[: spec["latency_ops"]]
    config = pipeline.TokenizerConfig(
        spec["order"], spec["lam"], window, window, LatentMethod.cepstrum(spec["n_cepstra"])
    )
    final = {}  # the last pass's codebook and token sequences

    def one_pass(index: int) -> None:
        fitted, interval = run.stage_op(pipeline.fit_corpus, [series], config)
        vectors, skipped = fitted
        train = [interval]
        run.check(len(vectors) + skipped == n_windows, "fit_corpus lost windows")
        best = None
        for restart in range(spec["restarts"]):
            book, interval = run.stage_op(
                codebook.train_codebook, vectors, spec["k"],
                spec["seed"] * spec["restarts"] + restart, order=spec["order"], lam=spec["lam"],
            )
            train.append(interval)
            inertia = _inertia_per_window(book, vectors)
            if best is None or inertia < best[0]:
                best = (inertia, book)
        run.inertia_per_window, book = best
        run.stage("train", train, n_windows)

        sequences, interval = run.stage_op(
            pipeline.encode_series, series, book, window, window, "temporal"
        )
        run.stage("encode", [interval], n_windows)
        final.update(book=book, sequences=sequences)
        codebook.save_codebook(book, run.out / "book.json")
        run.digest("book.json", (run.out / "book.json").read_bytes())
        run.digest("tokens", json.dumps([s.tokens for s in sequences]).encode())
        single_ops(run, [book], windows, spec["rate"], spec["seed"], run.roundtrip and index == 0)

    def check() -> None:
        book, sequences = final["book"], final["sequences"]
        run.check(
            len(sequences) == len(data)
            and all(len(s) == data.shape[1] // window for s in sequences),
            "encode_series returned the wrong grid",
        )
        run.check(
            all(0 <= t < book.k for s in sequences for t in s.tokens), "token outside [0, K)"
        )
        run.check(len(codebook.export_vocabulary(book)) == book.k + 5, "vocabulary length")

    return one_pass, check


def dsc_stream(run: Run):
    """Train K 64 DSC codebooks (set-up), then single-window encodes and decodes.

    Set-up fits the corpus once and trains one codebook per k-means seed.
    Spreading the single operations over several codebooks keeps the share
    of non-realizable tokens, which differs from codebook to codebook, from
    swinging the figures from one seed to the next.
    """
    from lipcot import LatentMethod, codebook, pipeline

    spec = run.spec
    train = np.load(run.work / spec["train_npy"])
    stream = np.load(run.work / spec["stream_npy"])
    series = pipeline.MultichannelSeries(train, spec["rate"], [f"c{i}" for i in range(len(train))])
    window = spec["window"]
    config = pipeline.TokenizerConfig(spec["order"], spec["lam"], window, window, LatentMethod.dsc())
    fitted, interval = run.stage_op(pipeline.fit_corpus, [series], config)
    vectors, skipped = fitted
    books, train = [], [interval]
    for c in range(spec["codebooks"]):
        book, interval = run.stage_op(
            codebook.train_codebook, vectors, spec["k"], spec["seed"] * spec["codebooks"] + c,
            order=spec["order"], lam=spec["lam"],
        )
        books.append(book)
        train.append(interval)
    run.setup_extra = train
    run.stage("train", train, len(vectors) + skipped)
    run.inertia_per_window = float(np.mean([_inertia_per_window(b, vectors) for b in books]))
    for c, book in enumerate(books):
        codebook.save_codebook(book, run.out / f"book{c}.json")
        run.digest(f"book{c}.json", (run.out / f"book{c}.json").read_bytes())

    def one_pass(index: int) -> None:
        single_ops(run, books, stream, spec["rate"], spec["seed"], run.roundtrip and index == 0)

    def check() -> None:
        for book in books:
            run.check(len(codebook.export_vocabulary(book)) == book.k + 5, "vocabulary length")

    return one_pass, check


WORKLOADS = {"cli-eeg": cli_eeg, "scale-k256": scale_k256, "dsc-stream": dsc_stream}


def main() -> int:
    spec_path, out, mode = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
    deadline, roundtrip = float(sys.argv[4]), sys.argv[5] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import lipcot.cli  # noqa: F401  -- the import every command pays

    setup = (start, time.perf_counter())
    if Path(lipcot.__file__).resolve().parent != ROOT / "src" / "lipcot":
        raise SystemExit(f"imported lipcot from {lipcot.__file__}, not from this checkout")

    global np
    import numpy as np

    clock = Clock()
    for _ in range(REF_BURST):
        clock.reference()
    tracer = None
    if mode != "off":
        import tracing

        tracer = tracing.Tracer(alloc=mode == "alloc")
        tracer.install()

    spec = json.loads(spec_path.read_text())
    run = Run(spec, spec_path.parent, out, clock)
    run.roundtrip = roundtrip
    # the kernel would add its own allocations to the tracemalloc peaks
    clock.sample(mode != "alloc")
    begin = time.perf_counter()
    one_pass, check_outputs = WORKLOADS[spec["workload"]](run)
    passes, longest = 0, 0.0
    while True:
        pass_start = time.monotonic()
        one_pass(passes)
        passes += 1
        longest = max(longest, time.monotonic() - pass_start)
        if passes == 1:
            # the traced figures and the overhead compare set-up plus one pass
            first = (begin, time.perf_counter())
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            threads = _thread_count()
        if tracer is not None or time.monotonic() + longest > deadline:
            break
    clock.sample(False)
    check_outputs()

    timings = run.timings()
    result = {
        "mode": mode,
        "passes": passes,
        "setup_s": clock.seconds(*setup) + timings.pop("setup_extra_s"),
        "wall_s": clock.seconds(*first),
        "machine_factor": clock.factor(),
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "attempted": run.attempted,
        "refused": run.refused,
        "failures": run.failures,
        "op_samples": spec.get("window", int(spec.get("window_sec", 0) * spec["rate"])),
        "roundtrips": run.roundtrips,
        "inertia_per_window": run.inertia_per_window,
        "digests": run.digests,
        **timings,
    }
    if tracer is not None:
        tracer.write(out / "spans.json")
        # one scale for the whole child, so that self times never go negative
        factor = clock.factor()
        result["layers"] = tracer.metrics(lambda start, end: clock.net(start, end) / factor)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
