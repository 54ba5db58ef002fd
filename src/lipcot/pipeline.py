"""End-to-end passes over multichannel series: segment, fit, encode, decode.

Also owns the CSV format used by the command-line surface; the token-file
format lives in ``cli``.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from . import codebook as cb
from . import latent
from . import lpc_core
from ._util import FieldEquality, atomic_file, whole
from .errors import (
    EmptyCorpusError,
    InvalidArgumentError,
    InvalidWindowError,
    LayoutUnsupportedError,
    LipcotError,
)

LAYOUT_POSITIONS = "positions"  # one sequence per window, one slot per channel
LAYOUT_TEMPORAL = "temporal"  # one sequence per channel, windows in time order
_LAYOUTS = (LAYOUT_POSITIONS, LAYOUT_TEMPORAL)

# Noise-power floor substituted for segments with no usable power at encode
# time, where every window must still map to a token.
DEGENERATE_NOISE_FLOOR = 1e-12

_FIT_CHUNK_SAMPLES = 1 << 15  # window samples per fitted batch; bounds its copies
_CSV_BLOCK_ROWS = 256  # CSV rows rendered per write; bounds the text held at once


@dataclass(frozen=True, eq=False)
class MultichannelSeries(FieldEquality):
    """Rectangular multichannel signal: one row per channel."""

    data: np.ndarray
    sample_rate: float
    channel_names: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidArgumentError("series data must be a non-empty channels-by-samples matrix")
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("series data must be finite")
        names = tuple(str(n) for n in self.channel_names)
        if len(names) != data.shape[0]:
            raise InvalidArgumentError("one channel name per data row required")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "sample_rate", lpc_core.check_rate(self.sample_rate))
        object.__setattr__(self, "channel_names", names)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class TokenizerConfig:
    """Fitting configuration shared by the train and encode passes."""

    order: int
    lam: float
    window: int
    hop: int
    method: latent.LatentMethod

    def __post_init__(self):
        object.__setattr__(self, "window", whole(self.window, "window"))
        object.__setattr__(self, "hop", whole(self.hop, "hop"))
        if self.window < 1:
            raise InvalidWindowError("window must be at least one sample")
        if not 1 <= self.hop <= self.window:
            raise InvalidWindowError("hop must satisfy 1 <= hop <= window")
        object.__setattr__(self, "lam", lpc_core.check_lam(self.lam))
        # checked before any matrix is sized from it
        object.__setattr__(self, "order", lpc_core.check_order(self.order, self.window))


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple
    layout: str

    def __post_init__(self):
        if self.layout not in _LAYOUTS:
            raise InvalidArgumentError(f"unknown layout {self.layout!r}")
        object.__setattr__(self, "tokens", tuple(whole(t, "token") for t in self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


def window_count(n_samples: int, window: int, hop: int) -> int:
    """Number of full windows: floor((N - window)/hop) + 1, or 0 if N < window."""
    if n_samples < window:
        return 0
    return (n_samples - window) // hop + 1


def _fit_cells(series: MultichannelSeries, config: TokenizerConfig):
    """Latent rows of every (channel, window) cell, channel-major.

    Cells are cut from ``series.data`` and fitted and mapped in chunks of at
    most ``_FIT_CHUNK_SAMPLES`` window samples; a chunk may span channels.
    Returns ``(matrix, ok)``; ``ok`` is False, and the row zero, where the
    fit refuses the window as degenerate: constant, or predicted without error.
    """
    per_channel = window_count(series.n_samples, config.window, config.hop)
    cells = series.n_channels * per_channel
    matrix = np.zeros((cells, config.method.dimension(config.order)))
    ok = np.zeros(cells, dtype=bool)
    if not cells:  # no window fits: size nothing from the window
        return matrix, ok
    step = max(1, _FIT_CHUNK_SAMPLES // config.window)
    offsets = np.arange(config.window)
    for start in range(0, cells, step):
        channel, slot = np.divmod(np.arange(start, min(start + step, cells)), per_channel)
        windows = series.data[channel[:, None], slot[:, None] * config.hop + offsets]
        coeffs, noise_power, good = lpc_core.fit_windows(windows, config.order, config.lam)
        ok[start : start + step] = good
        matrix[start : start + step][good] = latent.feature_matrix(
            coeffs[good], noise_power[good], config.method, series.sample_rate
        )
    return matrix, ok


def fit_corpus(series_set, config: TokenizerConfig):
    """Fit one latent row per (series, channel, window), in that order.

    Degenerate segments are skipped; returns ``(corpus, n_skipped)``, with
    ``corpus`` a ``latent.LatentCorpus`` of the rows that were fitted.
    """
    fits = [_fit_cells(series, config) for series in series_set]
    width = config.method.dimension(config.order)
    matrix = np.concatenate([np.empty((0, width))] + [rows[ok] for rows, ok in fits])
    if not len(matrix):
        raise EmptyCorpusError("no latent vectors could be extracted")
    return latent.LatentCorpus(config.method, matrix), sum(ok.size for _, ok in fits) - len(matrix)


def encode_series(
    series: MultichannelSeries,
    codebook: cb.Codebook,
    window: int,
    hop: int,
    layout: str,
):
    """Tokenize every (channel, window) cell and lay the grid out as sequences.

    ``positions`` emits one sequence per window whose slot c holds channel
    c's token; ``temporal`` emits one sequence per channel in time order.
    Encoding is total: degenerate segments (constant, or predicted without
    error) map to the token nearest the zero-signal latent point.
    """
    if layout not in _LAYOUTS:
        raise LayoutUnsupportedError(f"unknown layout {layout!r}")
    config = TokenizerConfig(codebook.order, codebook.lam, window, hop, codebook.method)
    matrix, ok = _fit_cells(series, config)
    zero_signal = np.zeros((1, codebook.order)), [DEGENERATE_NOISE_FLOOR]
    matrix[~ok] = latent.feature_matrix(*zero_signal, codebook.method, series.sample_rate)
    grid = cb.encode_matrix(codebook, matrix).reshape(series.n_channels, -1)
    if layout == LAYOUT_TEMPORAL:
        return [TokenSequence(row, LAYOUT_TEMPORAL) for row in grid.tolist()]
    return [TokenSequence(column, LAYOUT_POSITIONS) for column in grid.T.tolist()]


def decode_sequence(
    seq: TokenSequence,
    codebook: cb.Codebook,
    window: int,
    sample_rate: float,
    seed: int,
) -> np.ndarray:
    """Synthesize one realization per token and concatenate them in order."""
    if seq.layout != LAYOUT_TEMPORAL:
        raise LayoutUnsupportedError(
            "only temporal (per-channel-window) sequences decode to a signal"
        )
    seed = whole(seed, "seed", 0)
    pieces = []
    for index, token in enumerate(seq.tokens):
        model = cb.decode_token(codebook, token, sample_rate)
        pieces.append(lpc_core.synthesize(model, window, seed + index).samples)
    if not pieces:
        return np.zeros(0)
    return np.concatenate(pieces)


def read_series_csv(path):
    """Read (channel_names, data) from a header+rows CSV; data is channels x N."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise LipcotError(f"{path}: missing header row")
            names = [name.strip() for name in header]
            with warnings.catch_warnings():
                # a header-only file is a valid empty series, not a warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except UnicodeDecodeError as exc:
            raise LipcotError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
        except csv.Error as exc:  # only the header is read through csv
            raise LipcotError(f"{path}: unreadable header row ({exc})") from None
        except ValueError:
            rows = None  # a body line that is not numbers
    if rows is not None and rows.shape[0] == 0:
        return names, np.zeros((len(names), 0))
    if rows is None or rows.shape[1] != len(names):
        raise LipcotError(
            f"{path}: expected {len(names)} numbers, one per header column, on every body line"
        )
    if not np.all(np.isfinite(rows)):
        raise LipcotError(f"{path}: non-finite sample value (nan or inf)")
    return names, rows.T


def render_series_csv(stream, channel_names, data: np.ndarray) -> None:
    """Write channels-by-samples data to a text stream, one CSV column per channel.

    Names are quoted as needed; each value is its shortest round-trip ``repr``.
    Rows are rendered ``_CSV_BLOCK_ROWS`` at a time, so the text held at once
    does not grow with the series.
    """
    csv.writer(stream, lineterminator="\n").writerow(channel_names)
    data = np.asarray(data, dtype=float)
    for start in range(0, data.shape[1], _CSV_BLOCK_ROWS):
        block = data[:, start : start + _CSV_BLOCK_ROWS].T.tolist()
        stream.write("".join([",".join(map(repr, row)) + "\n" for row in block]))


def format_series_csv(channel_names, data: np.ndarray) -> str:
    """The text ``render_series_csv`` writes, as one string."""
    text = io.StringIO()
    render_series_csv(text, channel_names, data)
    return text.getvalue()


def write_series_csv(path, channel_names, data: np.ndarray) -> None:
    """Write ``render_series_csv``'s text to ``path``; the old file stays until it is complete."""
    with atomic_file(path) as fh:
        render_series_csv(fh, channel_names, data)
