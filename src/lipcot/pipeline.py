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
from ._util import FieldEquality, atomic_file, shown, whole
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
_MAP_BLOCK_VALUES = 1 << 16  # latent values per mapped block, about one fit chunk's working set
_CSV_BLOCK_ROWS = 256  # CSV rows rendered per write; bounds the text held at once


@dataclass(frozen=True, eq=False)
class MultichannelSeries(FieldEquality):
    """Rectangular multichannel signal: one row per channel."""

    data: np.ndarray
    sample_rate: float
    channel_names: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1:
            raise InvalidArgumentError(
                "series data must be a channels-by-samples matrix of at least one channel"
            )
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
            raise InvalidArgumentError(f"unknown layout {shown(self.layout)}")
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

    Cells are cut from one strided view of ``series.data`` and fitted in
    chunks of at most ``_FIT_CHUNK_SAMPLES`` window samples; a chunk may
    span channels and gathers its windows from the view. A degenerate cell
    (constant, or predicted without error) takes the zero-signal model, zero
    coefficients at ``DEGENERATE_NOISE_FLOOR``. Every cell is then mapped in
    blocks of about ``_MAP_BLOCK_VALUES`` values, DSC counting each row's
    order x order companion matrix, so no working set grows with the series.
    Returns ``(matrix, ok)``; ``ok`` is False where the row is that point.
    """
    per_channel = window_count(series.n_samples, config.window, config.hop)
    cells = series.n_channels * per_channel
    matrix, ok = np.empty((cells, config.method.dimension(config.order))), np.empty(cells, bool)
    if not cells:  # no window fits: size nothing from the window
        return matrix, ok
    coeffs, noise_power = np.empty((cells, config.order)), np.empty(cells)
    views = np.lib.stride_tricks.sliding_window_view(series.data, config.window, axis=1)
    views = views[:, :: config.hop]
    step = max(1, _FIT_CHUNK_SAMPLES // config.window)
    for start in range(0, cells, step):
        chunk = slice(start, start + step)
        channel, slot = np.divmod(np.arange(start, min(start + step, cells)), per_channel)
        coeffs[chunk], noise_power[chunk], ok[chunk] = lpc_core.fit_windows(
            views[channel, slot], config.order, config.lam
        )
    coeffs[~ok], noise_power[~ok] = 0.0, DEGENERATE_NOISE_FLOOR
    per_row = matrix.shape[1] + (config.order**2 if config.method.tag == latent.TAG_DSC else 0)
    block = max(1, _MAP_BLOCK_VALUES // per_row)
    for start in range(0, cells, block):
        rows = slice(start, start + block)
        matrix[rows] = latent.feature_matrix(
            coeffs[rows], noise_power[rows], config.method, series.sample_rate
        )
    return matrix, ok


def fit_corpus(series_set, config: TokenizerConfig):
    """Fit one latent row per (series, channel, window), in that order.

    Iterates ``series_set`` once, keeping only fitted rows: degenerate segments
    are skipped. Returns ``(corpus, n_skipped)``, ``corpus`` a ``LatentCorpus``.
    """
    kept, cells = [np.empty((0, config.method.dimension(config.order)))], 0
    for series in series_set:
        rows, ok = _fit_cells(series, config)
        rows, cells = rows[ok], cells + ok.size  # frees the full cells matrix here
        kept.append(rows)
    matrix = np.concatenate(kept)
    if not len(matrix):
        raise EmptyCorpusError("no latent vectors could be extracted")
    return latent.LatentCorpus(config.method, matrix), cells - len(matrix)


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
        raise LayoutUnsupportedError(f"unknown layout {shown(layout)}")
    config = TokenizerConfig(codebook.order, codebook.lam, window, hop, codebook.method)
    matrix, _ = _fit_cells(series, config)
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
    """Synthesize one ``window``-sample realization per token into one signal, in order."""
    if seq.layout != LAYOUT_TEMPORAL:
        raise LayoutUnsupportedError(
            "only temporal (per-channel-window) sequences decode to a signal"
        )
    window, seed = whole(window, "window", 2), whole(seed, "seed", 0)
    sample_rate = lpc_core.check_rate(sample_rate)
    signal = np.empty(len(seq) * window)
    for index, token in enumerate(seq.tokens):
        model = cb.decode_token(codebook, token, sample_rate)
        start = index * window
        signal[start : start + window] = lpc_core.synthesize(model, window, seed + index).samples
    return signal


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
