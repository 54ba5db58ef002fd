"""End-to-end passes over multichannel series: segment, fit, encode, decode.

Also owns the CSV and token-file formats used by the command-line surface.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import codebook as cb
from . import latent
from . import lpc_core
from .errors import (
    DegenerateInputError,
    EmptyCorpusError,
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


@dataclass(frozen=True)
class MultichannelSeries:
    """Rectangular multichannel signal: one row per channel."""

    data: np.ndarray
    sample_rate: float
    channel_names: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("series data must be a non-empty channels-by-samples matrix")
        if not np.all(np.isfinite(data)):
            raise ValueError("series data must be finite")
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        names = tuple(str(n) for n in self.channel_names)
        if len(names) != data.shape[0]:
            raise ValueError("one channel name per data row required")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
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
        if int(self.window) < 1:
            raise InvalidWindowError("window must be at least one sample")
        if not 1 <= int(self.hop) <= int(self.window):
            raise InvalidWindowError("hop must satisfy 1 <= hop <= window")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "hop", int(self.hop))


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple
    layout: str

    def __post_init__(self):
        if self.layout not in _LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


def window_count(n_samples: int, window: int, hop: int) -> int:
    """Number of full windows: floor((N - window)/hop) + 1, or 0 if N < window."""
    if n_samples < window:
        return 0
    return (n_samples - window) // hop + 1


def segment_series(samples, window: int, hop: int, sample_rate: float):
    """Split samples into fixed windows starting at 0, hop, 2*hop, ...

    A trailing remainder shorter than the window is dropped.
    """
    window = int(window)
    hop = int(hop)
    if window < 1:
        raise InvalidWindowError("window must be at least one sample")
    if not 1 <= hop <= window:
        raise InvalidWindowError("hop must satisfy 1 <= hop <= window")
    samples = np.asarray(samples, dtype=float)
    count = window_count(samples.size, window, hop)
    return [
        lpc_core.Segment(samples[i * hop : i * hop + window], sample_rate)
        for i in range(count)
    ]


def _fit_cells(series: MultichannelSeries, config: TokenizerConfig) -> list:
    """Latent vector of every (channel, window) cell, channel by channel.

    A cell is None where the fit refuses the window as degenerate: constant,
    or predicted without error.
    """
    cells = []
    for samples in series.data:
        for segment in segment_series(samples, config.window, config.hop, series.sample_rate):
            try:
                model = lpc_core.fit_burg_warped(segment, config.order, config.lam)
            except DegenerateInputError:
                cells.append(None)
                continue
            cells.append(latent.features(model, config.method))
    return cells


def fit_corpus(series_set, config: TokenizerConfig):
    """Fit one latent vector per (series, channel, window), in that order.

    Degenerate segments are skipped; returns ``(vectors, n_skipped)``.
    """
    cells = [vec for series in series_set for vec in _fit_cells(series, config)]
    vectors = [vec for vec in cells if vec is not None]
    if not vectors:
        raise EmptyCorpusError("no latent vectors could be extracted")
    return vectors, len(cells) - len(vectors)


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
    zero_signal = lpc_core.LpcModel(
        codebook.order, np.zeros(codebook.order), DEGENERATE_NOISE_FLOOR, codebook.lam,
        series.sample_rate,
    )
    fallback = latent.features(zero_signal, codebook.method)
    cells = [fallback if vec is None else vec for vec in _fit_cells(series, config)]
    grid = cb.encode_vectors(codebook, cells).reshape(series.n_channels, -1)
    if layout == LAYOUT_TEMPORAL:
        return [TokenSequence(row, LAYOUT_TEMPORAL) for row in grid]
    return [TokenSequence(column, LAYOUT_POSITIONS) for column in grid.T]


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
    window = int(window)
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
        header = next(csv.reader(fh), None)
        if header is None:
            raise LipcotError(f"{path}: missing header row")
        names = [name.strip() for name in header]
        try:
            with warnings.catch_warnings():
                # a header-only file is a valid empty series, not a warning
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError as exc:
            raise LipcotError(f"{path}: {exc}") from None
    if rows.shape[0] == 0:
        return names, np.zeros((len(names), 0))
    if rows.shape[1] != len(names):
        raise LipcotError(f"{path}: rows disagree with the header column count")
    if not np.all(np.isfinite(rows)):
        raise LipcotError(f"{path}: non-finite sample value (nan or inf)")
    return names, rows.T


def format_series_csv(channel_names, data: np.ndarray) -> str:
    """Render channels-by-samples data as one CSV column per channel."""
    rows = (",".join(map(repr, row)) for row in np.asarray(data, dtype=float).T.tolist())
    return "\n".join([",".join(channel_names), *rows]) + "\n"
