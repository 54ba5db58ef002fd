"""Stochastic time-series tokenization via frequency-warped LPC."""

from .codebook import (
    Codebook,
    NormStats,
    decode_token,
    encode_vector,
    export_vocabulary,
    load_codebook,
    save_codebook,
    train_codebook,
)
from .errors import LipcotError
from .latent import (
    LatentCorpus,
    LatentMethod,
    LatentVector,
    cepstrum_to_lpc,
    features,
    features_cepstrum,
    features_dsc,
    features_lpc_coeff,
    latent_to_model,
)
from .lpc_core import (
    LpcModel,
    PoleSet,
    Segment,
    fit_burg_warped,
    poles,
    power_spectrum,
    synthesize,
    to_conventional_tf,
    warp_frequency,
)
from .pipeline import (
    MultichannelSeries,
    TokenizerConfig,
    TokenSequence,
    decode_sequence,
    encode_series,
    fit_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "LatentCorpus",
    "LatentMethod",
    "LatentVector",
    "LipcotError",
    "LpcModel",
    "MultichannelSeries",
    "NormStats",
    "PoleSet",
    "Segment",
    "TokenSequence",
    "TokenizerConfig",
    "cepstrum_to_lpc",
    "decode_sequence",
    "decode_token",
    "encode_series",
    "encode_vector",
    "export_vocabulary",
    "features",
    "features_cepstrum",
    "features_dsc",
    "features_lpc_coeff",
    "fit_burg_warped",
    "fit_corpus",
    "latent_to_model",
    "load_codebook",
    "poles",
    "power_spectrum",
    "save_codebook",
    "synthesize",
    "to_conventional_tf",
    "train_codebook",
    "warp_frequency",
]
