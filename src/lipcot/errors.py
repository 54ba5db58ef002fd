"""Exception types raised across the tokenizer."""


class LipcotError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(LipcotError, ValueError):
    """An argument breaks its rule: a wrong type, or a value out of range."""


class DegenerateInputError(LipcotError):
    """Signal has no usable power (for example a constant segment)."""


class InvalidOrderError(InvalidArgumentError):
    """Model order is not a positive integer below the segment length."""


class InvalidLambdaError(InvalidArgumentError):
    """Warping coefficient outside the open interval (-1, 1)."""


class NonConvergenceError(LipcotError):
    """Root finding (companion-matrix eigenvalues) failed to converge."""


class FrequencyOutOfRangeError(LipcotError):
    """Requested frequency beyond the Nyquist band."""


class UnstableModelError(LipcotError):
    """Model has poles outside the closed unit disk."""


class ZeroNoisePowerError(LipcotError):
    """log(sigma^2) undefined for zero prediction-error power."""


class InsufficientCoefficientsError(LipcotError):
    """Too few cepstrum coefficients to invert to the requested order."""


class DimensionMismatchError(LipcotError):
    """Latent vectors or codebook entries disagree in method or dimension."""


class NonRealizableError(LipcotError):
    """Latent point does not correspond to a real-coefficient model."""


class TooFewVectorsError(LipcotError):
    """Not enough distinct training vectors for the requested cluster count."""


class ConfigMismatchError(LipcotError):
    """Requested configuration disagrees with the codebook's configuration."""


class EmptyCorpusError(LipcotError):
    """No latent vectors could be extracted from the corpus."""


class InvalidWindowError(InvalidArgumentError):
    """Bad window/hop combination for segmentation."""


class LayoutUnsupportedError(LipcotError):
    """Operation does not support this token-sequence layout."""


class UnknownWordError(LipcotError):
    """Token word not present in the vocabulary."""


class InvalidTokenError(InvalidArgumentError):
    """Token id outside the codebook range."""
