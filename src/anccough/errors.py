"""Exception classes shared across the package."""


class AnccoughError(Exception):
    """Base class for all package errors."""


# --- audio file I/O ---

class MalformedHeader(AnccoughError):
    """File is not a parseable RIFF/WAVE container."""


class NotStereo(AnccoughError):
    """WAV file does not carry exactly two channels."""


class UnsupportedEncoding(AnccoughError):
    """WAV sample encoding is not 16-bit PCM or 32-bit IEEE float."""


class UnsupportedRate(AnccoughError):
    """Sample rate outside the supported set."""


class NonFiniteSamples(AnccoughError, ValueError):
    """Audio file holds a NaN or infinite sample."""


# --- signal path ---

class NonIntegerFactor(AnccoughError):
    """Target rate does not divide the source rate."""


class ShapeMismatch(AnccoughError):
    """Array shapes or rates do not line up."""


# --- augmentation ---

class ShiftTooLarge(AnccoughError):
    """Requested time shift exceeds the allowed range."""


class FractionOutOfRange(AnccoughError):
    """Masking fraction outside [0, 0.10]."""


class SilentInput(AnccoughError):
    """Operation needs nonzero signal energy."""


class EmptyNoisePool(AnccoughError):
    """Background mixing enabled but the noise pool is empty."""


# --- dataset generation ---

class IoFailure(AnccoughError):
    """Filesystem write or read failed during dataset generation."""


class MalformedDatasetFile(AnccoughError, ValueError):
    """Manifest or annotation file cannot be parsed, or lacks or mistypes a field."""


# --- model serialization ---

class BadMagic(AnccoughError):
    """Model file does not start with the expected magic bytes."""


class CrcMismatch(AnccoughError):
    """Model file checksum does not match its contents."""


class TruncatedFile(AnccoughError):
    """Model file ends before the declared contents."""


class InvalidSpec(AnccoughError, ValueError):
    """Layer graph breaks the fixed topology, has a size below 1, or shrinks an
    activation to length 0."""


class UnsupportedVersion(AnccoughError, ValueError):
    """Model file declares a format version this reader does not know."""


class NonFiniteWeights(AnccoughError, ValueError):
    """Model file holds a NaN or infinite weight or bias."""


# --- training / evaluation ---

class OverlappingUserSets(AnccoughError):
    """A user id appears in more than one split."""


class InvalidSplit(AnccoughError, ValueError):
    """A split needs more users than the manifest holds, or names one it lacks."""


class InvalidTrainConfig(AnccoughError, ValueError):
    """A training setting is out of range: an epoch, patience or batch count
    below 1, or an unknown optimizer."""


class SingleClassTrainingSet(AnccoughError):
    """Training set does not contain both classes."""


class NonFiniteLoss(AnccoughError):
    """Training loss became NaN or infinite."""


class EmptyTestSet(AnccoughError):
    """Evaluation requires at least one labeled window."""


# --- streaming ---

class RateMismatch(AnccoughError):
    """Recording rate does not match the model's expected rate."""


class OutOfOrderWindow(AnccoughError):
    """Streaming windows must arrive back-to-back in time order."""
