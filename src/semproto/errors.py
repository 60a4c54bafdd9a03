"""Exception types shared across the package.

Every error raised by library code derives from SemprotoError so callers
(and the CLI exit-code mapper) can distinguish library failures from bugs.
"""


class SemprotoError(Exception):
    """Base class for all semproto errors."""


class DimensionMismatch(SemprotoError):
    """Two vectors or arrays that must share a dimension do not."""


class ZeroNorm(SemprotoError):
    """A vector norm fell below the 1e-12 degeneracy threshold."""


class InvalidEmbedding(SemprotoError):
    """An embedding contains NaN/inf or has the wrong shape."""


class EmptyClassName(SemprotoError):
    """A prompt was requested for an empty class name."""


class ClientUnavailable(SemprotoError):
    """The description/encoding client cannot serve the request."""


class MalformedResponse(SemprotoError):
    """Client or fixture data violates the description contracts."""


class InsufficientDescriptions(SemprotoError):
    """The client produced fewer descriptions than requested."""

    def __init__(self, class_name: str, got: int, wanted: int, kind: str = "states"):
        self.class_name = class_name
        self.got = got
        self.wanted = wanted
        self.kind = kind
        super().__init__(
            f"class '{class_name}': got {got} {kind}, wanted {wanted}"
        )


class EncoderUnavailable(SemprotoError):
    """The text encoder cannot produce an embedding for this input."""


class EmptyStateList(SemprotoError):
    """An aggregator was called with no state embeddings."""


class AllWeightsZero(SemprotoError):
    """Every clamped similarity weight is zero; no aggregate exists."""


class InfeasibleWorld(SemprotoError):
    """A WorldSpec violates its own feasibility invariants."""


class EmptyProposals(SemprotoError):
    """Weak images carry no proposals to select a pseudo-box from."""


class EmptyTestSet(SemprotoError):
    """Evaluation was requested on an empty test set."""


class DivergenceDetected(SemprotoError):
    """The training loss became non-finite."""


class ConfigError(SemprotoError, ValueError):
    """A config file, override, flag or argument has an unknown key or a
    bad value. Also a ValueError, for callers that catch bad arguments."""
