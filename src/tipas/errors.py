"""Exception types shared across the package."""


class TipasError(Exception):
    """Base class for all library errors."""


class InvalidInputError(TipasError, ValueError):
    """Arguments violate a documented precondition (unsorted history, bad shape, ...)."""


class InvalidStateError(TipasError, RuntimeError):
    """An operation was requested in a state where no answer exists."""


class NumericalFailureError(TipasError, ArithmeticError):
    """A numeric routine produced NaN/inf or failed to converge."""


class DegenerateEventError(TipasError, ValueError):
    """An observed event receives zero intensity from every model component."""


class CensoredPredictionError(TipasError, RuntimeError):
    """No event can occur within the prediction span: its survival probability is 1."""


class SimulationOverflowError(TipasError, RuntimeError):
    """A simulation exceeded its event-count cap (explosion guard)."""


class ThinningBoundError(TipasError, RuntimeError):
    """The dominating rate was below the true intensity; always a bug."""


class DataFormatError(TipasError, ValueError):
    """A dataset or model file is malformed."""


class VocabularyError(DataFormatError):
    """A record refers to an action that is not in the model vocabulary."""


class UnsupportedVersionError(DataFormatError):
    """A persisted file declares a schema version this build cannot read."""
