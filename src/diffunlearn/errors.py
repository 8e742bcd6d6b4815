"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class DomainError(ValueError):
    """A value is outside the operation's valid domain."""


class DegenerateGradientError(ValueError):
    """Both gradients vanish; no descent direction can be formed."""


class ConfigError(ValueError):
    """A configuration document is malformed; the message names the field."""


class CheckpointError(ValueError):
    """A checkpoint file cannot be interpreted."""


class TrainingDiverged(RuntimeError):
    """Training or unlearning produced a non-finite loss or parameter."""


class SamplingDiverged(RuntimeError):
    """The reverse process produced a non-finite sample."""
