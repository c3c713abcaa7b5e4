"""Exception hierarchy; the class docstrings give each error's exit code."""


class DivControlError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(DivControlError):
    """A documented precondition or API contract was violated (exit code 1)."""


class InvalidInputError(ContractError):
    """Caller passed data an operation cannot accept (non-finite, empty, ...)."""


class ConfigError(ContractError):
    """Bad configuration file or unknown key."""


class CheckpointError(ContractError):
    """Checkpoint file is missing, truncated, corrupt, or from a newer format."""


class NumericError(DivControlError):
    """A numerical procedure failed (exit code 2): NaN loss, SVD breakdown."""
