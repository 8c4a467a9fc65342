"""Exception types shared across the toolkit."""


class AoiError(Exception):
    """Base class for all toolkit errors."""


class RangeError(AoiError, ValueError):
    """A time value falls outside the valid window, or a shift would
    move a stamp below 0 or past 2**63 - 1 ns."""


class InsufficientDataError(AoiError):
    """The trace does not carry enough deliveries for the requested
    statistic (fewer than two after obsolete filtering)."""


class ConfigError(AoiError, ValueError):
    """Invalid configuration value (bad penalty kind, rate <= 0, ...)."""


class NotReadyError(AoiError):
    """A policy was queried before its estimators were initialized."""


class TraceFormatError(AoiError):
    """A trace CSV file is malformed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedPacketError(AoiError):
    """A datagram could not be decoded as a wire packet."""
