"""Exception types shared across the package."""


class QuasimeasureError(Exception):
    """Base class for all errors raised by this package."""


class FrameError(QuasimeasureError):
    """A construction touches or escapes the frame boundary."""


class FrameMismatchError(QuasimeasureError):
    """Two objects that must share a frame do not."""


class GeometryError(QuasimeasureError):
    """Degenerate or infeasible geometry (empty outer set, ramp too wide, ...)."""


class DomainError(QuasimeasureError):
    """A value lies outside the domain an operation requires."""


class TieBreakError(QuasimeasureError):
    """A marked point sits within tie epsilon of a gridline, so its cell is ambiguous."""


class InfiniteMeasureError(QuasimeasureError):
    """An operation requiring finite total mass was given an infinite measure."""


class VariantError(QuasimeasureError):
    """The measure variant is not supported by this operation."""


class ConfigError(QuasimeasureError):
    """A scenario file is malformed or references unknown names."""
