"""Exception hierarchy.

A value outside its range raises ValidationError, which names the field.
The other classes name failures that no single field causes: constants that
overflow, an intensity too small for a critical radius, degenerate geometry,
unparsable text, failed I/O.
"""


class GgpError(Exception):
    """Base class for all errors raised by this package."""


# -- model parameters ----------------------------------------------------------

class ParameterOverflow(GgpError):
    """Normalization constants of (d, alpha, beta) overflow double precision."""


class IntensityTooSmall(GgpError):
    """Intensity too small for the critical radius to be defined (or R < 1)."""


# -- geometry ------------------------------------------------------------------

class DegenerateInput(GgpError):
    """Point set is affinely dependent; the hull is lower-dimensional."""


class IndexOutOfRange(GgpError, IndexError):
    """Index outside its valid range."""


class OriginOutside(GgpError):
    """The origin is not interior to the polytope."""


# -- rescaling -----------------------------------------------------------------

class OutsideWindow(GgpError):
    """Scaled point lies outside the target window of the scaling map."""


class OutsideSupport(GgpError):
    """Query location outside the spatial hull of the extreme points."""


# -- harness / CLI ---------------------------------------------------------------

class ParseError(GgpError):
    """Configuration text could not be parsed (carries line/column)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(GgpError):
    """Configuration parsed but a field is invalid; names the field."""

    def __init__(self, field, message=""):
        super().__init__(f"{field}: {message}" if message else field)
        self.field = field


class EmptyInput(GgpError):
    """Operation requires a non-empty input."""


class IoError(GgpError):
    """Filesystem failure while writing or reading artifacts."""
