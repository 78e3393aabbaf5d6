"""Exception types raised across the package."""


class FilterSummaryError(Exception):
    """Base class for all fsconv errors."""


class InvalidRatioError(FilterSummaryError, ValueError):
    """Compression ratio below 1, or a summary too short to hold one filter."""


class ShapeMismatchError(FilterSummaryError, ValueError):
    """Array or layer shapes do not agree with the declared geometry."""


class InvalidDtypeError(FilterSummaryError, ValueError):
    """A feature map or summary whose values are not real numbers: complex, string or object."""


class OutOfRangeError(FilterSummaryError, IndexError):
    """Index or location outside its valid box."""


class UnsupportedGeometryError(FilterSummaryError, ValueError):
    """A layer the integral-line engine does not run: a stride off a multiple of c_in."""


class EmptyInputError(FilterSummaryError, ValueError):
    """Quantization of an empty weight vector."""


class InvalidGridError(FilterSummaryError, ValueError):
    """Unusable quantization grid: an unsupported bit width, endpoints not finite
    or with w_max below w_min, weights not finite, or codes above the top level."""


class FSTooShortError(FilterSummaryError, ValueError):
    """Summary too short for a fractional filter location (needs length > K+1)."""


class FormatError(FilterSummaryError, ValueError):
    """Malformed model or architecture file."""


class InvalidArgumentError(FilterSummaryError, ValueError):
    """Command-line option or engine name outside its valid range."""


class NonDifferentiableWarning(UserWarning):
    """A fractional location landed exactly on an integer; the one-sided
    (right-hand) derivative is returned."""
