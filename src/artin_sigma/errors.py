"""Exception types and the digit limit shared across the package.

The CLI maps these onto exit codes: ``InputError`` -> 2 (malformed input),
``MathError`` -> 1 (a mathematically invalid request, e.g. an unmet
precondition of a certificate construction).
"""

import sys

MAX_COEFFICIENT_DIGITS = sys.int_info.default_max_str_digits
"""Most decimal digits a number may have in any input (a polynomial's
coefficient or exponent, a character value, an edge label) and in a
printed coefficient.
This is Python's default int-string limit (4300), so every accepted number
converts to and from a string; a longer one is an InputError.  ``laurent``
re-exports it with the bounds it applies before expanding a power."""


class InputError(ValueError):
    """Malformed user input: parse failures, bad graph or character data."""


class MathError(ValueError):
    """A request that is well-formed but mathematically inadmissible."""
