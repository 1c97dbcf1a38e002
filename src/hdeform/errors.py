"""Exception types shared across the package."""


class HdeformError(Exception):
    """Base class for all package errors."""


class CoefficientError(HdeformError):
    """Arithmetic error in the coefficient field (e.g. division by zero)."""


class ParseError(HdeformError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class RelationExtractionError(HdeformError):
    """The relation system could not be solved for an ordered form."""


class UsageError(Exception):
    """Invalid command-line arguments or HDEFORM_* environment settings;
    the CLI reports it in one line and exits 2."""


class ResourceLimitError(HdeformError):
    """A configured memory/size guard was exceeded."""


class RewriteLimitError(HdeformError):
    """Normal ordering does not end: a word rewrites back to itself, or
    more words need a rewrite than ``HDEFORM_MAX_REWRITES`` allows.
    ``word`` is the word on the cycle, or the word that would be
    rewritten beyond the limit."""

    def __init__(self, message, word):
        super().__init__(message)
        self.word = word
