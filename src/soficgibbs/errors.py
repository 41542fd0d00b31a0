"""Exception types shared across the library."""


class SoficGibbsError(Exception):
    """Base class for all library errors."""


class EmptyShiftError(SoficGibbsError):
    """An operation required a nonempty shift."""


class ReducibleShiftError(SoficGibbsError):
    """An operation required an irreducible shift."""


class EnumerationCapError(SoficGibbsError):
    """A word or state enumeration exceeded its configured cap."""

    def __init__(self, count, cap):
        super().__init__(f"enumeration too large: {count} items exceeds cap {cap}")
        self.count = count
        self.cap = cap


class NotFiniteToOneError(SoficGibbsError):
    """The degree of an infinite-to-one code was requested."""


class NotInLanguageError(SoficGibbsError):
    """A word lies outside the language of the shift at hand."""


class InsufficientContextError(SoficGibbsError):
    """A cocycle or ratio test was given no context length, or contexts
    shorter than the potential window requires for exactness."""


class NoExchangeableContextError(SoficGibbsError):
    """A word pair admits no valid exchange context at a requested length."""


class ConvergenceError(SoficGibbsError):
    """An iterative solver failed to reach its tolerance."""


class SpecFileError(SoficGibbsError):
    """A shift description file failed to parse or validate."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
