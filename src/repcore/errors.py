"""Exception types shared across the package.

Every domain error raised by the library derives from RepcoreError, so the
CLI can map any of them to a one-line diagnostic and exit code 2.
"""


class RepcoreError(Exception):
    """Base class for all domain errors."""


class EmptyWord(RepcoreError):
    """An operation that needs a non-empty word got an empty one."""


class EmptyPattern(RepcoreError):
    """Occurrence search rejects empty patterns (they would match everywhere)."""


class PatternLongerThanText(RepcoreError):
    """Cyclic search needs the pattern to fit inside one revolution of the text."""


class InvalidWord(RepcoreError):
    """Text input contains symbols outside the lowercase-letter alphabet."""


class InvalidSplit(RepcoreError):
    """A (x, cut1, cut2) split violates its invariants (incl. non-primitive x)."""


class InvalidSpec(RepcoreError):
    """An interrupted-repetition spec violates its exponent invariants."""


class IndexOutOfRange(RepcoreError):
    """Window index outside [0, |W| - |x|]."""


class ClassificationFailure(RepcoreError):
    """A window that does not contain the core failed to match any rotation.

    Unreachable if the model is consistent; raised so tests can gate on it.
    """


class InternalBoundViolation(RepcoreError):
    """lcp + lcs exceeded |x| - 2 for a primitive x.

    Unreachable for genuinely primitive x; signals a primitivity bug.
    """


class InvalidUniverse(RepcoreError):
    """Universe parameters are out of range (alphabet < 2, e-sums < 3, ...)."""


class InvalidLimit(RepcoreError, ValueError):
    """A result limit such as max_violations is below its minimum."""


class UniverseTooLarge(RepcoreError):
    """Estimated verification work exceeds the configured cap."""


class NotApplicable(RepcoreError):
    """The claim does not apply to the given spec's form."""


class WordTooShort(RepcoreError):
    """Input word is too short to contain any interrupted repetition."""


class NonPrimitivePeriod(RepcoreError):
    """Segment scanning needs a primitive period word."""


class TextTooShort(RepcoreError):
    """Text is shorter than one full period."""
