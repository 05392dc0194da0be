"""Exception types shared across the library."""


class RadlabError(Exception):
    """Base class for all library errors."""


class InvalidCoefficient(RadlabError):
    """Coefficient input is empty, negative, or not an exact number."""


class DimensionError(RadlabError):
    """Dimension mismatch or unsupported dimension."""


class InvalidThreshold(RadlabError):
    """Threshold multiplier out of range (negative, or zero where positive is required)."""


class ZeroNorm(RadlabError):
    """The zero vector, which has no norm, given where a vector is made."""


class NonPositiveEntry(RadlabError):
    """Operation requires entries >= 1."""


class TooLarge(RadlabError):
    """Input past a size rule: a dimension cap, a table budget or a sweep cap."""


class LemmaPreconditionViolated(RadlabError):
    """A documented precondition of a membership rule does not hold."""


class NoWitness(RadlabError):
    """A witness guaranteed by a proven rule was not found.

    This is a falsification event: it can only fire if the implementation
    or the rule itself is wrong, so it must never be swallowed.
    """


class ConjectureFalsified(RadlabError):
    """A search produced a value below a proven floor.

    Carries the offending report in ``args[0]``; treat as a stop-the-world
    event demanding manual inspection.
    """


class SearchInputError(RadlabError, ValueError):
    """A search or hunt cannot run as asked: unknown target or predicate,
    no trials, a checkpoint from another search, or nothing to evaluate.

    Also a ValueError, which is what these inputs raised before.
    """

