"""Exception hierarchy shared by all isotree modules, and the site caps."""

from __future__ import annotations

# The site caps of the exhaustive scans, above which they raise
# SizeLimitError; here so that the CLI reads them without those modules.
DEFAULT_ENUMERATION_CAP = 16  # mono's bipartition scans
DEFAULT_ORACLE_CAP = 14  # the brute-force oracle


class IsoTreeError(Exception):
    """Base class for every error raised by this package."""


class InvalidRegionError(IsoTreeError):
    """A region references a site that does not belong to the graph."""


class SizeLimitError(IsoTreeError):
    """An exhaustive operation was asked to run above its site cap."""


class PreconditionError(IsoTreeError):
    """A documented operation precondition does not hold (e.g. disconnected input)."""


class InconsistentZoneError(IsoTreeError):
    """A zone signature class carries more than one scalar value."""


class NotATreeError(IsoTreeError):
    """A cut set does not induce a free tree of zones."""


class MissingReferenceError(IsoTreeError):
    """The reference site of a tree is not covered by any of its zones."""


class NotAnLCutError(IsoTreeError):
    """The given cut does not satisfy the level-cut inequality."""


class InternalInconsistencyError(IsoTreeError):
    """An internal structure reached a state the algorithms should never produce."""


class InvariantViolationError(IsoTreeError):
    """A structural invariant that is asserted at runtime failed to hold."""


class ParseError(IsoTreeError):
    """Malformed input bytes (JSON syntax, PGM header/payload)."""


class ValidationError(IsoTreeError):
    """Well-formed input that violates a document-level rule."""
