"""Exception hierarchy shared across the package."""


class PolygonalityError(Exception):
    """Base class for all errors raised by this package."""


class WordParseError(PolygonalityError):
    """Malformed word expression, unknown symbol, or generator out of rank."""


class TrivialWordError(PolygonalityError):
    """Cyclic reduction collapsed the word to the empty word."""


class GraphError(PolygonalityError):
    """Structurally invalid graph input (loops, bad connecting maps, ...)."""


class PreconditionError(PolygonalityError):
    """An operation was invoked on input violating its stated preconditions."""


class VerificationError(PolygonalityError):
    """A certificate or internal consistency check failed."""


class PairingError(VerificationError):
    """Side-pairing of the dual polygons could not be completed."""

