"""Exception types shared across the package."""


class TiergaeError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(TiergaeError, ValueError):
    pass


class IndexOutOfRangeError(TiergaeError, ValueError):
    pass


class DuplicateEdgeError(TiergaeError, ValueError):
    pass


class AsymmetricEdgeError(TiergaeError, ValueError):
    """An edge without its reverse, or with other features than its reverse."""


class DomainError(TiergaeError, ValueError):
    """Math-domain violation, e.g. a training epoch whose loss is not finite."""


class NonScalarLossError(TiergaeError, ValueError):
    pass


class EmptyGroupError(TiergaeError, ValueError):
    pass


class IncompleteCoverError(TiergaeError, ValueError):
    pass


class SdfError(TiergaeError, ValueError):
    """Base class for SDF / CTfile parse failures."""


class MalformedCountsLineError(SdfError):
    pass


class TruncatedBlockError(SdfError):
    pass


class V3000UnsupportedError(SdfError):
    pass


class InvalidBondError(SdfError):
    pass


class FetchError(TiergaeError):
    """Base class for record-download failures."""


class NotFoundError(FetchError):
    pass


class TransportError(FetchError):
    pass


class ConfigError(TiergaeError, ValueError):
    pass


class CliError(TiergaeError):
    """Fatal command-line failure; message is user-facing."""


class WorkerError(TiergaeError):
    """A forked worker process ended without reporting how (a signal, OOM)."""
