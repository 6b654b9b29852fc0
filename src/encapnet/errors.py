"""Error types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class ConfigError(ValueError):
    """A layer or network configuration is inconsistent."""


class DomainError(ValueError):
    """An input lies outside an op's mathematical domain."""


class DataFormatError(ValueError):
    """A file does not follow the expected binary layout."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


class GraphReleased(RuntimeError):
    """A backward pass or graph walk reached a node an earlier backward released."""
