"""Exception types shared across the engine."""


class PanelcastError(Exception):
    """Base class for engine errors."""


class DataError(PanelcastError):
    """Invalid input data (bad JSONL, schema violations, misalignment)."""


class ConfigError(PanelcastError):
    """Invalid configuration or incompatible shapes/kinds."""


class DivergenceError(PanelcastError):
    """Training aborted because the loss stopped being finite."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class MetricError(PanelcastError):
    """A metric is undefined for the given inputs (e.g. zero denominator)."""
