"""Exception types shared across the package."""


class SurvnetError(Exception):
    """Base class for all survnet errors."""


class ValidationError(SurvnetError):
    """Input violates a contract: bad value, bad shape, bad configuration."""


class SchemaError(ValidationError):
    """A required column, field or file section is missing or malformed."""


class NumericalError(SurvnetError):
    """A numerical failure, such as a non-finite loss during training."""


class MetricUndefinedError(SurvnetError):
    """The requested metric has no defined value on the given input."""
