"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract.

    ``sample`` is the 0-based index of the offending dataset sample, if any.
    """

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


class DatasetFormatError(ValidationError):
    """A dataset file could not be parsed; carries the offending 0-based line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ArtifactError(ValidationError):
    """A reweighting-artifact file is missing, corrupt, or incompatible."""
