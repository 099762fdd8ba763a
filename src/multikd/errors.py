"""Exception types shared across the package.

Each type declares the exit code the CLI ends with when it stops a
run: a usage problem exits 1, a malformed input file 2, a numerical
failure 3. A StageError takes the code of the failure it wraps; an
OSError, which no type here declares, exits like a FormatError.
"""


class MultiKdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(MultiKdError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(MultiKdError, ValueError):
    """A file on disk does not conform to its declared format."""

    exit_code = 2


class NumericalError(MultiKdError, ArithmeticError):
    """A non-finite value appeared where the math requires finite ones."""

    exit_code = 3


class StageError(MultiKdError, RuntimeError):
    """A pipeline stage failed; the message carries the stage name and the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.exit_code = (FormatError.exit_code if isinstance(cause, OSError)
                          else getattr(cause, "exit_code", MultiKdError.exit_code))
