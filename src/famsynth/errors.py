"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI and the
tests can distinguish failure classes without matching message strings.
"""


class FamsynthError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ModelError(FamsynthError):
    """A family/MDP invariant is violated (row sums, domains, labels, ...)."""

    code = "model"


class FormatError(FamsynthError):
    """Parse error in a ``.fmc`` document or a specification string."""

    code = "syntax"

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, code: str | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(message + where, code=code)
        self.line = line
        self.column = column


class InvalidRealisationError(FamsynthError):
    code = "invalid-realisation"


class InvalidSplitError(FamsynthError):
    code = "invalid-split"


class SizeCapError(FamsynthError):
    """A configured resource cap was exceeded before the analysis started."""

    code = "size-cap"


class NonConvergenceError(FamsynthError):
    """Value iteration hit its iteration cap; carries the last residual."""

    code = "no-convergence"

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UndefinedRewardError(FamsynthError):
    """Expected reward queried where the goal is not reached almost surely."""

    code = "undefined-reward"


class ConsistencyError(FamsynthError):
    code = "inconsistent-scheduler"


class UnsupportedSpecError(FamsynthError):
    code = "unsupported-spec"
