"""Exception hierarchy shared by all diskflow modules.

Every numerical failure mode carries a short machine-readable ``code`` so
the CLI can emit structured error reports.
"""


class DiskflowError(Exception):
    """Base class; ``code`` identifies the failure mode."""

    code = "error"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class PoleAtOneError(DiskflowError):
    code = "pole-at-one"


class NotInDiskError(DiskflowError):
    code = "not-in-disk"


class ExpressionSyntaxError(DiskflowError):
    code = "syntax-error"

    def __init__(self, message, position):
        super().__init__(message, position=position)
        self.position = position


class SingularEvaluationError(DiskflowError):
    code = "singular-evaluation"


class GridUnreliableError(DiskflowError):
    code = "grid-unreliable"


class StiffFailureError(DiskflowError):
    code = "stiff-failure"

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class InversionFailureError(DiskflowError):
    code = "inversion-failure"

    def __init__(self, message, last_iterate=None, target=None):
        super().__init__(message, last_iterate=last_iterate, target=target)
        self.last_iterate = last_iterate
        self.target = target


class NotInClassError(DiskflowError):
    code = "not-in-class"


class NotContainedError(DiskflowError):
    code = "not-contained"

    def __init__(self, message, witness=None):
        super().__init__(message, witness=witness)
        self.witness = witness


class StripNotContainedError(DiskflowError):
    code = "strip-not-contained"


class CornerUndeterminedError(DiskflowError):
    code = "corner-undetermined"


class UnknownCatalogIdError(DiskflowError):
    code = "unknown-catalog-id"
