"""Exception types shared across the package."""


class SchedulingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SchedulingError):
    """An instance failed structural validation."""

    def __init__(self, findings):
        self.findings = tuple(findings)
        super().__init__("; ".join(self.findings))


class CycleError(ValidationError):
    """The precedence relation contains a cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__([f"precedence cycle: {' -> '.join(map(str, self.cycle))}"])


class LpIterationLimitError(SchedulingError):
    """The cutting-plane loop hit its iteration cap with a cut still violated."""

    def __init__(self, message, cut):
        self.cut = cut
        super().__init__(message)


class InvariantViolationError(SchedulingError):
    """An internal invariant that should always hold was broken (a bug)."""
