"""Shared exception types."""


class SamplingError(RuntimeError):
    """Random sampling kept hitting degenerate configurations."""


class InconsistencyError(RuntimeError):
    """Two computations that must agree exactly did not (CLI exit code 2)."""


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration, or a secant computation's tables or frames, would exceed the budget."""
