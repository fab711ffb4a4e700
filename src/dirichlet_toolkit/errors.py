"""Exception hierarchy shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ModeMismatchError(ToolkitError, ValueError):
    """Exact and float series were mixed in one operation."""


class NotInvertibleError(ToolkitError, ValueError):
    """Leading coefficient is zero (or below tolerance in float mode)."""


class WindowOverflowError(ToolkitError, ValueError):
    """A monomial corresponds to an integer beyond the prime table bound."""


class TableTooSmallError(ToolkitError, ValueError):
    """The prime table does not cover a required integer or prime index."""


class ProductCeilingError(ToolkitError, OverflowError):
    """A permuted integer image exceeded the configured product ceiling."""


class UnresolvedOrbitError(ToolkitError, ValueError):
    """An orbit could not be certified finite under the search bound."""


class GroupTooLargeError(ToolkitError, ValueError):
    """Group enumeration was requested but exceeds the enumeration cap."""


class BudgetExceededError(ToolkitError, ValueError):
    """A grid evaluation is empty or would exceed the configured point budget."""


class NumericFailureError(ToolkitError, ArithmeticError):
    """A numerical routine produced nonfinite intermediate values."""
