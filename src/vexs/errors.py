"""Exception types shared across the package."""


class VexsError(Exception):
    """Base class for all vexs errors."""


class DomainError(VexsError):
    """Evaluation at a point outside an operation's domain (non-finite
    input, declared singular point, ball outside its interval, p < 1, ...)."""


class DivergenceError(VexsError):
    """A modular or functional is provably or numerically divergent."""


class UnsupportedFieldError(VexsError):
    """The requested operation needs a property the field family lacks
    (e.g. domain truncation for a non-decaying family)."""


class BracketingError(VexsError):
    """Superlevel-set bracketing found more sign changes on a ray's h grid
    than it resolves (over a quarter of its samples); the grid is too
    coarse for this integrand."""


class ConfigError(VexsError):
    """Scenario configuration failed strict validation."""
