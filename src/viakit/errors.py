"""Exception types shared across the toolkit."""


class ViakitError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(ViakitError):
    """A state became NaN/inf or exceeded the blow-up norm during integration."""


class Unsupported(ViakitError):
    """The requested operation has no analytic rule for this set kind."""


class NoConvergence(ViakitError):
    """An iteration that must terminate failed to (guards implementation bugs)."""


class NonzeroLagrangian(ViakitError, ValueError):
    """A Lyapunov value was asked of a problem whose running cost is not 0."""


class DescentViolation(ViakitError):
    """The verified Lyapunov descent inequality failed beyond tolerance."""


class CapTooSmall(ViakitError):
    """An epigraph envelope touched the top of the value grid."""


class ParamDomain(ViakitError):
    """A closed-form evaluator was queried outside its parameter domain."""


class ConfigError(ViakitError):
    """Bad or missing entry in a problem-definition file."""

    def __init__(self, message, section=None):
        super().__init__(message)
        self.section = section
