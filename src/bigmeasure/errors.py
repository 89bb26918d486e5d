"""Exception types shared across the package."""


class BigMeasureError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPoints(BigMeasureError, ValueError):
    """Kernel evaluated at x == y, where |x - y|^(alpha - d) is undefined."""


class NonConvergedQuadrature(BigMeasureError, RuntimeError):
    """The adaptive quadrature failed to reach the requested tolerance."""


class AlphaOutOfRange(BigMeasureError, ValueError):
    """Stability index outside the range the requested rule is proved for."""


class NotTransient(BigMeasureError, ValueError):
    """The free-space process is recurrent (dim <= alpha); no Green function."""


class NotAdmissible(BigMeasureError, ValueError):
    """Annulus windows are not increasing and disjoint (a_n < b_n <= a_{n+1})."""


class SingularMeasure(BigMeasureError, ValueError):
    """Pointwise density requested for a measure with a singular part."""


class ShellOverlap(BigMeasureError, ValueError):
    """Smoothing width eps is not below half the gap between adjacent shells."""


class GaugeOutOfRange(BigMeasureError, ValueError):
    """A gauge table value lies outside [0, 1]."""


class HypothesisViolated(BigMeasureError, ValueError):
    """A precondition of the far-field decay check fails (e.g. divergent probe)."""


class NotOrthogonal(BigMeasureError, ValueError):
    """Matrix passed as a rotation is not orthogonal."""


class ConfigError(BigMeasureError, ValueError):
    """Experiment configuration is invalid; carries the full list of problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


class ParseError(ConfigError):
    """The config file is not syntactically valid (message carries line/column)."""


class ValidationError(ConfigError):
    """The config parsed but violates invariants; lists every violation found."""
