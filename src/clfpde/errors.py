"""Exception hierarchy for the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ToolkitError):
    """Run configuration is missing, malformed, or inconsistent."""


# -- spectral --------------------------------------------------------------

class NonPositiveCoefficient(ToolkitError):
    """Diffusion or weight coefficient is not strictly positive on the grid."""


class GridTooCoarse(ToolkitError):
    """Grid cannot support the requested number of modes at tolerance."""


class DimensionMismatch(ToolkitError):
    """Grid functions have incompatible sample counts."""


# -- shapes ----------------------------------------------------------------

class MuNotPositive(ToolkitError):
    """Shape parameter mu must be strictly positive."""


class MuCollidesWithSpectrum(ToolkitError):
    """Shape parameter mu is within tolerance of a computed eigenvalue."""


# -- reduced ---------------------------------------------------------------

class CutoffNotStrictlyStable(ToolkitError):
    """lambda_{N+1} <= 0: the retained-mode cutoff violates the stability premise."""


class SingularB(ToolkitError):
    """Input matrix is numerically singular; closed-form gains unavailable."""


class PlacementFailed(ToolkitError):
    """Pole placement did not produce the requested closed-loop spectrum."""


class LyapunovIndefinite(ToolkitError):
    """Post-hoc verification of the gain matrix inequality failed."""


# -- clf -------------------------------------------------------------------

class TailBoundFailed(ToolkitError):
    """No kernel truncation index satisfies the tail inequality below the cap."""


class KernelTruncationExceedsModes(ToolkitError):
    """Kernel truncation index exceeds the computed eigensystem size."""


# -- semilinear ------------------------------------------------------------

class DegenerateDenominator(ToolkitError):
    """Growth-bound formula received non-positive denominators."""


class NoAdmissibleZeta(ToolkitError):
    """Parameter search for the cancellation controller found no feasible point."""


class NoAdmissibleA(ToolkitError):
    """Parameter search for the domination controller found no feasible point."""


# -- sim -------------------------------------------------------------------

class Instability(ToolkitError):
    """Closed-loop trajectory norm grew beyond the safety factor."""


class QuadratureBudgetExceeded(ConfigError):
    """The run would exceed its configured budget of quadratures of F (max_steps)."""


class DegenerateTrajectory(ToolkitError):
    """Trajectory is identically zero; no decay rate can be fitted."""
