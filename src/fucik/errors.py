"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
solver failures carry enough payload to diagnose the run without re-running.
"""

from __future__ import annotations


class FucikError(Exception):
    """Base class for all package errors."""


class ConfigError(FucikError):
    """Malformed or inconsistent run configuration / input document."""


class NonPositiveKernel(FucikError):
    """A kernel sample came out <= 0; kernels must map into (0, inf)."""


class OrderOutOfRange(FucikError):
    """Fractional order s outside the open interval (0, 1)."""


class MeshTooCoarse(FucikError):
    """Mesh has fewer than 3 interior nodes; nothing useful can be computed."""


class DegenerateSplit(FucikError):
    """lambda_k and lambda_{k+1} coincide to tolerance; the spectral split
    into low/high subspaces is ill-defined."""


class FactorizationFailure(FucikError):
    """Mass matrix Cholesky / generalized eigensolve failed (not SPD)."""


class IllConditioned(RuntimeWarning):
    """A linear system's reciprocal condition estimate fell below machine
    epsilon, so its solution may be inaccurate (a warning, not an error)."""


class DimensionMismatch(FucikError):
    """Coefficient or nodal vector length does not match the basis."""


class MaxIterations(FucikError):
    """An iterative solver hit its iteration cap before certifying.

    Attributes
    ----------
    best : whatever partial iterate the solver can offer (may be None)
    residual : float, the certificate quantity at the best iterate
    """

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class BracketExhausted(FucikError):
    """No sign change of the sphere minimum up to beta_max: either the
    no-root branch of the characterization or a genuinely exhausted search.

    Attributes
    ----------
    beta_max : float, largest beta probed
    m_at_max : float, sphere minimum at (alpha, beta_max)
    """

    def __init__(self, message: str, beta_max: float, m_at_max: float):
        super().__init__(message)
        self.beta_max = beta_max
        self.m_at_max = m_at_max


class NoCrossing(FucikError):
    """Shooting oracle found no matching beta in its bracket."""


class RadiusTooSmall(FucikError):
    """Brute-force grid maximizer hit the boundary of its search box."""


class MissingLimits(FucikError):
    """Asymptotic limits f_l, f_r required but not declared."""


class RegimeViolation(FucikError):
    """solve() called outside its characterized regime (failed admissibility
    check at resonance, or out-of-scope parameters) without force=True."""


class EmptySeries(FucikError):
    """Plot requested with no data or a series without points."""
