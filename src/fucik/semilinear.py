"""Saddle-point solves of the forced semilinear problem.

A bounded continuous nonlinearity f and an L2 forcing h perturb the
asymmetric quadratic functional J into

    E(u) = J(u) - integral of (F(u) + h u),    F(t) = antiderivative of f,

whose critical points are discrete weak solutions of the equation
A u = alpha u+ - beta u- + f(u) + h; spectrum's kernel evaluates it with
the problem's forcing (nonlinearity, h).  Because f is bounded, E inherits J's
saddle geometry: anticoercive on the low subspace, bounded below on the
manifold of partial maximizers when (alpha, beta) lies strictly below the
spectral curve.  The solver exploits exactly that structure: phase one
minimizes the reduced functional v -> max over the low subspace of E(u + v)
by semismooth Newton steps, each evaluation being spectrum's reduced
evaluation of J, now with the forcing terms.  The step's generalized
Hessian is the Schur complement of E's on the high modes (spectrum._schur,
shared with the sphere solver's frozen step); where it is not positive
definite a preconditioned Barzilai-Borwein step stands in, and both steps
are counted in the diagnostics.  Phase two polishes with a full-space
Newton iteration on the gradient.

Strictly below the curve (nonresonance) the theorem gives a solution for
every h, so no escape is looked for there.  On the curve itself
solvability needs an admissibility condition on the asymptotic behavior of
f and h (the generalized Landesman-Lazer check, operationalized as a
ray-limit sign condition over the computed set of spectrum
eigenfunctions).  When the condition fails, minimizing sequences escape
along an eigenfunction ray; at resonance the solver detects the escape
(norm growth with a Cauchy-stable direction) and reports the ray instead
of a solution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .blas import lu_solve, posv, single_threaded
from .errors import (
    BracketExhausted,
    ConfigError,
    IllConditioned,
    MaxIterations,
    MissingLimits,
    RegimeViolation,
)
from .operator import CheckReport, ConditionCheck, EigenBasis, Field, _config_number, _config_numbers, to_field
from .spectrum import (
    FucikParams,
    FucikPoint,
    _functional,
    _negate,
    _newton_slope,
    _reduced,
    _schur,
    beta_of_alpha,
    maximize_low,
    minimize_on_sphere,
)

NONRESONANCE = "nonresonance"
RESONANCE = "resonance"
OUT_OF_SCOPE = "out-of-scope"

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
DIVERGING_RAY = "diverging-ray"

# divergence heuristics at resonance, fixed and recorded in SaddleResult.diagnostics
RAY_GROWTH_FACTOR = 10.0
RAY_CAUCHY_TOL = 1e-4
RAY_CAUCHY_WINDOW = 10

# iteration caps of the two solve phases
_PHASE1_ITERS = 500
_NEWTON_ITERS = 60


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Bounded continuous nonlinearity with certified growth data.

    bound is the certified sup of |f|; limit_left / limit_right are the
    asymptotic values of f at -inf / +inf (None when undeclared, in which
    case the admissibility check is unavailable).  antiderivative is
    required: the exact primitive F with F(0) = 0, in closed form (a table
    carries the piecewise-quadratic primitive of its interpolant).
    """

    name: str
    func: object
    bound: float
    limit_left: float | None = None
    limit_right: float | None = None
    antiderivative: object | None = None
    deriv: object | None = None
    # no longer filled; kept so existing readers of the attribute still work
    _fcache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.bound < 0.0:
            raise ConfigError("bound must be a nonnegative sup of |f|")
        if self.antiderivative is None:
            raise ConfigError("antiderivative is required: the exact primitive F with F(0) = 0")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls(
            name="zero",
            func=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            bound=0.0,
            limit_left=0.0,
            limit_right=0.0,
            antiderivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )

    @classmethod
    def tanh(cls) -> "Nonlinearity":
        def F(t):
            t = np.asarray(t, dtype=float)
            # log cosh t, overflow-safe
            return np.abs(t) + np.log1p(np.exp(-2.0 * np.abs(t))) - math.log(2.0)

        def deriv(t):
            # sech^2 t = 4 e^(-2|t|) / (1 + e^(-2|t|))^2, which cannot overflow
            e = np.exp(-2.0 * np.abs(np.asarray(t, dtype=float)))
            return 4.0 * e / (1.0 + e) ** 2

        return cls(
            name="tanh",
            func=np.tanh,
            bound=1.0,
            limit_left=-1.0,
            limit_right=1.0,
            antiderivative=F,
            deriv=deriv,
        )

    @classmethod
    def atan_scaled(cls) -> "Nonlinearity":
        c = 2.0 / math.pi

        def F(t):
            t = np.asarray(t, dtype=float)
            return -c * (t * np.arctan(t) - 0.5 * np.log1p(t**2))

        return cls(
            name="atan_scaled",
            func=lambda t: -c * np.arctan(np.asarray(t, dtype=float)),
            bound=1.0,
            limit_left=1.0,
            limit_right=-1.0,
            antiderivative=F,
            deriv=lambda t: -c / (1.0 + np.asarray(t, dtype=float) ** 2),
        )

    @classmethod
    def bounded_poly_clip(cls) -> "Nonlinearity":
        def F(t):
            t = np.asarray(t, dtype=float)
            return np.where(np.abs(t) <= 1.0, 0.5 * t**2, np.abs(t) - 0.5)

        return cls(
            name="bounded_poly_clip",
            func=lambda t: np.clip(np.asarray(t, dtype=float), -1.0, 1.0),
            bound=1.0,
            limit_left=-1.0,
            limit_right=1.0,
            antiderivative=F,
            deriv=lambda t: (np.abs(np.asarray(t, dtype=float)) < 1.0).astype(float),
        )

    @classmethod
    def from_table(cls, points, values) -> "Nonlinearity":
        """Piecewise-linear interpolant of the table, constant beyond its ends.

        The constant extrapolation makes the limits at -inf / +inf the edge
        values and the sup over the whole line the tabulated sup.
        """
        pts = np.asarray(points, dtype=float)
        vals = np.asarray(values, dtype=float)
        if pts.ndim != 1 or pts.shape != vals.shape or pts.size < 2:
            raise ConfigError("table needs matching 1-D points/values with >= 2 entries")
        if np.any(np.diff(pts) <= 0.0):
            raise ConfigError("table points must be strictly increasing")

        # exact primitive of the interpolant: quadratic on each segment on top
        # of the cumulative trapezoid sums at the knots, linear on the tails
        widths = np.diff(pts)
        slopes = np.diff(vals) / widths
        knot_sums = np.concatenate([[0.0], np.cumsum(0.5 * (vals[:-1] + vals[1:]) * widths)])

        def G(t):
            t = np.asarray(t, dtype=float)
            inner = np.clip(t, pts[0], pts[-1])
            i = np.clip(np.searchsorted(pts, inner, side="right") - 1, 0, pts.size - 2)
            d = inner - pts[i]
            return (
                knot_sums[i]
                + d * (vals[i] + 0.5 * slopes[i] * d)
                + vals[0] * np.minimum(t - pts[0], 0.0)
                + vals[-1] * np.maximum(t - pts[-1], 0.0)
            )

        g0 = G(0.0)
        return cls(
            name="table",
            func=lambda t: np.interp(np.asarray(t, dtype=float), pts, vals),
            bound=float(np.max(np.abs(vals))),
            limit_left=float(vals[0]),
            limit_right=float(vals[-1]),
            antiderivative=lambda t: G(t) - g0,
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t):
        return np.asarray(self.func(np.asarray(t, dtype=float)), dtype=float)

    def derivative(self, t):
        """f' analytically when declared, else by central differences."""
        t = np.asarray(t, dtype=float)
        if self.deriv is not None:
            return np.asarray(self.deriv(t), dtype=float)
        step = 1e-6 * (1.0 + np.abs(t))
        return (self.evaluate(t + step) - self.evaluate(t - step)) / (2.0 * step)

    def primitive(self, t):
        """F(t) with F(0) = 0, from the declared antiderivative."""
        return np.asarray(self.antiderivative(np.asarray(t, dtype=float)), dtype=float)

    # -- certification ------------------------------------------------------

    def validate(self) -> "NonlinearityReport":
        """Certify boundedness, F(0) = 0, F' = f, and |F(t)| <= bound * |t|.

        The f bound runs on a 2000-point probe grid over [-1e6, 1e6].  The
        antiderivative checks run on the full grid, except for tables, which
        keep geometric probe sets: the dense grid lands on table knots.
        """
        checks = []

        probes = np.linspace(-1e6, 1e6, 2000)
        fmax = float(np.max(np.abs(self.evaluate(probes))))
        checks.append(
            ConditionCheck(
                name="bound",
                passed=fmax <= self.bound * (1.0 + 1e-12) + 1e-300,
                details={"sup_sampled": fmax, "bound": self.bound},
            )
        )

        f0 = float(self.primitive(0.0))
        checks.append(
            ConditionCheck(
                name="antiderivative_zero",
                passed=abs(f0) <= 1e-12 * (1.0 + self.bound),
                details={"value": f0},
            )
        )

        # a table's slope jumps at its knots, and the dense grid's multiples
        # of 0.1 hit them; central differences across a steep knot miss 1e-6
        table = self.name == "table"
        if table:
            t_fd = np.concatenate([-np.geomspace(1e-2, 64.0, 20), [0.0], np.geomspace(1e-2, 64.0, 20)])
            fd_step = 1e-4 * (1.0 + np.abs(t_fd))
        else:
            # step small enough that even a jump of F'' (kinked f, e.g. the
            # clipped ramp) keeps the central-difference error below 1e-6
            t_fd = np.linspace(-20.0, 20.0, 401)
            fd_step = 1e-6 * (1.0 + np.abs(t_fd))
        fd = (self.primitive(t_fd + fd_step) - self.primitive(t_fd - fd_step)) / (2.0 * fd_step)
        f_ref = self.evaluate(t_fd)
        fd_err = float(np.max(np.abs(fd - f_ref) / (1.0 + np.abs(f_ref))))
        checks.append(
            ConditionCheck(
                name="derivative_consistency",
                passed=fd_err <= 1e-6,
                details={"max_relative_error": fd_err},
            )
        )

        if table:
            t_gr = np.concatenate([-np.geomspace(1e-3, 1e6, 31), np.geomspace(1e-3, 1e6, 31)])
        else:
            t_gr = probes
        growth = np.abs(self.primitive(t_gr)) - self.bound * np.abs(t_gr)
        worst = float(np.max(growth))
        checks.append(
            ConditionCheck(
                name="linear_growth",
                passed=worst <= 1e-9 * (1.0 + self.bound),
                details={"max_excess": worst},
            )
        )

        return NonlinearityReport(name=self.name, checks=tuple(checks))


@dataclass(frozen=True)
class NonlinearityReport(CheckReport):
    name: str
    checks: tuple


# ---------------------------------------------------------------------------
# problem construction and classification


@dataclass(frozen=True)
class SemilinearProblem:
    """Immutable description of one forced semilinear solve.

    curve_beta is the computed spectral-curve ordinate at alpha when the
    classification needed it (None when a shortcut decided the regime,
    lambda_{k+1} at the diagonal resonance corner); eigenset holds the
    L2-normalized spectrum eigenfunctions of the curve point that decided
    the regime, populated only in the resonance regime.
    """

    params: FucikParams
    nonlinearity: Nonlinearity
    h: Field
    regime: str
    curve_beta: float | None = None
    eigenset: tuple = ()

    @property
    def forcing(self) -> tuple:
        """(nonlinearity, h): the terms that turn J into E."""
        return self.nonlinearity, self.h

    @property
    def tol_res(self) -> float:
        return 1e-8 * (1.0 + self.h.norm_l2 + self.nonlinearity.bound)

    @property
    def tol_gll(self) -> float:
        return 1e-10


def classify(params: FucikParams, seed: int = 0, root: FucikPoint | None = None):
    """Regime of (alpha, beta) against the spectral curve.

    Returns (regime, point) where point is the beta_of_alpha root that
    decided the regime, or None when a shortcut decided it without the
    curve: beta <= lambda_{k+1} lies strictly below the curve except at the
    diagonal resonance corner alpha = beta = lambda_{k+1}, and a curve with
    no root below the bracket cap lies above every beta up to that cap.
    root, when given, is the beta_of_alpha point already computed at this
    alpha, basis and seed, and is used instead of computing it again.
    """
    lam_k1 = params.lambda_k1
    tol = params.tol_beta
    if abs(params.alpha - lam_k1) <= tol and abs(params.beta - lam_k1) <= tol:
        return RESONANCE, None
    if params.beta <= lam_k1:
        return NONRESONANCE, None
    if root is None:
        try:
            root = beta_of_alpha(params.alpha, params.basis, seed=seed)
        except BracketExhausted as exc:
            # no root below the cap and beta <= cap: strictly below the curve
            if params.beta <= exc.beta_max:
                return NONRESONANCE, None
            return OUT_OF_SCOPE, None
    if abs(params.beta - root.beta) <= tol:
        return RESONANCE, root
    if params.beta < root.beta:
        return NONRESONANCE, root
    return OUT_OF_SCOPE, root


def _eigenset_at(params: FucikParams, point: FucikPoint) -> tuple:
    """L2-normalized spectrum eigenfunctions of the curve point: its eigenfunction
    and its tied alternates completed by the low-subspace maximizer there."""
    at_point = FucikParams(params.alpha, point.beta, params.basis)
    members = [] if point.eigenfunction is None else [point.eigenfunction.coeffs]
    members += [maximize_low(at_point, alt).coeffs + alt.coeffs for alt in point.alternates]
    out = []
    for c in members:
        c = c / np.linalg.norm(c)
        if all(np.linalg.norm(c - o) > 1e-6 for o in out):
            out.append(c)
    return tuple(to_field(params.basis, coeffs=c) for c in out)


def build_problem(
    params: FucikParams,
    nonlinearity: Nonlinearity,
    h: Field,
    seed: int = 0,
    root: FucikPoint | None = None,
) -> SemilinearProblem:
    """Classify (alpha, beta) and assemble an immutable problem description.

    The nonlinearity is certified here (bound, F(0), F' = f, linear growth)
    so solvers can rely on it; out-of-scope parameter pairs are rejected.
    root is handed to classify (a curve point already computed at alpha).
    At resonance the eigenset is read from the certified root that decided
    the regime; only the diagonal corner alpha = beta = lambda_{k+1}, decided
    without one, runs a sphere solve at (alpha, beta) when root is not given.
    """
    report = nonlinearity.validate()
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise ConfigError(f"nonlinearity failed certification: {', '.join(failed)}")
    if h.basis is not params.basis:
        raise ConfigError("forcing field must live on the problem basis")
    regime, point = classify(params, seed, root)
    curve_beta = None if point is None else point.beta
    if regime == OUT_OF_SCOPE:
        raise ConfigError(
            f"beta={params.beta} lies above the spectral curve (beta(alpha)={curve_beta}); "
            "only the characterized region below and on the curve is solvable"
        )
    eigenset = ()
    if regime == RESONANCE:
        if point is None:
            curve_beta = params.lambda_k1
            point = root if root is not None else minimize_on_sphere(params, seed=seed)
        eigenset = _eigenset_at(params, point)
    return SemilinearProblem(
        params=params,
        nonlinearity=nonlinearity,
        h=h,
        regime=regime,
        curve_beta=curve_beta,
        eigenset=eigenset,
    )


# ---------------------------------------------------------------------------
# energy, gradient, residuals


def semilinear_energy(problem: SemilinearProblem, u: Field) -> float:
    """E(u) = J(u) - integral of (F(u) + h u), all on the shared quadrature."""
    p = problem.params
    return _functional(p.basis, p.alpha, p.beta, u.coeffs, u.samples, problem.forcing)[0]


def semilinear_gradient(problem: SemilinearProblem, u: Field) -> Field:
    """L2 gradient of E at u in eigenbasis coefficients."""
    p = problem.params
    return to_field(p.basis, coeffs=_functional(p.basis, p.alpha, p.beta, u.coeffs, u.samples, problem.forcing)[1])


@dataclass(frozen=True)
class ResidualReport:
    """Weak-form residuals against every basis function."""

    max_abs: float
    per_mode: np.ndarray


def residual_report(problem: SemilinearProblem, u: Field) -> ResidualReport:
    """Pairings of the E gradient with each basis function.

    By M-orthonormality of the basis these are exactly the gradient
    coefficients, so the table doubles as a per-mode residual map.
    """
    g = semilinear_gradient(problem, u).coeffs
    return ResidualReport(max_abs=float(np.max(np.abs(g))), per_mode=g)


# ---------------------------------------------------------------------------
# admissibility at resonance


@dataclass(frozen=True)
class GLLReport:
    """Ray-limit admissibility summary at a resonance point.

    satisfied means every eigenset ray drives the forcing functional to
    -infinity (strict negativity of the ray functional); ray_values lists
    the functional per eigenset member, ray_slopes the measured large-t
    secant slopes that back the ray reduction, window the diagonal-case
    two-sided bounds (lower, value, upper) or None.
    """

    satisfied: bool
    ray_values: tuple
    ray_slopes: tuple
    slope_consistent: bool
    window: tuple | None
    eigenset_size: int


def _one_sided_integrals(v: Field) -> tuple[float, float]:
    """Integrals of v+ and v-."""
    s = v.samples
    return v.basis.integrate(np.clip(s, 0.0, None)), v.basis.integrate(np.clip(-s, 0.0, None))


def _ray_slope(problem: SemilinearProblem, v: Field) -> float:
    # secant of t -> integral of F(t v) + t h v between the two largest
    # probes; the secant cancels the bounded offset integral of F - (ray part).
    # That integral is minus E with alpha = beta = 0 over no modes.
    def phi(t):
        u = v.basis.sample(t * v.coeffs)
        return -_functional(v.basis, 0.0, 0.0, v.coeffs[:0], u, problem.forcing, modes=slice(0))[0]

    t1, t2 = 1e3, 1e4
    return (phi(t2) - phi(t1)) / (t2 - t1)


def check_gll(problem: SemilinearProblem) -> GLLReport:
    """Generalized admissibility check along spectrum eigenfunction rays.

    For each normalized eigenfunction v the functional
    r(v) = f_r * integral(v+) - f_l * integral(v-) + integral(h v) is the
    asymptotic slope of t -> integral(F(t v) + t h v); the condition holds
    when every slope is strictly negative, which forces the forcing term to
    -infinity along every escaping ray, v running over problem.eigenset.  In
    the diagonal case both signs of the eigenfunction are rays, which is
    reported as the two-sided window lower < integral(h v) < upper.
    """
    nl = problem.nonlinearity
    if nl.limit_left is None or nl.limit_right is None:
        raise MissingLimits("asymptotic limits f_l, f_r must be declared for the ray check")
    if problem.regime != RESONANCE:
        raise ConfigError("the admissibility check applies to the resonance regime")
    rays = list(problem.eigenset)
    if not rays:
        raise ConfigError("no eigenfunctions available at the resonance point")

    diagonal = abs(problem.params.alpha - problem.params.beta) <= problem.params.tol_beta
    if diagonal:
        rays.extend(_negate(v) for v in problem.eigenset)

    sides = [_one_sided_integrals(v) for v in rays]
    h_dots = [float(problem.h.coeffs @ v.coeffs) for v in rays]
    values = tuple(nl.limit_right * pos - nl.limit_left * neg + hv for (pos, neg), hv in zip(sides, h_dots))
    slopes = tuple(_ray_slope(problem, v) for v in rays)
    scale = 1e-9 * (1.0 + nl.bound + problem.h.norm_l2)
    consistent = all(abs(s - r) <= 0.02 * abs(r) + scale for s, r in zip(slopes, values))
    satisfied = all(r < -problem.tol_gll for r in values)

    window = None
    if diagonal:
        (pos, neg), hv = sides[0], h_dots[0]  # eigenset[0] is rays[0]
        window = (nl.limit_right * neg - nl.limit_left * pos, hv, nl.limit_left * neg - nl.limit_right * pos)

    return GLLReport(
        satisfied=satisfied,
        ray_values=values,
        ray_slopes=slopes,
        slope_consistent=consistent,
        window=window,
        eigenset_size=len(problem.eigenset),
    )


# ---------------------------------------------------------------------------
# saddle-point solver


@dataclass(frozen=True)
class SaddleResult:
    """Outcome of one saddle-point search.

    status is one of CONVERGED (residual certified below tol_res),
    MAX_ITERATIONS (best iterate returned), or DIVERGING_RAY (iterates
    escaped along ray, the numerical signature of a failed compactness
    condition).  gll is the admissibility report the solve ran at
    resonance (None otherwise).
    """

    u_star: Field | None
    residual: float
    energy: float
    iterations: int
    status: str
    trace: tuple
    ray: Field | None = None
    diagnostics: dict = field(default_factory=dict)
    gll: GLLReport | None = None


def _maximize_low_E(problem: SemilinearProblem, vh: np.ndarray, t0: np.ndarray, tol: float):
    """E's reduced evaluation at the high coefficients vh: _reduced with the
    problem's forcing, whose delta_eff stays positive while E is concave
    along the low Newton's accepted iterates."""
    return _reduced(problem.params, vh, t0, forcing=problem.forcing, tol=tol)


def _hessian(problem: SemilinearProblem, u: np.ndarray) -> np.ndarray:
    """E's generalized Hessian in eigen-coefficients at the samples u."""
    p = problem.params
    return np.diag(p.basis.eigenvalues) - p.basis.gram(_newton_slope(p.alpha, p.beta, u, problem.forcing))


def _newton_direction(problem: SemilinearProblem, u: np.ndarray, g: np.ndarray):
    """(d, lift): the semismooth Newton direction d = S^-1 g of the reduced
    functional at the composite samples u, where g is its gradient and S the
    Schur complement of E's generalized Hessian on the high modes, with
    _schur's low lift; None when S does not factor as positive definite or
    d is not a descent direction."""
    split = _schur(_hessian(problem, u), problem.params.k)
    if split is None:
        return None
    schur, lift = split
    d, info = posv(schur, g)
    if info:
        return None
    return (d, lift) if float(g @ d) > 0.0 else None


def _full_newton_step(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Phase two's step hess^-1 rhs by LU, with an IllConditioned warning
    when the reciprocal condition estimate is below machine epsilon; where a
    pivot is exactly zero or the step is not finite, the minimum-norm
    least-squares step, dropping singular values below epsilon times the
    largest (the cutoff and the warning are scipy.linalg's)."""
    step, rcond = lu_solve(hess, rhs)
    eps = np.finfo(np.float64).eps
    if step is not None and not rcond >= eps:
        warnings.warn(f"ill-conditioned Newton system (rcond = {rcond}): the step may be inaccurate",
                      IllConditioned, stacklevel=2)
    if step is None or not np.all(np.isfinite(step)):
        step = np.linalg.lstsq(hess, rhs, rcond=eps)[0]
    return step


def _detect_ray(norms: list, dirs: list):
    # phase 1 starts at u = 0, so growth is measured against unit norm
    if len(norms) < RAY_CAUCHY_WINDOW:
        return None
    if norms[-1] < RAY_GROWTH_FACTOR:
        return None
    window = dirs[-RAY_CAUCHY_WINDOW:]
    ref = window[-1]
    if all(float(np.linalg.norm(d - ref)) <= RAY_CAUCHY_TOL for d in window[:-1]):
        return ref
    return None


@single_threaded()
def solve(problem: SemilinearProblem, force: bool = False) -> SaddleResult:
    """Two-phase saddle-point search for a critical point of E.

    Phase one minimizes the reduced functional (partial max over the low
    subspace, warm-started and Newton-polished) over the high subspace by
    semismooth Newton steps with the Schur complement of E's generalized
    Hessian, each low Newton starting from the previous maximizer moved by
    the complement's low lift.  At an iterate whose complement does not
    factor as positive definite a preconditioned Barzilai-Borwein step is
    taken instead, and at that sign pattern Newton is tried again only
    after 1, 2, 4, ... such steps in a row; diagnostics count both
    (phase1_newton_steps, phase1_bb_fallbacks).
    At resonance phase one watches for norm escape along a stable ray.
    Phase two runs full-space Newton on the E gradient with a least-squares
    fallback for the singular directions that appear at resonance.
    Convergence means the residual is at most tol_res.  At resonance the
    admissibility check runs first, over the problem's eigenset, and a
    failure raises RegimeViolation unless force=True.  BLAS runs
    single-threaded for the duration.
    """
    p = problem.params
    basis, k = p.basis, p.k
    tol_res = problem.tol_res
    diagnostics = {
        "ray_growth_factor": RAY_GROWTH_FACTOR,
        "ray_cauchy_tol": RAY_CAUCHY_TOL,
        "ray_cauchy_window": RAY_CAUCHY_WINDOW,
        "phase1_newton_steps": 0,
        "phase1_bb_fallbacks": 0,
    }

    gll = None
    if problem.regime == RESONANCE:
        gll = check_gll(problem)
        if not gll.satisfied and not force:
            raise RegimeViolation(
                "admissibility check failed at resonance; pass force=True to search anyway"
            )

    forcing = problem.forcing
    lam = basis.eigenvalues
    pre = 1.0 / (np.abs(lam[k:] - p.alpha) + (p.beta - p.alpha) + 1.0 + problem.nonlinearity.bound)
    inner_tol = 1e-2 * tol_res

    # phase 1: reduced descent over the high subspace, warm from the last iterate
    v = np.zeros(basis.dim - k)
    trace = []
    norms, dirs = [], []
    iterations = run = 0
    val, g_full, c_cur, u_cur, delta_eff = _maximize_low_E(problem, v, np.zeros(k), inner_tol)
    g = g_full[k:]
    eta = 1.0
    prev_v = prev_g = failed = None
    for _ in range(_PHASE1_ITERS):
        gn = float(np.linalg.norm(g))
        res_full = float(np.linalg.norm(g_full))
        trace.append((val, res_full))
        # the nonresonance theorem gives a solution for every h, so an escape
        # is only looked for at resonance
        if problem.regime == RESONANCE:
            norms.append(float(np.linalg.norm(c_cur)))
            dirs.append(c_cur / max(norms[-1], 1e-300))
            ray = _detect_ray(norms, dirs)
            if ray is not None:
                return SaddleResult(
                    u_star=None,
                    residual=res_full,
                    energy=val,
                    iterations=iterations,
                    status=DIVERGING_RAY,
                    trace=tuple(trace),
                    ray=to_field(basis, coeffs=ray),
                    diagnostics=diagnostics,
                    gll=gll,
                )
        if gn <= 0.5 * tol_res:
            break
        # at the sign pattern where the complement last failed to factor,
        # Newton is tried again only after 1, 2, 4, ... fallback steps in a
        # row: the f' weights still move it, but forming it is O(N^3)
        pattern = (u_cur > 0.0).tobytes()
        newton = None
        if pattern != failed or run & (run - 1) == 0:
            newton = _newton_direction(problem, u_cur, g)
        if newton is not None:
            diagnostics["phase1_newton_steps"] += 1
            d, lift = newton
            step, run = 1.0, 0
        else:
            diagnostics["phase1_bb_fallbacks"] += 1
            failed, lift, run = pattern, None, run + 1
            d = pre * g
            if prev_v is not None:
                dv = v - prev_v
                dg = g - prev_g
                denom = float(dv @ dg)
                eta = min(max(float(dv @ dv) / denom, 1e-4), 1e4) if denom > 0 else 1.0
            step = eta
        # the decrease must clear the rounding of val: once the Armijo term
        # drops below it, equal values would pass and starve the step
        slope, floor = float(g @ d), 1e-15 * (1.0 + abs(val))
        accepted = False
        for _ in range(30):
            v_new = v - step * d
            t0 = c_cur[:k] if lift is None else c_cur[:k] - step * (lift @ d)
            val_new, g_full_new, c_new, u_new, deff = _maximize_low_E(problem, v_new, t0, inner_tol)
            g_new = g_full_new[k:]
            if val_new < val - max(1e-4 * step * slope, floor) or float(np.linalg.norm(g_new)) <= 0.5 * gn:
                accepted = True
                break
            step *= 0.5
        iterations += 1
        if not accepted:
            break
        prev_v, prev_g = v, g
        v, val, g, g_full, c_cur, u_cur = v_new, val_new, g_new, g_full_new, c_new, u_new
        delta_eff = min(delta_eff, deff)
    diagnostics["delta_eff"] = delta_eff

    # phase 2: full-space Newton on the gradient with lstsq fallback; the
    # internal target sits well below tol_res because the quadratic tail of
    # Newton is nearly free and linear problems then come out machine-exact
    c, u_s = c_cur, u_cur
    res = float(np.linalg.norm(g_full))
    newton_target = 1e-4 * tol_res
    for _ in range(_NEWTON_ITERS):
        if res <= newton_target:
            break
        step = _full_newton_step(_hessian(problem, u_s), -g_full)
        theta = 1.0
        accepted = False
        while theta > 1e-12:
            c_new = c + theta * step
            u_new = basis.sample(c_new)
            val_new, g_new, _ = _functional(basis, p.alpha, p.beta, c_new, u_new, forcing)
            res_new = float(np.linalg.norm(g_new))
            if res_new <= (1.0 - 0.1 * theta) * res:
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            break
        c, val, g_full, res, u_s = c_new, val_new, g_new, res_new, u_new
        iterations += 1
        trace.append((val, res))

    return SaddleResult(
        u_star=to_field(basis, coeffs=c),
        residual=res,
        energy=val,
        iterations=iterations,
        status=CONVERGED if res <= tol_res else MAX_ITERATIONS,
        trace=tuple(trace),
        diagnostics=diagnostics,
        gll=gll,
    )


# ---------------------------------------------------------------------------
# problem documents


_BUILTIN_NONLINEARITIES = {
    "zero": Nonlinearity.zero,
    "tanh": Nonlinearity.tanh,
    "atan_scaled": Nonlinearity.atan_scaled,
    "bounded_poly_clip": Nonlinearity.bounded_poly_clip,
}


def _field_from_spec(basis: EigenBasis, spec) -> Field:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("forcing spec must be one of {coeffs | nodal | named}")
    if "coeffs" in spec:
        return to_field(basis, coeffs=np.array(_config_numbers(spec["coeffs"], "h coeffs")))
    if "nodal" in spec:
        return to_field(basis, nodal=np.array(_config_numbers(spec["nodal"], "h nodal")))
    if "named" in spec:
        name = spec["named"]
        if not (isinstance(name, str) and name.startswith("phi_")):
            raise ConfigError(f"named field must look like phi_j, got {name!r}")
        try:
            j = int(name[4:])
        except ValueError as exc:
            raise ConfigError(f"bad eigenfunction index in {name!r}") from exc
        if not (1 <= j <= basis.dim):
            raise ConfigError(f"eigenfunction index {j} outside 1..{basis.dim}")
        c = np.zeros(basis.dim)
        c[j - 1] = 1.0
        return to_field(basis, coeffs=c)
    raise ConfigError("forcing spec must be one of {coeffs | nodal | named}")


def problem_from_dict(basis: EigenBasis, doc: dict, seed: int = 0) -> SemilinearProblem:
    """Build a problem from its JSON-style description.

    Keys: alpha (number), beta (number or the string "on-curve"), k
    (optional split index), f ({name} or {table}), h (field spec).  The
    limits of f at -inf / +inf come from the nonlinearity itself: a builtin
    declares them, a table's are its edge values.  "on-curve" resolves beta
    by the curve computation at alpha, which lands the problem in the
    resonance regime; classify then reuses that root.
    """
    if not isinstance(doc, dict):
        raise ConfigError("problem document must be a mapping")
    unknown = set(doc) - {"alpha", "beta", "k", "f", "h"}
    if unknown:
        raise ConfigError(f"unknown problem keys: {sorted(unknown)}")
    try:
        alpha = _config_number(doc["alpha"], "alpha")
        beta_spec = doc["beta"]
        f_spec = doc["f"]
        h_spec = doc["h"]
    except KeyError as exc:
        raise ConfigError(f"problem document missing key {exc}") from exc

    if "k" in doc:
        if isinstance(doc["k"], bool) or not isinstance(doc["k"], int):
            raise ConfigError(f"k must be an integer, got {doc['k']!r}")
        basis = basis.with_k(doc["k"])

    if isinstance(f_spec, dict) and "name" in f_spec:
        name = f_spec["name"]
        if not isinstance(name, str) or name not in _BUILTIN_NONLINEARITIES:
            raise ConfigError(f"unknown nonlinearity {name!r}; builtins: {sorted(_BUILTIN_NONLINEARITIES)}")
        nl = _BUILTIN_NONLINEARITIES[name]()
    elif isinstance(f_spec, dict) and "table" in f_spec:
        table = f_spec["table"]
        if not isinstance(table, dict) or not {"points", "values"} <= set(table):
            raise ConfigError("table spec must hold points and values")
        points = _config_numbers(table["points"], "table points")
        nl = Nonlinearity.from_table(points, _config_numbers(table["values"], "table values"))
    else:
        raise ConfigError("f spec must carry a builtin name or a table")

    h = _field_from_spec(basis, h_spec)

    root = None
    if beta_spec == "on-curve":
        root = beta_of_alpha(alpha, basis, seed=seed)
        beta = root.beta
    else:
        beta = _config_number(beta_spec, "beta")
    params = FucikParams(alpha=alpha, beta=beta, basis=basis)
    return build_problem(params, nl, h, seed=seed, root=root)
