"""Variational computation of asymmetric spectral curves.

For spectral parameters (alpha, beta) the quadratic-with-kinks functional

    J(u) = 1/2 (<A u, u> - alpha ||u+||^2 - beta ||u-||^2)

is the unforced part (f = 0, h = 0) of the semilinear functional
E(u) = J(u) - integral of (F(u) + h u); _functional evaluates both, and
_newton_slope weights their generalized Hessian.  J is strictly concave in
the span of the first k modes whenever alpha exceeds lambda_k, so its partial
maximizer over that subspace is unique and the reduced functional
v -> J(maximizer(v) + v) is well defined on the high subspace.  Its minimum
m(alpha, beta) over the L2-unit sphere of the high subspace is positive below
the spectral curve and crosses zero exactly on it, which turns curve
computation into one-dimensional root finding in beta.  By the envelope
theorem dm/dbeta = -1/2 ||u-||^2 at the minimizer's composite field u, so
every sphere solve also returns the slope the root search steps along.  The
curve strictly decreases in alpha, so a traced branch continues its search
from the previous root: one warm solve there whose value (an upper bound on
m) is not positive brackets the next root from above.

Solvers: the partial maximization is a damped semismooth Newton method (the
gradient is piecewise linear in the low coefficients).  The sphere minimum
runs a sign-pattern-freeze refinement from each start: it solves the exact
quadratic obtained by freezing the positive/negative sample pattern and
accepts only true decreases; a start that is already stationary is returned
after one evaluation.  One (alpha, beta) solve factors each sign pattern
once, and the frozen quadratic's low maximizer starts the low-subspace
Newton at each candidate step.  A start it leaves above the stationarity
tolerance falls back to projected gradient descent and a second refinement.
Every reduced evaluation, of J here and of E in semilinear, is _reduced:
it samples its high field once, and the low-subspace Newton hands back the
value, the composite samples and the reaction at its maximizer, which give
the gradient (one gather) and the sign pattern.  Both steps hand back the
evaluation they accepted, so no point is evaluated twice.  The certifying
tolerances are relative to lambda_{k+1} and the low-subspace Newton's stop
to the L2 norm of the high field, so a curve on (0, L) is the (0, 1) curve
rescaled.  Quadratures use the basis's per-element Simpson rule, which
integrates products of piecewise-linear fields exactly, through the hat
interpolation P and the tridiagonal hat-product matrix T (Hessians V^T T V);
several identities in the tests (diagonal case, concavity constant) hold to
machine precision.  The small factorizations (the k x k Newton systems, the
frozen step's Cholesky of -h11 in _schur, which semilinear's Newton phase
shares, and the lowest eigenpair of its Schur complement) go through LAPACK
handles (potrf, potrs, syevr) bound once at import.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .blas import single_threaded
from .errors import (
    BracketExhausted,
    ConfigError,
    FucikError,
    MaxIterations,
)
from .operator import EigenBasis, Field, to_field

# at these sizes scipy.linalg's checking wrappers cost more than the arithmetic
_potrf, _potrs, _syevr = get_lapack_funcs(("potrf", "potrs", "syevr"), dtype=np.float64)


@dataclass(frozen=True)
class FucikParams:
    """Spectral parameters pinned to a basis, whose split index k (set by
    basis.with_k) they read.

    Requires lambda_k < alpha <= lambda_{k+1} (the right edge is admitted so
    the diagonal resonance point is expressible) and alpha <= beta; points
    with beta < alpha are reached through swap().
    """

    alpha: float
    beta: float
    basis: EigenBasis

    def __post_init__(self):
        lam_k, lam_k1 = self.basis.lambda_k, self.basis.lambda_k1
        if not (lam_k < self.alpha <= lam_k1):
            raise ConfigError(
                f"alpha={self.alpha} outside the admissible strip ({lam_k}, {lam_k1}]"
            )
        if self.beta < self.alpha:
            raise ConfigError("beta < alpha; exchange roles via swap()")
        # squared gradient norms reach dim (50 lambda_N)^2 (50 lambda_{k+1} is
        # the bracket cap) and are compared with tol_grad^2
        lam_n = float(self.basis.eigenvalues[-1])
        cap = 50.0 * lam_n  # a float product overflows to inf, where ** raises
        if not (math.isfinite(self.basis.dim * cap * cap) and self.tol_grad**2 >= sys.float_info.min):
            raise ConfigError(
                f"squared norms leave the float range at lambda_N = {lam_n!r}, lambda_{{k+1}} = {lam_k1!r}: "
                "the domain is too short or too long"
            )

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def lambda_k(self) -> float:
        return self.basis.lambda_k

    @property
    def lambda_k1(self) -> float:
        return self.basis.lambda_k1

    @property
    def delta(self) -> float:
        """Concavity margin of the low-subspace problem."""
        return self.alpha / self.lambda_k - 1.0

    @property
    def tol_grad(self) -> float:
        return 1e-9 * self.lambda_k1

    @property
    def tol_m(self) -> float:
        return 1e-8 * self.lambda_k1

    @property
    def tol_beta(self) -> float:
        return 1e-6 * self.lambda_k1


@dataclass(frozen=True)
class FucikPoint:
    """Result of the sphere minimization at fixed (alpha, beta).

    minimizer is the unit-norm high-subspace argmin; eigenfunction is
    populated (maximizer + minimizer) only when m_value vanishes within
    tol_m, in which case it is a discrete eigenfunction of the asymmetric
    problem and must change sign.  alternates collects distinct multistart
    minimizers whose values tie within tol_m.  beta_slope is dm/dbeta.
    root_solves, careful and continued are set on roots returned by
    beta_of_alpha; continued marks a root bracketed from the previous one.
    """

    alpha: float
    beta: float
    m_value: float
    minimizer: Field
    eigenfunction: Field | None = None
    alternates: tuple = ()
    residual: float = 0.0
    beta_slope: float = 0.0
    iterations: int = 0
    root_solves: int = 0
    careful: bool = False
    continued: bool = False

    def __post_init__(self):
        k = self.minimizer.basis.k
        if np.any(self.minimizer.coeffs[:k] != 0.0):
            raise FucikError("minimizer has support on the low subspace")
        if abs(self.minimizer.norm_l2 - 1.0) > 1e-10:
            raise FucikError(f"minimizer norm {self.minimizer.norm_l2} not unit")
        if self.eigenfunction is not None:
            # nodes and boundary zeros are sample points, the rest interpolate
            w = self.eigenfunction.samples
            scale = float(np.max(np.abs(w)))
            if not (np.min(w) < -1e-12 * scale and np.max(w) > 1e-12 * scale):
                raise FucikError("computed eigenfunction does not change sign")


@dataclass(frozen=True)
class CurveBranch:
    """Sampled spectral curve beta(alpha) in one strip.

    mirrored=True marks a branch produced by swap(), which lies on the other
    side of the diagonal (second coordinates below lambda_{k+1}).
    """

    k: int
    lambda_k: float
    lambda_k1: float
    samples: tuple
    tolerances: dict
    lipschitz: float = 0.0
    annotations: tuple = ()
    mirrored: bool = False

    def __post_init__(self):
        alphas = [p.alpha for p in self.samples]
        betas = [p.beta for p in self.samples]
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise FucikError("curve samples not ascending in alpha")
        slack = 1e-12 * self.lambda_k1
        if any(b2 >= b1 + slack for b1, b2 in zip(betas, betas[1:])):
            raise FucikError("curve is not strictly decreasing")
        if not self.mirrored and any(b <= self.lambda_k1 - self.tolerances["tol_beta"] for b in betas):
            raise FucikError("curve sample fell at or below lambda_{k+1}")


# ---------------------------------------------------------------------------
# energy and gradient


def _pos(x):
    return np.maximum(x, 0.0)


def _neg(x):
    return np.maximum(-x, 0.0)


def _functional(basis: EigenBasis, alpha: float, beta: float, coeffs, u, forcing=None, modes=slice(None)):
    """(value, gradient, reaction) of E, or of J when forcing (nonlinearity, h)
    is None, at the field with coefficients coeffs on modes and samples u: the
    value less the other modes' quadratic term, the L2 gradient on modes, and
    the sampled reaction alpha u+ - beta u- (+ f(u)), from which _gradient
    completes the gradient on other modes without evaluating f again."""
    up, un = _pos(u), _neg(u)
    quad = float(basis.eigenvalues[modes] @ coeffs**2)
    val = 0.5 * (quad - alpha * basis.integrate(up**2) - beta * basis.integrate(un**2))
    reaction = alpha * up - beta * un
    if forcing is not None:
        nl, h = forcing
        val = val - basis.integrate(nl.primitive(u)) - basis.integrate(h.samples * u)
        reaction = reaction + nl.evaluate(u)
    return val, _gradient(basis, coeffs, reaction, forcing, modes), reaction


def _gradient(basis: EigenBasis, coeffs, reaction: np.ndarray, forcing=None, modes=slice(None)) -> np.ndarray:
    """E's gradient on modes from the field's coefficients there and its reaction."""
    g = basis.eigenvalues[modes] * coeffs - basis.gather(reaction, modes)
    return g if forcing is None else g - forcing[1].coeffs[modes]


def _newton_slope(alpha: float, beta: float, u: np.ndarray, forcing=None) -> np.ndarray:
    """Generalized derivative of the reaction at u (alpha branch on u > 0)."""
    sel = np.where(u > 0.0, alpha, beta)
    return sel if forcing is None else sel + forcing[0].derivative(u)


def fucik_energy(params: FucikParams, u: Field) -> float:
    """J(u) with the sampled Simpson quadrature of the one-sided squares."""
    return _functional(params.basis, params.alpha, params.beta, u.coeffs, u.samples)[0]


def fucik_gradient(params: FucikParams, u: Field) -> Field:
    """L2 gradient of J at u, in eigenbasis coefficients."""
    return to_field(params.basis, coeffs=_functional(params.basis, params.alpha, params.beta, u.coeffs, u.samples)[1])


# ---------------------------------------------------------------------------
# partial maximization over the low subspace


_LOW_NEWTON_ITERS = 120


def _maximize_t(params: FucikParams, v_samples: np.ndarray, t0: np.ndarray, forcing=None, tol=None):
    """Semismooth Newton ascent for the k low coefficients.

    The sample-pattern Hessian selection keeps every candidate Hessian below
    diag(lambda_j - alpha) < 0, so the Newton system is uniformly negative
    definite and the step is an ascent direction; Armijo damping globalizes.

    forcing=(nonlinearity, h) maximizes E = J - integral of (F(u) + h u)
    instead of J: f(u) joins the gradient and f'(u) the Hessian selection,
    which the bounded f can locally spoil, so a non-ascent step falls back to
    a gradient step.  Without forcing a stall above tol_grad raises
    MaxIterations; with it the caller judges the returned gradient norm.
    The default tol is relative to the high field's L2 norm.
    Returns (t, gradient_norm, iterations, delta_eff, u, value, reaction):
    delta_eff is the worst observed concavity ratio along accepted iterate
    pairs when forced (inf without forcing, where maximize_low checks
    delta); u, value and reaction are _functional's at the composite
    samples u = v_samples + sample(t, low), value less the high modes'
    quadratic term.
    """
    basis, alpha, beta = params.basis, params.alpha, params.beta
    k = params.k
    lam1, low = basis.eigenvalues[:k], slice(k)
    bound = 0.0 if forcing is None else forcing[0].bound

    def value_grad(t):
        u = v_samples + basis.sample(t, low)
        return (*_functional(basis, alpha, beta, t, u, forcing, low), u)

    t = np.asarray(t0, dtype=float).copy()
    val, grad, reaction, u = value_grad(t)
    if tol is None:
        tol = 1e-4 * params.tol_grad * (1.0 + math.sqrt(basis.integrate(v_samples**2)))
    delta_eff = math.inf
    it = 0
    while it < _LOW_NEWTON_ITERS:
        gn = math.sqrt(grad.dot(grad))
        if gn <= tol:
            break
        # minus the generalized Hessian
        neg_h = basis.gram(_newton_slope(alpha, beta, u, forcing), low)
        neg_h.reshape(-1)[:: k + 1] -= lam1
        factor, info = _potrf(neg_h, clean=0)
        slope = 0.0
        if info == 0:
            step = _potrs(factor, grad)[0]
            slope = float(grad @ step)
        if slope <= 0.0:
            step = grad / (beta + basis.lambda_k + bound)
            slope = float(grad @ step)
        # accept on sufficient increase, or (once increases drown in
        # roundoff) on halving the gradient, which full Newton steps do
        theta = 1.0
        accepted = False
        while theta > 1e-10:
            t_new = t + theta * step
            val_new, grad_new, reaction_new, u_new = value_grad(t_new)
            if val_new >= val + 0.3 * theta * slope or math.sqrt(grad_new.dot(grad_new)) <= 0.5 * gn:
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            break
        if forcing is not None:
            dt = t_new - t
            energy_sq = float(lam1 @ dt**2)
            if energy_sq > 1e-20:
                delta_eff = min(delta_eff, -float((grad_new - grad) @ dt) / energy_sq)
        t, val, grad, reaction, u = t_new, val_new, grad_new, reaction_new, u_new
        it += 1
    gn = math.sqrt(grad.dot(grad))
    if forcing is None and gn > params.tol_grad:
        raise MaxIterations(
            f"low-subspace maximization stalled at gradient norm {gn:.3e}",
            best=t,
            residual=gn,
        )
    return t, gn, it, delta_eff, u, val, reaction


def maximize_low(params: FucikParams, v: Field) -> Field:
    """Unique maximizer of J(. + v) over the low subspace.

    v must be supported on the high modes.  The concavity certificate (the
    monotonicity inequality with constant delta in the energy seminorm) is
    spot-checked against the start and final iterates.
    """
    k = params.k
    if np.any(v.coeffs[:k] != 0.0):
        raise ConfigError("v must be supported on the high subspace")
    t0 = np.zeros(k)
    t = _maximize_t(params, v.samples, t0)[0]
    _check_concavity(params, v, t0, t)
    coeffs = np.zeros(params.basis.dim)
    coeffs[:k] = t
    return to_field(params.basis, coeffs=coeffs)


def _check_concavity(params: FucikParams, v: Field, t1: np.ndarray, t2: np.ndarray) -> None:
    # <grad(u2+v) - grad(u1+v), u2-u1> <= -delta ||u2-u1||_A^2 must hold for
    # any pair; a material violation means the assembled pieces disagree.  The
    # slack is 1e-6 of the bound 1 + beta / lambda_k on |lhs| / ||u2-u1||_A^2
    # plus the rounding of the two gradients lhs pairs with u2-u1
    basis, k = params.basis, params.k
    dt = t2 - t1
    energy_sq = float(basis.eigenvalues[:k] @ dt**2)
    if energy_sq == 0.0:
        return

    def gradient(t):
        c = v.coeffs.copy()
        c[:k] += t
        return _functional(basis, params.alpha, params.beta, c, basis.sample(c))[1]

    g1, g2 = gradient(t1), gradient(t2)
    lhs = float((g2 - g1)[:k] @ dt)
    slack = 1e-6 * (1.0 + params.beta / params.lambda_k) * energy_sq
    slack += 1e-12 * (np.linalg.norm(g1) + np.linalg.norm(g2)) * np.linalg.norm(dt)
    if lhs > -params.delta * energy_sq + slack:
        raise FucikError(
            f"concavity certificate violated: {lhs:.3e} > {-params.delta * energy_sq:.3e}"
        )


def _reduced(params: FucikParams, vh: np.ndarray, t0: np.ndarray, forcing=None, tol=None):
    """v -> max over the low modes of E(. + v) (of J without forcing) at the
    high coefficients vh: (value, gradient on every mode, coefficients,
    composite samples, delta_eff), from one sample product of the high field,
    _maximize_t from t0 with forcing and tol, and one gather of its reaction."""
    basis, k = params.basis, params.k
    coeffs = np.concatenate([np.zeros(k), vh])
    t, _, _, delta_eff, u, val, reaction = _maximize_t(params, basis.sample(coeffs), t0, forcing, tol)
    coeffs[:k] = t
    val += 0.5 * float(basis.eigenvalues[k:] @ vh**2)
    return val, _gradient(basis, coeffs, reaction, forcing), coeffs, u, delta_eff


def reduced_energy(params: FucikParams, v: Field) -> float:
    """J evaluated at maximize_low(v) + v."""
    return _reduced(params, v.coeffs[params.k :], maximize_low(params, v).coeffs[: params.k])[0]


def reduced_gradient(params: FucikParams, v: Field) -> Field:
    """High-subspace projection of the J gradient at the partial maximizer.

    The low component of the gradient vanishes at the maximizer, so this is
    the full derivative of the reduced functional.
    """
    k = params.k
    g = _reduced(params, v.coeffs[k:], maximize_low(params, v).coeffs[:k])[1]
    g[:k] = 0.0
    return to_field(params.basis, coeffs=g)


# ---------------------------------------------------------------------------
# sphere minimization


_DESCEND_ITERS = 80
_FREEZE_ITERS = 40


def _schur(h: np.ndarray, k: int):
    """(schur, lift): the Schur complement h22 - h21 h11^-1 h12 of h's leading
    k x k block and the low lift L = -h11^-1 h12 (k x (N-k)), or None when the
    Cholesky factorization of -h11 fails.  -h11 is positive definite for a
    generalized Hessian of J or E (lambda_j < alpha <= beta for j <= k, as in
    _maximize_t).  L dv is the change of the quadratic model's low maximizer
    when the high coefficients change by dv, and the complement is the
    Hessian of the reduced functional there."""
    factor, info = _potrf(-h[:k, :k], clean=0)
    if info:
        return None
    lift = _potrs(factor, h[:k, k:])[0]
    return h[k:, k:] + h[:k, k:].T @ lift, lift


def _frozen_minimum(h: np.ndarray, k: int):
    """(schur, mu, vec, lift): _schur's complement of the frozen Hessian h,
    its lowest eigenpair, and the low lift, or None when a LAPACK call
    fails.  syevr reads the upper triangle of the complement.  L v maximizes
    the frozen quadratic over the low coefficients at high coefficients v."""
    split = _schur(h, k)
    if split is None:
        return None
    schur, lift = split
    mu, vec, _, _, info = _syevr(schur, range="I", il=1, iu=1)
    return None if info else (schur, mu[0], vec[:, 0], lift)


class _SphereSolver:
    """One (alpha, beta) instance: reduced energy/gradient with warm starts.

    descend and freeze_refine return (vh, eval(vh), accepted steps): the
    point they stop at together with the evaluation that accepted it.
    frozen maps a sign pattern's bytes to its frozen step (the Schur
    eigenvector and the low lift, O(N) each; None when LAPACK failed), so
    starts that revisit a pattern solve it once.
    """

    def __init__(self, params: FucikParams):
        self.params = params
        self.basis = params.basis
        self.k = params.k
        self.lam = self.basis.eigenvalues
        self.t_warm = np.zeros(self.k)
        self.frozen = {}

    def eval(self, vh: np.ndarray):
        """Reduced value, tangential gradient, full coefficients and composite
        samples at unit vh: _reduced from t_warm, which it advances."""
        val, grad, coeffs, u, _ = _reduced(self.params, vh, self.t_warm)
        self.t_warm = coeffs[: self.k]
        return val, grad[self.k :] - (2.0 * val) * vh, coeffs, u

    def descend(self, vh: np.ndarray):
        """Preconditioned projected gradient with a BB step and Armijo guard."""
        p, k = self.params, self.k
        pre = 1.0 / (self.lam[k:] - p.alpha + 1.0 + p.beta - p.alpha)
        vh = vh / math.sqrt(vh.dot(vh))
        ev = self.eval(vh)
        eta = 1.0
        prev_v, prev_g = None, None
        used = 0
        for _ in range(_DESCEND_ITERS):
            val, g = ev[0], ev[1]
            gn = math.sqrt(g.dot(g))
            if gn <= 0.3 * p.tol_grad:
                break
            d = pre * g
            if prev_v is not None:
                dv = vh - prev_v
                dg = g - prev_g
                denom = float(dv @ dg)
                if denom > 0:
                    eta = min(max(float(dv @ dv) / denom, 1e-4), 1e3)
                else:
                    eta = 1.0
            step = eta
            accepted = False
            for _ in range(25):
                cand = vh - step * d
                cand /= math.sqrt(cand.dot(cand))
                ev_new = self.eval(cand)
                if ev_new[0] <= val - 1e-4 * step * float(g @ d):
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            prev_v, prev_g = vh, g
            vh, ev = cand, ev_new
            used += 1
        return vh, ev, used

    def freeze_refine(self, vh: np.ndarray):
        """Sign-pattern-freeze refinement.

        Freezing the positive/negative pattern of the current composite field
        makes the reduced functional an exact homogeneous quadratic whose
        sphere minimum is the smallest eigenpair of a Schur complement; steps
        are accepted (with damping) only on true decrease, and the iteration
        terminates at a pattern fixed point where the frozen and true
        gradients coincide.  Each candidate's low-subspace Newton starts from
        the frozen lift, its exact low maximizer while the pattern holds.  A
        start whose gradient is already below 0.05 tol_grad (the certifying
        solve's warm start at a located root) is returned after its one
        evaluation.
        """
        p, k = self.params, self.k
        ev = self.eval(vh)
        pattern = ev[3] > 0.0
        used = 0
        for _ in range(_FREEZE_ITERS):
            val, g = ev[0], ev[1]
            gn = math.sqrt(g.dot(g))
            if gn <= 0.05 * p.tol_grad:
                break
            key = pattern.tobytes()
            if key not in self.frozen:
                h = -(p.beta - p.alpha) * self.basis.gram(~pattern)
                h.reshape(-1)[:: len(h) + 1] += self.lam - p.alpha
                step = _frozen_minimum(h, k)
                self.frozen[key] = None if step is None else step[2:]
            if self.frozen[key] is None:
                break
            v_new, lift = self.frozen[key]
            if float(v_new @ vh) < 0.0:
                v_new = -v_new
            # accept on true-value decrease, or (near the optimum, where value
            # differences drown in roundoff) on halving the true gradient
            improved = False
            theta = 1.0
            for _ in range(12):
                cand = (1.0 - theta) * vh + theta * v_new
                nrm = math.sqrt(cand.dot(cand))
                if nrm > 1e-12:
                    cand /= nrm
                    self.t_warm = lift @ cand
                    ev_new = self.eval(cand)
                    if ev_new[0] < val - 1e-15 * (1.0 + abs(val)) or math.sqrt(ev_new[1].dot(ev_new[1])) < 0.5 * gn:
                        improved = True
                        break
                theta *= 0.5
            if not improved:
                break
            vh, ev = cand, ev_new
            used += 1
            pattern_new = ev[3] > 0.0
            if np.array_equal(pattern_new, pattern):
                break
            pattern = pattern_new
        return vh, ev, used


@single_threaded()
def minimize_on_sphere(
    params: FucikParams, seed: int = 0, warm: Field | None = None, multistart: bool = True
) -> FucikPoint:
    """Best-of-multistart minimum of the reduced energy on the unit sphere.

    Starts from +-phi_{k+1}, +-phi_{k+2}, and one seeded random direction
    (plus the warm start when given).  Every start runs pattern-freeze
    refinement first, which usually certifies within a few steps; only a
    start whose tangential gradient is still above tol_grad falls back to
    projected descent followed by a second refinement.  With
    multistart=False only the warm start is solved (cheap continuation
    inside root finding); correctness there is backed by a full multistart
    certification at the located root.  Of the starts whose values tie
    within tol_m, the one with the flattest beta_slope wins, and the
    returned point is that start's accepted evaluation, not a fresh one.  It
    carries a stationarity certificate (tangential gradient of the true
    reduced functional below tol_grad) and all distinct tied minimizers.
    BLAS runs single-threaded for the duration.
    """
    basis, k = params.basis, params.k
    dim_high = basis.dim - k
    solver = _SphereSolver(params)

    starts = []
    if warm is not None:
        starts.append(warm.coeffs[k:] / np.linalg.norm(warm.coeffs[k:]))
    if multistart or not starts:
        e1 = np.zeros(dim_high)
        e1[0] = 1.0
        starts.append(e1)
        starts.append(-e1)
        if dim_high >= 2:
            e2 = np.zeros(dim_high)
            e2[1] = 1.0
            starts.append(e2)
            starts.append(-e2)
            rng = np.random.default_rng(seed)
            r = rng.standard_normal(dim_high)
            starts.append(r / np.linalg.norm(r))

    def beta_slope(u):
        # dJ~/dbeta = -1/2 ||negative part of the composite field||^2
        return -0.5 * basis.integrate(_neg(u) ** 2)

    results = []
    total_iter = 0
    for v0 in starts:
        # the frozen-pattern solve alone usually lands a stationary point;
        # descend only when its certificate is not yet met
        vh, ev, used = solver.freeze_refine(v0)
        if math.sqrt(ev[1].dot(ev[1])) > params.tol_grad:
            vh, ev, used_a = solver.descend(vh)
            vh, ev, used_b = solver.freeze_refine(vh)
            used += used_a + used_b
        results.append((vh, ev))
        total_iter += used

    # of the starts tied within tol_m keep the flattest in beta, the earliest
    # start on equal slopes (the sort is stable)
    best_val = min(ev[0] for _, ev in results)
    tied = [r for r in results if r[1][0] <= best_val + params.tol_m]
    tied.sort(key=lambda r: abs(beta_slope(r[1][3])))
    vh, (val, g, coeffs, u) = tied[0]

    residual = math.sqrt(g.dot(g))
    if residual > params.tol_grad:
        raise MaxIterations(
            f"sphere minimization certificate failed: tangential gradient {residual:.3e}",
            best=vh,
            residual=residual,
        )

    vc = np.zeros(basis.dim)
    vc[k:] = vh / np.linalg.norm(vh)
    minimizer = to_field(basis, coeffs=vc)

    alternates = []
    for other_vh, _ in tied[1:]:
        if np.linalg.norm(other_vh - vh) > 1e-6:
            oc = np.zeros(basis.dim)
            oc[k:] = other_vh / np.linalg.norm(other_vh)
            alternates.append(to_field(basis, coeffs=oc))

    eigenfunction = None
    if abs(val) <= params.tol_m:
        eigenfunction = to_field(basis, coeffs=coeffs)

    return FucikPoint(
        alpha=params.alpha,
        beta=params.beta,
        m_value=val,
        minimizer=minimizer,
        eigenfunction=eigenfunction,
        alternates=tuple(alternates),
        residual=residual,
        beta_slope=beta_slope(u),
        iterations=total_iter,
    )


# ---------------------------------------------------------------------------
# curve computation


def _m_eval(params: FucikParams, seed: int, warm: Field | None, careful: bool) -> FucikPoint:
    try:
        return minimize_on_sphere(params, seed=seed, warm=warm, multistart=careful or warm is None)
    except MaxIterations:
        if careful:
            raise
        return minimize_on_sphere(params, seed=seed, warm=warm, multistart=True)


_ROOT_ITERS = 64


def _locate_root(alpha, basis, tol_beta, tol_m, seed, careful, previous=None) -> FucikPoint:
    # the bracket is two solved points: point_hi with m <= 0, and point_lo
    # with m > 0, or None while lo is the strip bound lambda_{k+1}
    lam_k, lam_k1 = basis.lambda_k, basis.lambda_k1
    point_lo = point_hi = None
    solves = 0
    if previous is not None and previous.beta > lam_k1:
        # a warm solve's value bounds m from above, so m <= 0 at the previous
        # root's beta certifies it as the upper end
        point = _m_eval(FucikParams(alpha, previous.beta, basis), seed, previous.minimizer, careful)
        solves = 1
        if point.m_value <= 0.0:
            point_hi = point
    continued = point_hi is not None

    if not continued:
        point = minimize_on_sphere(FucikParams(alpha, lam_k1, basis), seed=seed)
        solves += 1
        if abs(point.m_value) <= tol_m:
            return replace(point, root_solves=solves)
        if point.m_value < 0.0:
            raise FucikError(f"m(alpha, lambda_k1) = {point.m_value:.3e} < 0 contradicts the strip bound")
        # double the distance to lambda_{k+1} until m <= 0; the last step is
        # clamped to the cap 50 lambda_{k+1} and solved carefully
        beta, beta_max = 2.0 * lam_k1 - lam_k, 50.0 * lam_k1
        while point.m_value > 0.0:
            point_lo = point
            at_cap = beta >= beta_max
            beta = min(beta, beta_max)
            point = _m_eval(FucikParams(alpha, beta, basis), seed, point_lo.minimizer, careful or at_cap)
            solves += 1
            if at_cap and point.m_value > 0.0:
                raise BracketExhausted(
                    f"m(alpha={alpha}, beta) stayed positive up to beta={beta_max}",
                    beta_max=beta_max,
                    m_at_max=point.m_value,
                )
            beta = lam_k1 + 2.0 * (beta - lam_k1)
        point_hi = point

    # safeguarded Newton on the envelope slope dm/dbeta = beta_slope from the
    # bracket end with the smaller |m|, warm-started from the last solve;
    # bisect when the slope is not negative, the step leaves the open
    # bracket, or the last step did not halve |m|
    last = math.inf
    for step in range(_ROOT_ITERS + 1):
        lo = lam_k1 if point_lo is None else point_lo.beta
        hi = point_hi.beta
        best = point_hi if point_lo is None or abs(point_hi.m_value) < abs(point_lo.m_value) else point_lo
        m, slope = best.m_value, best.beta_slope
        if abs(m) <= tol_m and (hi - lo <= tol_beta or (slope < 0.0 and abs(m / slope) <= tol_beta)):
            return replace(best, root_solves=solves, continued=continued)
        if step == _ROOT_ITERS:
            break
        cand = 0.5 * (lo + hi)
        if slope < 0.0 and abs(m) <= 0.5 * last and lo < best.beta - m / slope < hi:
            cand = best.beta - m / slope
        last = abs(m)
        point = _m_eval(FucikParams(alpha, cand, basis), seed, point.minimizer, careful)
        solves += 1
        if point.m_value > 0.0:
            point_lo = point
        else:
            point_hi = point
    raise MaxIterations(
        f"root search left |m| = {abs(best.m_value):.3e} (tol_m = {tol_m:.3e}) "
        f"in a bracket of width {hi - lo:.3e} after {_ROOT_ITERS} steps",
        best=best,
        residual=abs(best.m_value),
    )


def beta_of_alpha(
    alpha: float,
    basis: EigenBasis,
    k: int | None = None,
    tol_beta: float | None = None,
    seed: int = 0,
    *,
    previous: FucikPoint | None = None,
) -> FucikPoint:
    """Root of beta -> m(alpha, beta) above lambda_{k+1}.

    m is positive at beta = lambda_{k+1} and strictly decreasing in beta, so
    the root is bracketed by doubling expansion (capped at 50 lambda_{k+1},
    beyond which BracketExhausted reports the no-root outcome) and located by
    Newton steps on the envelope slope beta_slope = dm/dbeta, safeguarded by
    bisection inside the bracket, until |m| <= tol_m and either the bracket
    or the Newton correction |m / slope| is at most tol_beta.  Interior
    evaluations run warm-started single solves; the located root is then
    re-certified by a full multistart solve, falling back to all-multistart
    root finding in the (rare) event the continuation tracked a non-global
    minimum past the true root.  The returned point's root_solves counts
    the sphere solves of the whole search, the certifying one included (a
    warm solve retried as a multistart counts once), and careful marks a
    point found by the fallback.

    previous, a root of the same branch at a smaller alpha, continues the
    search along alpha.  The curve strictly decreases, so the root lies below
    previous.beta, and a warm solve's value bounds m from above: one solve at
    previous.beta started from previous.minimizer that returns m <= 0
    certifies the bracket (lambda_{k+1}, previous.beta) without the cold
    multistart at lambda_{k+1} and the doubling expansion.  That solve is
    counted in root_solves, and continued marks a root found this way.
    Otherwise the search runs as without previous; the certifying multistart
    and the careful fallback never use it.
    """
    if k is not None and k != basis.k:
        basis = basis.with_k(k)
    probe = FucikParams(alpha=alpha, beta=basis.lambda_k1, basis=basis)
    tol_beta = probe.tol_beta if tol_beta is None else float(tol_beta)
    if tol_beta <= 0:
        raise ConfigError("tol_beta must be positive")
    tol_m = probe.tol_m

    best = _locate_root(alpha, basis, tol_beta, tol_m, seed, careful=False, previous=previous)
    final = minimize_on_sphere(
        FucikParams(alpha, best.beta, basis), seed=seed, warm=best.minimizer, multistart=True
    )
    solves = best.root_solves + 1
    if abs(final.m_value) <= tol_m:
        return replace(final, root_solves=solves, continued=best.continued)
    root = _locate_root(alpha, basis, tol_beta, tol_m, seed, careful=True)
    return replace(root, root_solves=solves + root.root_solves, careful=True)


def trace_curve(
    basis: EigenBasis,
    n_samples: int,
    seed: int = 0,
    tol_beta: float | None = None,
) -> CurveBranch:
    """Sample the curve at Chebyshev-spaced alphas strictly inside the strip.

    The alphas ascend, and each root search continues from the root found at
    the previous alpha (beta_of_alpha's previous); an alpha without a root is
    annotated, and the search after it starts cold.
    """
    if n_samples < 3:
        raise ConfigError("need at least 3 samples")
    lam_k, lam_k1 = basis.lambda_k, basis.lambda_k1
    mid = 0.5 * (lam_k + lam_k1)
    half = 0.5 * (lam_k1 - lam_k)
    nodes = mid + half * np.cos(np.pi * (2.0 * np.arange(n_samples) + 1.0) / (2.0 * n_samples))
    alphas = np.sort(nodes)

    points = []
    annotations = []
    previous = None
    for a in alphas:
        try:
            previous = beta_of_alpha(float(a), basis, seed=seed, tol_beta=tol_beta, previous=previous)
            points.append(previous)
        except (BracketExhausted, MaxIterations) as e:
            annotations.append(f"alpha={float(a)!r}: {e}")
            previous = None
    lipschitz = 0.0
    for p1, p2 in zip(points, points[1:]):
        lipschitz = max(lipschitz, abs(p2.beta - p1.beta) / (p2.alpha - p1.alpha))
    probe = FucikParams(alpha=float(alphas[0]), beta=lam_k1, basis=basis)
    return CurveBranch(
        k=basis.k,
        lambda_k=lam_k,
        lambda_k1=lam_k1,
        samples=tuple(points),
        tolerances={
            "tol_grad": probe.tol_grad,
            "tol_m": probe.tol_m,
            "tol_beta": probe.tol_beta if tol_beta is None else float(tol_beta),
        },
        lipschitz=lipschitz,
        annotations=tuple(annotations),
    )


# ---------------------------------------------------------------------------
# symmetry and residuals


def _negate(u: Field | None) -> Field | None:
    if u is None:
        return None
    return to_field(u.basis, coeffs=-u.coeffs)


def swap(obj):
    """Mirror across the diagonal: exchanges the parameter roles and negates
    fields (positive and negative parts trade places under u -> -u).  The
    energy value is invariant under the exchange."""
    if isinstance(obj, FucikPoint):
        return replace(
            obj,
            alpha=obj.beta,
            beta=obj.alpha,
            minimizer=_negate(obj.minimizer),
            eigenfunction=_negate(obj.eigenfunction),
            alternates=tuple(_negate(a) for a in obj.alternates),
        )
    if isinstance(obj, CurveBranch):
        swapped = tuple(swap(p) for p in reversed(obj.samples))
        return CurveBranch(
            k=obj.k,
            lambda_k=obj.lambda_k,
            lambda_k1=obj.lambda_k1,
            samples=swapped,
            tolerances=dict(obj.tolerances),
            lipschitz=(1.0 / obj.lipschitz if obj.lipschitz > 0 else 0.0),
            annotations=obj.annotations,
            mirrored=not obj.mirrored,
        )
    raise ConfigError(f"cannot swap object of type {type(obj).__name__}")


def eigen_residual(basis: EigenBasis, alpha: float, beta: float, w: Field) -> float:
    """L2 norm of A w - alpha w+ + beta w- in coefficients.

    Works for either ordering of the parameters, so swapped points can be
    checked directly.
    """
    return float(np.linalg.norm(_functional(basis, alpha, beta, w.coeffs, w.samples)[1]))
