"""Independent ground-truth generators for cross-checking the solvers.

Three sources of truth, none of which reuse the production optimizers:

* a shooting method for the classical (local) operator on (0, pi), whose
  asymmetric eigenvalue problem -u'' = alpha u+ - beta u- decomposes into
  exact sine arcs between sign changes, so curve points carry no integrator
  error at all;
* an exhaustive grid + golden-section search replicating the low-subspace
  maximization for split index k <= 2, with its own energy evaluation;
* a circle scan over a two-mode slice of the high subspace bounding the
  sphere minimum from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoCrossing, RadiusTooSmall
from .operator import Field, to_field

_LENGTH = math.pi
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps of the exhaustive low maximization: 0.618^90 ~ 1e-19
_GOLDEN_ITERS = 90


@dataclass(frozen=True)
class ShootingResult:
    """One point produced by left-normalized shooting (u(0)=0, u'(0)=1)."""

    alpha: float
    beta: float
    zeros: int
    boundary_mismatch: float


def _zero_positions(alpha: float, beta: float, count: int) -> np.ndarray:
    """First `count` zeros (beyond 0) of the shot solution.

    Arcs alternate sign starting positive; a positive arc spans pi/sqrt(alpha)
    and a negative one pi/sqrt(beta), and the slope magnitude returns to 1 at
    every zero, so the zeros are exact cumulative sums.
    """
    steps = np.where(np.arange(count) % 2 == 0, _LENGTH / math.sqrt(alpha), _LENGTH / math.sqrt(beta))
    return np.cumsum(steps)

def _shoot_value(alpha: float, beta: float, x: float) -> float:
    """Solution value at x under exact piecewise-sine propagation."""
    z = 0.0
    arc = 0
    while True:
        rate = math.sqrt(alpha) if arc % 2 == 0 else math.sqrt(beta)
        z_next = z + _LENGTH / rate
        if x <= z_next or z_next == z:
            sign = 1.0 if arc % 2 == 0 else -1.0
            return sign * math.sin(rate * (x - z)) / rate
        z = z_next
        arc += 1


def _match_beta(k: int, alpha: float) -> ShootingResult:
    """Solve the boundary matching condition for branch k at this alpha."""
    n_arcs = k + 1
    n_pos = (n_arcs + 1) // 2

    def gap(beta: float) -> float:
        return float(_zero_positions(alpha, beta, n_arcs)[-1]) - _LENGTH

    if n_pos * _LENGTH / math.sqrt(alpha) >= _LENGTH:
        raise NoCrossing(
            f"branch {k} at alpha={alpha}: positive arcs alone fill the interval "
            f"for every beta (need alpha > {n_pos**2})"
        )
    lo = 1e-12
    hi = max(alpha, 1.0)
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e16:
            raise NoCrossing(f"no sign change of the matching gap up to beta={hi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    mismatch = _shoot_value(alpha, beta, _LENGTH)
    zeros = int(np.sum(_zero_positions(alpha, beta, n_arcs + 2) < _LENGTH * (1.0 - 1e-9)))
    return ShootingResult(alpha=alpha, beta=beta, zeros=zeros, boundary_mismatch=mismatch)


def classical_curve(k: int, alpha_grid) -> list[ShootingResult]:
    """Asymmetric eigenvalue curve of -u'' on (0, pi) through ((k+1)^2, (k+1)^2).

    For each alpha, bisects on beta until the (k+1)-th zero of the shot
    solution lands on the right endpoint; the returned points have boundary
    mismatch below 1e-10.
    """
    if k < 1:
        raise ConfigError("branch index must be >= 1")
    return [_match_beta(k, float(a)) for a in alpha_grid]


# ---------------------------------------------------------------------------
# brute-force searches (independent energy evaluation)


def _energy(basis, alpha: float, beta: float, coeffs: np.ndarray) -> float:
    u = basis.sample(coeffs)
    q_pos = basis.integrate(np.clip(u, 0.0, None) ** 2)
    q_neg = basis.integrate(np.clip(-u, 0.0, None) ** 2)
    return 0.5 * (float(basis.eigenvalues @ coeffs**2) - alpha * q_pos - beta * q_neg)


def _golden_max(f, lo: float, hi: float) -> float:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def brute_force_max_low(params, v: Field, grid_radius: float, grid_step: float) -> Field:
    """Exhaustive maximization of the energy over the low subspace.

    Grid search over the k low coefficients in [-grid_radius, grid_radius]^k
    followed by coordinate-wise golden-section refinement.  Limited to k <= 2;
    raises RadiusTooSmall when the grid argmax touches the boundary.
    """
    basis = params.basis
    k = basis.k
    if k > 2:
        raise ConfigError("exhaustive search is limited to split index k <= 2")
    if grid_step <= 0 or grid_radius <= grid_step:
        raise ConfigError("need grid_radius > grid_step > 0")
    if np.any(v.coeffs[:k] != 0.0):
        raise ConfigError("v must be supported on the high subspace")
    alpha, beta = params.alpha, params.beta

    def value(t: np.ndarray) -> float:
        c = v.coeffs.copy()
        c[:k] = t
        return _energy(basis, alpha, beta, c)

    axis = np.arange(-grid_radius, grid_radius + 0.5 * grid_step, grid_step)
    if k == 1:
        grids = axis[:, None]
    else:
        ta, tb = np.meshgrid(axis, axis, indexing="ij")
        grids = np.column_stack([ta.ravel(), tb.ravel()])
    best_idx = 0
    best_val = -math.inf
    for i, t in enumerate(grids):
        val = value(t)
        if val > best_val:
            best_val, best_idx = val, i
    t_star = grids[best_idx].astype(float)
    if np.any(np.abs(t_star) >= grid_radius - 0.5 * grid_step):
        raise RadiusTooSmall(f"grid argmax {t_star} touches the search boundary {grid_radius}")

    window = 2.0 * grid_step
    for _ in range(60 if k > 1 else 1):
        previous = t_star.copy()
        for i in range(k):
            def along(x, i=i):
                t = t_star.copy()
                t[i] = x
                return value(t)

            t_star[i] = _golden_max(along, t_star[i] - window, t_star[i] + window)
        if np.max(np.abs(t_star - previous)) < 1e-13:
            break

    coeffs = np.zeros(basis.dim)
    coeffs[:k] = t_star
    return to_field(basis, coeffs=coeffs)


def brute_force_sphere_min(params, n_angles: int) -> tuple[float, Field]:
    """Upper bound on the sphere minimum via a two-mode circle scan.

    Evaluates the reduced energy at n_angles points of the unit circle in the
    span of the two lowest high modes, each point maximized over the low
    subspace by the exhaustive search.  Minimizing over a subset of the full
    sphere, the estimate can only exceed the true minimum.
    """
    basis = params.basis
    k = basis.k
    if n_angles < 4:
        raise ConfigError("need at least 4 angles")
    # analytic bound on the maximizer coefficients sets the search radius
    delta = params.alpha / float(basis.eigenvalues[k - 1]) - 1.0
    jump = abs(params.beta - params.alpha)
    lam1 = float(basis.eigenvalues[0])
    rho = (jump / math.sqrt(lam1) + math.sqrt(jump**2 / lam1 + 4.0 * delta * jump)) / (2.0 * delta) if jump > 0 else 0.0
    radius = max(1.0, 1.5 * rho / math.sqrt(lam1))
    step = radius / 60.0

    best = (math.inf, None)
    for i in range(n_angles):
        theta = 2.0 * math.pi * i / n_angles
        c = np.zeros(basis.dim)
        c[k] = math.cos(theta)
        c[k + 1] = math.sin(theta)
        v = to_field(basis, coeffs=c)
        top = brute_force_max_low(params, v, grid_radius=radius, grid_step=step)
        val = _energy(basis, params.alpha, params.beta, top.coeffs + v.coeffs)
        if val < best[0]:
            best = (val, v)
    return best[0], best[1]
