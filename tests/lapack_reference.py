"""The low-subspace Newton and the frozen-pattern eigenstep through scipy's
wrappers, as the package computed them before it called LAPACK directly.

maximize_t_reference is spectrum._maximize_t with cho_factor/cho_solve and
np.linalg.norm.  Those wrappers run the same potrf/potrs arithmetic on the
same matrix, so the package must agree with it exactly.

frozen_minimum_reference forms the Schur complement and the low lift with a
symmetric indefinite solve, symmetrizes the complement, and takes its lowest
eigenpair with eigh.
The package factors -h11 by Cholesky instead and calls syevr with its
default workspace, so the two agree to rounding: RTOL bounds the
differences relative to the 2-norm of the reference complement.
"""

import math

import numpy as np
import scipy.linalg

from fucik.errors import MaxIterations
from fucik.spectrum import _LOW_NEWTON_ITERS, _neg, _pos

RTOL = 1e-12


def maximize_t_reference(params, v_samples, t0, forcing=None, tol=None):
    basis, alpha, beta = params.basis, params.alpha, params.beta
    k = params.k
    lam1, low = basis.eigenvalues[:k], slice(k)
    nl, bound = None, 0.0
    if forcing is not None:
        nl, h_field = forcing
        bound, h_low, h_samples = nl.bound, h_field.coeffs[:k], h_field.samples

    def value_grad(t):
        u = v_samples + basis.sample(t, low)
        up, un = _pos(u), _neg(u)
        val = 0.5 * (float(lam1 @ t**2) - alpha * basis.integrate(up**2) - beta * basis.integrate(un**2))
        rep = alpha * up - beta * un
        if nl is None:
            return val, lam1 * t - basis.gather(rep, low), u, rep
        val = val - basis.integrate(nl.primitive(u)) - basis.integrate(h_samples * u)
        rep = rep + nl.evaluate(u)
        grad = lam1 * t - basis.gather(rep, low) - h_low
        return val, grad, u, rep

    t = np.asarray(t0, dtype=float).copy()
    val, grad, u, rep = value_grad(t)
    if tol is None:
        tol = 1e-4 * params.tol_grad * (1.0 + math.sqrt(basis.integrate(v_samples**2)))
    delta_eff = math.inf
    it = 0
    while it < _LOW_NEWTON_ITERS:
        gn = float(np.linalg.norm(grad))
        if gn <= tol:
            break
        sel = np.where(u > 0.0, alpha, beta)
        if nl is not None:
            sel = sel + nl.derivative(u)
        h = np.diag(lam1) - basis.gram(sel, low)
        try:
            factor = scipy.linalg.cho_factor(-h, check_finite=False)
            step = scipy.linalg.cho_solve(factor, grad, check_finite=False)
            slope = float(grad @ step)
        except scipy.linalg.LinAlgError:
            slope = 0.0
        if slope <= 0.0:
            step = grad / (beta + basis.lambda_k + bound)
            slope = float(grad @ step)
        theta = 1.0
        accepted = False
        while theta > 1e-10:
            t_new = t + theta * step
            val_new, grad_new, u_new, rep_new = value_grad(t_new)
            if val_new >= val + 0.3 * theta * slope or float(np.linalg.norm(grad_new)) <= 0.5 * gn:
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            break
        if nl is not None:
            dt = t_new - t
            energy_sq = float(lam1 @ dt**2)
            if energy_sq > 1e-20:
                delta_eff = min(delta_eff, -float((grad_new - grad) @ dt) / energy_sq)
        t, val, grad, u, rep = t_new, val_new, grad_new, u_new, rep_new
        it += 1
    gn = float(np.linalg.norm(grad))
    if nl is None and gn > params.tol_grad:
        raise MaxIterations(f"low-subspace maximization stalled at gradient norm {gn:.3e}", best=t, residual=gn)
    return t, gn, it, delta_eff, u, val, rep


def frozen_minimum_reference(h, k):
    """(schur, mu, vec, lift) as the frozen step formed them through solve
    and eigh; lift = -h11^-1 h12."""
    h11, h12 = h[:k, :k], h[:k, k:]
    sol = scipy.linalg.solve(h11, h12, assume_a="sym", check_finite=False)
    schur = h[k:, k:] - h12.T @ sol
    schur = 0.5 * (schur + schur.T)
    mu, vec = scipy.linalg.eigh(schur, subset_by_index=[0, 0], check_finite=False)
    return schur, mu[0], vec[:, 0], -sol
