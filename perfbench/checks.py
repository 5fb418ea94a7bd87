"""Independent checks of the artifacts the fucik CLI writes.

Every check here recomputes its reference apart from the program: closed
forms (the classical spectral curve, the P1 eigenvalues of the local
operator, exact coefficients of linear solves), a published constant (the
first fractional eigenvalue for s = 1/2), a cross-path (a table
nonlinearity against the function it tabulates), or a property the method
must have (monotone curves, certified roots).  Nothing is compared against
a stored copy of earlier output.  Each function returns a list of error
strings; an empty list means the artifact passed.
"""

from __future__ import annotations

import math
import re

import numpy as np

# first Dirichlet eigenvalue of the unnormalised s = 1/2 kernel on (-1, 1):
# 2 pi times the classical constant 1.157773883 of the normalised operator
FRACTIONAL_LAMBDA1_REF = 2.0 * math.pi * 1.157773883

# the search cap beta_max = 50 lambda_{k+1} of beta_of_alpha
BETA_CAP_FACTOR = 50.0

_ANNOTATION = re.compile(r"alpha=([-+0-9.eE]+):")


def p1_eigenvalues(a: float, b: float, n_elements: int) -> np.ndarray:
    """Eigenvalues of the P1 local Dirichlet problem K c = lambda M c.

    With K = tridiag(-1, 2, -1)/h and M = h tridiag(1, 4, 1)/6 the discrete
    sines are exact eigenvectors, so lambda_j = (6/h^2)(1 - cos t)/(2 + cos t)
    with t = j pi / n, ascending in j.
    """
    h = (b - a) / n_elements
    theta = np.pi * np.arange(1, n_elements) / n_elements
    return (6.0 / h**2) * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta))


def chebyshev_alphas(lambda_k: float, lambda_k1: float, n_samples: int) -> np.ndarray:
    """The Chebyshev-spaced alphas at which trace_curve samples the strip."""
    mid = 0.5 * (lambda_k + lambda_k1)
    half = 0.5 * (lambda_k1 - lambda_k)
    i = np.arange(n_samples)
    return np.sort(mid + half * np.cos(np.pi * (2.0 * i + 1.0) / (2.0 * n_samples)))


def classical_beta(alpha: float, a: float, b: float) -> float:
    """First-strip curve 1/sqrt(alpha) + 1/sqrt(beta) = 1, rescaled to (a, b).

    An interval of length L carries the curve of (0, pi) scaled by
    (pi/L)^2 in both coordinates.  Returns inf where no root exists.
    """
    scale = (math.pi / (b - a)) ** 2
    r = 1.0 - 1.0 / math.sqrt(alpha / scale)
    return math.inf if r <= 0.0 else scale / r**2


def annotated_alphas(annotations) -> list:
    out = []
    for text in annotations:
        m = _ANNOTATION.match(text)
        if m is None:
            raise ValueError(f"unparsable annotation {text!r}")
        out.append(float(m.group(1)))
    return out


def _sampled_set(alphas, annotated, nodes, label) -> list:
    errors = []
    got = np.sort(np.array(list(alphas) + list(annotated), dtype=float))
    # the program's nodes come from its dense eigensolve, whose lambda_1
    # carries relative errors near 1e-12 at these mesh sizes
    if got.shape != nodes.shape or not np.allclose(got, nodes, rtol=1e-9, atol=0.0):
        errors.append(f"{label}: sampled alphas {got.tolist()} are not the strip's Chebyshev nodes")
        return errors
    # the curve decreases, so only the smallest alphas can lack a root below the cap
    if annotated and max(annotated) >= min(alphas, default=math.inf):
        errors.append(f"{label}: annotated alphas {annotated} are not a prefix of the sampled set")
    return errors


def check_fractional_curve(doc: dict, n_samples: int) -> list:
    """Method properties of one traced branch (curve.json)."""
    errors = []
    lam_k, lam_k1 = doc["lambda_k"], doc["lambda_k1"]
    tol = doc["tolerances"]
    samples = doc["samples"]
    alphas = [p["alpha"] for p in samples]
    betas = [p["beta"] for p in samples]
    if not samples:
        return ["curve: no samples"]
    errors += _sampled_set(alphas, annotated_alphas(doc["annotations"]),
                           chebyshev_alphas(lam_k, lam_k1, n_samples), "curve")
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        errors.append(f"curve: alphas not ascending {alphas}")
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        errors.append(f"curve: betas not strictly decreasing {betas}")
    if any(b <= lam_k1 for b in betas):
        errors.append(f"curve: a beta lies at or below lambda_k+1 = {lam_k1}: {betas}")
    for p in samples:
        if abs(p["m_residual"]) > tol["tol_m"]:
            errors.append(f"curve: |m| = {abs(p['m_residual']):.3e} > tol_m at alpha={p['alpha']}")
        if p["gradient_residual"] > tol["tol_grad"]:
            errors.append(f"curve: gradient residual {p['gradient_residual']:.3e} > tol_grad")
    # the branch ends at the diagonal point (lambda_k+1, lambda_k+1), where it
    # meets its mirror image under swap; being the lowest curve (the first
    # root of m) it leaves that point with slope at most 1 in magnitude, so
    # the last sample's beta excess is at most its alpha deficit, up to
    # curvature across the gap
    gap_a = lam_k1 - alphas[-1]
    gap_b = betas[-1] - lam_k1
    if not gap_b <= 2.0 * gap_a:
        errors.append(
            f"curve: largest-alpha sample does not approach lambda_k+1: "
            f"beta excess {gap_b:.4g} vs alpha deficit {gap_a:.4g}"
        )
    return errors


def check_validate_local(doc: dict, a: float, b: float, n_elements: int, n_samples: int) -> list:
    """validate.json on the local operator against the closed-form curve."""
    errors = []
    if doc["k"] != 1:
        return [f"validate: closed form covers strip k=1, got k={doc['k']}"]
    lam = p1_eigenvalues(a, b, n_elements)
    tol = doc["tolerance"]
    checks = doc["checks"]
    annotated = annotated_alphas(doc["annotations"])
    errors += _sampled_set([c["alpha"] for c in checks], annotated,
                           chebyshev_alphas(lam[0], lam[1], n_samples), "validate")
    for c in checks:
        ref = classical_beta(c["alpha"], a, b)
        rel = abs(c["beta_solver"] - ref) / ref
        if rel > tol:
            errors.append(f"validate: beta({c['alpha']:.6g}) = {c['beta_solver']:.8g}, "
                          f"closed form {ref:.8g}, rel {rel:.3e} > {tol}")
    cap = BETA_CAP_FACTOR * lam[1]
    for alpha in annotated:
        ref = classical_beta(alpha, a, b)
        if ref <= cap:
            errors.append(f"validate: alpha={alpha:.6g} annotated as rootless but the "
                          f"closed-form beta {ref:.6g} is below the cap {cap:.6g}")
    if not doc["passed"] or not checks:
        errors.append("validate: the run's own verdict is not passed")
    return errors


def check_status(doc: dict, status: str, regime: str) -> list:
    errors = []
    if doc["status"] != status:
        errors.append(f"solve: status {doc['status']!r}, expected {status!r}")
    if doc["regime"] != regime:
        errors.append(f"solve: regime {doc['regime']!r}, expected {regime!r}")
    if doc["status"] == "converged" and not doc["residual"] <= doc["tol_res"]:
        errors.append(f"solve: residual {doc['residual']:.3e} above tol_res {doc['tol_res']:.3e}")
    return errors


def check_on_curve_beta(doc: dict, a: float, b: float, tol: float) -> list:
    """The resolved on-curve beta against the closed form (local operator, k=1)."""
    ref = classical_beta(doc["alpha"], a, b)
    rel = abs(doc["beta"] - ref) / ref
    if rel > tol:
        return [f"solve: on-curve beta {doc['beta']:.8g} vs closed form {ref:.8g}, rel {rel:.3e} > {tol}"]
    return []


def check_linear_solution(doc: dict, mu: float, h_coeffs, a: float, b: float,
                          n_elements: int, rtol: float = 1e-8) -> list:
    """f = zero at alpha = beta = mu: c_j = h_j / (lambda_j - mu) exactly."""
    lam = p1_eigenvalues(a, b, n_elements)
    exact = np.asarray(h_coeffs, dtype=float) / (lam - mu)
    got = np.asarray(doc["u_star"]["coeffs"], dtype=float)
    err = float(np.max(np.abs(got - exact)))
    scale = float(np.max(np.abs(exact)))
    if not err <= rtol * scale:
        return [f"solve: linear solution off the exact coefficients by {err:.3e} (scale {scale:.3e})"]
    return []


def table_interpolation_error(points, values, func, lo: float, hi: float) -> float:
    """Sup of |table - func| over [lo, hi], sampled finely (constant extrapolation)."""
    t = np.linspace(lo, hi, 20001)
    return float(np.max(np.abs(np.interp(t, points, values) - func(t))))


def check_twin(table_doc: dict, twin_doc: dict, points, values, func, factor: float) -> list:
    """A table solution agrees with its closed-form twin within factor * interpolation error.

    The two problems differ only in f, by at most delta on the range the
    solutions cover; strictly below the curve the solution depends
    Lipschitz-continuously on that perturbation.
    """
    u1 = np.asarray(table_doc["u_star"]["nodal"], dtype=float)
    u2 = np.asarray(twin_doc["u_star"]["nodal"], dtype=float)
    amp = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
    delta = table_interpolation_error(points, values, func, -amp, amp)
    diff = float(np.max(np.abs(u1 - u2)))
    if not diff <= factor * delta:
        return [f"solve: table and twin differ by {diff:.3e} > {factor} x interpolation error {delta:.3e}"]
    return []


def read_eigen_csv(text: str) -> np.ndarray:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if rows[0] != "index,eigenvalue":
        raise ValueError(f"unexpected eigenvalues.csv header {rows[0]!r}")
    values = []
    for j, line in enumerate(rows[1:], start=1):
        idx, lam = line.split(",")
        if int(idx) != j:
            raise ValueError(f"eigenvalues.csv row {j} has index {idx}")
        values.append(float(lam))
    return np.array(values)


def check_local_eigenvalues(eigs, a: float, b: float, n_elements: int, rtol: float = 1e-8) -> list:
    ref = p1_eigenvalues(a, b, n_elements)
    eigs = np.asarray(eigs, dtype=float)
    if eigs.shape != ref.shape:
        return [f"eigen: {eigs.size} eigenvalues, expected {ref.size}"]
    rel = float(np.max(np.abs(eigs - ref) / ref))
    if not rel <= rtol:
        return [f"eigen: local eigenvalues off the P1 closed form by rel {rel:.3e}"]
    return []


def check_fractional_ladder(lambda1_by_elements: dict, rtol: float = 0.01) -> dict:
    """lambda_1 within rtol of the reference at every rung, error shrinking as the mesh refines.

    Returns {elements: [errors]} so a failure is charged to the rung that broke it.
    """
    out = {}
    prev = None
    for n in sorted(lambda1_by_elements):
        errs = []
        err = abs(lambda1_by_elements[n] - FRACTIONAL_LAMBDA1_REF) / FRACTIONAL_LAMBDA1_REF
        if not err <= rtol:
            errs.append(f"eigen: fractional lambda_1 at {n} elements off the reference by rel {err:.3e}")
        if prev is not None and not err < prev:
            errs.append(f"eigen: lambda_1 error {err:.3e} at {n} elements did not shrink from {prev:.3e}")
        prev = err
        out[n] = errs
    return out


def check_reload(loaded_eigs, loaded_vectors, csv_eigs, doc: dict, k: int, loaded_k: int) -> list:
    """The reloaded basis equals the one written (eigenvalues.csv and basis.json)."""
    errors = []
    n = len(doc["eigenvalues"])
    if not np.array_equal(np.asarray(loaded_eigs), csv_eigs):
        errors.append("reload: eigenvalues differ from eigenvalues.csv")
    vectors = np.asarray(doc["vectors"], dtype=float).reshape(n, n)
    if not np.array_equal(np.asarray(loaded_vectors), vectors):
        errors.append("reload: eigenvectors differ from basis.json")
    if loaded_k != k:
        errors.append(f"reload: split index {loaded_k}, expected {k}")
    return errors
