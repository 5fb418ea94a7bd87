"""Tests for the variational curve machinery: partial maximization, reduced
functional, sphere minimization, root finding, tracing, and symmetry."""

import dataclasses
import math

import numpy as np
import pytest

import fucik
from fucik import spectrum
from table_reference import sample_table


@pytest.fixture(scope="module")
def local1():
    mesh = fucik.Mesh1D(0.0, math.pi, 64)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)


@pytest.fixture(scope="module")
def local2(local1):
    return local1.with_k(2)


@pytest.fixture(scope="module")
def frac1():
    mesh = fucik.Mesh1D(-1.0, 1.0, 48)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(0.5), mesh), k=1)


def _alpha_at(basis, frac):
    return basis.lambda_k + frac * (basis.lambda_k1 - basis.lambda_k)


def _high_field(basis, rng, scale=1.0):
    c = np.zeros(basis.dim)
    c[basis.k :] = scale * rng.standard_normal(basis.dim - basis.k)
    return fucik.to_field(basis, coeffs=c)


def _random_field(basis, rng, scale=1.0):
    return fucik.to_field(basis, coeffs=scale * rng.standard_normal(basis.dim))


def _energy_dist(basis, u1, u2):
    d = u1.coeffs - u2.coeffs
    return math.sqrt(float(basis.eigenvalues @ d**2))


# ---------------------------------------------------------------------------
# parameter validation


def test_params_strip_enforced(local1):
    with pytest.raises(fucik.ConfigError):
        fucik.FucikParams(alpha=0.5 * local1.lambda_k, beta=5.0, basis=local1)
    with pytest.raises(fucik.ConfigError):
        fucik.FucikParams(alpha=local1.lambda_k1 + 0.1, beta=local1.lambda_k1 + 0.2, basis=local1)
    # the right edge is admitted (diagonal resonance point)
    p = fucik.FucikParams(alpha=local1.lambda_k1, beta=local1.lambda_k1, basis=local1)
    assert p.alpha == local1.lambda_k1


def test_params_reject_beta_below_alpha(local1):
    a = _alpha_at(local1, 0.5)
    with pytest.raises(fucik.ConfigError):
        fucik.FucikParams(alpha=a, beta=a - 0.1, basis=local1)


def test_params_derived_quantities(local1):
    a = _alpha_at(local1, 0.5)
    p = fucik.FucikParams(alpha=a, beta=a, basis=local1)
    assert abs(p.delta - (a / local1.lambda_k - 1.0)) <= 1e-15
    assert p.tol_grad > 0 and p.tol_m > 0 and p.tol_beta > 0


# ---------------------------------------------------------------------------
# energy and gradient


def test_energy_zero_field(local1):
    p = fucik.FucikParams(alpha=2.0, beta=3.0, basis=local1)
    u = fucik.to_field(local1, coeffs=np.zeros(local1.dim))
    assert fucik.fucik_energy(p, u) == 0.0


def test_energy_first_mode_exact(local1):
    # phi_1 is single-signed, so only the alpha term acts and the Simpson
    # rule integrates its square exactly: J = (lambda_1 - alpha)/2
    alpha = local1.lambda_k + 1.0
    p = fucik.FucikParams(alpha=alpha, beta=alpha + 2.0, basis=local1)
    c = np.zeros(local1.dim)
    c[0] = 1.0
    val = fucik.fucik_energy(p, fucik.to_field(local1, coeffs=c))
    assert abs(val - 0.5 * (local1.lambda_k - alpha)) <= 1e-12


def test_energy_diagonal_identity(local1):
    rng = np.random.default_rng(3)
    a = _alpha_at(local1, 0.4)
    p = fucik.FucikParams(alpha=a, beta=a, basis=local1)
    for _ in range(5):
        u = _random_field(local1, rng)
        expected = 0.5 * float((local1.eigenvalues - a) @ u.coeffs**2)
        assert abs(fucik.fucik_energy(p, u) - expected) <= 1e-10 * (1.0 + abs(expected))


def test_gradient_zero_field(local1):
    p = fucik.FucikParams(alpha=2.0, beta=3.0, basis=local1)
    g = fucik.fucik_gradient(p, fucik.to_field(local1, coeffs=np.zeros(local1.dim)))
    assert np.all(g.coeffs == 0.0)


def test_gradient_matches_finite_differences(local1):
    rng = np.random.default_rng(7)
    p = fucik.FucikParams(alpha=2.2, beta=5.0, basis=local1)
    eps = 1e-5
    for _ in range(20):
        u = _random_field(local1, rng)
        d = rng.standard_normal(local1.dim)
        d /= np.linalg.norm(d)
        g = fucik.fucik_gradient(p, u).coeffs
        up = fucik.to_field(local1, coeffs=u.coeffs + eps * d)
        um = fucik.to_field(local1, coeffs=u.coeffs - eps * d)
        fd = (fucik.fucik_energy(p, up) - fucik.fucik_energy(p, um)) / (2.0 * eps)
        assert abs(float(g @ d) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_gradient_diagonal_is_linear(local1):
    rng = np.random.default_rng(11)
    a = _alpha_at(local1, 0.6)
    p = fucik.FucikParams(alpha=a, beta=a, basis=local1)
    u = _random_field(local1, rng)
    g = fucik.fucik_gradient(p, u).coeffs
    expected = (local1.eigenvalues - a) * u.coeffs
    assert np.max(np.abs(g - expected)) <= 1e-9 * (1.0 + np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# partial maximization over the low subspace


def test_maximize_zero_input(local1):
    p = fucik.FucikParams(alpha=_alpha_at(local1, 0.5), beta=6.0, basis=local1)
    v = fucik.to_field(local1, coeffs=np.zeros(local1.dim))
    top = fucik.maximize_low(p, v)
    assert np.max(np.abs(top.coeffs)) <= 1e-12


def test_maximize_diagonal_is_zero(local2):
    rng = np.random.default_rng(13)
    a = _alpha_at(local2, 0.5)
    p = fucik.FucikParams(alpha=a, beta=a, basis=local2)
    for _ in range(3):
        top = fucik.maximize_low(p, _high_field(local2, rng))
        assert np.max(np.abs(top.coeffs)) <= 1e-10


def test_maximize_rejects_low_support(local1):
    p = fucik.FucikParams(alpha=_alpha_at(local1, 0.5), beta=6.0, basis=local1)
    c = np.zeros(local1.dim)
    c[0] = 1.0
    with pytest.raises(fucik.ConfigError):
        fucik.maximize_low(p, fucik.to_field(local1, coeffs=c))


def test_maximize_homogeneity(local2):
    rng = np.random.default_rng(17)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.5), beta=12.0, basis=local2)
    for _ in range(5):
        v = _high_field(local2, rng)
        v2 = fucik.to_field(local2, coeffs=2.0 * v.coeffs)
        m1 = fucik.maximize_low(p, v)
        m2 = fucik.maximize_low(p, v2)
        gap = _energy_dist(local2, m2, fucik.to_field(local2, coeffs=2.0 * m1.coeffs))
        assert gap <= 1e-8 * (1.0 + 2.0 * m1.norm_energy)


def test_maximize_matches_golden_oracle_k1(local1):
    # value-based golden section resolves the argmax position only to about
    # sqrt(machine eps), so the 1e-8 agreement is asserted on the attained
    # value; position gets the sqrt-roundoff bound
    rng = np.random.default_rng(19)
    p = fucik.FucikParams(alpha=2.5, beta=9.0, basis=local1)
    for _ in range(4):
        v = _high_field(local1, rng)
        top = fucik.maximize_low(p, v)
        ref = fucik.brute_force_max_low(p, v, grid_radius=8.0 * (1.0 + v.norm_l2), grid_step=0.05)
        j_top = fucik.fucik_energy(p, fucik.to_field(local1, coeffs=top.coeffs + v.coeffs))
        j_ref = fucik.fucik_energy(p, fucik.to_field(local1, coeffs=ref.coeffs + v.coeffs))
        assert j_top >= j_ref - 1e-8 * (1.0 + abs(j_ref))
        assert abs(j_top - j_ref) <= 1e-8 * (1.0 + abs(j_ref))
        assert abs(top.coeffs[0] - ref.coeffs[0]) <= 1e-6 * (1.0 + abs(ref.coeffs[0]))


def test_maximize_matches_oracle_k2(local2):
    # unit-norm v loses no generality (positive homogeneity) and keeps the
    # 2-D oracle grid small
    rng = np.random.default_rng(23)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.5), beta=11.0, basis=local2)
    for _ in range(3):
        raw = _high_field(local2, rng)
        v = fucik.to_field(local2, coeffs=raw.coeffs / raw.norm_l2)
        top = fucik.maximize_low(p, v)
        ref = fucik.brute_force_max_low(p, v, grid_radius=5.0, grid_step=0.1)
        assert _energy_dist(local2, top, ref) <= 1e-6 * (1.0 + top.norm_energy)


def test_maximize_fractional_oracle(frac1):
    rng = np.random.default_rng(29)
    a = _alpha_at(frac1, 0.5)
    p = fucik.FucikParams(alpha=a, beta=2.0 * frac1.lambda_k1, basis=frac1)
    v = _high_field(frac1, rng)
    top = fucik.maximize_low(p, v)
    ref = fucik.brute_force_max_low(p, v, grid_radius=8.0 * (1.0 + v.norm_l2), grid_step=0.05)
    j_top = fucik.fucik_energy(p, fucik.to_field(frac1, coeffs=top.coeffs + v.coeffs))
    j_ref = fucik.fucik_energy(p, fucik.to_field(frac1, coeffs=ref.coeffs + v.coeffs))
    assert abs(j_top - j_ref) <= 1e-8 * (1.0 + abs(j_ref))
    assert abs(top.coeffs[0] - ref.coeffs[0]) <= 1e-6 * (1.0 + abs(ref.coeffs[0]))


# ---------------------------------------------------------------------------
# reduced functional


def test_reduced_energy_zero(local1):
    p = fucik.FucikParams(alpha=2.0, beta=5.0, basis=local1)
    v = fucik.to_field(local1, coeffs=np.zeros(local1.dim))
    assert abs(fucik.reduced_energy(p, v)) <= 1e-14


def test_reduced_energy_homogeneity(local2):
    rng = np.random.default_rng(31)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.4), beta=13.0, basis=local2)
    for _ in range(5):
        v = _high_field(local2, rng)
        j1 = fucik.reduced_energy(p, v)
        j3 = fucik.reduced_energy(p, fucik.to_field(local2, coeffs=3.0 * v.coeffs))
        assert abs(j3 - 9.0 * j1) <= 1e-7 * (1.0 + 9.0 * abs(j1))


def test_reduced_energy_diagonal_next_mode(local1):
    a = _alpha_at(local1, 0.7)
    p = fucik.FucikParams(alpha=a, beta=a, basis=local1)
    c = np.zeros(local1.dim)
    c[1] = 1.0
    val = fucik.reduced_energy(p, fucik.to_field(local1, coeffs=c))
    assert abs(val - 0.5 * (local1.lambda_k1 - a)) <= 1e-9


def test_reduced_gradient_finite_differences(local1):
    rng = np.random.default_rng(37)
    p = fucik.FucikParams(alpha=2.4, beta=6.5, basis=local1)
    eps = 1e-5
    for _ in range(10):
        v = _high_field(local1, rng)
        d = np.zeros(local1.dim)
        d[local1.k :] = rng.standard_normal(local1.dim - local1.k)
        d /= np.linalg.norm(d)
        g = fucik.reduced_gradient(p, v).coeffs
        vp = fucik.to_field(local1, coeffs=v.coeffs + eps * d)
        vm = fucik.to_field(local1, coeffs=v.coeffs - eps * d)
        fd = (fucik.reduced_energy(p, vp) - fucik.reduced_energy(p, vm)) / (2.0 * eps)
        assert abs(float(g @ d) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_reduced_gradient_euler_identity(local2):
    # degree-2 homogeneity forces <grad, v> = 2 J~(v)
    rng = np.random.default_rng(41)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.6), beta=14.0, basis=local2)
    for _ in range(5):
        v = _high_field(local2, rng)
        g = fucik.reduced_gradient(p, v).coeffs
        j = fucik.reduced_energy(p, v)
        assert abs(float(g @ v.coeffs) - 2.0 * j) <= 1e-8 * (1.0 + 2.0 * abs(j))


# ---------------------------------------------------------------------------
# sphere minimization


def test_sphere_diagonal_value_and_minimizer(local1):
    a = _alpha_at(local1, 0.5)
    p = fucik.FucikParams(alpha=a, beta=a, basis=local1)
    pt = fucik.minimize_on_sphere(p, seed=0)
    expected = 0.5 * (local1.lambda_k1 - a)
    assert abs(pt.m_value - expected) <= 1e-10 * expected
    # minimizer is +-phi_{k+1}
    assert abs(abs(pt.minimizer.coeffs[1]) - 1.0) <= 1e-6
    assert pt.eigenfunction is None  # m > 0: not a spectrum point
    assert pt.residual <= p.tol_grad
    assert pt.iterations > 0


def test_sphere_diagonal_resonance_point(local1):
    lam2 = local1.lambda_k1
    pt = fucik.minimize_on_sphere(fucik.FucikParams(lam2, lam2, local1), seed=0)
    assert abs(pt.m_value) <= 1e-12 * lam2
    assert pt.eigenfunction is not None
    nodal = pt.eigenfunction.nodal
    assert nodal.min() < 0.0 < nodal.max()


def test_sphere_positive_at_strip_edge(local2):
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.9), beta=local2.lambda_k1, basis=local2)
    pt = fucik.minimize_on_sphere(p, seed=0)
    assert pt.m_value > 0.0


def test_sphere_monotone_grid(local1):
    lam1, lam2 = local1.lambda_k, local1.lambda_k1
    alphas = [lam1 + f * (lam2 - lam1) for f in (0.3, 0.5, 0.7)]
    betas = [lam2, 1.5 * lam2, 2.5 * lam2]
    m = np.array(
        [
            [fucik.minimize_on_sphere(fucik.FucikParams(a, b, local1), seed=0).m_value for b in betas]
            for a in alphas
        ]
    )
    tol = fucik.FucikParams(alphas[0], betas[0], local1).tol_m
    assert np.all(m[1:, :] < m[:-1, :] + tol)  # decreasing in alpha
    assert np.all(m[:, 1:] < m[:, :-1] + tol)  # decreasing in beta
    assert np.all(m[:, 1:] < m[:, :-1] - tol)  # coarse beta step: strict


def test_sphere_not_above_scan_oracle(local1):
    # the oracle scans only the 2-mode circle, so it upper-bounds the min
    a = _alpha_at(local1, 0.5)
    p = fucik.FucikParams(alpha=a, beta=2.0 * local1.lambda_k1, basis=local1)
    pt = fucik.minimize_on_sphere(p, seed=0)
    m_scan, _ = fucik.brute_force_sphere_min(p, n_angles=256)
    assert pt.m_value <= m_scan + 1e-9 * (1.0 + abs(m_scan))


def test_sphere_warm_continuation_matches_multistart(local1):
    a = _alpha_at(local1, 0.5)
    p1 = fucik.FucikParams(alpha=a, beta=1.4 * local1.lambda_k1, basis=local1)
    p2 = fucik.FucikParams(alpha=a, beta=1.5 * local1.lambda_k1, basis=local1)
    warm = fucik.minimize_on_sphere(p1, seed=0)
    cold = fucik.minimize_on_sphere(p2, seed=0)
    cont = fucik.minimize_on_sphere(p2, seed=0, warm=warm.minimizer, multistart=False)
    assert abs(cont.m_value - cold.m_value) <= p2.tol_m
    assert cont.residual <= p2.tol_grad


class _ReferenceSolver(spectrum._SphereSolver):
    """The sphere solver with the earlier evaluation: full products with the
    sample table for the energy, the gradient and the composite field."""

    def eval(self, vh):
        p, k, basis = self.params, self.k, self.basis
        s = sample_table(basis)
        coeffs = np.zeros(basis.dim)
        coeffs[k:] = vh
        t = spectrum._maximize_t(p, s[:, k:] @ vh, self.t_warm)[0]
        self.t_warm = t
        coeffs[:k] = t
        val, grad, _ = spectrum._functional(basis, p.alpha, p.beta, coeffs, s @ coeffs)
        return val, grad[k:] - (2.0 * val) * vh, coeffs, s @ coeffs


def _reference_sphere_min(params, seed=0):
    """Earlier multistart: every start runs descent, then pattern freezing."""
    solver = _ReferenceSolver(params)
    dim_high = params.basis.dim - params.k
    starts = []
    for j in (0, 1):
        e = np.zeros(dim_high)
        e[j] = 1.0
        starts += [e, -e]
    r = np.random.default_rng(seed).standard_normal(dim_high)
    starts.append(r / np.linalg.norm(r))
    best = math.inf
    for v0 in starts:
        vh, _, _ = solver.descend(v0)
        _, (val, _, _, _), _ = solver.freeze_refine(vh)
        best = min(best, val)
    return best


@pytest.fixture(scope="module")
def frac2(frac1):
    return frac1.with_k(2)


@pytest.mark.parametrize("name", ["local1", "local2", "frac1", "frac2"])
def test_sphere_freeze_first_matches_descent_first(name, request):
    basis = request.getfixturevalue(name)
    a = _alpha_at(basis, 0.5)
    betas = [basis.lambda_k1, 1.5 * basis.lambda_k1]
    if name in ("local1", "frac1"):
        betas.append(fucik.beta_of_alpha(a, basis).beta)  # on the curve
    for b in betas:
        p = fucik.FucikParams(alpha=a, beta=b, basis=basis)
        pt = fucik.minimize_on_sphere(p, seed=0)
        assert pt.residual <= p.tol_grad
        assert abs(pt.m_value - _reference_sphere_min(p, seed=0)) <= p.tol_m


def test_sphere_start_falls_back_to_descent(local2, monkeypatch):
    # a first refinement that leaves each start where it is must still end
    # in a certified point through descent and a second refinement
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.5), beta=1.5 * local2.lambda_k1, basis=local2)
    expected = fucik.minimize_on_sphere(p, seed=0)
    refine, descend = spectrum._SphereSolver.freeze_refine, spectrum._SphereSolver.descend
    descended = []

    def stalled_refine(self, vh):
        if descended and descended[-1] is self:
            descended.append(None)
            return refine(self, vh)
        return vh, self.eval(vh), 0

    def counted_descend(self, vh):
        descended.append(self)
        return descend(self, vh)

    monkeypatch.setattr(spectrum._SphereSolver, "freeze_refine", stalled_refine)
    monkeypatch.setattr(spectrum._SphereSolver, "descend", counted_descend)
    pt = fucik.minimize_on_sphere(p, seed=0)
    assert len(descended) >= 2
    assert pt.residual <= p.tol_grad
    assert abs(pt.m_value - expected.m_value) <= p.tol_m


@pytest.fixture(scope="module")
def frac96():
    mesh = fucik.Mesh1D(-1.0, 1.0, 96)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(0.5), mesh), k=1)


def test_trace_curve_forms_no_nodal_values(frac96, monkeypatch):
    # every Field once formed its nodal values: 58 N x N products here
    nodal_from_coeffs = fucik.EigenBasis.nodal_from_coeffs
    calls = []

    def counted(self, coeffs):
        calls.append(None)
        return nodal_from_coeffs(self, coeffs)

    monkeypatch.setattr(fucik.EigenBasis, "nodal_from_coeffs", counted)
    branch = fucik.trace_curve(frac96, 5, seed=0)
    assert branch.samples and all(p.eigenfunction is not None for p in branch.samples)
    assert calls == []


def test_point_refuses_a_single_signed_eigenfunction(local1):
    # the sign-change certificate reads the samples, whose extrema are the
    # nodal ones: phi_1 is refused with either sign, phi_2 accepted
    def mode(j, sign=1.0):
        c = np.zeros(local1.dim)
        c[j] = sign
        return fucik.to_field(local1, coeffs=c)

    def point(eigenfunction):
        lam2 = local1.lambda_k1
        return fucik.FucikPoint(alpha=lam2, beta=lam2, m_value=0.0, minimizer=mode(1), eigenfunction=eigenfunction)

    assert point(mode(1)).eigenfunction is not None
    for sign in (1.0, -1.0):
        with pytest.raises(fucik.FucikError, match="change sign"):
            point(mode(0, sign))


def test_trace_curve_sphere_evaluation_budget(frac96, monkeypatch):
    # descent before refinement took 5,115 evaluations on this trace, the
    # bisection-and-secant root search 833 (328 now)
    evaluate = spectrum._SphereSolver.eval
    calls = []

    def counted(self, vh):
        calls.append(None)
        return evaluate(self, vh)

    monkeypatch.setattr(spectrum._SphereSolver, "eval", counted)
    branch = fucik.trace_curve(frac96, n_samples=5, seed=0)
    assert len(branch.samples) == 5
    assert len(calls) <= 2000


def test_continued_trace_sphere_evaluation_budget(frac96, monkeypatch):
    # 553 evaluations with a cold bracket at every alpha and a full
    # refinement of the certifying solve's stationary warm start, 382 with
    # the chosen start and its tied rivals evaluated again after their
    # steps, 328 since each step hands back the evaluation it accepted
    evaluate = spectrum._SphereSolver.eval
    calls = []

    def counted(self, vh):
        calls.append(None)
        return evaluate(self, vh)

    monkeypatch.setattr(spectrum._SphereSolver, "eval", counted)
    branch = fucik.trace_curve(frac96, n_samples=5, seed=0)
    assert len(branch.samples) == 5
    assert len(calls) <= 340


def test_trace_curve_frozen_step_budget(frac96, monkeypatch):
    # 180 frozen steps on this trace when every refinement factored its
    # patterns afresh, 150 once each sphere solve keeps them; a solver that
    # meets a pattern again must not factor it again, and since the frozen
    # Hessian is a function of the pattern, equal patterns give equal bytes
    frozen, refine = spectrum._frozen_minimum, spectrum._SphereSolver.freeze_refine
    current, steps = [], []

    def tracked(self, vh):
        current.append(self)
        try:
            return refine(self, vh)
        finally:
            current.pop()

    def counted(h, k):
        steps.append((current[-1], hash(h.tobytes())))
        return frozen(h, k)

    monkeypatch.setattr(spectrum._SphereSolver, "freeze_refine", tracked)
    monkeypatch.setattr(spectrum, "_frozen_minimum", counted)
    branch = fucik.trace_curve(frac96, n_samples=5, seed=0)
    assert len(branch.samples) == 5
    assert len(steps) <= 150
    assert len(set(steps)) == len(steps)


def test_freeze_refine_returns_a_stationary_start_unchanged(frac96, monkeypatch):
    # the certifying solve starts from the located root's minimizer; its
    # refinement must not pay a Schur solve and failed damping for it
    pt = fucik.beta_of_alpha(_trace_alphas(frac96, 5)[2], frac96)
    solver = spectrum._SphereSolver(fucik.FucikParams(pt.alpha, pt.beta, frac96))
    vh = pt.minimizer.coeffs[frac96.k :].copy()
    evaluate = spectrum._SphereSolver.eval
    calls = []

    def counted(self, v):
        calls.append(None)
        return evaluate(self, v)

    monkeypatch.setattr(spectrum._SphereSolver, "eval", counted)
    out, (val, g, _, _), used = solver.freeze_refine(vh)
    assert len(calls) == 1
    assert used == 0
    assert np.array_equal(out, vh)
    assert float(np.linalg.norm(g)) <= 0.05 * solver.params.tol_grad
    assert abs(val - pt.m_value) <= solver.params.tol_m


# ---------------------------------------------------------------------------
# root finding in beta


def test_beta_of_alpha_endpoint(local1):
    gap = local1.lambda_k1 - local1.lambda_k
    a = local1.lambda_k1 - 1e-3 * gap
    pt = fucik.beta_of_alpha(a, local1)
    assert abs(pt.beta - local1.lambda_k1) <= 1e-2 * gap
    assert pt.eigenfunction is not None


def test_beta_of_alpha_right_edge_is_diagonal(local1):
    pt = fucik.beta_of_alpha(local1.lambda_k1, local1)
    assert pt.beta == local1.lambda_k1
    assert abs(pt.m_value) <= fucik.FucikParams(pt.beta, pt.beta, local1).tol_m


def test_beta_of_alpha_monotone(local1):
    alphas = [_alpha_at(local1, f) for f in (0.35, 0.55, 0.8)]
    betas = [fucik.beta_of_alpha(a, local1).beta for a in alphas]
    assert betas[0] > betas[1] > betas[2] > local1.lambda_k1


def test_beta_of_alpha_matches_classical_relation(local1):
    for f in (0.3, 0.6, 0.9):
        a = _alpha_at(local1, f)
        pt = fucik.beta_of_alpha(a, local1)
        relation = 1.0 / math.sqrt(pt.alpha) + 1.0 / math.sqrt(pt.beta)
        assert abs(relation - 1.0) <= 1e-2


def test_beta_of_alpha_fractional_root_certified(frac1):
    a = _alpha_at(frac1, 0.5)
    pt = fucik.beta_of_alpha(a, frac1)
    p = fucik.FucikParams(pt.alpha, pt.beta, frac1)
    assert abs(pt.m_value) <= p.tol_m
    assert pt.beta > frac1.lambda_k1
    assert pt.eigenfunction is not None


def test_root_is_discrete_eigenfunction(local1):
    # at the root the full gradient of J at w vanishes: tangential part by
    # the stationarity certificate, radial part bounded by 2|m|
    a = _alpha_at(local1, 0.45)
    pt = fucik.beta_of_alpha(a, local1)
    p = fucik.FucikParams(pt.alpha, pt.beta, local1)
    res = fucik.eigen_residual(local1, pt.alpha, pt.beta, pt.eigenfunction)
    assert res <= p.tol_grad + 2.0 * p.tol_m
    g = fucik.reduced_gradient(p, pt.minimizer).coeffs
    assert float(np.linalg.norm(g)) <= p.tol_grad + 2.0 * p.tol_m


def test_beta_of_alpha_rejects_bad_tolerance(local1):
    with pytest.raises(fucik.ConfigError):
        fucik.beta_of_alpha(_alpha_at(local1, 0.5), local1, tol_beta=-1.0)


def _reference_locate_root(alpha, basis, tol_beta, tol_m, seed):
    """Earlier root search: bisection to tol_beta, then a secant polish."""
    lam_k, lam_k1 = basis.lambda_k, basis.lambda_k1
    point_lo = fucik.minimize_on_sphere(fucik.FucikParams(alpha, lam_k1, basis), seed=seed)
    if abs(point_lo.m_value) <= tol_m:
        return point_lo
    lo, m_lo, warm = lam_k1, point_lo.m_value, point_lo.minimizer
    hi = 2.0 * lam_k1 - lam_k
    while True:
        point_hi = spectrum._m_eval(fucik.FucikParams(alpha, hi, basis), seed, warm, False)
        m_hi, warm = point_hi.m_value, point_hi.minimizer
        if m_hi <= 0.0:
            break
        lo, m_lo = hi, m_hi
        hi = lam_k1 + 2.0 * (hi - lam_k1)
        assert hi <= 50.0 * lam_k1, "reference bracket passed the cap"
    best = point_hi if abs(m_hi) < abs(m_lo) else point_lo
    while hi - lo > tol_beta:
        mid = 0.5 * (lo + hi)
        point = spectrum._m_eval(fucik.FucikParams(alpha, mid, basis), seed, warm, False)
        warm = point.minimizer
        if abs(point.m_value) < abs(best.m_value):
            best = point
        if point.m_value > 0.0:
            lo, m_lo = mid, point.m_value
        else:
            hi, m_hi = mid, point.m_value
    b1, f1, b2, f2 = lo, m_lo, hi, m_hi
    for _ in range(12):
        if abs(best.m_value) <= tol_m or f2 == f1:
            break
        cand = b2 - f2 * (b2 - b1) / (f2 - f1)
        if not (lo <= cand <= hi):
            cand = 0.5 * (lo + hi)
        point = spectrum._m_eval(fucik.FucikParams(alpha, cand, basis), seed, warm, False)
        warm = point.minimizer
        if abs(point.m_value) < abs(best.m_value):
            best = point
        if point.m_value > 0.0:
            lo, m_lo = cand, point.m_value
        else:
            hi, m_hi = cand, point.m_value
        b1, f1, b2, f2 = b2, f2, cand, point.m_value
    assert abs(best.m_value) <= tol_m
    return best


def _trace_alphas(basis, n):
    """trace_curve's sample alphas, ascending, in its own arithmetic."""
    mid, half = 0.5 * (basis.lambda_k + basis.lambda_k1), 0.5 * (basis.lambda_k1 - basis.lambda_k)
    nodes = mid + half * np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    return [float(a) for a in np.sort(nodes)]


def _chebyshev_alphas(basis, n):
    """trace_curve's sample alphas, ascending."""
    mid, half = 0.5 * (basis.lambda_k + basis.lambda_k1), 0.5 * (basis.lambda_k1 - basis.lambda_k)
    return sorted(float(mid + half * math.cos(math.pi * (2 * j + 1) / (2 * n))) for j in range(n))


def _tolerances(basis, alpha):
    p = fucik.FucikParams(alpha, basis.lambda_k1, basis)
    return p.tol_beta, p.tol_m


@pytest.mark.parametrize(
    "name, alpha_of",
    [
        ("frac1", lambda b: _chebyshev_alphas(b, 5)[0]),
        ("frac1", lambda b: _alpha_at(b, 0.5)),
        ("frac2", lambda b: _chebyshev_alphas(b, 5)[0]),
        ("frac2", lambda b: _alpha_at(b, 0.7)),
        ("local1", lambda b: _alpha_at(b, 0.5)),
        ("local1", lambda b: _alpha_at(b, 0.85)),
        ("local2", lambda b: _alpha_at(b, 0.5)),
    ],
)
def test_locate_root_matches_bisection_secant_reference(name, alpha_of, request):
    basis = request.getfixturevalue(name)
    a = alpha_of(basis)
    tol_beta, tol_m = _tolerances(basis, a)
    expected = _reference_locate_root(a, basis, tol_beta, tol_m, seed=0)
    got = spectrum._locate_root(a, basis, tol_beta, tol_m, 0, careful=False)
    assert abs(got.m_value) <= tol_m
    assert abs(got.beta - expected.beta) <= tol_beta
    assert got.beta > basis.lambda_k1


def test_rootless_alpha_ends_in_bracket_exhausted(local1):
    # the lowest of five Chebyshev alphas sits so close to lambda_1 that the
    # root lies beyond 50 lambda_2
    a = _chebyshev_alphas(local1, 5)[0]
    with pytest.raises(fucik.BracketExhausted):
        fucik.beta_of_alpha(a, local1)


def test_locate_root_bisects_without_a_negative_slope(frac1, monkeypatch):
    # a slope that contradicts the envelope theorem must never be stepped
    # along: every interior beta is then a midpoint of two earlier ones, and
    # the root is still certified by tol_m
    a = _alpha_at(frac1, 0.5)
    tol_beta, tol_m = _tolerances(frac1, a)
    expected = spectrum._locate_root(a, frac1, tol_beta, tol_m, 0, careful=False)
    solve = spectrum.minimize_on_sphere
    betas, ms = [], []

    def positive_slope(params, *args, **kwargs):
        point = solve(params, *args, **kwargs)
        betas.append(params.beta)
        ms.append(point.m_value)
        return dataclasses.replace(point, beta_slope=1.0)

    monkeypatch.setattr(spectrum, "minimize_on_sphere", positive_slope)
    got = fucik.beta_of_alpha(a, frac1)
    assert abs(got.m_value) <= tol_m
    assert abs(got.beta - expected.beta) <= tol_beta
    bracket_end = next(i for i, b in enumerate(betas) if b > expected.beta)
    interior = betas[bracket_end + 1 : -1]  # the last solve certifies
    assert len(interior) >= 10
    for i, b in enumerate(interior, start=bracket_end + 1):
        earlier = betas[:i]
        assert any(b == 0.5 * (x + y) for x in earlier for y in earlier)
    # without a usable slope only the bracket can bound the error in beta
    lo = max(b for b, m in zip(betas, ms) if m > 0.0)
    hi = min(b for b, m in zip(betas, ms) if m <= 0.0)
    assert hi - lo <= tol_beta


def test_locate_root_bisects_when_newton_oscillates(local1, monkeypatch):
    # on m(beta) = -c sign(x) |x|^0.55, x = beta - r, a Newton step maps x
    # to -0.82 x: every step stays inside the bracket and unguarded Newton
    # spends the iteration cap; the halving test turns the slow steps into
    # bisections
    a = _alpha_at(local1, 0.5)
    tol_beta, tol_m = _tolerances(local1, a)
    template = fucik.minimize_on_sphere(fucik.FucikParams(a, local1.lambda_k1, local1))
    r = local1.lambda_k1 + 0.37 * (local1.lambda_k1 - local1.lambda_k)
    calls = []

    def synthetic(params, seed=0, warm=None, multistart=True):
        calls.append(None)
        x = params.beta - r
        m = -1e-4 * math.copysign(abs(x) ** 0.55, x)
        slope = -0.55e-4 * abs(x) ** -0.45 if x else -math.inf
        return dataclasses.replace(template, beta=params.beta, m_value=m, beta_slope=slope, eigenfunction=None)

    monkeypatch.setattr(spectrum, "minimize_on_sphere", synthetic)
    got = spectrum._locate_root(a, local1, tol_beta, tol_m, 0, careful=False)
    assert abs(got.m_value) <= tol_m
    assert abs(got.beta - r) <= tol_beta
    assert got.root_solves == len(calls) <= 25


def test_locate_root_steps_from_the_live_bracket_end(local1, monkeypatch):
    # on m(beta) = c (exp((r - beta) / L) - 1) with the root between the
    # first and second doubling points, the first doubling point is the
    # bracket end with the smaller |m|; Newton must step from there and not
    # from the earlier solve at lambda_{k+1}
    a = _alpha_at(local1, 0.5)
    tol_beta, tol_m = _tolerances(local1, a)
    lam_k, lam_k1 = local1.lambda_k, local1.lambda_k1
    template = fucik.minimize_on_sphere(fucik.FucikParams(a, lam_k1, local1))
    first, second = 2.0 * lam_k1 - lam_k, 3.0 * lam_k1 - 2.0 * lam_k
    r, scale = first + 0.2 * (second - first), lam_k1 - lam_k
    betas = []

    def m_and_slope(beta):
        e = math.exp((r - beta) / scale)
        return 1e-4 * (e - 1.0), -1e-4 * e / scale

    def synthetic(params, seed=0, warm=None, multistart=True):
        betas.append(params.beta)
        m, slope = m_and_slope(params.beta)
        return dataclasses.replace(template, beta=params.beta, m_value=m, beta_slope=slope, eigenfunction=None)

    monkeypatch.setattr(spectrum, "minimize_on_sphere", synthetic)
    got = spectrum._locate_root(a, local1, tol_beta, tol_m, 0, careful=False)
    assert betas[:3] == pytest.approx([lam_k1, first, second], rel=1e-12)
    m, slope = m_and_slope(betas[1])
    assert betas[3] == pytest.approx(betas[1] - m / slope, rel=1e-12)
    assert abs(got.m_value) <= tol_m
    assert abs(got.beta - r) <= tol_beta
    assert got.root_solves == len(betas)


def test_root_search_solve_budget(frac96, monkeypatch):
    # bisection to tol_beta plus the secant polish took 23-35 solves per root
    solve = spectrum.minimize_on_sphere
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "minimize_on_sphere", counted)
    for a in _chebyshev_alphas(frac96, 5):
        calls.clear()
        pt = fucik.beta_of_alpha(a, frac96, seed=3)
        assert len(calls) <= 15
        assert pt.root_solves == len(calls)
        assert not pt.careful


def test_careful_reroot_is_flagged_and_counted(frac1, monkeypatch):
    # a certifying solve that misses tol_m sends beta_of_alpha into the
    # all-multistart re-root; the returned point says so and counts both
    a = _alpha_at(frac1, 0.5)
    solve = spectrum.minimize_on_sphere
    calls = []

    def failing_certificate(params, seed=0, warm=None, multistart=True):
        calls.append(multistart)
        point = solve(params, seed=seed, warm=warm, multistart=multistart)
        if multistart and warm is not None and calls.count(True) == 2:
            return dataclasses.replace(point, m_value=1.0, eigenfunction=None)
        return point

    monkeypatch.setattr(spectrum, "minimize_on_sphere", failing_certificate)
    pt = fucik.beta_of_alpha(a, frac1)
    assert pt.careful
    assert pt.root_solves == len(calls)
    assert abs(pt.m_value) <= _tolerances(frac1, a)[1]


@pytest.mark.parametrize("name", ["local1", "frac1"])
def test_beta_slope_is_the_envelope_derivative(name, request):
    basis = request.getfixturevalue(name)
    a = _alpha_at(basis, 0.5)
    pt = fucik.beta_of_alpha(a, basis)
    h = 1e-3 * basis.lambda_k1

    def m(beta):
        return fucik.minimize_on_sphere(fucik.FucikParams(a, beta, basis), warm=pt.minimizer).m_value

    central = (m(pt.beta + h) - m(pt.beta - h)) / (2.0 * h)
    assert pt.beta_slope < 0.0
    assert abs(pt.beta_slope - central) <= 1e-3 * abs(central)


# ---------------------------------------------------------------------------
# curve tracing and symmetry


@pytest.fixture(scope="module")
def branch5(local1):
    return fucik.trace_curve(local1, n_samples=5, seed=0)


def test_trace_requires_three_samples(local1):
    with pytest.raises(fucik.ConfigError):
        fucik.trace_curve(local1, n_samples=2)


def test_trace_invariants(branch5, local1):
    alphas = [p.alpha for p in branch5.samples]
    betas = [p.beta for p in branch5.samples]
    assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))
    assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))
    assert all(b > local1.lambda_k1 - branch5.tolerances["tol_beta"] for b in betas)
    assert branch5.lipschitz > 0.0
    assert not branch5.mirrored


def test_trace_partial_branch_annotated(branch5, local1):
    # the extreme low node sits so close to lambda_k that the true beta
    # exceeds the bracket cap; the trace must report it, not fail
    n_nodes = 5
    returned = len(branch5.samples) + len(branch5.annotations)
    assert returned == n_nodes
    for note in branch5.annotations:
        assert "beta" in note


@pytest.mark.parametrize("s, k", [(1e-3, 1), (1e-3, 2), (0.999, 1), (0.999, 2), (0.5, 4), (0.5, 8)])
def test_trace_certifies_every_sample_at_the_edges(s, k):
    # near s = 0 and s = 1 and in higher strips the margin lambda_k < alpha
    # that the frozen step's Cholesky of -h11 relies on is thinnest
    mesh = fucik.Mesh1D(-1.0, 1.0, 64)
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(s), mesh), k=k)
    branch = fucik.trace_curve(basis, n_samples=3, seed=0)
    assert branch.annotations == ()
    assert len(branch.samples) == 3
    assert all(abs(p.m_value) <= branch.tolerances["tol_m"] for p in branch.samples)


@pytest.fixture(scope="module")
def frac96_quarter():
    mesh = fucik.Mesh1D(-1.0, 1.0, 96)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(0.25), mesh), k=1)


@pytest.fixture(scope="module")
def frac96_k2(frac96):
    return frac96.with_k(2)


@pytest.fixture(scope="module")
def local96():
    mesh = fucik.Mesh1D(0.0, math.pi, 96)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)


@pytest.mark.parametrize("name", ["frac96_quarter", "frac96_k2", "local96"])
def test_continued_trace_matches_independent_roots(name, request):
    # s = 0.25, k = 1 is where letting Newton size the expansion lost a root
    basis = request.getfixturevalue(name)
    branch = fucik.trace_curve(basis, n_samples=5, seed=0)
    points, annotations = [], []
    for a in _trace_alphas(basis, 5):
        try:
            points.append(fucik.beta_of_alpha(a, basis, seed=0))
        except (fucik.BracketExhausted, fucik.MaxIterations) as e:
            annotations.append(f"alpha={a!r}: {e}")
    assert branch.annotations == tuple(annotations)
    assert [p.alpha for p in branch.samples] == [p.alpha for p in points]
    for got, ref in zip(branch.samples, points):
        assert abs(got.beta - ref.beta) <= branch.tolerances["tol_beta"]
        assert not got.careful
    assert not branch.samples[0].continued
    assert any(p.continued for p in branch.samples[1:])


def test_continued_trace_certifies_each_root_and_starts_cold_once(frac96, monkeypatch):
    solve = spectrum.minimize_on_sphere
    kinds = []

    def counted(params, seed=0, warm=None, multistart=True):
        kinds.append((warm is not None, multistart))
        return solve(params, seed=seed, warm=warm, multistart=multistart)

    monkeypatch.setattr(spectrum, "minimize_on_sphere", counted)
    branch = fucik.trace_curve(frac96, n_samples=5, seed=0)
    assert not branch.annotations
    assert kinds.count((True, True)) == len(branch.samples)  # certifications
    assert kinds.count((False, True)) == 1  # the first alpha's cold bracket
    assert all(p.continued for p in branch.samples[1:])


def test_positive_warm_value_at_previous_root_takes_the_cold_path(frac96, monkeypatch):
    a1, a2 = _trace_alphas(frac96, 5)[1:3]
    previous = fucik.beta_of_alpha(a1, frac96)
    expected = fucik.beta_of_alpha(a2, frac96)
    assert fucik.beta_of_alpha(a2, frac96, previous=previous).continued
    solve = spectrum.minimize_on_sphere
    cold = []

    def positive_at_previous(params, seed=0, warm=None, multistart=True):
        point = solve(params, seed=seed, warm=warm, multistart=multistart)
        if warm is None:
            cold.append(params.beta)
        if params.beta == previous.beta and not multistart:
            return dataclasses.replace(point, m_value=abs(point.m_value) + 1.0, eigenfunction=None)
        return point

    monkeypatch.setattr(spectrum, "minimize_on_sphere", positive_at_previous)
    got = fucik.beta_of_alpha(a2, frac96, previous=previous)
    assert not got.continued and not got.careful
    assert cold == [frac96.lambda_k1]
    assert abs(got.beta - expected.beta) <= _tolerances(frac96, a2)[0]
    assert got.root_solves == expected.root_solves + 1  # the warm solve counts


def test_swap_point_residual_identity(branch5, local1):
    pt = branch5.samples[len(branch5.samples) // 2]
    sw = fucik.swap(pt)
    assert sw.alpha == pt.beta and sw.beta == pt.alpha
    r1 = fucik.eigen_residual(local1, pt.alpha, pt.beta, pt.eigenfunction)
    r2 = fucik.eigen_residual(local1, sw.alpha, sw.beta, sw.eigenfunction)
    assert abs(r1 - r2) <= 1e-15


def test_swap_copies_root_diagnostics(branch5):
    pt = branch5.samples[0]
    assert pt.root_solves >= 3 and not pt.careful
    sw = fucik.swap(pt)
    assert (sw.root_solves, sw.careful) == (pt.root_solves, pt.careful)
    flagged = fucik.swap(dataclasses.replace(pt, careful=True))
    assert flagged.careful


def test_swap_diagonal_point_fixed(local1):
    lam2 = local1.lambda_k1
    pt = fucik.minimize_on_sphere(fucik.FucikParams(lam2, lam2, local1), seed=0)
    sw = fucik.swap(pt)
    assert sw.alpha == pt.alpha and sw.beta == pt.beta
    assert abs(sw.m_value - pt.m_value) <= 1e-15


def test_swap_branch_mirrors_and_inverts(branch5):
    sw = fucik.swap(branch5)
    assert sw.mirrored
    assert [p.alpha for p in sw.samples] == [p.beta for p in reversed(branch5.samples)]
    assert [p.beta for p in sw.samples] == [p.alpha for p in reversed(branch5.samples)]
    back = fucik.swap(sw)
    assert not back.mirrored
    for a, b in zip(back.samples, branch5.samples):
        assert a.alpha == b.alpha and a.beta == b.beta
        assert np.array_equal(a.minimizer.coeffs, b.minimizer.coeffs)


def test_swap_rejects_other_types():
    with pytest.raises(fucik.ConfigError):
        fucik.swap(3.0)


# ---------------------------------------------------------------------------
# structural invariants on random inputs


def test_concavity_inequality_random_pairs(local2):
    rng = np.random.default_rng(43)
    a = _alpha_at(local2, 0.5)
    p = fucik.FucikParams(alpha=a, beta=2.0 * local2.lambda_k1, basis=local2)
    delta = p.delta
    k = local2.k
    for _ in range(100):
        v = _high_field(local2, rng)
        t1 = rng.standard_normal(k)
        t2 = rng.standard_normal(k)
        c1 = np.zeros(local2.dim)
        c1[:k] = t1
        c2 = np.zeros(local2.dim)
        c2[:k] = t2
        g1 = fucik.fucik_gradient(p, fucik.to_field(local2, coeffs=c1 + v.coeffs)).coeffs
        g2 = fucik.fucik_gradient(p, fucik.to_field(local2, coeffs=c2 + v.coeffs)).coeffs
        lhs = float((g2 - g1)[:k] @ (t2 - t1))
        energy_sq = float(local2.eigenvalues[:k] @ (t2 - t1) ** 2)
        assert lhs <= -delta * energy_sq + 1e-8


def _strip_case(length):
    # local kernel, 16 elements on (0, length), k = 2, alpha mid-strip,
    # beta = 1.5 lambda_3, and the low maximizer of a random high field
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.0, length, 16)), k=2)
    p = fucik.FucikParams(alpha=_alpha_at(basis, 0.5), beta=1.5 * basis.lambda_k1, basis=basis)
    v = _high_field(basis, np.random.default_rng(61))
    t0 = np.zeros(basis.k)
    return p, v, t0, spectrum._maximize_t(p, v.samples, t0)[0]


@pytest.mark.parametrize("length", [1.0, 1e20])
def test_concavity_certificate_refuses_a_convex_gradient_at_any_scale(length, monkeypatch):
    # the slack was once 1e-6 (1 + ||dt||_A^2)(1 + beta), which on (0, 1e20)
    # is about 1e34 times the certificate's own terms and passed anything
    p, v, t0, t = _strip_case(length)
    spectrum._check_concavity(p, v, t0, t)
    functional = spectrum._functional

    def flipped(*args, **kwargs):
        val, grad, reaction = functional(*args, **kwargs)
        return val, -grad, reaction

    monkeypatch.setattr(spectrum, "_functional", flipped)
    with pytest.raises(fucik.FucikError, match="concavity"):
        spectrum._check_concavity(p, v, t0, t)


def test_curve_branch_refuses_a_rising_pair_on_a_long_domain():
    # lambda_{k+1} ~ 1e-39 here, so the former slack 1e-12 (1 + lambda_{k+1})
    # admitted a rise of 1e27 times beta
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.0, 1e20, 16)), k=1)
    e2 = np.zeros(basis.dim)
    e2[1] = 1.0
    minimizer = fucik.to_field(basis, coeffs=e2)
    lam1, lam2 = basis.lambda_k, basis.lambda_k1
    tolerances = {"tol_grad": 1e-9 * lam2, "tol_m": 1e-8 * lam2, "tol_beta": 1e-6 * lam2}

    def branch(beta_2):
        samples = tuple(
            fucik.FucikPoint(alpha=a, beta=b, m_value=0.0, minimizer=minimizer)
            for a, b in ((lam1 + 0.4 * (lam2 - lam1), 2.0 * lam2), (lam1 + 0.6 * (lam2 - lam1), beta_2))
        )
        return fucik.CurveBranch(k=1, lambda_k=lam1, lambda_k1=lam2, samples=samples, tolerances=tolerances)

    branch(1.9 * lam2)
    with pytest.raises(fucik.FucikError, match="decreasing"):
        branch(2.001 * lam2)


def test_maximizer_norm_bound_fit_holdout(local2):
    # a single finite rho must cover fresh draws once fitted
    rng = np.random.default_rng(47)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.5), beta=1.8 * local2.lambda_k1, basis=local2)

    def ratio():
        v = _high_field(local2, rng, scale=float(rng.uniform(0.1, 5.0)))
        return fucik.maximize_low(p, v).norm_energy / v.norm_l2

    fit = max(ratio() for _ in range(100))
    holdout = max(ratio() for _ in range(100))
    assert np.isfinite(fit)
    assert holdout <= 1.25 * fit + 1e-9


def test_maximizer_lipschitz_fit_holdout(local2):
    rng = np.random.default_rng(53)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.5), beta=1.8 * local2.lambda_k1, basis=local2)

    def ratio():
        v1 = _high_field(local2, rng)
        v2 = fucik.to_field(local2, coeffs=v1.coeffs + 0.5 * _high_field(local2, rng).coeffs)
        num = _energy_dist(local2, fucik.maximize_low(p, v1), fucik.maximize_low(p, v2))
        den = float(np.linalg.norm(v2.coeffs - v1.coeffs))
        return num / den

    fit = max(ratio() for _ in range(100))
    holdout = max(ratio() for _ in range(100))
    assert np.isfinite(fit)
    assert holdout <= 1.25 * fit + 1e-9


def test_composite_field_changes_sign(local2):
    rng = np.random.default_rng(59)
    p = fucik.FucikParams(alpha=_alpha_at(local2, 0.5), beta=2.2 * local2.lambda_k1, basis=local2)
    for _ in range(100):
        v = _high_field(local2, rng, scale=float(rng.uniform(0.05, 10.0)))
        w = fucik.maximize_low(p, v).coeffs + v.coeffs
        nodal = fucik.to_field(local2, coeffs=w).nodal
        scale = np.max(np.abs(nodal))
        assert nodal.min() < -1e-12 * scale
        assert nodal.max() > 1e-12 * scale
