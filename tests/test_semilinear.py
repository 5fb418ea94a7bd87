"""Tests for the forced semilinear solver: nonlinearity certification,
regime classification, admissibility check, and the saddle-point search."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import fucik
from fucik import semilinear
from table_reference import assert_close, sample_table


@pytest.fixture(scope="module")
def basis():
    mesh = fucik.Mesh1D(0.0, math.pi, 48)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)


def _mid_alpha(basis, frac=0.5):
    return basis.lambda_k + frac * (basis.lambda_k1 - basis.lambda_k)


def _field(basis, coeffs):
    c = np.zeros(basis.dim)
    c[: len(coeffs)] = coeffs
    return fucik.to_field(basis, coeffs=c)


def _zero_field(basis):
    return fucik.to_field(basis, coeffs=np.zeros(basis.dim))


def _log_cosh(t):
    t = np.abs(np.asarray(t, dtype=float))
    return t + np.log1p(np.exp(-2.0 * t)) - math.log(2.0)


def _nonres_problem(basis, nl=None, h=None, frac=0.5):
    a = _mid_alpha(basis, frac)
    p = fucik.FucikParams(alpha=a, beta=a, basis=basis)
    return fucik.build_problem(
        p, nl if nl is not None else fucik.Nonlinearity.tanh(), h if h is not None else _zero_field(basis)
    )


def _diag_resonance(basis, nl, h):
    lam2 = basis.lambda_k1
    return fucik.build_problem(fucik.FucikParams(lam2, lam2, basis), nl, h)


# ---------------------------------------------------------------------------
# nonlinearity certification


def test_builtins_validate():
    for ctor in (
        fucik.Nonlinearity.zero,
        fucik.Nonlinearity.tanh,
        fucik.Nonlinearity.atan_scaled,
        fucik.Nonlinearity.bounded_poly_clip,
    ):
        rep = ctor().validate()
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        assert rep.check("bound").passed


def test_antiderivative_values():
    t = np.array([-3.0, -0.5, 0.0, 1.2, 10.0])
    tanh = fucik.Nonlinearity.tanh()
    assert np.max(np.abs(tanh.primitive(t) - np.log(np.cosh(t)))) <= 1e-12
    clip = fucik.Nonlinearity.bounded_poly_clip()
    assert clip.primitive(0.5) == 0.125
    assert clip.primitive(-3.0) == 2.5
    zero = fucik.Nonlinearity.zero()
    assert np.all(zero.primitive(t) == 0.0)


def test_atan_scaled_limits_and_sign():
    nl = fucik.Nonlinearity.atan_scaled()
    assert nl.limit_left == 1.0 and nl.limit_right == -1.0
    assert nl.evaluate(1e9) < -0.999
    assert nl.evaluate(-1e9) > 0.999


def test_derivative_analytic_and_fd_paths():
    tanh = fucik.Nonlinearity.tanh()
    t = np.array([-1.0, 0.3, 2.0])
    assert np.max(np.abs(tanh.derivative(t) - (1.0 - np.tanh(t) ** 2))) <= 1e-12
    pts = np.linspace(-6.0, 6.0, 1201)
    table = fucik.Nonlinearity.from_table(pts, np.tanh(pts))
    assert np.max(np.abs(table.derivative(t) - (1.0 - np.tanh(t) ** 2))) <= 1e-3


@pytest.mark.parametrize("t", [400.0, -400.0, 800.0, -800.0, [400.0, -800.0], [-400.0, 800.0, 0.0]])
def test_tanh_derivative_does_not_overflow(t):
    # pytest turns RuntimeWarnings into errors: sech^2 t must not form cosh t
    got = fucik.Nonlinearity.tanh().derivative(t)
    assert got.shape == np.shape(t)
    assert np.array_equal(got, np.where(np.asarray(t) == 0.0, 1.0, 0.0))


def test_overstated_bound_fails_validation():
    nl = fucik.Nonlinearity(
        name="lying", func=np.tanh, bound=0.5, limit_left=-1.0, limit_right=1.0,
        antiderivative=_log_cosh,
    )
    rep = nl.validate()
    assert not rep.check("bound").passed
    assert not rep.passed


def test_table_rejects_malformed():
    with pytest.raises(fucik.ConfigError):
        fucik.Nonlinearity.from_table([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])


def test_table_quadrature_antiderivative():
    pts = np.linspace(-8.0, 8.0, 801)
    table = fucik.Nonlinearity.from_table(pts, np.tanh(pts))
    probe = np.array([-5.0, -1.0, 0.0, 2.5, 7.0])
    err = np.max(np.abs(table.primitive(probe) - np.log(np.cosh(probe))))
    assert err <= 5e-5  # limited by table interpolation, not quadrature
    # values do not depend on evaluation order
    other = fucik.Nonlinearity.from_table(pts, np.tanh(pts))
    other.primitive(np.array([7.0, 0.1]))
    assert other.primitive(2.5) == table.primitive(2.5)


def test_steep_table_certifies():
    # slope 10 between knots at -0.1, 0, 0.1: central differences across
    # those knots on a dense grid would miss the 1e-6 consistency bound
    table = fucik.Nonlinearity.from_table([-0.1, 0.0, 0.1], [-1.0, 0.0, 1.0])
    rep = table.validate()
    assert rep.passed, [(c.name, c.details) for c in rep.checks if not c.passed]


def test_nonlinearity_requires_antiderivative():
    with pytest.raises(fucik.ConfigError):
        fucik.Nonlinearity(name="bare", func=np.tanh, bound=1.0)


@st.composite
def _tables(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    start = draw(st.floats(min_value=-4.0, max_value=1.0))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n))
    points = start + np.concatenate([[0.0], np.cumsum(gaps)])
    return points, np.array(values)


@settings(max_examples=60, deadline=None)
@given(table=_tables(), t=st.floats(min_value=-12.0, max_value=12.0))
def test_table_primitive_matches_quadrature(table, t):
    points, values = table
    nl = fucik.Nonlinearity.from_table(points, values)
    # one probe in each constant-extrapolation tail besides the drawn one
    for probe in (t, points[0] - 2.5, points[-1] + 2.5):
        lo, hi = sorted((0.0, probe))
        breaks = [lo, *(x for x in points if lo < x < hi), hi]
        # the interpolant is linear between breaks, where quad is exact
        ref = sum(scipy.integrate.quad(lambda x: np.interp(x, points, values), a, b)[0]
                  for a, b in zip(breaks, breaks[1:]))
        ref = ref if probe >= 0.0 else -ref
        assert abs(float(nl.primitive(probe)) - ref) <= 1e-12 * (1.0 + abs(probe))
    assert nl.primitive(0.0) == 0.0


# ---------------------------------------------------------------------------
# classification and problem construction


def test_classify_diagonal_below_curve(basis):
    a = _mid_alpha(basis)
    regime, point = fucik.classify(fucik.FucikParams(a, a, basis))
    assert regime == fucik.NONRESONANCE
    assert point is None  # shortcut: beta <= lambda_{k+1}


def test_classify_on_and_above_curve(basis):
    a = _mid_alpha(basis, 0.6)
    root = fucik.beta_of_alpha(a, basis)
    regime_on, point_on = fucik.classify(fucik.FucikParams(a, root.beta, basis))
    assert regime_on == fucik.RESONANCE
    assert abs(point_on.beta - root.beta) <= 1e-9 * root.beta
    regime_above, _ = fucik.classify(fucik.FucikParams(a, root.beta + 1.0, basis))
    assert regime_above == fucik.OUT_OF_SCOPE


def test_classify_resonance_corner(basis):
    lam2 = basis.lambda_k1
    params = fucik.FucikParams(lam2, lam2, basis)
    regime, point = fucik.classify(params)
    assert regime == fucik.RESONANCE
    assert point is None  # shortcut: the diagonal corner
    assert fucik.build_problem(params, fucik.Nonlinearity.zero(), _zero_field(basis)).curve_beta == lam2


def test_build_rejects_out_of_scope(basis):
    a = _mid_alpha(basis, 0.6)
    root = fucik.beta_of_alpha(a, basis)
    with pytest.raises(fucik.ConfigError):
        fucik.build_problem(
            fucik.FucikParams(a, root.beta + 1.0, basis), fucik.Nonlinearity.zero(), _zero_field(basis)
        )


def test_build_rejects_uncertified_nonlinearity(basis):
    bad = fucik.Nonlinearity(
        name="lying", func=np.tanh, bound=0.5, limit_left=-1.0, limit_right=1.0,
        antiderivative=_log_cosh,
    )
    a = _mid_alpha(basis)
    with pytest.raises(fucik.ConfigError):
        fucik.build_problem(fucik.FucikParams(a, a, basis), bad, _zero_field(basis))


def test_build_populates_eigenset_at_resonance(basis):
    prob = _diag_resonance(basis, fucik.Nonlinearity.zero(), _zero_field(basis))
    assert prob.regime == fucik.RESONANCE
    assert len(prob.eigenset) >= 1
    for w in prob.eigenset:
        assert abs(float(np.linalg.norm(w.coeffs)) - 1.0) <= 1e-12


@pytest.mark.parametrize("offset", [-0.5, 0.5])
def test_numeric_beta_at_resonance_has_the_on_curve_eigenset(offset):
    # a beta within tol_beta of the root gets the root's certified eigenset:
    # both eigenfunctions there, each solving the equation at the root
    mesh = fucik.Mesh1D(0.0, math.pi, 64)
    b64 = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    doc = {"alpha": 3.0, "beta": "on-curve", "f": {"name": "atan_scaled"}, "h": {"named": "phi_1"}}
    on_curve = fucik.problem_from_dict(b64, doc)
    root_beta = on_curve.curve_beta
    tol_beta = on_curve.params.tol_beta
    numeric = fucik.problem_from_dict(b64, {**doc, "beta": root_beta + offset * tol_beta})
    assert numeric.regime == on_curve.regime == fucik.RESONANCE
    assert numeric.curve_beta == root_beta
    assert len(numeric.eigenset) == len(on_curve.eigenset) == 2
    for w, ref in zip(numeric.eigenset, on_curve.eigenset):
        assert np.allclose(w.coeffs, ref.coeffs, rtol=0.0, atol=1e-12)
        assert fucik.eigen_residual(b64, 3.0, root_beta, w) <= 1e-8


# ---------------------------------------------------------------------------
# energy and gradient


def test_energy_reduces_to_quadratic(basis):
    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.zero())
    rng = np.random.default_rng(2)
    u = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim))
    assert fucik.semilinear_energy(prob, u) == fucik.fucik_energy(prob.params, u)
    g1 = fucik.semilinear_gradient(prob, u).coeffs
    g2 = fucik.fucik_gradient(prob.params, u).coeffs
    assert np.max(np.abs(g1 - g2)) <= 1e-14


def test_energy_forcing_bound(basis):
    # |E - J| <= ||M_f + |h|||_L2 * ||u||_L2
    rng = np.random.default_rng(3)
    h = _field(basis, [0.4, -0.2, 0.7])
    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.tanh(), h=h)
    bound_fn = prob.nonlinearity.bound + np.abs(h.samples)
    K = math.sqrt(float(basis.sample_weights @ bound_fn**2))
    for _ in range(100):
        u = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim) * rng.uniform(0.05, 30.0))
        gap = abs(fucik.semilinear_energy(prob, u) - fucik.fucik_energy(prob.params, u))
        assert gap <= K * u.norm_l2 + 1e-9


def test_energy_anticoercive_on_low_subspace(basis):
    # E(u) <= (1 - alpha/lambda_k)/2 * ||u||_A^2 + C ||u||_A on the low span
    h = _field(basis, [0.3])
    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.tanh(), h=h)
    a = prob.params.alpha
    lam1 = basis.lambda_k
    K = math.sqrt(float(basis.sample_weights @ (1.0 + np.abs(h.samples)) ** 2))
    C = K / math.sqrt(lam1)
    for norm_a in (10.0, 1e2, 1e3):
        for sign in (1.0, -1.0):
            u = _field(basis, [sign * norm_a / math.sqrt(lam1)])
            val = fucik.semilinear_energy(prob, u)
            assert val <= 0.5 * (1.0 - a / lam1) * norm_a**2 + C * norm_a + 1e-9


def test_gradient_matches_finite_differences(basis):
    rng = np.random.default_rng(7)
    h = _field(basis, [0.1, 0.05])
    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.tanh(), h=h)
    eps = 1e-5
    for _ in range(20):
        u = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim))
        d = rng.standard_normal(basis.dim)
        d /= np.linalg.norm(d)
        g = fucik.semilinear_gradient(prob, u).coeffs
        ep = fucik.semilinear_energy(prob, fucik.to_field(basis, coeffs=u.coeffs + eps * d))
        em = fucik.semilinear_energy(prob, fucik.to_field(basis, coeffs=u.coeffs - eps * d))
        fd = (ep - em) / (2.0 * eps)
        assert abs(float(g @ d) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_gradient_linear_identity(basis):
    # f = 0: the Fredholm coefficients zero the gradient exactly
    rng = np.random.default_rng(11)
    mu = 0.5 * (basis.lambda_k + basis.lambda_k1)
    h = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim))
    prob = fucik.build_problem(
        fucik.FucikParams(mu, mu, basis), fucik.Nonlinearity.zero(), h
    )
    u = fucik.to_field(basis, coeffs=h.coeffs / (basis.eigenvalues - mu))
    g = fucik.semilinear_gradient(prob, u).coeffs
    assert np.max(np.abs(g)) <= 1e-12


def test_manifold_lower_bound(basis):
    # E(M(v)+v) >= m ||v||^2 - K ||M(v)+v|| in the nonresonance regime
    rng = np.random.default_rng(13)
    h = _field(basis, [0.2, -0.1])
    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.atan_scaled(), h=h, frac=0.4)
    p = prob.params
    m = fucik.minimize_on_sphere(p, seed=0).m_value
    assert m > 0.0
    bound_fn = prob.nonlinearity.bound + np.abs(h.samples)
    K = math.sqrt(float(basis.sample_weights @ bound_fn**2))
    for _ in range(100):
        c = np.zeros(basis.dim)
        c[basis.k :] = rng.standard_normal(basis.dim - basis.k) * rng.uniform(0.05, 10.0)
        v = fucik.to_field(basis, coeffs=c)
        w = fucik.to_field(basis, coeffs=fucik.maximize_low(p, v).coeffs + c)
        val = fucik.semilinear_energy(prob, w)
        assert val >= m * v.norm_l2**2 - K * w.norm_l2 - 1e-8


def test_residual_report_random_field(basis):
    rng = np.random.default_rng(17)
    prob = _nonres_problem(basis)
    u = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim))
    rep = fucik.residual_report(prob, u)
    g = fucik.semilinear_gradient(prob, u).coeffs
    assert np.max(np.abs(rep.per_mode - g)) <= 1e-12
    assert rep.max_abs == np.max(np.abs(g))


# ---------------------------------------------------------------------------
# admissibility check


def test_gll_requires_limits(basis):
    nolimits = fucik.Nonlinearity(name="nolimits", func=np.tanh, bound=1.0,
                                  antiderivative=_log_cosh)
    prob = _diag_resonance(basis, nolimits, _zero_field(basis))
    with pytest.raises(fucik.MissingLimits):
        fucik.check_gll(prob)


def test_gll_requires_resonance(basis):
    prob = _nonres_problem(basis)
    with pytest.raises(fucik.ConfigError):
        fucik.check_gll(prob)


def test_gll_satisfied_for_crossing_limits(basis):
    # f_l = 1 > f_r = -1 forces r(v) = -int(v+) - int(v-) < 0 for every ray
    prob = _diag_resonance(basis, fucik.Nonlinearity.atan_scaled(), _zero_field(basis))
    rep = fucik.check_gll(prob)
    assert rep.satisfied
    assert all(r < 0.0 for r in rep.ray_values)
    assert rep.slope_consistent
    assert rep.eigenset_size >= 1


def test_gll_boundary_case_fails(basis):
    prob = _diag_resonance(basis, fucik.Nonlinearity.zero(), _zero_field(basis))
    rep = fucik.check_gll(prob)
    assert not rep.satisfied
    assert all(abs(r) <= 1e-12 for r in rep.ray_values)


def test_gll_diagonal_window_width(basis):
    prob = _diag_resonance(basis, fucik.Nonlinearity.atan_scaled(), _zero_field(basis))
    rep = fucik.check_gll(prob)
    lower, value, upper = rep.window
    v = prob.eigenset[0]
    w = basis.sample_weights
    mass = float(w @ np.abs(v.samples))
    f_l, f_r = 1.0, -1.0
    assert abs((upper - lower) - (f_l - f_r) * mass) <= 1e-9
    assert lower < value < upper


def test_gll_slope_matches_ray_functional(basis):
    h = _field(basis, [0.05, 0.02])
    prob = _diag_resonance(basis, fucik.Nonlinearity.tanh(), h)
    rep = fucik.check_gll(prob)
    for slope, r in zip(rep.ray_slopes, rep.ray_values):
        assert abs(slope - r) <= 0.02 * abs(r) + 1e-6


# ---------------------------------------------------------------------------
# saddle-point solves


@pytest.mark.parametrize("kernel, domain, k", [
    (fucik.Kernel.local(), (0.0, math.pi), 1),
    (fucik.Kernel.fractional(s=0.5), (-1.0, 1.0), 2),
])
def test_low_max_of_E_with_zero_forcing_is_low_max_of_J(kernel, domain, k):
    from fucik.semilinear import _maximize_low_E
    from fucik.spectrum import _maximize_t, _reduced

    b = fucik.eigenpairs(fucik.assemble(kernel, fucik.Mesh1D(*domain, 24)), k=k)
    table = sample_table(b)
    gap = b.lambda_k1 - b.lambda_k
    params = fucik.FucikParams(alpha=b.lambda_k + 0.3 * gap, beta=b.lambda_k + 0.9 * gap, basis=b)
    prob = fucik.build_problem(params, fucik.Nonlinearity.zero(), _zero_field(b))
    rng = np.random.default_rng(5)
    for scale in (0.1, 1.0, 10.0):
        vh = scale * rng.standard_normal(b.dim - k)
        t0 = rng.standard_normal(k)
        v_samples = b.sample(np.concatenate([np.zeros(k), vh]))
        assert_close(v_samples, table[:, k:] @ vh)
        tol = 1e-4 * params.tol_grad * (1.0 + math.sqrt(b.integrate(v_samples**2)))
        # the Newton iterates from t0, and delta_eff is only tracked when forced
        assert _maximize_t(params, v_samples, t0)[2] > 0
        val_j, g_j, c_j, u_j, deff_j = _reduced(params, vh, t0, tol=tol)
        val_e, g_e, c_e, u_e, deff_e = _maximize_low_E(prob, vh, t0, tol)
        assert val_e == val_j
        assert np.array_equal(g_e, g_j) and np.array_equal(c_e, c_j) and np.array_equal(u_e, u_j)
        assert deff_j == math.inf and deff_e > 0.0
        assert_close(u_j, table @ c_j)
        # the low gradient vanishes at the maximizer, and the value is E there
        assert np.linalg.norm(g_j[:k]) <= tol
        energy = fucik.semilinear_energy(prob, fucik.to_field(b, coeffs=c_j))
        assert abs(val_j - energy) <= 1e-13 * float(b.eigenvalues @ c_j**2)


def test_solve_linear_fredholm(basis):
    rng = np.random.default_rng(19)
    mu = 0.5 * (basis.lambda_k + basis.lambda_k1)
    for _ in range(5):
        h = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim))
        prob = fucik.build_problem(fucik.FucikParams(mu, mu, basis), fucik.Nonlinearity.zero(), h)
        res = fucik.solve(prob)
        assert res.status == fucik.CONVERGED
        expect = h.coeffs / (basis.eigenvalues - mu)
        assert np.max(np.abs(res.u_star.coeffs - expect)) <= 1e-8


def test_solve_nonresonance_tanh(basis):
    h = _field(basis, [0.1])
    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.tanh(), h=h, frac=0.25)
    res = fucik.solve(prob)
    assert res.status == fucik.CONVERGED
    assert res.residual <= prob.tol_res
    assert fucik.residual_report(prob, res.u_star).max_abs <= prob.tol_res
    assert len(res.trace) > 0


@pytest.mark.parametrize("kind", ["table", "tanh"])
def test_phase1_stops_at_its_rounding_floor(kind):
    # phase 1 once accepted steps that left the energy unchanged and ran on
    # for hundreds of iterations on this problem (264 for tanh)
    mesh = fucik.Mesh1D(0.0, math.pi, 10)
    small = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    pts = np.arange(-2.75, 3.0, 0.5)
    nl = fucik.Nonlinearity.from_table(pts, np.tanh(pts)) if kind == "table" else fucik.Nonlinearity.tanh()
    prob = fucik.build_problem(fucik.FucikParams(1.8, 2.1, small), nl, _field(small, [1.2, -0.6, 0.4]))
    res = fucik.solve(prob)
    assert res.status == fucik.CONVERGED
    assert res.iterations < 100
    assert res.gll is None


def test_solve_evaluates_each_gradient_once(monkeypatch):
    # the E gradient at an accepted phase-1 iterate was once computed again
    # at the loop head, and again at the start of phase 2: 164 evaluations
    # for 67 iterations on this problem
    from fucik import semilinear, spectrum

    mesh = fucik.Mesh1D(0.0, math.pi, 10)
    small = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    prob = fucik.build_problem(fucik.FucikParams(1.8, 2.1, small), fucik.Nonlinearity.tanh(),
                               _field(small, [1.2, -0.6, 0.4]))
    gradient, functional, inner = spectrum._gradient, semilinear._functional, semilinear._maximize_low_E
    # None per inner maximization (one per reduced evaluation), else the
    # point of a phase-1 gradient (gathered from the inner maximization's
    # reaction) or of a phase-2 value and gradient
    events = []
    in_phase2_functional = []
    sample, products = fucik.EigenBasis.sample, []
    assert prob.h.samples.shape == (50,)  # h's product is cached before counting

    def counted_sample(self, coeffs, modes=slice(None)):
        if len(coeffs) == self.dim:
            products.append(None)
        return sample(self, coeffs, modes)

    def counted_gradient(basis, coeffs, *args, **kwargs):
        # full-width gradients outside a phase-2 functional are the reduced
        # evaluations'; the low-subspace Newton's own gradients are k wide
        if len(coeffs) == basis.dim and not in_phase2_functional:
            events.append(coeffs.copy())
        return gradient(basis, coeffs, *args, **kwargs)

    def counted_functional(basis, alpha, beta, coeffs, *args, **kwargs):
        events.append(coeffs.copy())
        in_phase2_functional.append(None)
        try:
            return functional(basis, alpha, beta, coeffs, *args, **kwargs)
        finally:
            in_phase2_functional.pop()

    def counted_inner(*args, **kwargs):
        events.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectrum, "_gradient", counted_gradient)
    monkeypatch.setattr(semilinear, "_functional", counted_functional)
    monkeypatch.setattr(semilinear, "_maximize_low_E", counted_inner)
    monkeypatch.setattr(fucik.EigenBasis, "sample", counted_sample)
    res = fucik.solve(prob)
    assert res.status == fucik.CONVERGED
    marks = [i for i, e in enumerate(events) if e is None]
    assert marks[0] == 0
    assert all(b - a <= 2 for a, b in zip(marks, marks[1:]))
    points = [e.tobytes() for e in events if e is not None]
    assert len(set(points)) == len(points)
    # every full-width sample product is an inner maximization's high field
    # or a phase-2 gradient's point, whose E value shares it; a phase-1
    # gradient follows its inner maximization and reuses the samples that
    # maximization returns
    reused = sum(1 for a, b in zip(events, events[1:]) if a is None and b is not None)
    assert reused > 0
    assert len(products) == len(events) - reused


def test_table_solve_forms_no_nodal_values(monkeypatch):
    # the forcing field and the solution each formed their nodal values
    mesh = fucik.Mesh1D(0.0, math.pi, 10)
    small = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    pts = np.arange(-2.75, 3.0, 0.5)
    doc = {"alpha": 1.8, "beta": 2.1, "f": {"table": {"points": pts.tolist(), "values": np.tanh(pts).tolist()}},
           "h": {"coeffs": [1.2, -0.6, 0.4] + [0.0] * (small.dim - 3)}}
    nodal_from_coeffs = fucik.EigenBasis.nodal_from_coeffs
    calls = []

    def counted(self, coeffs):
        calls.append(None)
        return nodal_from_coeffs(self, coeffs)

    monkeypatch.setattr(fucik.EigenBasis, "nodal_from_coeffs", counted)
    res = fucik.solve(fucik.problem_from_dict(small, doc))
    assert res.status == fucik.CONVERGED
    assert calls == []


def _per_term_value_and_gradient(prob, c):
    # E and its gradient as composed before, from the sample table: J, the
    # forcing integral, J's gradient and the forcing gather each sampled c
    p, basis, nl = prob.params, prob.params.basis, prob.nonlinearity
    s, w, lam = sample_table(basis), basis.sample_weights, basis.eigenvalues
    u = s @ c
    j = 0.5 * (float(lam @ c**2) - p.alpha * float(w @ np.maximum(u, 0.0) ** 2)
               - p.beta * float(w @ np.maximum(-u, 0.0) ** 2))
    u = s @ c
    forcing = float(w @ (nl.primitive(u) + prob.h.samples * u))
    u = s @ c
    g = lam * c - s.T @ (w * (p.alpha * np.maximum(u, 0.0) - p.beta * np.maximum(-u, 0.0)))
    u = s @ c
    return j - forcing, g - s.T @ (w * nl.evaluate(u)) - prob.h.coeffs


@pytest.mark.parametrize("ctor", [fucik.Nonlinearity.tanh, fucik.Nonlinearity.atan_scaled])
def test_E_value_and_gradient_from_one_sample_product(basis, ctor):
    # the value and gradient at coeffs both come from its one sample
    # product, and agree with the per-term table composition to RTOL
    from fucik.spectrum import _functional

    prob = _nonres_problem(basis, ctor(), _field(basis, [0.3, -0.2, 0.1]), frac=0.3)
    p = prob.params
    rng = np.random.default_rng(29)
    for scale in (0.1, 1.0, 10.0):
        c = scale * rng.standard_normal(basis.dim)
        val, grad = _per_term_value_and_gradient(prob, c)
        u_s = basis.sample(c)
        e_val, e_grad, _ = _functional(basis, p.alpha, p.beta, c, u_s, prob.forcing)
        assert_close(e_val, val)
        assert_close(e_grad, grad)
        u = fucik.to_field(basis, coeffs=c)
        assert fucik.semilinear_energy(prob, u) == e_val
        assert np.array_equal(fucik.semilinear_gradient(prob, u).coeffs, e_grad)


def test_solve_detects_diverging_ray(basis):
    h = _field(basis, [0.0, 1.0])
    prob = _diag_resonance(basis, fucik.Nonlinearity.zero(), h)
    res = fucik.solve(prob, force=True)
    assert res.status == fucik.DIVERGING_RAY
    assert res.u_star is None
    cosine = abs(float(res.ray.coeffs[1]))
    assert cosine >= 0.99
    assert res.diagnostics["ray_growth_factor"] == 10.0


def test_reduced_hessian_is_the_schur_complement(basis):
    # the Newton step's Hessian: gradients of v -> max_t E(t + v) at nearby
    # high points differ by the Schur complement of E's generalized Hessian
    from fucik.spectrum import _newton_slope, _schur

    prob = _nonres_problem(basis, nl=fucik.Nonlinearity.tanh(), h=_field(basis, [0.5, -2.0, 1.0]))
    p, k = prob.params, basis.k
    rng = np.random.default_rng(31)
    v = rng.standard_normal(basis.dim - k) / np.arange(2, basis.dim + 1)
    tol = 1e-14
    _, g, c, u, _ = semilinear._maximize_low_E(prob, v, np.zeros(k), tol)
    schur, lift = _schur(np.diag(basis.eigenvalues) - basis.gram(_newton_slope(p.alpha, p.beta, u, prob.forcing)), k)
    dv = 1e-6 * rng.standard_normal(basis.dim - k)
    _, g2, c2, _, _ = semilinear._maximize_low_E(prob, v + dv, c[:k], tol)
    assert np.linalg.norm(g2[k:] - g[k:] - schur @ dv) <= 1e-4 * np.linalg.norm(schur @ dv)
    # the lift moves the low maximizer with the high coefficients
    assert np.linalg.norm(c2[:k] - c[:k] - lift @ dv) <= 1e-4 * np.linalg.norm(lift) * np.linalg.norm(dv)


def test_phase1_counts_repeat_exactly(basis):
    # the counts go into solution.json, so they must not depend on the run
    a = _mid_alpha(basis)
    prob = fucik.build_problem(fucik.FucikParams(a, basis.lambda_k1, basis), fucik.Nonlinearity.tanh(),
                               _field(basis, [0.5, -2.0, 1.0]))
    runs = [fucik.solve(prob) for _ in range(3)]
    counts = [(r.diagnostics["phase1_newton_steps"], r.diagnostics["phase1_bb_fallbacks"]) for r in runs]
    assert counts[0] == counts[1] == counts[2]
    newton, bb = counts[0]
    assert type(newton) is int and type(bb) is int
    assert newton > 0 and bb > 0
    assert runs[0].status == fucik.CONVERGED
    assert newton + bb <= runs[0].iterations
    assert all(np.array_equal(r.u_star.coeffs, runs[0].u_star.coeffs) for r in runs)


def test_phase1_takes_newton_steps():
    # the solve workload's table problem: Barzilai-Borwein descent took 67
    # phase-1 iterations, the Newton steps take 2
    mesh = fucik.Mesh1D(0.0, math.pi, 10)
    small = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    pts = np.arange(-2.75, 3.0, 0.5)
    nl = fucik.Nonlinearity.from_table(pts, np.tanh(pts))
    prob = fucik.build_problem(fucik.FucikParams(1.8, 2.1, small), nl, _field(small, [1.2, -0.6, 0.4]))
    res = fucik.solve(prob)
    assert res.status == fucik.CONVERGED
    assert res.diagnostics["phase1_bb_fallbacks"] == 0
    assert res.diagnostics["phase1_newton_steps"] <= 4


@pytest.fixture(scope="module")
def nonresonance_strips():
    # (basis, mid-strip alpha, curve point there) on (-1, 1) at 48 elements
    strips = {}
    for name, kernel in (("local", fucik.Kernel.local()), ("fractional", fucik.Kernel.fractional(0.5))):
        for k in (1, 2):
            b = fucik.eigenpairs(fucik.assemble(kernel, fucik.Mesh1D(-1.0, 1.0, 48)), k=k)
            alpha = _mid_alpha(b)
            strips[name, k] = (b, alpha, fucik.beta_of_alpha(alpha, b, seed=0))
    return strips


@pytest.mark.parametrize("frac", [0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kernel", ["local", "fractional"])
def test_nonresonance_sweep_converges(nonresonance_strips, kernel, k, frac):
    # beta a fraction frac of the way from lambda_{k+1} to the curve, f = tanh
    # and h = c phi_j: the theorem gives a solution for every h, and the ray
    # test once stopped 32 of these 72 problems as diverging-ray
    basis, alpha, root = nonresonance_strips[kernel, k]
    beta = basis.lambda_k1 + frac * (root.beta - basis.lambda_k1)
    params = fucik.FucikParams(alpha, beta, basis)
    failed = []
    for c in (1.0, 10.0, 100.0):
        for j in (1, 2, 3):
            h = np.zeros(basis.dim)
            h[j - 1] = c
            prob = fucik.build_problem(params, fucik.Nonlinearity.tanh(), fucik.to_field(basis, coeffs=h), root=root)
            assert prob.regime == fucik.NONRESONANCE
            res = fucik.solve(prob)
            if res.status != fucik.CONVERGED or not res.residual <= prob.tol_res:
                failed.append((c, j, res.status, res.residual / prob.tol_res))
    assert failed == []


def test_solve_orthogonal_forcing_at_resonance(basis):
    h = _field(basis, [1.0])
    prob = _diag_resonance(basis, fucik.Nonlinearity.zero(), h)
    res = fucik.solve(prob, force=True)
    assert res.status == fucik.CONVERGED
    assert res.residual <= prob.tol_res
    # the flat direction stays untouched: solution orthogonal to phi_2
    assert abs(res.u_star.coeffs[1]) <= 1e-10


def test_solve_resonance_with_admissibility(basis):
    prob = _diag_resonance(basis, fucik.Nonlinearity.atan_scaled(), _zero_field(basis))
    res = fucik.solve(prob)
    assert res.status == fucik.CONVERGED
    assert res.residual <= prob.tol_res
    assert res.gll.satisfied
    assert "gll_satisfied" not in res.diagnostics and "gll_ray_values" not in res.diagnostics


def test_solve_refuses_failed_admissibility(basis):
    h = _field(basis, [0.0, 1.0])
    prob = _diag_resonance(basis, fucik.Nonlinearity.zero(), h)
    with pytest.raises(fucik.RegimeViolation):
        fucik.solve(prob)


# ---------------------------------------------------------------------------
# problem documents


def test_problem_from_dict_named_forcing(basis):
    a = _mid_alpha(basis)
    doc = {"alpha": a, "beta": a, "f": {"name": "tanh"}, "h": {"named": "phi_1"}}
    prob = fucik.problem_from_dict(basis, doc)
    assert prob.regime == fucik.NONRESONANCE
    assert prob.h.coeffs[0] == 1.0
    assert prob.nonlinearity.name == "tanh"


def test_problem_from_dict_on_curve(basis):
    doc = {
        "alpha": basis.lambda_k1,
        "beta": "on-curve",
        "f": {"name": "atan_scaled"},
        "h": {"coeffs": [0.0] * basis.dim},
    }
    prob = fucik.problem_from_dict(basis, doc)
    assert prob.regime == fucik.RESONANCE
    assert abs(prob.curve_beta - basis.lambda_k1) <= 1e-9 * basis.lambda_k1


def test_problem_from_dict_table(basis):
    a = _mid_alpha(basis)
    pts = list(np.linspace(-6.0, 6.0, 241))
    doc = {
        "alpha": a,
        "beta": a,
        "f": {"table": {"points": pts, "values": list(np.tanh(pts))}},
        "h": {"nodal": list(np.zeros(basis.dim))},
    }
    prob = fucik.problem_from_dict(basis, doc)
    assert prob.nonlinearity.name == "table"
    assert abs(prob.nonlinearity.limit_right - math.tanh(6.0)) <= 1e-12


def test_problem_from_dict_rejects_malformed(basis):
    a = _mid_alpha(basis)
    good = {"alpha": a, "beta": a, "f": {"name": "zero"}, "h": {"named": "phi_1"}}
    with pytest.raises(fucik.ConfigError):
        fucik.problem_from_dict(basis, {**good, "extra": 1})
    with pytest.raises(fucik.ConfigError):
        fucik.problem_from_dict(basis, {**good, "f": {"name": "cubic"}})
    with pytest.raises(fucik.ConfigError):
        fucik.problem_from_dict(basis, {**good, "h": {"named": "psi_1"}})
    with pytest.raises(fucik.ConfigError):
        fucik.problem_from_dict(basis, {**good, "h": {"named": "phi_0"}})
    missing = {k: v for k, v in good.items() if k != "beta"}
    with pytest.raises(fucik.ConfigError):
        fucik.problem_from_dict(basis, missing)


def test_on_curve_document_classifies_once(basis, monkeypatch):
    calls = []
    classify = semilinear.classify

    def counted(*args, **kwargs):
        calls.append(classify(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(semilinear, "classify", counted)
    doc = {"alpha": _mid_alpha(basis, 0.6), "beta": "on-curve", "f": {"name": "atan_scaled"},
           "h": {"named": "phi_1"}}
    prob = fucik.problem_from_dict(basis, doc)
    assert len(calls) == 1
    regime, point = calls[0]
    assert regime == prob.regime == fucik.RESONANCE
    assert point.beta == prob.curve_beta == prob.params.beta

