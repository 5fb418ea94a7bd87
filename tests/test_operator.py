"""Assembly, kernel validation, eigen-decomposition, and field plumbing."""

import ast
import functools
import json
import dataclasses
import math
import os
import re
import stat
import sys
import tempfile
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fucik
from table_reference import assert_close, sample_table


def _fractional_basis(n_elements=32, s=0.5, k=1, a=-1.0, b=1.0, scale=1.0):
    kernel = fucik.Kernel.fractional(s=s, scale=scale)
    mesh = fucik.Mesh1D(a, b, n_elements)
    return fucik.eigenpairs(fucik.assemble(kernel, mesh), k=k)


def _local_basis(n_elements=200, k=1):
    mesh = fucik.Mesh1D(0.0, math.pi, n_elements)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=k)


@pytest.fixture(scope="module")
def frac32():
    return _fractional_basis(32)


@pytest.fixture(scope="module")
def local200():
    return _local_basis(200)


# ---------------------------------------------------------------------------
# kernels


def test_validate_fractional_half_passes():
    report = fucik.validate_kernel(fucik.Kernel.fractional(s=0.5))
    assert report.passed
    assert report.kernel.lambda_K == 1.0
    assert {c.name for c in report.checks} == {"integrability", "lower_bound", "evenness"}


def test_validate_uneven_tabulated_fails_evenness():
    kern = fucik.Kernel.tabulated(
        func=lambda x: np.abs(x) ** -2.0 * (1.0 + 0.5 * np.sign(x)),
        s=0.5,
        lambda_K=0.5,
    )
    report = fucik.validate_kernel(kern)
    assert not report.passed
    assert report.check("evenness").passed is False
    assert report.check("evenness").details["max_asymmetry"] > 0.0
    assert report.check("lower_bound").passed


def test_validate_tail_increment_s09():
    report = fucik.validate_kernel(fucik.Kernel.fractional(s=0.9))
    inc = report.check("integrability").details["increment_to_R1e4"]
    # analytic tail mass between R=1e3 and R=1e4: 2/(2s) (R1^-2s - R2^-2s)
    exact = (2.0 / 1.8) * (1e3**-1.8 - 1e4**-1.8)
    assert inc < 1e-5
    assert abs(inc - exact) <= 0.01 * exact
    assert report.passed


def test_kernel_order_out_of_range():
    for bad in (0.0, 1.0, 1.5, -0.3):
        with pytest.raises(fucik.OrderOutOfRange):
            fucik.Kernel.fractional(s=bad)


def test_nonpositive_kernel_rejected():
    with pytest.raises(fucik.NonPositiveKernel):
        fucik.Kernel.fractional(s=0.5, scale=-1.0)
    dipped = fucik.Kernel.tabulated(func=lambda x: np.abs(x) ** -2.0 - 0.5, s=0.5, lambda_K=1.0)
    with pytest.raises(fucik.NonPositiveKernel):
        fucik.validate_kernel(dipped)


def test_tabulated_kernel_not_assemblable():
    kern = fucik.Kernel.tabulated(func=lambda x: np.abs(x) ** -2.0, s=0.5, lambda_K=1.0)
    with pytest.raises(fucik.ConfigError):
        fucik.assemble(kern, fucik.Mesh1D(-1.0, 1.0, 8))


# ---------------------------------------------------------------------------
# mesh and assembly


def test_mesh_too_coarse():
    with pytest.raises(fucik.MeshTooCoarse):
        fucik.Mesh1D(0.0, 1.0, 3)


def test_mesh_empty_interval():
    with pytest.raises(fucik.ConfigError):
        fucik.Mesh1D(1.0, 1.0, 8)


def test_local_matrices_exact():
    mesh = fucik.Mesh1D(0.0, math.pi, 4)
    op = fucik.assemble(fucik.Kernel.local(), mesh)
    h = math.pi / 4.0
    a_exact = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) / h
    m_exact = np.array([[4, 1, 0], [1, 4, 1], [0, 1, 4]]) * h / 6.0
    assert np.allclose(op.stiffness, a_exact, rtol=0, atol=1e-14)
    assert np.allclose(op.mass, m_exact, rtol=0, atol=1e-14)


def test_fractional_stiffness_symmetric(frac32):
    a = frac32.operator.stiffness
    assert np.max(np.abs(a - a.T)) == 0.0


def test_fractional_stiffness_toeplitz(frac32):
    # entries are double integrals of translated hat pairs over the whole
    # line, so interior offsets must be constant along each diagonal
    a = frac32.operator.stiffness
    n = a.shape[0]
    for offset in (0, 1, 2, 7):
        diag = np.array([a[i, i + offset] for i in range(n - offset)])
        spread = (diag.max() - diag.min()) / np.abs(diag).max()
        assert spread <= 1e-11


def _gauss_hats(mesh, gauss_order):
    """Gauss points and weights on every element, and the interior hats there."""
    gx, gw = np.polynomial.legendre.leggauss(gauss_order)
    h, nodes = mesh.h, mesh.nodes
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    xg = (centers[:, None] + 0.5 * h * gx[None, :]).ravel()
    wg = np.tile(0.5 * h * gw, mesh.n_elements)
    S = np.maximum(0.0, 1.0 - np.abs(xg[:, None] - nodes[None, 1:-1]) / h)  # (G, N)
    return xg, wg, S


def _dense_pair_stiffness(kernel, mesh, gauss_order=8):
    """Reference for the pairs inside the domain: explicit element-pair loops
    and the dense kernel matrix on all Gauss points, with no use of the
    mesh's translation invariance."""
    s, scale = kernel.s, kernel.scale
    sig = 1.0 + 2.0 * s
    h, n, N = mesh.h, mesh.n_elements, mesh.interior_dim
    A = np.zeros((N, N))

    def slope(i, p):
        # slope of global hat i (1..N) on element p (1..n)
        if p == i:
            return 1.0 / h
        if p == i + 1:
            return -1.0 / h
        return 0.0

    def P(e):
        # int_h^2h t^e dt
        p = e + 1.0
        return math.log(2.0) if p == 0.0 else h**p * math.expm1(p * math.log(2.0)) / p

    q_same = 2.0 * h ** (3.0 - 2.0 * s) / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    i20 = (
        h ** (4.0 - sig) / (3.0 * (4.0 - sig))
        + (2.0 * h**3 / 3.0) * P(-sig)
        - h**2 * P(1.0 - sig)
        + h * P(2.0 - sig)
        - P(3.0 - sig) / 3.0
    )
    i11 = (
        h ** (4.0 - sig) / (6.0 * (4.0 - sig))
        - P(3.0 - sig) / 6.0
        + h**2 * P(1.0 - sig)
        - (2.0 * h**3 / 3.0) * P(-sig)
    )
    for p in range(1, n + 1):
        for i in (p - 1, p):
            for j in (p - 1, p):
                if 1 <= i <= N and 1 <= j <= N:
                    A[i - 1, j - 1] += scale * slope(i, p) * slope(j, p) * q_same
        q = p + 1
        if q <= n:
            for i in (p - 1, p, q):
                for j in (p - 1, p, q):
                    if not (1 <= i <= N and 1 <= j <= N):
                        continue
                    bi_p, bi_q, bj_p, bj_q = slope(i, p), slope(i, q), slope(j, p), slope(j, q)
                    val = bi_p * bj_p * i20 + (bi_p * bj_q + bi_q * bj_p) * i11 + bi_q * bj_q * i20
                    A[i - 1, j - 1] += 2.0 * scale * val

    xg, wg, S = _gauss_hats(mesh, gauss_order)
    W = np.abs(xg[:, None] - xg[None, :])
    np.fill_diagonal(W, 1.0)
    W = scale * W ** (-sig) * wg[:, None] * wg[None, :]
    for p in range(n):
        W[p * gauss_order : (p + 1) * gauss_order, max(0, (p - 1) * gauss_order) : (p + 2) * gauss_order] = 0.0
    A += 2.0 * (S.T * W.sum(axis=1)) @ S
    A -= 2.0 * S.T @ W @ S
    return 0.5 * (A + A.T)


def _dense_tail_stiffness(kernel, mesh, gauss_order=8):
    """Reference for 2 int phi_i phi_j T with the exterior tail T(x) =
    scale/(2s) [(x-a)^(-2s) + (b-x)^(-2s)]: Gauss on each element, except
    the boundary's own term on the two end elements, integrated exactly."""
    s, scale, h = kernel.s, kernel.scale, mesh.h
    xg, wg, S = _gauss_hats(mesh, gauss_order)
    left, right = (xg - mesh.a) ** (-2.0 * s), (mesh.b - xg) ** (-2.0 * s)
    left[:gauss_order] = right[-gauss_order:] = 0.0
    T = left + right
    tail = 2.0 * (scale / (2.0 * s))
    A = tail * (S.T * (T * wg)) @ S
    # int_0^h (u/h)^2 u^(-2s) du for the end hat on its boundary element
    end = tail * h ** (1.0 - 2.0 * s) / (3.0 - 2.0 * s)
    A[0, 0] += end
    A[-1, -1] += end
    return 0.5 * (A + A.T)


def _dense_fractional_stiffness(kernel, mesh, gauss_order=8):
    return _dense_pair_stiffness(kernel, mesh, gauss_order) + _dense_tail_stiffness(kernel, mesh, gauss_order)


@pytest.mark.parametrize(
    "n_elements, s, scale, domain",
    [(n, s, 1.0, (-1.0, 1.0)) for n in (65, 129, 257) for s in (0.25, 0.5, 0.75)]
    + [(129, 0.5, 3.7, (0.3, 2.9)), (257, 0.25, 0.2, (-1.0, 1.0))],
)
def test_fractional_stiffness_matches_dense_reference(n_elements, s, scale, domain):
    kernel = fucik.Kernel.fractional(s=s, scale=scale)
    mesh = fucik.Mesh1D(*domain, n_elements)
    a = fucik.assemble(kernel, mesh).stiffness
    ref = _dense_fractional_stiffness(kernel, mesh)
    assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))


def _mpmath_tail(s, n, i, j):
    """2 int phi_i phi_j T on the unit mesh of (0, n), T(x) = [x^(-2s) + (n-x)^(-2s)]/(2s)."""
    def integrand(x):
        return (1 - abs(x - i)) * (1 - abs(x - j)) * (x ** (-2 * s) + (n - x) ** (-2 * s)) / s

    with mpmath.workdps(30):
        return float(mpmath.quad(integrand, list(range(max(i, j) - 1, min(i, j) + 2))))


@pytest.mark.parametrize("s", [0.001, 0.25, 0.5, 0.75])
def test_assembled_tails_match_mpmath(s):
    # on the unit mesh of (0, n) the exterior tail is what the assembled
    # stiffness holds beyond the pairs inside the domain; rows far from the
    # boundary are included because power-moment forms of the tail cancel there
    n = 129
    kernel = fucik.Kernel.fractional(s)
    mesh = fucik.Mesh1D(0.0, float(n), n)
    tails = fucik.assemble(kernel, mesh).stiffness - _dense_pair_stiffness(kernel, mesh)
    N = mesh.interior_dim
    for i in (1, 2, 3, N // 4, N // 2, N - 1, N):
        for j in (i, i + 1) if i < N else (i,):
            exact = _mpmath_tail(s, n, i, j)
            assert abs(tails[i - 1, j - 1] - exact) <= 1e-9 * exact, (i, j)


@pytest.mark.parametrize("s", [0.001, 0.25, 0.5, 0.75, 0.999])
def test_stiffness_and_eigenvalues_scale_with_the_domain(s):
    # x -> L x maps the mesh of (0, 1) onto that of (0, L): the stiffness
    # scales by L^(1-2s), the mass by L and the eigenvalues by L^(-2s)
    kernel = fucik.Kernel.fractional(s)
    unit = fucik.eigenpairs(fucik.assemble(kernel, fucik.Mesh1D(0.0, 1.0, 48)), k=1)
    a_unit = unit.operator.stiffness
    for length in (1e-6, 1e-4, 2e3, 1e6):
        op = fucik.assemble(kernel, fucik.Mesh1D(0.0, length, 48))
        a = op.stiffness / length ** (1.0 - 2.0 * s)
        assert np.max(np.abs(a - a_unit)) <= 1e-14 * np.max(np.abs(a_unit)), length
        lam = fucik.eigenpairs(op, k=1).eigenvalues * length ** (2.0 * s)
        assert np.max(np.abs(lam / unit.eigenvalues - 1.0)) <= 1e-11, length


def test_fractional_assembly_peak_memory_at_1025_elements():
    # the dense Gauss-point kernel matrix alone would take 537 MB here; the
    # stiffness and mass matrices are 8.4 MB each
    tracemalloc.start()
    try:
        fucik.assemble(fucik.Kernel.fractional(0.5), fucik.Mesh1D(-1.0, 1.0, 1025))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_fractional_stiffness_psd(frac32):
    w = np.linalg.eigvalsh(frac32.operator.stiffness)
    assert w[0] > -1e-10 * w[-1]


def test_kernel_scaling_doubles_eigenvalues(frac32):
    doubled = _fractional_basis(32, scale=2.0)
    ratio = doubled.eigenvalues / frac32.eigenvalues
    assert np.max(np.abs(ratio - 2.0)) <= 1e-10


def _collocation_lambda1(n, s):
    # independent discretization: strong form L u(x) = 2 PV int (u(x)-u(y)) K dy
    # plus the exterior tail, collocated at cell midpoints
    h = 2.0 / n
    x = -1.0 + h * (np.arange(n) + 0.5)
    d = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(d, 1.0)
    km = d ** (-(1.0 + 2.0 * s))
    np.fill_diagonal(km, 0.0)
    mat = -2.0 * h * km
    tail = ((x + 1.0) ** (-2.0 * s) + (1.0 - x) ** (-2.0 * s)) / (2.0 * s)
    np.fill_diagonal(mat, 2.0 * h * km.sum(axis=1) + 2.0 * tail)
    return float(np.sort(np.linalg.eigvals(mat).real)[0])


def test_fractional_lambda1_refinement_and_crosschecks():
    lam_128 = _fractional_basis(128).eigenvalues[0]
    lam_256 = _fractional_basis(256).eigenvalues[0]
    assert abs(lam_256 - lam_128) <= 0.01 * lam_256
    # independent reference: the half-Laplacian ground eigenvalue on (-1,1)
    # is 1.157773883...; this kernel normalization (full double integral,
    # scale 1) multiplies it by 2*pi
    reference = 2.0 * math.pi * 1.157773883
    assert abs(lam_128 - reference) <= 0.01 * reference
    assert abs(lam_256 - reference) < abs(lam_128 - reference)
    colloc = _collocation_lambda1(256, 0.5)
    assert abs(colloc - lam_256) <= 0.02 * lam_256


def test_lambda1_dependence_on_order():
    # diagnostic, not a theorem: with scale=1 the exterior tail ~ 1/(2s)
    # inflates small s and the gradient part ~ 1/(2-2s) inflates large s,
    # so lambda1 is U-shaped in s ...
    lams = {s: _fractional_basis(64, s=s).eigenvalues[0] for s in (0.3, 0.5, 0.7)}
    assert lams[0.3] > lams[0.5] < lams[0.7]
    # ... while under the classical normalization scale = C(1,s)/2 it
    # increases toward the Dirichlet-Laplacian value
    def classical_scale(s):
        return 0.5 * s * 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))

    normed = [classical_scale(s) * lams[s] for s in (0.3, 0.5, 0.7)]
    assert normed[0] < normed[1] < normed[2]


# ---------------------------------------------------------------------------
# eigenpairs


def test_local_spectrum_matches_squares(local200):
    for j in range(1, 5):
        assert abs(local200.eigenvalues[j - 1] - j * j) <= 0.005 * j * j


def test_local_spectrum_convergence_order():
    errs = []
    for n in (50, 100):
        lam1 = _local_basis(n).eigenvalues[0]
        errs.append(abs(lam1 - 1.0))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_basis_orthonormal(frac32):
    op = frac32.operator
    gram = frac32.vectors.T @ op.mass @ frac32.vectors
    assert np.max(np.abs(gram - np.eye(frac32.dim))) <= 1e-10
    diag = frac32.vectors.T @ op.stiffness @ frac32.vectors
    off = diag - np.diag(frac32.eigenvalues)
    assert np.max(np.abs(off)) <= 1e-8 * frac32.eigenvalues[-1]


def test_spectral_gap_strict(frac32):
    assert frac32.eigenvalues[1] - frac32.eigenvalues[0] > 0.0
    assert frac32.lambda_k < frac32.lambda_k1


def test_first_eigenfunction_positive(frac32):
    first = frac32.vectors[:, 0]
    assert np.min(first) >= -1e-8 * np.max(first)
    assert np.max(first) > 0.0


def test_eigen_sign_deterministic():
    a = _fractional_basis(16)
    b = _fractional_basis(16)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    a=st.floats(-1e3, 1e3),
    length=st.floats(1e-6, 1e6),
    n_elements=st.integers(4, 160),
)
def test_assembled_matrices_are_exactly_reflection_symmetric(s, a, length, n_elements):
    # the fold of eigenpairs is exact only on exactly mirror-symmetric
    # matrices; the overflow a tiny s or domain can cause is mirrored too
    mesh = fucik.Mesh1D(a, a + length, n_elements)
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = (fucik.operator._assemble_fractional(fucik.Kernel.fractional(s), mesh),
                    fucik.operator._assemble_local(mesh), fucik.operator._mass_matrix(mesh))
    for X in matrices:
        assert np.array_equal(X, X[::-1, ::-1], equal_nan=True)
        assert np.array_equal(X, X.T, equal_nan=True)


def test_operator_refuses_a_matrix_that_is_not_mirror_symmetric(frac32):
    op = frac32.operator
    stiffness = op.stiffness.copy()
    stiffness[0, 0] = np.nextafter(stiffness[0, 0], np.inf)
    with pytest.raises(fucik.ConfigError, match="reflection-symmetric"):
        fucik.GalerkinOperator(kernel=op.kernel, mesh=op.mesh, stiffness=stiffness, mass=op.mass)


_EIGEN_KERNELS = {"local": (fucik.Kernel.local(), (0.0, math.pi)),
                  "fractional": (fucik.Kernel.fractional(0.5), (-1.0, 1.0)),
                  "fractional-0.25": (fucik.Kernel.fractional(0.25), (-0.5, 2.0))}


@pytest.mark.parametrize("kernel", sorted(_EIGEN_KERNELS))
@pytest.mark.parametrize("n_elements", [16, 17, 64, 65, 256, 257])
def test_folded_eigensolve_matches_the_full_solve(kernel, n_elements):
    # the even and odd halves give the pairs of the one N x N pencil.  A
    # dense solve resolves eigenvalues to about eps * lambda_max, which the
    # local kernel's small lambda_1 (1e-5 of lambda_max at 256 elements)
    # does not reach to 1e-12 of itself on either path
    kernel, domain = _EIGEN_KERNELS[kernel]
    op = fucik.assemble(kernel, fucik.Mesh1D(*domain, n_elements))
    basis = fucik.eigenpairs(op, k=1)
    ref, W = scipy.linalg.eigh(op.stiffness, op.mass)
    error = np.abs(basis.eigenvalues - ref)
    assert np.max(error) <= 1e-12 * ref[-1]
    if kernel.variant == "fractional":
        assert np.max(error / ref) <= 1e-12
    V = basis.vectors
    signs = np.sign(np.sum(V * (op.mass @ W), axis=0))
    assert np.max(np.abs(V - W * signs)) <= 1e-10


@pytest.mark.parametrize("kernel", sorted(_EIGEN_KERNELS))
@pytest.mark.parametrize("n_elements", [4, 5, 16, 17, 96, 129])
def test_every_eigenvector_is_exactly_even_or_odd(kernel, n_elements):
    kernel, domain = _EIGEN_KERNELS[kernel]
    V = fucik.eigenpairs(fucik.assemble(kernel, fucik.Mesh1D(*domain, n_elements)), k=1).vectors
    even = np.all(V[::-1] == V, axis=0)
    odd = np.all(V[::-1] == -V, axis=0)
    assert np.all(even | odd)
    # phi_1 is even, and the modes alternate on these kernels
    assert np.array_equal(even, np.arange(V.shape[1]) % 2 == 0)


@pytest.mark.parametrize("kernel", sorted(_EIGEN_KERNELS))
def test_second_eigenfunction_starts_positive_on_every_mesh(kernel):
    # phi_2 is odd, so its largest entries at i and N-1-i tie exactly; the
    # sign rule gives the tie to the entry nearest a on every mesh
    kernel, domain = _EIGEN_KERNELS[kernel]
    for n_elements in range(16, 81):
        V = fucik.eigenpairs(fucik.assemble(kernel, fucik.Mesh1D(*domain, n_elements)), k=1).vectors
        assert V[0, 1] > 0.0, n_elements


def test_a_nan_certificate_refuses_the_basis():
    # the stiffness is about 1e196 and the mass 1e-196 here: the even half's
    # eigh returns NaN pairs (or LAPACK refuses), and NaN defects must fail
    # the certificates rather than pass them
    op = fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.0, 3.6218530030510112e-196, 4))
    with pytest.raises(fucik.FactorizationFailure, match="defect nan|eigensolve failed"):
        fucik.eigenpairs(op, k=1)


def test_sign_ties_go_to_the_entry_nearest_a():
    # columns: an exact tie, a tie within 1e-9 of the largest entry, and a
    # clear largest entry that lies farther from a
    Z = np.array([[-1.0, -(1.0 - 5e-10), 0.5],
                  [0.3, 1.0, 0.2],
                  [1.0, 0.0, 1.0]])
    signed = fucik.operator._signed(Z)
    assert np.array_equal(signed, Z * np.array([-1.0, -1.0, 1.0]))
    assert np.array_equal(fucik.operator._signed(-Z), signed)


def test_degenerate_split_detected(frac32):
    lam = frac32.eigenvalues.copy()
    lam[2] = lam[1] * (1.0 + 1e-12)
    with pytest.raises(fucik.DegenerateSplit):
        fucik.EigenBasis(
            operator=frac32.operator,
            eigenvalues=lam,
            vectors=frac32.vectors,
            k=2,
        )


def test_split_index_range(frac32):
    with pytest.raises(fucik.ConfigError):
        frac32.with_k(0)
    with pytest.raises(fucik.ConfigError):
        frac32.with_k(frac32.dim)
    assert frac32.with_k(2).k == 2


def test_arrays_immutable(frac32):
    with pytest.raises(ValueError):
        frac32.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        frac32.operator.stiffness[0, 0] = 0.0


# ---------------------------------------------------------------------------
# fields and the shared sample rule


def test_field_unit_coeff_is_eigencolumn(frac32):
    e1 = np.zeros(frac32.dim)
    e1[0] = 1.0
    u = fucik.to_field(frac32, coeffs=e1)
    assert np.allclose(u.nodal, frac32.vectors[:, 0], rtol=0, atol=1e-14)


def test_field_holds_its_coefficients_and_views_the_nodal_values(frac32):
    c = np.random.default_rng(5).standard_normal(frac32.dim)
    u = fucik.to_field(frac32, coeffs=c)
    assert [f.name for f in dataclasses.fields(u)] == ["basis", "coeffs"]
    assert np.array_equal(u.nodal, frac32.vectors @ c)
    assert u.nodal is u.nodal and not u.nodal.flags.writeable


def test_field_leaves_the_callers_array_writable(frac32):
    c = np.zeros(frac32.dim)
    u = fucik.to_field(frac32, coeffs=c)
    c[0] = 1.0
    assert u.coeffs[0] == 0.0 and not u.coeffs.flags.writeable
    # an array that is already read-only is kept, not copied
    assert fucik.to_field(frac32, coeffs=u.coeffs).coeffs is u.coeffs


def test_field_zero_nodal(frac32):
    u = fucik.to_field(frac32, nodal=np.zeros(frac32.dim))
    assert np.all(u.coeffs == 0.0)


def test_field_parseval(frac32):
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.standard_normal(frac32.dim)
        u = fucik.to_field(frac32, coeffs=c)
        direct = float(u.nodal @ frac32.operator.mass @ u.nodal)
        assert abs(direct - float(c @ c)) <= 1e-8 * float(c @ c)


@pytest.mark.parametrize("n_elements", [24, 257])
def test_mass_products_are_the_dense_products(n_elements):
    # M is applied from its three diagonals in O(n) per column
    basis = _fractional_basis(n_elements)
    rng = np.random.default_rng(n_elements)
    nodal = rng.standard_normal(basis.dim)
    products = [
        (basis.operator.mass_times(nodal), basis.operator.mass @ nodal),
        (basis.operator.mass_times(basis.vectors), basis.operator.mass @ basis.vectors),
        (basis.coeffs_from_nodal(nodal), basis.vectors.T @ (basis.operator.mass @ nodal)),
    ]
    for product, dense in products:
        assert product.shape == dense.shape
        assert np.linalg.norm(product - dense) <= 1e-15 * np.linalg.norm(dense)


def test_field_requires_exactly_one_representation(frac32):
    z = np.zeros(frac32.dim)
    with pytest.raises(fucik.ConfigError):
        fucik.to_field(frac32, coeffs=z, nodal=z)
    with pytest.raises(fucik.ConfigError):
        fucik.to_field(frac32)
    with pytest.raises(fucik.DimensionMismatch):
        fucik.to_field(frac32, coeffs=np.zeros(3))


def test_split_orthogonal_and_additive(frac32):
    rng = np.random.default_rng(11)
    basis = frac32.with_k(3)
    u = fucik.to_field(basis, coeffs=rng.standard_normal(basis.dim))
    u1, u2 = fucik.split(u)
    assert np.all(u1.coeffs[3:] == 0.0)
    assert np.all(u2.coeffs[:3] == 0.0)
    assert np.array_equal(u1.coeffs + u2.coeffs, u.coeffs)
    cross = float(u1.nodal @ basis.operator.mass @ u2.nodal)
    assert abs(cross) <= 1e-12 * u.norm_l2**2
    total = u.norm_energy**2
    assert abs(u1.norm_energy**2 + u2.norm_energy**2 - total) <= 1e-8 * total


def test_split_of_pure_modes(frac32):
    e1 = np.zeros(frac32.dim)
    e1[0] = 1.0
    lo, hi = fucik.split(fucik.to_field(frac32, coeffs=e1))
    assert np.array_equal(lo.coeffs, e1) and np.all(hi.coeffs == 0.0)
    e2 = np.zeros(frac32.dim)
    e2[1] = 1.0
    lo, hi = fucik.split(fucik.to_field(frac32, coeffs=e2))
    assert np.all(lo.coeffs == 0.0) and np.array_equal(hi.coeffs, e2)


def test_rayleigh_bounds_on_subspaces(frac32):
    rng = np.random.default_rng(13)
    basis = frac32.with_k(2)
    a, m = basis.operator.stiffness, basis.operator.mass
    for _ in range(5):
        c = np.zeros(basis.dim)
        c[:2] = rng.standard_normal(2)
        u = basis.nodal_from_coeffs(c)
        assert u @ a @ u <= basis.lambda_k * (u @ m @ u) * (1.0 + 1e-8)
        c = np.zeros(basis.dim)
        c[2:] = rng.standard_normal(basis.dim - 2)
        v = basis.nodal_from_coeffs(c)
        assert v @ a @ v >= basis.lambda_k1 * (v @ m @ v) * (1.0 - 1e-8)


def test_sample_rule_integrates_squares_exactly(frac32):
    # the per-element Simpson rule is exact for piecewise cubics, so the
    # sampled integral of u^2 must reproduce the mass-consistent value
    rng = np.random.default_rng(17)
    w = frac32.sample_weights
    for _ in range(5):
        c = rng.standard_normal(frac32.dim)
        u = fucik.to_field(frac32, coeffs=c)
        q = float(w @ u.samples**2)
        assert abs(q - float(c @ c)) <= 1e-10 * float(c @ c)


def test_sample_grid_shape(frac32):
    n = frac32.operator.mesh.n_elements
    assert frac32.sample_weights.shape == (5 * n,)
    assert sample_table(frac32).shape == (5 * n, frac32.dim)
    assert frac32.sample(np.ones(frac32.dim)).shape == (5 * n,)
    length = frac32.operator.mesh.b - frac32.operator.mesh.a
    assert abs(float(np.sum(frac32.sample_weights)) - length) <= 1e-12 * length


@pytest.mark.parametrize("part", ["full", "low", "high"])
def test_sample_methods_are_the_table_expressions(frac32, part):
    # the hat-function products agree with the table's to RTOL
    basis = frac32.with_k(3)
    modes = {"full": slice(None), "low": slice(3), "high": slice(3, None)}[part]
    table, w = sample_table(basis), basis.sample_weights
    s = table[:, modes]
    rng = np.random.default_rng(23)
    c = rng.standard_normal(s.shape[1])
    values = rng.standard_normal(w.shape[0])
    mask = values > 0.0
    assert_close(basis.sample(c, modes), s @ c)
    assert_close(basis.gather(values, modes), s.T @ (w * values))
    assert basis.integrate(values) == float(w @ values)
    assert_close(basis.gram(values, modes), s.T @ ((w * values)[:, None] * s))
    sneg = s * np.sqrt(w * mask)[:, None]
    assert_close(basis.gram(mask, modes), sneg.T @ sneg)
    assert np.array_equal(basis.gram(mask, modes), basis.gram(mask.astype(float), modes))


@pytest.mark.parametrize("k", [1, 2, 8])
def test_low_sample_table_matches_the_hat_products(frac32, k):
    # modes = slice(k) reads the basis's 5n x k table of the low modes; the
    # same columns selected by index go through P and T
    basis = frac32.with_k(k)
    low, by_index = slice(k), list(range(k))
    assert basis.low_samples.shape == (basis.sample_weights.shape[0], k)
    assert_close(basis.low_samples, sample_table(basis)[:, :k])
    rng = np.random.default_rng(29)
    c = rng.standard_normal(k)
    values = rng.standard_normal(basis.sample_weights.shape[0])
    mask = values > 0.0
    assert_close(basis.sample(c, low), basis.sample(c, by_index))
    assert_close(basis.gather(values, low), basis.gather(values, by_index))
    assert_close(basis.gram(values, low), basis.gram(values, by_index))
    assert_close(basis.gram(mask, low), basis.gram(mask, by_index))
    assert np.array_equal(basis.gram(mask, low), basis.gram(mask.astype(float), low))


def test_with_k_samples_its_own_low_modes(frac32):
    # the table belongs to the basis instance, so a new split index gets a
    # table of its own width and the original keeps its own
    wide = frac32.with_k(5)
    assert wide.low_samples.shape[1] == 5
    assert frac32.low_samples.shape[1] == frac32.k == 1
    assert np.array_equal(wide.low_samples[:, :1], frac32.low_samples)
    assert wide.with_k(2).low_samples.shape[1] == 2


@functools.cache
def _property_basis(n_elements):
    return _fractional_basis(n_elements, k=min(3, n_elements - 2))


@settings(max_examples=40, deadline=None)
@given(
    n_elements=st.integers(min_value=4, max_value=257),
    part=st.sampled_from(["full", "low", "high"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_methods_are_adjoint_quadratures(n_elements, part, seed):
    # sample, gather and gram are one quadrature of the field products, so
    # without a table: c . gather(v) = int v u and gram(v) c = gather(v u)
    # for u = sample(c), to 1e-13 of the Cauchy-Schwarz bounds int |v u|
    # and ||v u|| (the eigenfunctions are L2-orthonormal)
    basis = _property_basis(n_elements)
    k = basis.k
    modes = {"full": slice(None), "low": slice(k), "high": slice(k, None)}[part]
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.vectors[:, modes].shape[1])
    values = rng.standard_normal(basis.sample_weights.shape[0])
    u = basis.sample(c, modes)
    pairing = float(c @ basis.gather(values, modes))
    assert abs(pairing - basis.integrate(values * u)) <= 1e-13 * basis.integrate(np.abs(values * u))
    bound = math.sqrt(basis.integrate((values * u) ** 2))
    diff = basis.gram(values, modes) @ c - basis.gather(values * u, modes)
    assert float(np.max(np.abs(diff))) <= 1e-13 * bound
    mask = values > 0.0
    assert np.array_equal(basis.gram(mask, modes), basis.gram(mask.astype(float), modes))


def test_sphere_solve_forms_no_sample_table():
    # the 5n x N table of eigenfunction samples was once built on the first
    # sphere solve and kept; no solve may now allocate as much as it
    n = 513
    basis = _fractional_basis(n)
    alpha = 0.5 * (basis.lambda_k + basis.lambda_k1)
    params = fucik.FucikParams(alpha=alpha, beta=1.5 * basis.lambda_k1, basis=basis)
    tracemalloc.start()
    try:
        fucik.minimize_on_sphere(params, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * basis.dim * 8


def test_eigen_run_memory_is_the_eigensolve(tmp_path):
    # basis.json is streamed from the eigenvector array and the certificates
    # reuse their own storage, so an eigen run holds a few N x N arrays and
    # never the document text or a list of N^2 floats
    n = 513
    cfg = fucik.RunConfig(mode="eigen", kernel="fractional:s=0.5", domain=(-1.0, 1.0),
                          elements=n, out=str(tmp_path))
    tracemalloc.start()
    try:
        assert fucik.run(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = n - 1
    assert peak <= 8 * dim * dim * 8


def test_reload_memory_is_the_basis(tmp_path):
    # basis.json is read in pieces, so a reload holds the vectors and the two
    # reassembled matrices; a whole-document json.load, which holds the text
    # and a list of N^2 floats, needs more than the bound
    n = 513
    path = tmp_path / "basis.json"
    fucik.save_basis(_fractional_basis(n), str(path))
    dim = n - 1
    bound = 1.5 * 3 * dim * dim * 8
    tracemalloc.start()
    try:
        fucik.load_basis(str(path))
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(path, encoding="utf-8") as f:
            vectors = np.array(json.load(f)["vectors"])
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vectors.shape == (dim * dim,)
    assert streamed < bound < whole


@pytest.mark.parametrize("piece", [1, 7, 1 << 16])
def test_edge_floats_round_trip_bitwise(tmp_path, monkeypatch, piece):
    edges = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1.7976931348623157e308])
    edges = np.concatenate([edges, -edges])
    path = tmp_path / "doc.json"
    fucik.operator._write_atomic({path: fucik.operator._json_document({"x": edges})})
    monkeypatch.setattr(fucik.operator, "_READ_PIECE", piece)
    block = fucik.operator._read_document(str(path))["x"]
    assert np.array_equal(block.array.view(np.uint64), edges.view(np.uint64))
    assert np.array_equal(np.array(json.loads(path.read_text())["x"]).view(np.uint64), edges.view(np.uint64))


def test_every_imported_distribution_is_declared():
    # a module the package imports that is neither stdlib nor the package
    # itself must be listed in pyproject.toml's [project] dependencies
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    repo = Path(__file__).resolve().parent.parent
    with open(repo / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                    for dep in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for path in sorted((repo / "src" / "fucik").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"fucik"} - declared == set()
    # LAPACK comes from numpy's own OpenBLAS; scipy is a test dependency only
    assert {"numpy", "orjson"} <= imported and "scipy" not in imported | declared


def test_only_operator_reads_the_sample_table():
    # the other modules go through EigenBasis.sample/gather/integrate/gram,
    # so a second representation of the basis needs to change one module;
    # sample_values names the table the basis no longer keeps
    names = {"sample_values", "sample_weights"}
    offenders = []
    for path in sorted(Path(fucik.__file__).parent.glob("*.py")):
        if path.name == "operator.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (isinstance(node, ast.Attribute) and node.attr in names) or (
                isinstance(node, ast.Constant) and node.value in names
            )
            if named:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# ---------------------------------------------------------------------------
# serialization


def test_document_round_trip(tmp_path):
    basis = _fractional_basis(16, k=2)
    path = tmp_path / "basis.json"
    fucik.save_basis(basis, str(path))
    loaded = fucik.load_basis(str(path), k=2)
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.vectors, basis.vectors)
    assert loaded.operator.kernel.s == 0.5
    assert loaded.k == 2


def test_saved_basis_mode_matches_plain_open(tmp_path):
    basis = _fractional_basis(16)
    previous = os.umask(0o022)
    try:
        for mask in (0o022, 0o002):
            os.umask(mask)
            out = tmp_path / oct(mask)
            out.mkdir()
            fucik.save_basis(basis, str(out / "basis.json"))
            with open(out / "plain", "w"):
                pass
            mode = stat.S_IMODE((out / "basis.json").stat().st_mode)
            assert mode == stat.S_IMODE((out / "plain").stat().st_mode) == 0o666 & ~mask
            assert sorted(p.name for p in out.iterdir()) == ["basis.json", "plain"]
            doc = {key: v.tolist() if isinstance(v, np.ndarray) else v
                   for key, v in fucik.basis_document(basis).items()}
            assert (out / "basis.json").read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    finally:
        os.umask(previous)


def test_document_version_checked(tmp_path):
    basis = _fractional_basis(16)
    path = tmp_path / "basis.json"
    fucik.save_basis(basis, str(path))
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(fucik.ConfigError):
        fucik.load_basis(str(path))


def _with(doc, *keys, value):
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


def _replace_text(d, dumps, *keys, text):
    # the document as dumps writes it, with the entry at keys written as text
    return dumps(_with(d, *keys, value="@")).replace('"@"', text)


def _cut_inside(d, dumps, key):
    text = dumps(d)
    return text[: text.index(f'"{key}"') + 200]


# each case maps a written document and a layout's dumps to a malformed text
_MALFORMED = {
    "missing-kernel": lambda d, dumps: dumps({key: v for key, v in d.items() if key != "kernel"}),
    "vectors-short": lambda d, dumps: dumps(_with(d, "vectors", value=d["vectors"][:-1])),
    "vectors-string": lambda d, dumps: dumps(_with(d, "vectors", 0, value="x")),
    "vectors-nan": lambda d, dumps: dumps(_with(d, "vectors", 0, value=float("nan"))),
    "vectors-true": lambda d, dumps: dumps(_with(d, "vectors", 1 * 15 + 3, value=True)),
    "vectors-null": lambda d, dumps: dumps(_with(d, "vectors", 5, value=None)),
    "vectors-nested-list": lambda d, dumps: dumps(_with(d, "vectors", 5, value=[1.0, 2.0])),
    "vectors-1e400": lambda d, dumps: _replace_text(d, dumps, "vectors", 5, text="1e400"),
    "eigenvalues-short": lambda d, dumps: dumps(_with(d, "eigenvalues", value=d["eigenvalues"][:-1])),
    "eigenvalues-true": lambda d, dumps: dumps(_with(d, "eigenvalues", 3, value=True)),
    "n-elements-string": lambda d, dumps: dumps(_with(d, "mesh", "n_elements", value="16")),
    "a-null": lambda d, dumps: dumps(_with(d, "mesh", "a", value=None)),
    "a-beyond-the-floats": lambda d, dumps: dumps(_with(d, "mesh", "a", value=-(10**400))),
    "version-true": lambda d, dumps: dumps(_with(d, "version", value=True)),
    "s-string": lambda d, dumps: dumps(_with(d, "kernel", "s", value="0.5")),
    "top-level-list": lambda d, dumps: dumps([d]),
    "truncated": lambda d, dumps: dumps(d)[:-20],
    "truncated-in-vectors": lambda d, dumps: _cut_inside(d, dumps, "vectors"),
    "vectors-trailing-comma": lambda d, dumps: _replace_text(d, dumps, "vectors", -1,
                                                             text=repr(d["vectors"][-1]) + ","),
}

# the layout save_basis writes: each float array one entry a line
_WRITER_LAYOUT = functools.partial(json.dumps, sort_keys=True, indent=2)


# the cases whose refusal names the entry, not the pairs it spoils
_BAD_ENTRY = {"vectors-string", "vectors-nan", "vectors-true", "vectors-null", "vectors-nested-list",
              "vectors-1e400", "eigenvalues-true"}


def _refuses(tmp_path, case, dumps):
    basis = _fractional_basis(16)
    path = tmp_path / "basis.json"
    fucik.save_basis(basis, str(path))
    path.write_text(_MALFORMED[case](json.loads(path.read_text()), dumps), encoding="utf-8")
    with pytest.raises(fucik.ConfigError, match="entry must be a finite number" if case in _BAD_ENTRY else None):
        fucik.load_basis(str(path))


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_refused(tmp_path, case):
    _refuses(tmp_path, case, json.dumps)


@pytest.mark.parametrize("piece", [1, 1 << 16])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_refused_in_the_writer_layout(tmp_path, monkeypatch, case, piece):
    # the float arrays of this layout are read piece by piece, the rest whole;
    # one-byte pieces end a piece at every comma
    monkeypatch.setattr(fucik.operator, "_READ_PIECE", piece)
    _refuses(tmp_path, case, _WRITER_LAYOUT)


def test_document_tamper_detected(tmp_path):
    basis = _fractional_basis(16)
    n = basis.dim
    path = tmp_path / "basis.json"
    fucik.save_basis(basis, str(path))
    written = path.read_text()

    def first_pair(doc):
        doc["vectors"][0] = doc["vectors"][0] * 1.1 + 0.5
        doc["eigenvalues"][0] *= 1.5

    def columns_off_the_old_spot_check(doc):
        # columns 3 and 5, outside the 0, n // 2 and n - 1 of a three-column check
        doc["eigenvalues"][3] *= 1.5
        doc["vectors"][2 * n + 5] *= -1.0

    def low_eigenvalue_off_by_1e_4(doc):
        # 30 times its column's tolerance; the high pairs' tolerances would
        # drown it if each column weighed the same in the probe
        doc["eigenvalues"][0] *= 1.0 + 1e-4

    def entries_near_the_float_limit(doc):
        # the probe overflows to inf and nan, which must not pass its test
        doc["eigenvalues"][3] = 1.7e308
        doc["vectors"][5] = -1.7e308

    for tamper in (first_pair, columns_off_the_old_spot_check, low_eigenvalue_off_by_1e_4,
                   entries_near_the_float_limit):
        for dumps in (json.dumps, _WRITER_LAYOUT):
            doc = json.loads(written)
            tamper(doc)
            path.write_text(dumps(doc))
            with pytest.raises(fucik.ConfigError, match="inconsistent"):
                fucik.load_basis(str(path))


# any JSON value json.dumps writes, numbers from 0 to beyond the floats
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.integers(min_value=-(10**400), max_value=10**400)
    | st.sampled_from([2**1024 - 2**970 - 1, 2**1024 - 2**970]),  # the largest float's, and beyond
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@functools.cache
def _written_document():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.json")
        fucik.save_basis(_fractional_basis(16), path)
        return Path(path).read_text()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_replaced_entry_is_read_as_json_reads_it_or_refused(data):
    doc = json.loads(_written_document())
    key = data.draw(st.sampled_from(["eigenvalues", "vectors"]))
    i = data.draw(st.integers(0, len(doc[key]) - 1))
    # an arbitrary value, or the entry itself a few ulps off, which loads
    ulps = st.integers(-2, 2).map(lambda u: float(np.float64(doc[key][i]) + u * np.spacing(doc[key][i])))
    doc[key][i] = data.draw(_JSON_VALUES | ulps)
    text = _WRITER_LAYOUT(doc) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.json")
        Path(path).write_text(text, encoding="utf-8")
        try:
            basis = fucik.load_basis(path)
        except fucik.ConfigError:
            return
    expected = json.loads(text)
    assert np.array_equal(basis.eigenvalues, np.array(expected["eigenvalues"], dtype=float))
    assert np.array_equal(basis.vectors.reshape(-1), np.array(expected["vectors"], dtype=float))


def _as_lists(value):
    # a value _read_document gave, each float block as the list it holds
    if isinstance(value, fucik.operator._FloatBlock):
        return value.array.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


def _bits(value):
    # value with every float as its bit pattern, so -0.0 differs from 0.0
    if isinstance(value, float):
        return ("float", int(np.float64(value).view(np.uint64)))
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


@settings(max_examples=150, deadline=None)
@given(
    value=st.dictionaries(st.text(max_size=3), st.lists(st.floats(allow_nan=False, allow_infinity=False)) | _JSON_VALUES,
                          max_size=4),
    layout=st.sampled_from([_WRITER_LAYOUT, json.dumps]),
    piece=st.sampled_from([1, 3, 7, 64, 1 << 16]),
)
def test_read_document_is_json_loads(value, layout, piece):
    # float arrays at the top level are blocks, read in pieces of any size;
    # every other member, and any document in another layout, is json.loads'
    text = layout(value)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "doc.json")
        Path(path).write_text(text, encoding="utf-8")
        mp.setattr(fucik.operator, "_READ_PIECE", piece)
        got = fucik.operator._read_document(path)
    expected = json.loads(text)
    for key, v in expected.items():
        block = isinstance(got[key], fucik.operator._FloatBlock)
        # a float block: in this layout, under a key written as it is, a
        # non-empty list of numbers orjson reads as floats
        assert block == (layout is _WRITER_LAYOUT and json.dumps(key) == f'"{key}"' and "\\" not in key
                         and isinstance(v, list) and len(v) > 0 and all(_finite_number(x) for x in v))
        if block:  # of floats where json.loads gave integers
            expected[key] = [float(x) for x in v]
    assert _bits(_as_lists(got)) == _bits(expected)


@pytest.mark.parametrize("piece", [1, 7, 64, 1 << 16])
def test_members_that_only_start_like_blocks_are_read_whole(tmp_path, monkeypatch, piece):
    # "a" fails after pieces of numbers, "b" at a closer without its indent;
    # both are read again by json.loads, and the block after them is still one
    numbers = ",\n    ".join(repr(0.1 * i) for i in range(40))
    text = (f'{{\n  "a": [\n    {numbers},\n    "x"\n  ],\n  "b": [\n    1.0,\n    2.0125],'
            f'\n  "c": [\n    {numbers}\n  ]\n}}\n')
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(fucik.operator, "_READ_PIECE", piece)
    got = fucik.operator._read_document(str(path))
    assert [isinstance(got[key], fucik.operator._FloatBlock) for key in "abc"] == [False, False, True]
    assert _bits(_as_lists(got)) == _bits(json.loads(text))


def _finite_number(x):
    # an integer is one if it rounds to a finite float, as orjson reads it
    if type(x) is int:
        try:
            x = float(x)
        except OverflowError:
            return False
    return type(x) is float and math.isfinite(x)
