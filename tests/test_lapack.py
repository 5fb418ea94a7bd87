"""Tests for the LAPACK calls of the low-subspace Newton and the
frozen-pattern step, against the scipy-wrapper forms they replaced."""

import math

import numpy as np
import pytest
import scipy.linalg

import fucik
from fucik import blas, spectrum
from lapack_reference import RTOL, frozen_minimum_reference, maximize_t_reference


def _fractional(s, elements, k):
    mesh = fucik.Mesh1D(-1.0, 1.0, elements)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(s), mesh), k=k)


@pytest.fixture(scope="module")
def frac96():
    return _fractional(0.5, 96, 1)


@pytest.fixture(scope="module")
def local64():
    mesh = fucik.Mesh1D(0.0, math.pi, 64)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)


def _params(basis, k=None):
    basis = basis if k is None else basis.with_k(k)
    alpha = basis.lambda_k + 0.5 * (basis.lambda_k1 - basis.lambda_k)
    return fucik.FucikParams(alpha, 1.5 * basis.lambda_k1, basis)


def _steep(c):
    # f = -c tanh: f' = -c at 0, so -h is negative definite wherever u is small
    return fucik.Nonlinearity(
        name="steep",
        func=lambda t: -c * np.tanh(t),
        bound=c,
        antiderivative=lambda t: -c * np.log(np.cosh(t)),
        deriv=lambda t: -c / np.cosh(t) ** 2,
    )


def _steep_case(basis):
    # from u = 0 with a forcing along phi_1, the first Newton system is not
    # positive definite
    p = fucik.FucikParams(2.5, 3.0, basis)
    h = fucik.to_field(basis, coeffs=np.r_[1.0, np.zeros(basis.dim - 1)])
    return p, np.zeros(len(basis.sample_weights)), np.zeros(basis.k), (_steep(20.0), h)


def _cases(frac96, local64):
    rng = np.random.default_rng(5)
    for basis, k in ((frac96, 1), (frac96, 2), (local64, 2)):
        p = _params(basis, k)
        v = np.zeros(p.basis.dim)
        v[k:] = rng.standard_normal(p.basis.dim - k)
        yield p, p.basis.sample(v), np.zeros(k), None
    p = _params(local64)
    h = fucik.to_field(local64, coeffs=0.5 * rng.standard_normal(local64.dim))
    v = np.zeros(local64.dim)
    v[1:4] = rng.standard_normal(3)
    yield p, local64.sample(v), np.ones(1), (fucik.Nonlinearity.tanh(), h)
    yield _steep_case(local64)


def test_maximize_t_equals_the_cho_factor_reference(frac96, local64):
    for p, v_samples, t0, forcing in _cases(frac96, local64):
        got = spectrum._maximize_t(p, v_samples, t0, forcing=forcing)
        ref = maximize_t_reference(p, v_samples, t0, forcing=forcing)
        assert got[2] == ref[2] > 0
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[4], ref[4])
        assert np.array_equal(got[6], ref[6])
        assert (got[1], got[3], got[5]) == (ref[1], ref[3], ref[5])


def test_indefinite_newton_system_falls_back_to_a_gradient_step(local64, monkeypatch):
    posv = spectrum.posv
    infos = []

    def spying(*args, **kwargs):
        out = posv(*args, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(spectrum, "posv", spying)
    p, v_samples, t0, forcing = _steep_case(local64)
    start = spectrum._maximize_t(p, v_samples, t0, forcing=forcing, tol=math.inf)
    assert start[2] == 0 and not infos
    end = spectrum._maximize_t(p, v_samples, t0, forcing=forcing)
    assert any(info > 0 for info in infos)
    assert end[2] > 0 and end[5] >= start[5]


@pytest.mark.parametrize("s, elements, k", [(0.5, 96, 1), (0.001, 96, 2), (0.5, 513, 1), (0.001, 513, 2)])
def test_frozen_minimum_matches_the_solve_and_eigh_reference(s, elements, k, monkeypatch):
    p = _params(_fractional(s, elements, k))
    frozen = spectrum._frozen_minimum
    seen = []

    def recording(h, kk):
        out = frozen(h, kk)
        seen.append((h.copy(), kk, out))
        return out

    monkeypatch.setattr(spectrum, "_frozen_minimum", recording)
    monkeypatch.setattr(spectrum, "_FREEZE_ITERS", 4)
    start = np.zeros(p.basis.dim - k)
    start[0] = 1.0
    with blas.single_threaded():
        spectrum._SphereSolver(p).freeze_refine(start)
    assert seen
    for h, kk, out in seen:
        schur, mu, vec, lift = out
        ref_schur, ref_mu, ref_vec, ref_lift = frozen_minimum_reference(h, kk)
        scale = float(np.linalg.norm(ref_schur, 2))
        assert lift.shape == ref_lift.shape == (kk, len(h) - kk)
        assert float(np.max(np.abs(lift - ref_lift))) <= RTOL * float(np.max(np.abs(ref_lift)))
        assert float(np.max(np.abs(schur - ref_schur))) <= RTOL * scale
        assert abs(mu - ref_mu) <= RTOL * scale
        # the eigenvector moves by about roundoff / (relative eigen-gap), and
        # that gap is 2e-5 at s = 0.001, so the vector is checked as an
        # eigenpair of the reference complement rather than entry by entry
        assert float(np.linalg.norm(ref_schur @ vec - mu * vec)) <= RTOL * scale
        assert abs(float(vec @ vec) - 1.0) <= RTOL


def test_loops_call_no_scipy_linalg_wrapper(frac96, local64, monkeypatch):
    # no scipy.linalg wrapper runs in the package at all; the loops are
    # where one would cost most
    def refused(*args, **kwargs):
        raise AssertionError("a scipy.linalg wrapper ran inside the solver loops")

    for name in ("eigh", "solve", "cho_factor", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, refused)
    p = _params(frac96)
    assert fucik.minimize_on_sphere(p, seed=0).residual <= p.tol_grad
    p, v_samples, t0, forcing = _steep_case(local64)
    assert spectrum._maximize_t(p, v_samples, t0, forcing=forcing)[2] > 0
