"""Tests for the scoped single-threaded BLAS around the solver loops, and for
the LAPACK bindings against scipy's wrappers."""

import json
import math
import sys
import threading
import types

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

import fucik
from fucik import blas, operator, spectrum


@pytest.fixture
def pool():
    """The thread-count getter of numpy's OpenBLAS, set to two threads; the
    count is restored after.  numpy built on scipy-openblas must give the
    scope its pool: the tests fail, and do not skip, when the thread-count
    symbols go missing."""
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        pytest.skip("numpy is not built on scipy-openblas")
    assert blas._pool is not None
    getter, setter = blas._pool
    before = getter()
    setter(2)
    yield getter
    setter(before)


def test_scope_restores_counts_after_exit_error_and_nesting(pool):
    with blas.single_threaded():
        assert pool() == 1
        with blas.single_threaded():
            assert pool() == 1
        assert pool() == 1
    assert pool() == 2
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            raise RuntimeError("inside the scope")
    assert pool() == 2


def test_sphere_and_saddle_loops_run_single_threaded(pool, monkeypatch):
    seen = []
    kernel = spectrum._maximize_t

    def recording(*args, **kwargs):
        seen.append(pool())
        return kernel(*args, **kwargs)

    # solve's inner maximizations run through spectrum._maximize_t as well
    monkeypatch.setattr(spectrum, "_maximize_t", recording)
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.0, math.pi, 16)), k=1)
    params = fucik.FucikParams(1.8, 2.1, basis)
    fucik.minimize_on_sphere(params, seed=0)
    assert pool() == 2
    sphere_calls = len(seen)
    h = fucik.to_field(basis, coeffs=np.r_[0.5, np.zeros(basis.dim - 1)])
    fucik.solve(fucik.build_problem(params, fucik.Nonlinearity.tanh(), h))
    assert pool() == 2
    assert 0 < sphere_calls < len(seen) and set(seen) == {1}


def test_curve_is_byte_identical_without_the_scope(pool, tmp_path, monkeypatch):
    args = ["--mode", "curve", "--elements", "32", "--alpha-samples", "3", "--seed", "4"]
    assert fucik.main(args + ["--out", str(tmp_path / "scoped")]) == 0
    monkeypatch.setattr(blas, "_pool", None)
    assert fucik.main(args + ["--out", str(tmp_path / "pooled")]) == 0
    assert (tmp_path / "scoped" / "curve.csv").read_bytes() == (tmp_path / "pooled" / "curve.csv").read_bytes()


def test_missing_libraries_leave_the_scope_inert(monkeypatch):
    # a library without the thread-count symbols gives no pool, and the
    # scope then runs its body and touches nothing
    assert blas._thread_pool(types.SimpleNamespace()) is None
    monkeypatch.setattr(blas, "_pool", None)
    ran = []
    with blas.single_threaded():
        ran.append(True)
    assert ran == [True]


def test_eigensolve_runs_single_threaded(pool, monkeypatch):
    seen = []
    sygvd = operator.sygvd

    def recording(a, b):
        seen.append((a.shape, pool()))
        return sygvd(a, b)

    # 23 interior nodes: the even half holds the centre node, the odd one not
    monkeypatch.setattr(operator, "sygvd", recording)
    fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(0.5), fucik.Mesh1D(-1.0, 1.0, 24)), k=1)
    assert seen == [((12, 12), 1), ((11, 11), 1)]
    assert pool() == 2


@pytest.mark.parametrize("kernel", ["local", "fractional:s=0.5"])
def test_eigen_is_byte_identical_across_blas_thread_counts(pool, tmp_path, kernel):
    args = ["--mode", "eigen", "--kernel", kernel, "--elements", "96"]
    for threads in (1, 2):
        blas._pool[1](threads)
        assert fucik.main(args + ["--out", str(tmp_path / str(threads))]) == 0
    for name in ("eigenvalues.csv", "basis.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_reload_runs_single_threaded(pool, monkeypatch, tmp_path):
    # load_basis's consistency probe makes four N^2 products after assemble
    seen = []
    assemble = fucik.operator.assemble

    def recording(*args, **kwargs):
        seen.append(pool())
        return assemble(*args, **kwargs)

    path = tmp_path / "basis.json"
    fucik.save_basis(fucik.eigenpairs(assemble(fucik.Kernel.fractional(0.5), fucik.Mesh1D(-1.0, 1.0, 24)), k=1), path)
    monkeypatch.setattr(fucik.operator, "assemble", recording)
    fucik.load_basis(str(path))
    assert seen == [1]
    assert pool() == 2


def test_cli_run_is_one_scope(pool, monkeypatch, tmp_path):
    # the nodal values of solution.json and the nodal forcing are N^2
    # products outside the solver loops
    seen = []
    basis_type = fucik.operator.EigenBasis
    nodal_from_coeffs, coeffs_from_nodal = basis_type.nodal_from_coeffs, basis_type.coeffs_from_nodal

    def recording(method):
        def wrapped(self, values):
            seen.append((method.__name__, pool()))
            return method(self, values)
        return wrapped

    monkeypatch.setattr(basis_type, "nodal_from_coeffs", recording(nodal_from_coeffs))
    monkeypatch.setattr(basis_type, "coeffs_from_nodal", recording(coeffs_from_nodal))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"alpha": 2.0, "beta": 2.6, "k": 1, "f": {"name": "tanh"},
                                   "h": {"nodal": [math.sin(3 * i / 15.0) for i in range(15)]}}))
    argv = ["--mode", "solve", "--elements", "16", "--problem", str(problem), "--out", str(tmp_path / "out")]
    assert fucik.main(argv) == 0
    assert {name for name, _ in seen} == {"nodal_from_coeffs", "coeffs_from_nodal"}
    assert {counts for _, counts in seen} == {1}
    assert pool() == 2


# ---------------------------------------------------------------------------
# LAPACK bindings


def _operator(kernel, elements):
    if kernel == "local":
        return fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.0, math.pi, elements))
    return fucik.assemble(fucik.Kernel.fractional(0.5), fucik.Mesh1D(-1.0, 1.0, elements))


def _assert_close(x, ref, cond=1.0):
    # numpy's and scipy's OpenBLAS are separate builds and may round
    # differently; they agree to what the problem's conditioning allows
    assert np.linalg.norm(x - ref) <= 64 * cond * np.finfo(np.float64).eps * np.linalg.norm(ref)


def _signed_as(v, ref):
    """v, or -v, whichever points along ref."""
    return v if float(v @ ref) >= 0.0 else -v


@pytest.mark.parametrize("elements", [96, 513])
@pytest.mark.parametrize("kernel", ["local", "fractional"])
def test_sygvd_is_scipy_eigh_on_the_folded_pencils(kernel, elements):
    op = _operator(kernel, elements)
    for a, b in zip(operator._fold(op.stiffness), operator._fold(op.mass)):
        lam, Z, info = blas.sygvd(a, b)
        ref_lam, ref_Z = scipy.linalg.eigh(a, b)
        assert info == 0 and Z.flags.f_contiguous
        _assert_close(lam, ref_lam, cond=np.linalg.cond(b))
        # an eigenvector moves by the rounding over its eigenvalue's gap
        gaps = np.diff(ref_lam)
        gaps = np.minimum(np.r_[gaps, np.inf], np.r_[np.inf, gaps])
        for j in range(len(lam)):
            _assert_close(_signed_as(Z[:, j], ref_Z[:, j]), ref_Z[:, j], cond=ref_lam[-1] / gaps[j])


@pytest.mark.parametrize("elements", [96, 513])
def test_posv_and_syevr_are_scipy_potrf_potrs_and_syevr_on_frozen_hessians(elements, monkeypatch):
    potrf, potrs, syevr = get_lapack_funcs(("potrf", "potrs", "syevr"), dtype=np.float64)
    basis = fucik.eigenpairs(_operator("fractional", elements), k=1)
    p = fucik.FucikParams(basis.lambda_k + 0.5 * (basis.lambda_k1 - basis.lambda_k), 1.5 * basis.lambda_k1, basis)
    frozen = spectrum._frozen_minimum
    seen = []

    def recording(h, k):
        out = frozen(h, k)
        seen.append((h.copy(), k, out))
        return out

    monkeypatch.setattr(spectrum, "_frozen_minimum", recording)
    monkeypatch.setattr(spectrum, "_FREEZE_ITERS", 4)
    start = np.zeros(basis.dim - 1)
    start[0] = 1.0
    spectrum._SphereSolver(p).freeze_refine(start)
    assert seen
    for h, k, (schur, mu, vec, lift) in seen:
        factor, info = potrf(-h[:k, :k], clean=0)
        assert info == 0
        _assert_close(lift, potrs(factor, h[:k, k:])[0], cond=np.linalg.cond(h[:k, :k]))
        ref_mu, ref_vec, _, _, info = syevr(schur, range="I", il=1, iu=1)
        assert info == 0
        eigenvalues = np.linalg.eigvalsh(schur)
        scale = np.max(np.abs(eigenvalues))
        _assert_close(np.array([mu]), ref_mu[:1], cond=scale / abs(ref_mu[0]))
        _assert_close(_signed_as(vec, ref_vec[:, 0]), ref_vec[:, 0], cond=scale / (eigenvalues[1] - eigenvalues[0]))
        # one posv solves what potrf and potrs solve
        g = h[k:, 0]
        schur_factor, info = potrf(schur, clean=0)
        x, posv_info = blas.posv(schur, g)
        assert (posv_info == 0) == (info == 0)
        if info == 0:
            _assert_close(x, potrs(schur_factor, g)[0], cond=np.linalg.cond(schur))


def test_concurrent_calls_each_get_their_own_result():
    # a LAPACK call releases the interpreter lock, so an array shared
    # between calls would hand one thread's system to another's call
    rng = np.random.default_rng(6)
    systems = []
    for _ in range(6):
        g = rng.standard_normal((40, 40))
        systems.append((g @ g.T + 40.0 * np.eye(40), rng.standard_normal(40)))
    expected = [(blas.posv(a, b)[0], blas.syevr_lowest(a)[1]) for a, b in systems]
    wrong = []

    def worker(i):
        a, b = systems[i]
        for _ in range(200):
            got = (blas.posv(a, b)[0], blas.syevr_lowest(a)[1])
            if not all(np.array_equal(x, y) for x, y in zip(got, expected[i])):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(systems))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_posv_reports_an_indefinite_matrix():
    x, info = blas.posv(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    assert info == 2 and x.shape == (2,)


@pytest.mark.parametrize("call", [
    lambda: blas.posv(np.eye(3), np.ones(2)),
    lambda: blas.posv(np.ones((3, 2)), np.ones(3)),
    lambda: blas.posv(np.eye(3), np.ones((3, 1, 1))),
    lambda: blas.syevr_lowest(np.ones((3, 2))),
    lambda: blas.sygvd(np.eye(3), np.eye(2)),
    lambda: blas.lu_solve(np.eye(3), np.ones((3, 1))),
], ids=["posv-rhs", "posv-matrix", "posv-rank", "syevr", "sygvd", "lu_solve"])
def test_bindings_refuse_mismatched_shapes(call):
    # LAPACK would read past the arrays' ends
    with pytest.raises(ValueError):
        call()


def test_a_missing_routine_raises_import_error_naming_it():
    with pytest.raises(ImportError, match="dnosuchroutine"):
        blas._routine("dnosuchroutine", "i")
