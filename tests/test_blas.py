"""Tests for the scoped single-threaded BLAS around the solver loops."""

import json
import math

import numpy as np
import pytest
import scipy
import scipy.linalg

import fucik
from fucik import blas, spectrum


@pytest.fixture
def pools():
    """The resolved pools, each set to two threads; the counts are restored after."""
    with blas.single_threaded():
        pass
    expected = sum(cfg.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] == "scipy-openblas"
                   for cfg in (np, scipy))
    if expected == 0:
        pytest.skip("numpy and scipy do not use the scipy-openblas builds")
    resolved = list(blas._pools)
    assert len(resolved) == expected
    before = [getter() for getter, _ in resolved]
    for _, setter in resolved:
        setter(2)
    yield resolved
    for (_, setter), count in zip(resolved, before):
        setter(count)


def _counts(pools):
    return [getter() for getter, _ in pools]


def test_scope_restores_counts_after_exit_error_and_nesting(pools):
    with blas.single_threaded():
        assert _counts(pools) == [1] * len(pools)
        with blas.single_threaded():
            assert _counts(pools) == [1] * len(pools)
        assert _counts(pools) == [1] * len(pools)
    assert _counts(pools) == [2] * len(pools)
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            raise RuntimeError("inside the scope")
    assert _counts(pools) == [2] * len(pools)


def test_sphere_and_saddle_loops_run_single_threaded(pools, monkeypatch):
    seen = []
    kernel = spectrum._maximize_t

    def recording(*args, **kwargs):
        seen.append(tuple(_counts(pools)))
        return kernel(*args, **kwargs)

    # solve's inner maximizations run through spectrum._maximize_t as well
    monkeypatch.setattr(spectrum, "_maximize_t", recording)
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.0, math.pi, 16)), k=1)
    params = fucik.FucikParams(1.8, 2.1, basis)
    fucik.minimize_on_sphere(params, seed=0)
    assert _counts(pools) == [2] * len(pools)
    sphere_calls = len(seen)
    h = fucik.to_field(basis, coeffs=np.r_[0.5, np.zeros(basis.dim - 1)])
    fucik.solve(fucik.build_problem(params, fucik.Nonlinearity.tanh(), h))
    assert _counts(pools) == [2] * len(pools)
    assert 0 < sphere_calls < len(seen) and set(seen) == {(1,) * len(pools)}


def test_curve_is_byte_identical_without_the_scope(pools, tmp_path, monkeypatch):
    args = ["--mode", "curve", "--elements", "32", "--alpha-samples", "3", "--seed", "4"]
    assert fucik.main(args + ["--out", str(tmp_path / "scoped")]) == 0
    monkeypatch.setattr(blas, "_pools", [])
    assert fucik.main(args + ["--out", str(tmp_path / "pooled")]) == 0
    assert (tmp_path / "scoped" / "curve.csv").read_bytes() == (tmp_path / "pooled" / "curve.csv").read_bytes()


def test_missing_libraries_leave_the_scope_inert(monkeypatch):
    monkeypatch.setattr(blas, "_LIBRARIES", (("fucik.no_such_module", "a", "b"), ("math", "a", "b")))
    monkeypatch.setattr(blas, "_pools", None)
    with blas.single_threaded():
        assert blas._pools == []


def test_eigensolve_runs_single_threaded(pools, monkeypatch):
    seen = []
    eigh = scipy.linalg.eigh

    def recording(a, b, **kwargs):
        seen.append((a.shape, tuple(_counts(pools))))
        return eigh(a, b, **kwargs)

    # 23 interior nodes: the even half holds the centre node, the odd one not
    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(0.5), fucik.Mesh1D(-1.0, 1.0, 24)), k=1)
    assert seen == [((12, 12), (1,) * len(pools)), ((11, 11), (1,) * len(pools))]
    assert _counts(pools) == [2] * len(pools)


@pytest.mark.parametrize("kernel", ["local", "fractional:s=0.5"])
def test_eigen_is_byte_identical_across_blas_thread_counts(pools, tmp_path, kernel):
    args = ["--mode", "eigen", "--kernel", kernel, "--elements", "96"]
    for threads in (1, 2):
        for _, setter in pools:
            setter(threads)
        assert fucik.main(args + ["--out", str(tmp_path / str(threads))]) == 0
    for name in ("eigenvalues.csv", "basis.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_reload_runs_single_threaded(pools, monkeypatch, tmp_path):
    # load_basis's consistency probe makes four N^2 products after assemble
    seen = []
    assemble = fucik.operator.assemble

    def recording(*args, **kwargs):
        seen.append(tuple(_counts(pools)))
        return assemble(*args, **kwargs)

    path = tmp_path / "basis.json"
    fucik.save_basis(fucik.eigenpairs(assemble(fucik.Kernel.fractional(0.5), fucik.Mesh1D(-1.0, 1.0, 24)), k=1), path)
    monkeypatch.setattr(fucik.operator, "assemble", recording)
    fucik.load_basis(str(path))
    assert seen == [(1,) * len(pools)]
    assert _counts(pools) == [2] * len(pools)


def test_cli_run_is_one_scope(pools, monkeypatch, tmp_path):
    # the nodal values of solution.json and the nodal forcing are N^2
    # products outside the solver loops
    seen = []
    basis_type = fucik.operator.EigenBasis
    nodal_from_coeffs, coeffs_from_nodal = basis_type.nodal_from_coeffs, basis_type.coeffs_from_nodal

    def recording(method):
        def wrapped(self, values):
            seen.append((method.__name__, tuple(_counts(pools))))
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
    assert {counts for _, counts in seen} == {(1,) * len(pools)}
    assert _counts(pools) == [2] * len(pools)
