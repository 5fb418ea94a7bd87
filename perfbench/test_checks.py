"""Each output check accepts the program's real output and rejects a perturbed copy.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from fucik import cli, operator  # noqa: E402


def _cli(tmp, name, *args):
    out = tmp / name
    assert cli.main([*args, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("outputs")


# ---------------------------------------------------------------------------
# curve


@pytest.fixture(scope="module")
def frac_curve(tmp):
    out = _cli(tmp, "curve", "--mode", "curve", "--kernel", "fractional:s=0.5", "--domain=-1,1",
               "--elements", "24", "--alpha-samples", "5")
    return json.loads((out / "curve.json").read_text())


def test_fractional_curve_passes(frac_curve):
    assert checks.check_fractional_curve(frac_curve, 5) == []


def _perturbed(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["samples"][1].update(beta=d["samples"][0]["beta"] * 1.01), id="not-decreasing"),
    pytest.param(lambda d: d["samples"][-1].update(beta=d["lambda_k1"] * 0.999), id="below-lambda_k1"),
    pytest.param(lambda d: d["samples"][-1].update(beta=d["lambda_k1"] + 5.0 * (d["lambda_k1"] - d["samples"][-1]["alpha"])),
                 id="last-sample-far"),
    pytest.param(lambda d: d["samples"][2].update(m_residual=1e3 * d["tolerances"]["tol_m"]), id="uncertified-root"),
    pytest.param(lambda d: d["samples"][2].update(alpha=d["samples"][2]["alpha"] * 1.001), id="wrong-alpha"),
    pytest.param(lambda d: d.update(annotations=[f"alpha={d['samples'].pop()['alpha']!r}: no root"]),
                 id="annotation-not-prefix"),
])
def test_fractional_curve_rejects(frac_curve, edit):
    assert checks.check_fractional_curve(_perturbed(frac_curve, edit), 5)


@pytest.fixture(scope="module")
def validate_doc(tmp):
    out = _cli(tmp, "validate", "--mode", "validate", "--domain=0.5,3.5", "--elements", "64",
               "--alpha-samples", "5")
    return json.loads((out / "validate.json").read_text())


def test_validate_passes(validate_doc):
    assert validate_doc["annotations"], "the fixture should exercise the rootless case"
    assert checks.check_validate_local(validate_doc, 0.5, 3.5, 64, 5) == []


def test_validate_rejects_wrong_beta(validate_doc):
    doc = _perturbed(validate_doc, lambda d: d["checks"][1].update(beta_solver=d["checks"][1]["beta_solver"] * 1.02))
    assert checks.check_validate_local(doc, 0.5, 3.5, 64, 5)


def test_validate_rejects_rootless_annotation_with_a_root(validate_doc):
    def edit(d):
        c = d["checks"].pop(0)
        d["annotations"].append(f"alpha={c['alpha']!r}: no root")
    assert checks.check_validate_local(_perturbed(validate_doc, edit), 0.5, 3.5, 64, 5)


def test_validate_rejects_other_domain(validate_doc):
    assert checks.check_validate_local(validate_doc, 0.5, 3.6, 64, 5)


def test_classical_beta_matches_relation():
    for a, b in ((0.0, math.pi), (-1.0, 2.0)):
        scale = (math.pi / (b - a)) ** 2
        for alpha in (1.5 * scale, 2.5 * scale, 3.9 * scale):
            beta = checks.classical_beta(alpha, a, b)
            assert abs(1 / math.sqrt(alpha / scale) + 1 / math.sqrt(beta / scale) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# solve


def _solve(tmp, name, doc, elements):
    problem = tmp / f"{name}.json"
    problem.write_text(json.dumps(doc))
    out = _cli(tmp, name, "--mode", "solve", "--elements", str(elements), "--problem", str(problem))
    return json.loads((out / "solution.json").read_text())


@pytest.fixture(scope="module")
def linear(tmp):
    h = np.random.default_rng(0).standard_normal(15)
    doc = _solve(tmp, "linear", {"alpha": 2.5, "beta": 2.5, "f": {"name": "zero"}, "h": {"coeffs": h.tolist()}}, 16)
    return doc, h


def test_linear_passes(linear):
    doc, h = linear
    assert checks.check_status(doc, "converged", "nonresonance") == []
    assert checks.check_linear_solution(doc, 2.5, h, 0.0, math.pi, 16) == []


def test_linear_rejects(linear):
    doc, h = linear
    bad = _perturbed(doc, lambda d: d["u_star"]["coeffs"].__setitem__(3, d["u_star"]["coeffs"][3] * (1 + 1e-6)))
    assert checks.check_linear_solution(bad, 2.5, h, 0.0, math.pi, 16)
    assert checks.check_linear_solution(doc, 2.5 + 1e-6, h, 0.0, math.pi, 16)
    assert checks.check_status(_perturbed(doc, lambda d: d.update(status="max-iterations")), "converged", "nonresonance")
    assert checks.check_status(doc, "converged", "resonance")
    assert checks.check_status(_perturbed(doc, lambda d: d.update(residual=2 * d["tol_res"])), "converged", "nonresonance")


@pytest.fixture(scope="module")
def oncurve(tmp):
    return _solve(tmp, "oncurve", {"alpha": 2.5, "beta": "on-curve", "f": {"name": "atan_scaled"},
                                   "h": {"named": "phi_1"}}, 64)


def test_on_curve_beta(oncurve):
    assert checks.check_status(oncurve, "converged", "resonance") == []
    assert checks.check_on_curve_beta(oncurve, 0.0, math.pi, 0.01) == []
    bad = _perturbed(oncurve, lambda d: d.update(beta=d["beta"] * 1.02))
    assert checks.check_on_curve_beta(bad, 0.0, math.pi, 0.01)


@pytest.fixture(scope="module")
def twins(tmp):
    alpha, beta, h3 = workloads.TABLE_PROBLEMS[1]
    h = np.zeros(workloads.TABLE_ELEMENTS - 1)
    h[:3] = h3
    base = {"alpha": alpha, "beta": beta, "h": {"coeffs": h.tolist()}}
    table = {"table": {"points": workloads.TABLE_POINTS.tolist(), "values": workloads.TABLE_VALUES.tolist()}}
    return (_solve(tmp, "table", {**base, "f": table}, workloads.TABLE_ELEMENTS),
            _solve(tmp, "tanh", {**base, "f": {"name": "tanh"}}, workloads.TABLE_ELEMENTS))


def test_twin(twins):
    table, tanh = twins
    args = (workloads.TABLE_POINTS, workloads.TABLE_VALUES, np.tanh, workloads.TWIN_FACTOR)
    assert checks.check_twin(table, tanh, *args) == []
    delta = checks.table_interpolation_error(workloads.TABLE_POINTS, workloads.TABLE_VALUES, np.tanh, -2.0, 2.0)
    shift = 2 * workloads.TWIN_FACTOR * delta
    bad = _perturbed(table, lambda d: d["u_star"].update(nodal=[v + shift for v in d["u_star"]["nodal"]]))
    assert checks.check_twin(bad, tanh, *args)


# ---------------------------------------------------------------------------
# eigen


@pytest.fixture(scope="module")
def local_eigen(tmp):
    return _cli(tmp, "eigen-local", "--mode", "eigen", "--domain=-0.3,1.9", "--elements", "40")


def test_local_eigenvalues(local_eigen):
    eigs = checks.read_eigen_csv((local_eigen / "eigenvalues.csv").read_text())
    assert checks.check_local_eigenvalues(eigs, -0.3, 1.9, 40) == []
    bad = eigs.copy()
    bad[7] *= 1 + 1e-6
    assert checks.check_local_eigenvalues(bad, -0.3, 1.9, 40)
    assert checks.check_local_eigenvalues(eigs, -0.3, 1.91, 40)


def test_reload(local_eigen):
    basis = operator.load_basis(str(local_eigen / "basis.json"), k=1)
    doc = json.loads((local_eigen / "basis.json").read_text())
    csv = checks.read_eigen_csv((local_eigen / "eigenvalues.csv").read_text())
    assert checks.check_reload(basis.eigenvalues, basis.vectors, csv, doc, 1, basis.k) == []
    vectors = np.array(basis.vectors)
    vectors[3, 5] += 1e-12
    assert checks.check_reload(basis.eigenvalues, vectors, csv, doc, 1, basis.k)
    eigs = np.array(basis.eigenvalues)
    eigs[0] = np.nextafter(eigs[0], np.inf)
    assert checks.check_reload(eigs, basis.vectors, csv, doc, 1, basis.k)
    assert checks.check_reload(basis.eigenvalues, basis.vectors, csv, doc, 2, basis.k)


@pytest.fixture(scope="module")
def ladder(tmp):
    out = {}
    for n in (65, 129):
        path = _cli(tmp, f"eigen-frac-{n}", "--mode", "eigen", "--kernel", "fractional:s=0.5",
                    "--domain=-1,1", "--elements", str(n))
        out[n] = float(checks.read_eigen_csv((path / "eigenvalues.csv").read_text())[0])
    return out


def test_fractional_ladder(ladder):
    assert all(errs == [] for errs in checks.check_fractional_ladder(ladder).values())
    swapped = {65: ladder[129], 129: ladder[65]}
    assert checks.check_fractional_ladder(swapped)[129]
    shifted = {n: 1.02 * lam for n, lam in ladder.items()}
    assert all(checks.check_fractional_ladder(shifted).values())
