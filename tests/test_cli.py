"""Tests for the command-line layer: config round-trips, SVG emission,
the four run modes, and the byte-determinism of emitted artifacts."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fucik
from fucik import cli, semilinear, spectrum


def _read_csv(path):
    comments, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _run(args):
    return fucik.main(args)


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip():
    cfg = fucik.RunConfig(mode="curve", kernel="fractional:s=0.5", domain=(-1.0, 1.0),
                          elements=32, k=2, alpha_samples=5, seed=7,
                          tolerances={"beta": 1e-7})
    again = fucik.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    assert json.dumps(again.to_dict(), sort_keys=True) == text


def test_config_defaults():
    cfg = fucik.RunConfig(mode="eigen")
    assert cfg.kernel == "local"
    assert cfg.domain == (0.0, math.pi)
    assert cfg.elements == 64 and cfg.k == 1 and cfg.seed == 0


def test_config_hash_tracks_computation_not_location():
    base = fucik.RunConfig(mode="eigen")
    assert fucik.RunConfig(mode="eigen", out="elsewhere").config_hash == base.config_hash
    assert fucik.RunConfig(mode="eigen", seed=1).config_hash != base.config_hash
    assert fucik.RunConfig(mode="eigen", elements=65).config_hash != base.config_hash


def test_config_rejects_malformed():
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig(mode="plot")
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig(mode="eigen", kernel="spectral")
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig(mode="eigen", domain=(1.0, 1.0))
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig(mode="eigen", elements=3)
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig(mode="eigen", tolerances={"beta": -1.0})
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig(mode="eigen", tolerances={"gamma": 1.0})
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig.from_dict({"mode": "eigen", "color": "red"})
    with pytest.raises(fucik.ConfigError):
        fucik.RunConfig.from_dict({"kernel": "local"})


def test_parse_kernel():
    assert fucik.parse_kernel("local").variant == "local"
    frac = fucik.parse_kernel("fractional:s=0.5")
    assert frac.variant == "fractional" and frac.s == 0.5
    with pytest.raises(fucik.ConfigError):
        fucik.parse_kernel("fractional:s=half")
    with pytest.raises(fucik.FucikError):
        fucik.parse_kernel("fractional:s=1.5")


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"mode": "eigen", "elements": 24, "seed": 5}))
    cfg = fucik.config_from_args(["--config", str(cfg_file), "--elements", "32"])
    assert cfg.elements == 32 and cfg.seed == 5 and cfg.mode == "eigen"
    cfg2 = fucik.config_from_args(["--config", str(cfg_file), "--tol-beta", "1e-7"])
    assert cfg2.tolerances == {"beta": 1e-7}


def test_successive_mains_share_no_parsed_state(monkeypatch):
    # the parser is built once per process; every main parses afresh
    runs = []
    monkeypatch.setattr(cli, "run", lambda config: runs.append(config) or 0)
    assert cli.main(["--mode", "curve", "--kernel", "fractional:s=0.5", "--elements", "20", "--k", "2",
                     "--seed", "3", "--tol-beta", "1e-7", "--out", "first"]) == 0
    parser = cli._build_parser()
    assert cli.main(["--mode", "eigen"]) == 0
    assert cli._build_parser() is parser
    assert runs[0] == fucik.RunConfig(mode="curve", kernel="fractional:s=0.5", elements=20, k=2, seed=3,
                                      out="first", tolerances={"beta": 1e-7})
    assert runs[1] == fucik.RunConfig(mode="eigen")


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_ORDERS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_CONFIGS = st.builds(
    fucik.RunConfig,
    mode=st.sampled_from(cli._MODES),
    kernel=st.just("local") | _ORDERS.map(lambda s: f"fractional:s={s!r}"),
    domain=st.tuples(st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
                     st.floats(allow_nan=False, allow_infinity=False) | st.integers())
    .filter(lambda d: float(d[0]) < float(d[1])),
    elements=st.integers(4, 2**40),
    k=st.integers(1, 2**20),
    alpha_samples=st.integers(3, 2**20),
    problem=st.none() | st.text(max_size=8),
    out=st.text(min_size=1, max_size=8),
    seed=st.integers(0, 2**64),
    tolerances=st.dictionaries(st.sampled_from(cli._TOL_KEYS),
                               st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
)


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_config_round_trips(cfg):
    assert fucik.RunConfig.from_dict(cfg.to_dict()) == cfg
    # a config file is the same dictionary through JSON text
    again = fucik.RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg and again.config_hash == cfg.config_hash


# each known key holds a value near its valid ones or any JSON value
_CONFIG_ENTRIES = {
    "mode": st.sampled_from(cli._MODES) | _ANY_JSON,
    "kernel": (st.sampled_from(["local", "fractional:s="])
               | (st.floats() | st.text(max_size=6)).map(lambda s: f"fractional:s={s}") | _ANY_JSON),
    "domain": st.lists(st.floats() | st.integers() | _ANY_JSON, max_size=3) | _ANY_JSON,
    "elements": st.integers(-2, 2**70) | _ANY_JSON,
    "k": st.integers(-2, 2**70) | _ANY_JSON,
    "alpha_samples": st.integers(-2, 2**70) | _ANY_JSON,
    "problem": st.text(max_size=6) | _ANY_JSON,
    "out": st.text(max_size=6) | _ANY_JSON,
    "seed": st.integers(-2**70, 2**70) | _ANY_JSON,
    "tolerances": st.dictionaries(st.sampled_from(cli._TOL_KEYS) | st.text(max_size=6),
                                  st.floats() | st.integers() | _ANY_JSON, max_size=3) | _ANY_JSON,
}


@settings(max_examples=600, deadline=None)
@given(known=st.fixed_dictionaries({}, optional=_CONFIG_ENTRIES),
       unknown=st.dictionaries(st.text(max_size=6), _ANY_JSON, max_size=2) | st.just({}))
def test_fuzzed_config_documents_load_or_refuse(known, unknown):
    doc = {**unknown, **known}
    try:
        cfg = fucik.RunConfig.from_dict(doc)
    except fucik.ConfigError:
        return
    assert fucik.RunConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# SVG emission


def test_svg_single_point_is_one_marker():
    svg = fucik.plot_svg([fucik.Series("pt", (1.0,), (2.0,))])
    assert svg.count('class="marker"') == 1
    assert "<polyline" not in svg


def test_svg_polyline_vertex_count():
    x = tuple(float(i) for i in range(33))
    y = tuple(math.sin(v) for v in x)
    svg = fucik.plot_svg([fucik.Series("wave", x, y)])
    line = [l for l in svg.splitlines() if "<polyline" in l][0]
    pts = line.split('points="')[1].split('"')[0].split()
    assert len(pts) == 33


def test_svg_deterministic():
    series = [fucik.Series("a", (0.0, 1.0, 2.0), (1.0, 0.5, 0.25), markers=True)]
    one = fucik.plot_svg(series, title="t", xlabel="x", ylabel="y", meta={"seed": 0})
    two = fucik.plot_svg(series, title="t", xlabel="x", ylabel="y", meta={"seed": 0})
    assert one == two
    assert one.startswith("<?xml")
    assert 'width="800" height="600"' in one


def test_svg_rejects_bad_input():
    with pytest.raises(fucik.EmptySeries):
        fucik.plot_svg([])
    with pytest.raises(fucik.EmptySeries):
        fucik.plot_svg([fucik.Series("void", (), ())])
    with pytest.raises(fucik.ConfigError):
        fucik.plot_svg([fucik.Series("bad", (0.0, float("nan")), (0.0, 1.0))])
    with pytest.raises(fucik.ConfigError):
        fucik.Series("ragged", (0.0, 1.0), (0.0,))


# ---------------------------------------------------------------------------
# run modes


def test_eigen_mode_classical_values(tmp_path):
    out = tmp_path / "eigen"
    assert _run(["--mode", "eigen", "--elements", "200", "--out", str(out)]) == 0
    comments, header, rows = _read_csv(out / "eigenvalues.csv")
    assert comments[0] == "# schema: eigen-v1"
    assert any(line.startswith("# config_hash: ") for line in comments)
    assert any(line.startswith("# seed: ") for line in comments)
    assert any(line.startswith("# version: ") for line in comments)
    assert header == ["index", "eigenvalue"]
    got = [float(r[1]) for r in rows[:4]]
    for lam, classical in zip(got, (1.0, 4.0, 9.0, 16.0)):
        assert abs(lam - classical) <= 0.005 * classical
    doc = json.loads((out / "basis.json").read_text())
    assert doc["provenance"]["version"] == fucik.__version__
    assert len(doc["eigenvalues"]) == 199


def test_curve_mode_artifacts(tmp_path):
    out = tmp_path / "curve"
    assert _run(["--mode", "curve", "--elements", "48", "--alpha-samples", "5",
                 "--out", str(out)]) == 0
    comments, header, rows = _read_csv(out / "curve.csv")
    assert comments[0] == "# schema: curve-v1"
    assert header == ["alpha", "beta", "m_residual", "iters"]
    alphas = [float(r[0]) for r in rows]
    betas = [float(r[1]) for r in rows]
    assert alphas == sorted(alphas)
    assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))
    doc = json.loads((out / "curve.json").read_text())
    assert len(doc["samples"]) == len(rows)
    assert len(doc["samples"][0]["minimizer"]) == 47
    for sample in doc["samples"]:
        # at least the bracket's two ends and the multistart certification
        assert isinstance(sample["root_solves"], int) and sample["root_solves"] >= 3
        assert sample["careful"] is False
    # the first root is bracketed cold, later ones from their predecessor
    assert doc["samples"][0]["continued"] is False
    assert any(sample["continued"] is True for sample in doc["samples"][1:])
    svg = (out / "curve.svg").read_text()
    # curve + diagonal + the two first-eigenvalue lines
    assert svg.count("<polyline") == 4
    assert svg.count('class="marker"') == len(rows)
    assert "lambda_1" in svg


def test_solve_mode_artifacts(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 2.0, "beta": 2.0, "k": 1,
                                "f": {"name": "tanh"}, "h": {"named": "phi_1"}}))
    out = tmp_path / "solve"
    assert _run(["--mode", "solve", "--elements", "48", "--problem", str(prob),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["status"] == fucik.CONVERGED
    assert doc["regime"] == fucik.NONRESONANCE
    assert doc["residual"] <= doc["tol_res"]
    assert len(doc["u_star"]["coeffs"]) == 47
    comments, header, rows = _read_csv(out / "trace.csv")
    assert header == ["iter", "value", "residual"]
    assert len(rows) == len(doc["trace"])
    assert (out / "solution.svg").exists()


def test_solve_mode_writes_the_same_solution_bytes(tmp_path, monkeypatch):
    # the digest pins the folded eigensolve's rounding, the Newton steps of
    # phase 1 and the tridiagonal mass product behind h's coefficients;
    # against the Barzilai-Borwein descent the Newton steps replaced, the
    # parsed file kept its status, its iterations fell from 64 to 4, and
    # u_star's coefficients and nodal values moved by at most 2.1e-15; the
    # tridiagonal product moved them by at most 2.8e-16
    monkeypatch.chdir(tmp_path)
    h = [math.sin(3 * i / 15.0) for i in range(15)]
    Path("problem.json").write_text(json.dumps({"alpha": 2.0, "beta": 2.6, "k": 1, "f": {"name": "tanh"},
                                                "h": {"nodal": h}}))
    assert _run(["--mode", "solve", "--elements", "16", "--problem", "problem.json", "--out", "solve"]) == 0
    data = Path("solve", "solution.json").read_bytes()
    assert json.loads(data)["status"] == fucik.CONVERGED
    assert hashlib.sha256(data).hexdigest() == "cab91f48592ab7ca131a354a6099427558ba15a3462a4f70f194b5a273bbd1e7"


def test_solve_mode_converges_below_the_curve(tmp_path):
    # beta 90% of the way from lambda_2 to the curve (beta(alpha) = 18.303):
    # nonresonant, so a solution exists for every h; the ray test once
    # stopped this run after 88 iterations as diverging-ray, with exit 1
    prob = tmp_path / "P.json"
    prob.write_text(json.dumps({"alpha": 6.1759936047968305, "beta": 17.461213108016622,
                                "f": {"name": "tanh"}, "h": {"named": "phi_2"}}))
    out = tmp_path / "solve"
    assert _run(["--mode", "solve", "--kernel", "local", "--domain=-1,1", "--elements", "48",
                 "--problem", str(prob), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["regime"] == fucik.NONRESONANCE
    assert doc["status"] == fucik.CONVERGED
    assert doc["residual"] <= doc["tol_res"]


def test_solve_mode_on_curve_resonance(tmp_path):
    # off-diagonal resonance has no admissibility window; the report must
    # still serialize
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 2.5, "beta": "on-curve", "k": 1,
                                "f": {"name": "atan_scaled"}, "h": {"named": "phi_1"}}))
    out = tmp_path / "oncurve"
    assert _run(["--mode", "solve", "--elements", "48", "--problem", str(prob),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["regime"] == fucik.RESONANCE
    assert doc["status"] == fucik.CONVERGED
    assert doc["gll"]["satisfied"]
    assert doc["gll"]["window"] is None
    assert doc["curve_beta"] > doc["alpha"]


def test_solve_mode_on_curve_computes_root_and_check_once(tmp_path, monkeypatch):
    from fucik import semilinear

    calls = {"beta_of_alpha": 0, "check_gll": 0}

    def counting(name):
        original = getattr(semilinear, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(semilinear, name, wrapper)

    counting("beta_of_alpha")
    counting("check_gll")
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 3.0, "beta": "on-curve", "f": {"name": "atan_scaled"},
                                "h": {"named": "phi_1"}}))
    out = tmp_path / "oncurve"
    assert _run(["--mode", "solve", "--elements", "16", "--problem", str(prob),
                 "--out", str(out)]) == 0
    assert calls == {"beta_of_alpha": 1, "check_gll": 1}
    doc = json.loads((out / "solution.json").read_text())
    assert doc["regime"] == fucik.RESONANCE
    assert doc["gll"]["satisfied"]


def test_solve_mode_on_curve_fractional_quarter_converges(tmp_path):
    # a cold multistart at this certified root (m = -2.9e-12) misses the
    # global minimum (m = 2.59), so the eigenset must come from the root
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 9.901833835657118, "beta": "on-curve",
                                "f": {"name": "atan_scaled"}, "h": {"named": "phi_1"}}))
    out = tmp_path / "oncurve"
    assert _run(["--mode", "solve", "--kernel", "fractional:s=0.25", "--domain=-1,1",
                 "--elements", "96", "--problem", str(prob), "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["regime"] == fucik.RESONANCE
    assert doc["status"] == fucik.CONVERGED
    assert doc["gll"]["satisfied"] and doc["gll"]["eigenset_size"] >= 1


def test_solve_mode_on_curve_solves_no_sphere_after_the_root(tmp_path, monkeypatch):
    # the eigenset is read from the root beta_of_alpha certified; no sphere
    # problem is solved once it has returned
    calls = {"root_returned": False, "before": 0, "after": 0}
    root_search = semilinear.beta_of_alpha

    def counting_root(*args, **kwargs):
        point = root_search(*args, **kwargs)
        calls["root_returned"] = True
        return point

    sphere = spectrum.minimize_on_sphere

    def counting_sphere(*args, **kwargs):
        calls["after" if calls["root_returned"] else "before"] += 1
        return sphere(*args, **kwargs)

    monkeypatch.setattr(semilinear, "beta_of_alpha", counting_root)
    monkeypatch.setattr(spectrum, "minimize_on_sphere", counting_sphere)
    monkeypatch.setattr(semilinear, "minimize_on_sphere", counting_sphere)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 3.0, "beta": "on-curve", "f": {"name": "atan_scaled"},
                                "h": {"named": "phi_1"}}))
    assert _run(["--mode", "solve", "--elements", "16", "--problem", str(prob),
                 "--out", str(tmp_path / "oncurve")]) == 0
    assert calls["root_returned"] and calls["before"] > 0
    assert calls["after"] == 0


def test_solve_mode_requires_problem(tmp_path, capsys):
    code = _run(["--mode", "solve", "--out", str(tmp_path / "nope")])
    assert code == 2
    assert "problem" in capsys.readouterr().err
    assert not (tmp_path / "nope").exists()


def test_solve_mode_surfaces_regime_violation(tmp_path, capsys):
    mesh = fucik.Mesh1D(0.0, math.pi, 48)
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": basis.lambda_k1, "beta": basis.lambda_k1,
                                "k": 1, "f": {"name": "zero"}, "h": {"named": "phi_2"}}))
    out = tmp_path / "res"
    code = _run(["--mode", "solve", "--elements", "48", "--problem", str(prob),
                 "--out", str(out)])
    assert code == 2
    assert "RegimeViolation" in capsys.readouterr().err
    assert not out.exists()


def test_validate_mode_passes_against_oracle(tmp_path):
    out = tmp_path / "val"
    assert _run(["--mode", "validate", "--elements", "96", "--alpha-samples", "5",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"]
    assert all(c["rel_diff"] <= 0.01 for c in doc["checks"])
    comments, header, rows = _read_csv(out / "validate.csv")
    assert comments[0] == "# schema: curve-oracle-v1"
    assert header == ["alpha", "beta", "m_residual", "iters", "source"]
    sources = {r[4] for r in rows}
    assert sources == {"solver", "oracle"}
    n_solver = sum(1 for r in rows if r[4] == "solver")
    assert n_solver == len(doc["checks"])


def test_validate_mode_passes_on_a_long_domain(tmp_path):
    # the curve scales like L^-2; an absolute floor in tol_grad once made
    # every certificate vacuous here, and validate missed by rel_diff 0.999
    out = tmp_path / "val"
    assert _run(["--mode", "validate", "--domain=0,1e8", "--elements", "200", "--out", str(out)]) == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"] and len(doc["checks"]) == 8
    assert all(c["rel_diff"] <= 0.01 for c in doc["checks"])


def _curve_on(tmp_path, kernel, length):
    out = tmp_path / f"curve-{length!r}"
    assert _run(["--mode", "curve", "--kernel", kernel, f"--domain=0,{length!r}", "--elements", "16",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "curve.json").read_text())
    return len(doc["annotations"]), [p["beta"] / doc["lambda_k1"] for p in doc["samples"]]


@pytest.mark.parametrize("kernel", ["fractional:s=0.5", "local"])
@pytest.mark.parametrize("length", [1e-14, 1e-8, 1e8, 1e20])
def test_curve_scales_with_the_domain(tmp_path, kernel, length):
    # the curve on (0, L) is the (0, 1) curve times L^-2s (L^-2 locally), so
    # beta / lambda_{k+1} at each sample may not depend on L
    annotations, ratios = _curve_on(tmp_path, kernel, length)
    ref_annotations, ref_ratios = _curve_on(tmp_path, kernel, 1.0)
    assert (annotations, len(ratios)) == (ref_annotations, len(ref_ratios)) == (1, 8)
    assert all(abs(r / q - 1.0) <= 1e-9 for r, q in zip(ratios, ref_ratios))


@pytest.mark.parametrize("inside, outside", [(5e-150, 4e-150), (5e-150, 1e-200), (2e146, 3e146)],
                         ids=["short", "far-short", "long"])
def test_curve_mode_refuses_domains_whose_squared_norms_leave_the_float_range(tmp_path, capsys, inside, outside):
    argv = ["--mode", "curve", "--kernel", "fractional:s=0.5", "--elements", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([*argv, f"--domain=0,{inside!r}", "--out", str(tmp_path / "inside")]) == 0
    out = tmp_path / "outside"
    assert _run([*argv, f"--domain=0,{outside!r}", "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_validate_mode_needs_local_kernel(tmp_path, capsys):
    code = _run(["--mode", "validate", "--kernel", "fractional:s=0.5",
                 "--domain=-1,1", "--elements", "32", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "local" in capsys.readouterr().err


def test_malformed_config_leaves_no_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never"
    code = _run(["--mode", "eigen", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert "JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry, flags", [
    ({"domain": "ab"}, []),
    ({"domain": [0, "x"]}, []),
    ({"domain": 3}, []),
    ({"tolerances": {"beta": "x"}}, []),
    ({"tolerances": [1]}, []),
    ({"tolerances": [1]}, ["--tol-beta", "1e-6"]),
    ({"seed": -1}, []),
    ({"domain": [-1e308, 1e308]}, []),
    ({"domain": [0, 5e-324]}, []),
    ({"domain": [0, 1e-322]}, []),
    ({"kernel": "fractional:s=0.001", "domain": [-2.2025709834862e306, 0], "elements": 4}, []),
    ({"domain": [-(10**400), 1]}, []),
], ids=["domain-string", "domain-entry", "domain-number", "tolerance-string", "tolerances-list",
        "tolerances-list-with-flag", "seed-negative", "length-overflows", "spacing-underflows",
        "spacing-subnormal", "stiffness-overflows", "domain-integer-beyond-the-floats"])
def test_malformed_config_entry_exits_2(tmp_path, capsys, entry, flags):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "eigen", "elements": 8, **entry}))
    out = tmp_path / "never"
    assert _run(["--config", str(bad), "--out", str(out), *flags]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


_TABLE = {"table": {"points": [-1.0, 1.0], "values": [-1.0, 1.0]}}


@pytest.mark.parametrize("change", [
    {"alpha": "x"},
    {"k": "two"},
    {"f_limits": [1]},
    {"f_limits": [-1.0], "f": _TABLE},
    {"f_limits": [-1.0, 1.0]},
    {"beta": [2.0]},
    {"f": {"table": {"points": [-1.0, 1.0]}}},
    {"f": {"table": {"points": [-1.0, "x"], "values": [-1.0, 1.0]}}},
    {"h": {"coeffs": ["a"]}},
    {"alpha": 10**400},
], ids=["alpha-string", "k-string", "f_limits-single", "table-f_limits-single", "f_limits-restated",
        "beta-list", "table-without-values", "table-point-string", "h-coeffs-string",
        "alpha-integer-beyond-the-floats"])
def test_malformed_problem_exits_2(tmp_path, capsys, change):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 2.0, "beta": 2.0, "f": {"name": "tanh"},
                                "h": {"named": "phi_1"}, **change}))
    out = tmp_path / "never"
    assert _run(["--mode", "solve", "--elements", "8", "--problem", str(prob), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def _exits_0_or_2(argv):
    # exit 2 is a refusal, which must leave --out unmade
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = _run([*argv, "--out", str(out)])
        assert code in (0, 2)
        assert code == 0 or not out.exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1500, deadline=None)
@given(ends=st.tuples(_FINITE, _FINITE).map(sorted), elements=st.integers(4, 12),
       kernel=st.sampled_from(["local", "fractional:s=0.001", "fractional:s=0.5", "fractional:s=0.999"]))
def test_eigen_mode_runs_or_refuses_any_finite_domain(ends, elements, kernel):
    _exits_0_or_2(["--mode", "eigen", "--kernel", kernel, f"--domain={ends[0]!r},{ends[1]!r}",
                   "--elements", str(elements)])


def test_eigen_mode_refuses_a_nan_certificate():
    # on this domain the stiffness is about 1e196 and the mass 1e-196; a
    # half-size certificate comes out NaN, which must not pass its test
    _exits_0_or_2(["--mode", "eigen", "--kernel", "local", "--domain=0.0,3.6218530030510112e-196",
                   "--elements", "4"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(2**63), 2**63))
def test_curve_mode_runs_or_refuses_any_seed(seed):
    _exits_0_or_2(["--mode", "curve", "--elements", "8", "--alpha-samples", "3", "--seed", str(seed)])


def test_reruns_are_byte_identical(tmp_path):
    args = ["--mode", "curve", "--elements", "48", "--alpha-samples", "4", "--seed", "3"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert _run(args + ["--out", str(out1)]) == 0
    assert _run(args + ["--out", str(out2)]) == 0
    for name in ("curve.csv", "curve.json", "curve.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # rerun into the same directory, same bytes again
    assert _run(args + ["--out", str(out1)]) == 0
    for name in ("curve.csv", "curve.json", "curve.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _jsonable(value):
    """Recursively convert numpy scalars/arrays so json can serialize: the
    oracle the JSON writer's default= hook must match byte for byte."""
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def test_json_document_matches_indented_json_dumps(tmp_path):
    out = tmp_path / "eigen"
    assert _run(["--mode", "eigen", "--kernel", "fractional:s=0.5", "--domain=-1,1",
                 "--elements", "24", "--out", str(out)]) == 0
    text = (out / "basis.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    bits = np.random.default_rng(21).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    readonly = bits.copy()
    readonly.setflags(write=False)
    local = fucik.operator.basis_document(
        fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), fucik.Mesh1D(0.3, 2.9, 48)), k=1))
    tiny = np.abs(local["vectors"])
    assert np.count_nonzero((tiny > 0.0) & (tiny < 1e-4)) > 0
    # the float-array path and the json.dumps path side by side
    docs = [
        doc,
        {**doc, "eigenvalues": np.array(doc["eigenvalues"]), "vectors": np.array(doc["vectors"])},
        {"b": [1.0, float("nan")], "a": [1, 2.5], "c": [], "d": np.arange(3.0),
         "e": {"z": [0.1, -2e-300], "y": "x\ny"}, "f": [True, 0.5], "g": 1e22},
        # numpy scalars reach the default= hook, float64 ones the float encoder
        {"h": np.float32(0.1), "i": np.int64(-3), "j": np.bool_(True), "k": (1, (2.5, np.int64(4))),
         "l": np.zeros(0), "m": np.arange(6.0).reshape(2, 3), "n": {"o": [np.bool_(False), np.float32(np.nan)]},
         "p": [np.float64(-0.0), np.float64(5e-324), np.float64(np.inf), np.float64(-np.inf), np.float64(np.nan)]},
        # random finite bit patterns, a strided view, a reversed strided view
        {"q": bits},
        {"r": bits[::3]},
        {"s": bits[::-3]},
        {"t": readonly},
        # repr's exponent form inside a float block: the sampled sines of the
        # local basis pass near zero between the nodes
        local,
    ]
    for d in docs:
        assert b"".join(cli._json_document(d)).decode() == json.dumps(_jsonable(d), sort_keys=True, indent=2) + "\n"


# the notation boundaries of repr: exponent form below 1e-4 and from 1e16
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([
    -0.0, 5e-324, 1e16, 1e22, 1e-4, float(np.nextafter(1e-4, 0)), -2.5e-5, float(np.nextafter(1e16, 0)), 1e21,
    1.7976931348623157e308,
])


@st.composite
def _float_arrays(draw):
    # lengths around the block size; a non-finite entry takes json.dumps
    length = draw(st.sampled_from([0, 1, 4095, 4096, 4097, 8193]))
    array = np.resize(np.array(draw(st.lists(_FINITE, min_size=1, max_size=8))), length)
    if length and draw(st.booleans()):
        array[draw(st.integers(0, length - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return array


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_MEMBERS = (
    _float_arrays()
    | st.lists(st.integers(-2**31, 2**31), max_size=4).map(lambda v: np.array(v, dtype=np.int64))
    | st.lists(_FINITE, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))
    | _JSON_VALUES
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _MEMBERS, max_size=4))
def test_json_chunks_join_to_indented_json_dumps(doc):
    text = b"".join(cli._json_document(doc)).decode()
    assert text == json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


def test_failed_formatting_leaves_out_untouched(tmp_path, monkeypatch):
    # curve.json is formatted while its temp file is written, after
    # curve.csv's temp file is complete; a failure there must leave the
    # previous artifact set in place and no temp files
    out = tmp_path / "curve"
    argv = ["--mode", "curve", "--elements", "16", "--alpha-samples", "3", "--out", str(out)]
    assert _run(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing(doc):
        yield b"{"
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(cli, "_json_document", failing)
    with pytest.raises(RuntimeError):
        fucik.run(fucik.config_from_args(argv + ["--seed", "1"]))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_out_dir_holding_temp_names_is_written(tmp_path):
    # a directory where a fixed "<name>.tmp" temp file would go
    out = tmp_path / "eigen"
    (out / "basis.json.tmp").mkdir(parents=True)
    assert _run(["--mode", "eigen", "--elements", "24", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["basis.json", "basis.json.tmp", "eigenvalues.csv"]
    assert json.loads((out / "basis.json").read_text())["mesh"]["n_elements"] == 24
    mask = os.umask(0)
    os.umask(mask)
    assert (out / "basis.json").stat().st_mode & 0o777 == 0o666 & ~mask


def test_failed_rename_leaves_no_temp_file(tmp_path):
    out = tmp_path / "eigen"
    (out / "basis.json").mkdir(parents=True)  # the rename onto it fails
    with pytest.raises(OSError):
        fucik.run(fucik.RunConfig(mode="eigen", elements=24, out=str(out)))
    assert [p.name for p in out.iterdir()] == ["basis.json"]


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "eigen"
    assert _run(["--mode", "eigen", "--elements", "24", "--out", str(out)]) == 0
    mesh = fucik.Mesh1D(0.0, math.pi, 24)
    basis = fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)
    _, _, rows = _read_csv(out / "eigenvalues.csv")
    got = np.array([float(r[1]) for r in rows])
    assert np.array_equal(got, basis.eigenvalues)


def test_module_entry_point_runs_without_warnings():
    src = Path(fucik.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "fucik", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: fucik")
    assert done.stderr == ""


@pytest.mark.parametrize("argv", [
    ["--mode", "eigen", "--elements", "24"],
    ["--mode", "curve", "--elements", "24", "--alpha-samples", "3"],
    ["--mode", "solve", "--elements", "16", "--problem", "on-curve.json"],
    # 32 elements miss the closed-form curve by up to 12%, so the check
    # passes only with a wide tolerance; at 1% the run exits 1 on accuracy
    ["--mode", "validate", "--elements", "32", "--tol-validate", "0.25"],
    # a short domain at small s: the assembly must not cancel in h
    ["--mode", "curve", "--kernel", "fractional:s=0.001", "--domain=0,1e-4", "--elements", "48",
     "--alpha-samples", "3"],
], ids=["eigen", "curve", "solve", "validate", "curve-short-domain"])
def test_module_runs_clean_in_dev_mode(tmp_path, argv):
    # -X dev reports unclosed files and other resource warnings, which
    # -W error turns into a failing exit
    src = Path(fucik.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    (tmp_path / "on-curve.json").write_text(json.dumps(
        {"alpha": 3.0, "beta": "on-curve", "f": {"name": "atan_scaled"}, "h": {"named": "phi_1"}}))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "fucik", *argv,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_cli_modes_load_no_scipy(tmp_path):
    # LAPACK comes from numpy's OpenBLAS: a fresh interpreter running every
    # mode never imports scipy, whose import costs more than a solve
    src = Path(fucik.__file__).resolve().parent.parent
    (tmp_path / "problem.json").write_text(json.dumps(
        {"alpha": 3.0, "beta": "on-curve", "f": {"name": "atan_scaled"}, "h": {"named": "phi_1"}}))
    script = """if True:
        import sys
        from fucik.cli import main
        for argv in (["--mode", "eigen", "--elements", "24"],
                     ["--mode", "curve", "--elements", "24", "--alpha-samples", "3"],
                     ["--mode", "solve", "--elements", "16", "--problem", "problem.json"],
                     ["--mode", "validate", "--elements", "32", "--tol-validate", "0.25"]):
            assert main(argv + ["--out", argv[1]]) == 0, argv
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert all((tmp_path / mode).is_dir() for mode in ("eigen", "curve", "solve", "validate"))


def test_curve_is_byte_identical_across_blas_thread_counts(tmp_path):
    src = Path(fucik.__file__).resolve().parent.parent
    base = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**base, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "fucik", "--mode", "curve", "--elements", "32",
                               "--alpha-samples", "3", "--seed", "4", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append((out / "curve.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_curve_run_under_the_layer_tracer(tmp_path):
    # the benchmark's tracer wraps layer functions by name from outside the
    # package; a curve run under it must work, count every layer it wraps
    # on that path, and leave every binding as it found it
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    owners = [m for name, m in sys.modules.items() if name == "fucik" or name.startswith("fucik.")]
    owners += [spectrum._SphereSolver, semilinear.Nonlinearity]

    def bindings():
        held = {(id(o), attr): value for o in owners for attr, value in list(vars(o).items()) if callable(value)}
        held.update({("scipy.linalg", a): getattr(scipy.linalg, a) for a in ("cho_factor", "lstsq")})
        return held

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    assert spectrum.minimize_on_sphere is not before[(id(spectrum), "minimize_on_sphere")]
    mark = tracer.mark()
    tracer.begin_op("curve")
    try:
        status = _run(["--mode", "curve", "--elements", "16", "--out", str(tmp_path / "out")])
    finally:
        tracer.end_op()
        tracer.uninstall()
    assert status == 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    calls = Counter(tracer.names[span[0]] for span in tracer.spans)
    for name in ("beta_of_alpha", "minimize_on_sphere", "freeze_refine", "maximize_t"):
        assert calls["spectrum." + name] > 0, name
    stats = tracer.round_stats(mark)
    assert set(stats) == set(tracing.PER_LAYER)
    assert (stats["spectrum.minimize_on_sphere.multistart_calls"]
            + stats["spectrum.minimize_on_sphere.warm_calls"]) == calls["spectrum.minimize_on_sphere"]
    assert stats["spectrum.maximize_t.iterations"] > 0
