"""Acceptance suite: the certified behaviors of the package at desk scale.

One numbered test per criterion; the pytest -v status line of each test is
its pass/fail line.  Every computation behind criteria 1-11 runs inside
_collect(seed), a pure function of the seed that also serializes its
measurements to CSV/JSON artifact text.  The determinism criterion reruns
the whole collection with the same seed and byte-compares the artifacts,
then double-runs the command-line pipeline the same way.

Two fixtures: the fractional operator (s = 0.5 on (-1, 1), 256 interior
nodes) carries the spectral and solver criteria; the local operator on
(0, pi) with 200 elements carries the classical-oracle comparison.
"""

import json
import math

import numpy as np
import pytest

import fucik

SEED = 0
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# collection machinery


def _fractional_basis():
    mesh = fucik.Mesh1D(-1.0, 1.0, 257)  # 256 interior nodes
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.fractional(0.5), mesh), k=1)


def _local_basis():
    mesh = fucik.Mesh1D(0.0, math.pi, 200)
    return fucik.eigenpairs(fucik.assemble(fucik.Kernel.local(), mesh), k=1)


def _high_field(basis, rng, scale=1.0):
    c = np.zeros(basis.dim)
    c[basis.k:] = scale * rng.standard_normal(basis.dim - basis.k)
    return fucik.to_field(basis, coeffs=c)


def _unit_coeff_field(basis, index):
    c = np.zeros(basis.dim)
    c[index] = 1.0
    return fucik.to_field(basis, coeffs=c)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _classical_beta(alpha: float) -> float:
    # first-strip relation 1/sqrt(alpha) + 1/sqrt(beta) = 1
    return (1.0 - 1.0 / math.sqrt(alpha)) ** -2


def _chebyshev_alphas(basis, n):
    mid = 0.5 * (basis.lambda_k + basis.lambda_k1)
    half = 0.5 * (basis.lambda_k1 - basis.lambda_k)
    return np.sort(mid + half * np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)))


def _collect(seed):
    """Run every measured quantity behind criteria 1-11 at one seed."""
    frac = _fractional_basis()
    loc = _local_basis()
    values = {}
    artifacts = {}

    # -- criterion 1: diagonal identity m(alpha, alpha) = (lambda_{k+1} - alpha)/2
    diag = []
    for k in (1, 2):
        b = frac.with_k(k)
        gap = b.lambda_k1 - b.lambda_k
        for pos in (0.25, 0.75):
            a = b.lambda_k + pos * gap
            pt = fucik.minimize_on_sphere(fucik.FucikParams(a, a, b), seed=seed)
            expect = 0.5 * (b.lambda_k1 - a)
            diag.append({
                "k": k, "alpha": a, "m": pt.m_value, "expected": expect,
                "rel_err": abs(pt.m_value - expect) / abs(expect),
            })
    values["diagonal"] = diag
    artifacts["criterion01_diagonal.json"] = _json_text(diag)

    # -- criterion 2: curve endpoint at alpha -> lambda_{k+1}
    endpoint = []
    for k in (1, 2):
        b = frac.with_k(k)
        gap = b.lambda_k1 - b.lambda_k
        a = b.lambda_k1 - 1e-3 * gap
        pt = fucik.beta_of_alpha(a, b, seed=seed)
        endpoint.append({
            "k": k, "alpha": a, "beta": pt.beta, "lambda_k1": b.lambda_k1,
            "gap": gap, "err": abs(pt.beta - b.lambda_k1),
        })
    values["endpoint"] = endpoint
    artifacts["criterion02_endpoint.json"] = _json_text(endpoint)

    # -- criterion 3: monotonicity along the curve and on an (alpha, beta) grid
    branch = fucik.trace_curve(frac, n_samples=9, seed=seed)
    values["frac_branch"] = branch
    artifacts["criterion03_curve.csv"] = _csv_text(
        ["alpha", "beta", "m_residual", "iters"],
        [[p.alpha, p.beta, p.m_value, p.iterations] for p in branch.samples],
    )
    l1, l2 = frac.lambda_k, frac.lambda_k1
    gap = l2 - l1
    grid_alphas = np.linspace(l1 + 0.15 * gap, l1 + 0.85 * gap, 5)
    grid_betas = np.linspace(l2, l2 + 2.0 * gap, 5)
    grid = np.empty((5, 5))
    for i, a in enumerate(grid_alphas):
        for j, be in enumerate(grid_betas):
            grid[i, j] = fucik.minimize_on_sphere(
                fucik.FucikParams(float(a), float(be), frac), seed=seed
            ).m_value
    values["grid"] = (grid_alphas, grid_betas, grid)
    values["tol_m"] = fucik.FucikParams(float(grid_alphas[0]), l2, frac).tol_m
    artifacts["criterion03_grid.csv"] = _csv_text(
        ["alpha"] + [repr(float(b)) for b in grid_betas],
        [[float(a)] + [float(v) for v in row] for a, row in zip(grid_alphas, grid)],
    )

    # -- criterion 4: classical oracle comparison on (0, pi)
    loc_branch = fucik.trace_curve(loc, n_samples=9, seed=seed)
    oracle = fucik.classical_curve(1, [p.alpha for p in loc_branch.samples])
    requested = _chebyshev_alphas(loc, 9)
    returned = [p.alpha for p in loc_branch.samples]
    missing = [float(a) for a in requested
               if not any(abs(a - r) < 1e-12 for r in returned)]
    rows = [[p.alpha, p.beta, p.m_value, p.iterations, "solver"] for p in loc_branch.samples]
    rows += [[o.alpha, o.beta, o.boundary_mismatch, 0, "oracle"] for o in oracle]
    values["oracle"] = {
        "branch": loc_branch,
        "oracle_betas": [o.beta for o in oracle],
        "missing": missing,
        "cap": 50.0 * loc.lambda_k1,
    }
    artifacts["criterion04_oracle.csv"] = _csv_text(
        ["alpha", "beta", "m_residual", "iters", "source"], rows
    )
    artifacts["criterion04_annotations.json"] = _json_text(
        {"missing_alphas": missing, "annotations": list(loc_branch.annotations)}
    )

    # -- criterion 5: positive homogeneity of M and 2-homogeneity of J~
    rng = np.random.default_rng(seed + 5)
    p5 = fucik.FucikParams(l1 + 0.5 * gap, l2 + 0.5 * gap, frac)
    hom_m, hom_j = [], []
    for _ in range(50):
        v = _high_field(frac, rng, scale=float(rng.uniform(0.1, 3.0)))
        w = fucik.maximize_low(p5, v)
        jv = fucik.reduced_energy(p5, v)
        for t in (0.5, 2.0, 7.0):
            tv = fucik.to_field(frac, coeffs=t * v.coeffs)
            wt = fucik.maximize_low(p5, tv)
            diff = fucik.to_field(frac, coeffs=wt.coeffs - t * w.coeffs)
            bound_m = 1e-8 * (1.0 + t * w.norm_energy)
            hom_m.append((diff.norm_energy, bound_m))
            jt = fucik.reduced_energy(p5, tv)
            bound_j = 1e-7 * (1.0 + t * t * abs(jv))
            hom_j.append((abs(jt - t * t * jv), bound_j))
    values["homogeneity"] = (hom_m, hom_j)
    artifacts["criterion05_homogeneity.json"] = _json_text({
        "max_m_ratio": max(e / b for e, b in hom_m),
        "max_j_ratio": max(e / b for e, b in hom_j),
    })

    # -- criterion 6: concavity of the low-subspace restriction
    rng = np.random.default_rng(seed + 6)
    b6 = frac.with_k(2)
    a6 = b6.lambda_k + 0.5 * (b6.lambda_k1 - b6.lambda_k)
    p6 = fucik.FucikParams(a6, 2.0 * b6.lambda_k1, b6)
    worst6 = -np.inf
    for _ in range(100):
        v = _high_field(b6, rng)
        t1 = rng.standard_normal(2)
        t2 = rng.standard_normal(2)
        c1 = np.zeros(b6.dim)
        c1[:2] = t1
        c2 = np.zeros(b6.dim)
        c2[:2] = t2
        g1 = fucik.fucik_gradient(p6, fucik.to_field(b6, coeffs=c1 + v.coeffs)).coeffs
        g2 = fucik.fucik_gradient(p6, fucik.to_field(b6, coeffs=c2 + v.coeffs)).coeffs
        lhs = float((g2 - g1)[:2] @ (t2 - t1))
        energy_sq = float(b6.eigenvalues[:2] @ (t2 - t1) ** 2)
        worst6 = max(worst6, lhs + p6.delta * energy_sq)
    values["concavity_worst"] = worst6
    artifacts["criterion06_concavity.json"] = _json_text(
        {"delta": p6.delta, "worst_violation": worst6}
    )

    # -- criterion 7: M(v) + v changes sign
    rng = np.random.default_rng(seed + 7)
    p7 = fucik.FucikParams(l1 + 0.5 * gap, l2 + 1.2 * gap, frac)
    worst_pos, worst_neg = np.inf, np.inf
    for _ in range(100):
        v = _high_field(frac, rng, scale=float(rng.uniform(0.05, 10.0)))
        w = fucik.maximize_low(p7, v).coeffs + v.coeffs
        nodal = fucik.to_field(frac, coeffs=w).nodal
        scale = float(np.max(np.abs(nodal)))
        worst_pos = min(worst_pos, float(nodal.max()) / scale)
        worst_neg = min(worst_neg, float(-nodal.min()) / scale)
    values["sign_change"] = (worst_pos, worst_neg)
    artifacts["criterion07_sign_change.json"] = _json_text(
        {"worst_positive_part": worst_pos, "worst_negative_part": worst_neg}
    )

    # -- criterion 8: gradients against central finite differences
    rng = np.random.default_rng(seed + 8)
    p8 = fucik.FucikParams(l1 + 0.5 * gap, l2 + 0.3 * gap, frac)
    h8 = fucik.to_field(frac, coeffs=0.2 * rng.standard_normal(frac.dim))
    prob8 = fucik.build_problem(
        fucik.FucikParams(l1 + 0.5 * gap, l1 + 0.5 * gap, frac),
        fucik.Nonlinearity.tanh(), h8,
    )
    errs = {"grad_J": 0.0, "grad_J_tilde": 0.0, "grad_E": 0.0}
    for _ in range(20):
        u = fucik.to_field(frac, coeffs=rng.standard_normal(frac.dim))
        d = rng.standard_normal(frac.dim)
        d /= np.linalg.norm(d)
        g = fucik.fucik_gradient(p8, u).coeffs
        ep = fucik.fucik_energy(p8, fucik.to_field(frac, coeffs=u.coeffs + FD_STEP * d))
        em = fucik.fucik_energy(p8, fucik.to_field(frac, coeffs=u.coeffs - FD_STEP * d))
        fd = (ep - em) / (2.0 * FD_STEP)
        errs["grad_J"] = max(errs["grad_J"], abs(float(g @ d) - fd) / (1.0 + abs(fd)))

        v = _high_field(frac, rng)
        dh = np.zeros(frac.dim)
        dh[frac.k:] = rng.standard_normal(frac.dim - frac.k)
        dh /= np.linalg.norm(dh)
        gt = fucik.reduced_gradient(p8, v).coeffs
        ep = fucik.reduced_energy(p8, fucik.to_field(frac, coeffs=v.coeffs + FD_STEP * dh))
        em = fucik.reduced_energy(p8, fucik.to_field(frac, coeffs=v.coeffs - FD_STEP * dh))
        fd = (ep - em) / (2.0 * FD_STEP)
        errs["grad_J_tilde"] = max(errs["grad_J_tilde"], abs(float(gt @ dh) - fd) / (1.0 + abs(fd)))

        ge = fucik.semilinear_gradient(prob8, u).coeffs
        ep = fucik.semilinear_energy(prob8, fucik.to_field(frac, coeffs=u.coeffs + FD_STEP * d))
        em = fucik.semilinear_energy(prob8, fucik.to_field(frac, coeffs=u.coeffs - FD_STEP * d))
        fd = (ep - em) / (2.0 * FD_STEP)
        errs["grad_E"] = max(errs["grad_E"], abs(float(ge @ d) - fd) / (1.0 + abs(fd)))
    values["gradients"] = errs
    artifacts["criterion08_gradients.json"] = _json_text(errs)

    # -- criterion 9: linear Fredholm solve against exact coefficients
    rng = np.random.default_rng(seed + 9)
    mu = 0.5 * (l1 + l2)
    fred = []
    for _ in range(5):
        h = fucik.to_field(frac, coeffs=rng.standard_normal(frac.dim))
        prob = fucik.build_problem(
            fucik.FucikParams(mu, mu, frac), fucik.Nonlinearity.zero(), h
        )
        res = fucik.solve(prob)
        expect = h.coeffs / (frac.eigenvalues - mu)
        fred.append({
            "status": res.status,
            "max_err": float(np.max(np.abs(res.u_star.coeffs - expect))),
            "coeffs": [float(c) for c in res.u_star.coeffs],
        })
    values["fredholm"] = fred
    artifacts["criterion09_fredholm.json"] = _json_text(fred)

    # -- criterion 10: nonresonance solve strictly inside the region
    a10 = l1 + 0.6 * gap
    root10 = fucik.beta_of_alpha(a10, frac, seed=seed)
    b10 = 0.5 * (l2 + root10.beta)
    prob10 = fucik.build_problem(
        fucik.FucikParams(a10, b10, frac),
        fucik.Nonlinearity.tanh(),
        fucik.to_field(frac, coeffs=0.1 * _unit_coeff_field(frac, 0).coeffs),
        seed=seed,
    )
    res10 = fucik.solve(prob10)
    rep10 = fucik.residual_report(prob10, res10.u_star)
    values["nonresonance"] = {
        "regime": prob10.regime, "curve_beta": prob10.curve_beta,
        "status": res10.status, "residual": res10.residual,
        "report_max": rep10.max_abs, "tol_res": prob10.tol_res,
    }
    artifacts["criterion10_nonresonance.json"] = _json_text({
        "alpha": a10, "beta": b10, "curve_beta": prob10.curve_beta,
        "status": res10.status, "residual": res10.residual,
        "energy": res10.energy,
        "coeffs": [float(c) for c in res10.u_star.coeffs],
    })

    # -- criterion 11: resonance discrimination at the diagonal corner
    lam2 = frac.lambda_k1
    corner = fucik.FucikParams(lam2, lam2, frac)
    zero = fucik.Nonlinearity.zero()
    phi1 = _unit_coeff_field(frac, 0)
    phi2 = _unit_coeff_field(frac, frac.k)

    prob_a = fucik.build_problem(corner, zero, phi2, seed=seed)
    res_a = fucik.solve(prob_a, force=True)
    cos_a = 0.0
    if res_a.ray is not None:
        cos_a = abs(float(res_a.ray.coeffs[frac.k])) / float(np.linalg.norm(res_a.ray.coeffs))

    prob_b = fucik.build_problem(corner, zero, phi1, seed=seed)
    res_b = fucik.solve(prob_b, force=True)

    prob_c = fucik.build_problem(corner, fucik.Nonlinearity.atan_scaled(),
                                 fucik.to_field(frac, coeffs=np.zeros(frac.dim)), seed=seed)
    gll_c = fucik.check_gll(prob_c)
    res_c = fucik.solve(prob_c)

    values["resonance"] = {
        "aligned": {"status": res_a.status, "cosine": cos_a},
        "orthogonal": {"status": res_b.status, "residual": res_b.residual,
                       "tol_res": prob_b.tol_res},
        "gll": {"satisfied": gll_c.satisfied, "status": res_c.status,
                "residual": res_c.residual, "tol_res": prob_c.tol_res},
    }
    artifacts["criterion11_resonance.json"] = _json_text({
        "aligned": {"status": res_a.status, "cosine": cos_a},
        "orthogonal": {"status": res_b.status, "residual": res_b.residual},
        "gll": {"satisfied": gll_c.satisfied, "ray_values": list(gll_c.ray_values),
                "status": res_c.status, "residual": res_c.residual},
    })

    return values, artifacts


@pytest.fixture(scope="module")
def pass1():
    return _collect(SEED)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_diagonal_identity(pass1):
    for row in pass1[0]["diagonal"]:
        assert row["rel_err"] <= 1e-6, (
            f"k={row['k']} alpha={row['alpha']:.6f}: m={row['m']!r} vs "
            f"expected {row['expected']!r} (rel err {row['rel_err']:.3e})"
        )


def test_criterion_02_curve_endpoint(pass1):
    for row in pass1[0]["endpoint"]:
        assert row["err"] <= 1e-2 * row["gap"], (
            f"k={row['k']}: beta={row['beta']!r} is {row['err']:.3e} from "
            f"lambda_k1={row['lambda_k1']!r}, above 1e-2*gap={1e-2 * row['gap']:.3e}"
        )


def test_criterion_03_monotonicity(pass1):
    values = pass1[0]
    branch = values["frac_branch"]
    tol_m = values["tol_m"]
    # all 9 sampled alphas are accounted for: a sample with a certified
    # root, or an annotation certifying the root lies beyond the bracket cap
    assert len(branch.samples) + len(branch.annotations) == 9
    betas = [p.beta for p in branch.samples]
    assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:])), f"betas {betas} not strictly decreasing"
    if branch.annotations:
        # annotated alphas sit below every returned sample, consistent with
        # the decreasing curve exceeding the cap only at the left edge
        min_returned = min(p.alpha for p in branch.samples)
        for note in branch.annotations:
            a = float(note.split(":")[0].split("=")[1])
            assert a < min_returned, note
            assert "stayed positive" in note, note
    grid_alphas, grid_betas, grid = values["grid"]
    for i in range(5):
        for j in range(4):
            assert grid[i, j + 1] <= grid[i, j] - tol_m, (
                f"m not strictly decreasing in beta at alpha={grid_alphas[i]:.4f}: "
                f"{grid[i, j]!r} -> {grid[i, j + 1]!r}"
            )
    for j in range(5):
        for i in range(4):
            assert grid[i + 1, j] <= grid[i, j] - tol_m, (
                f"m not strictly decreasing in alpha at beta={grid_betas[j]:.4f}: "
                f"{grid[i, j]!r} -> {grid[i + 1, j]!r}"
            )


def test_criterion_04_classical_oracle(pass1):
    info = pass1[0]["oracle"]
    branch = info["branch"]
    # every certified sample agrees with the shooting oracle within 1%
    assert len(branch.samples) >= 8
    for p, beta_oracle in zip(branch.samples, info["oracle_betas"]):
        rel = abs(p.beta - beta_oracle) / beta_oracle
        assert rel <= 0.01, (
            f"alpha={p.alpha:.6f}: beta={p.beta:.6f} vs oracle {beta_oracle:.6f} "
            f"(rel {rel:.3e})"
        )
        closed = _classical_beta(p.alpha)
        assert abs(p.beta - closed) / closed <= 0.01
    # the alphas the tracer could not certify genuinely leave the search
    # bracket: their classical beta exceeds the 50*lambda_{k+1} cap
    assert len(branch.samples) + len(info["missing"]) == 9
    for a in info["missing"]:
        assert _classical_beta(a) > info["cap"], (
            f"alpha={a:.6f} classical beta {_classical_beta(a):.1f} within cap "
            f"{info['cap']:.1f}; sample should have been certified"
        )


def test_criterion_05_homogeneity(pass1):
    hom_m, hom_j = pass1[0]["homogeneity"]
    for err, bound in hom_m:
        assert err <= bound, f"|M(tv) - tM(v)|_A = {err:.3e} > {bound:.3e}"
    for err, bound in hom_j:
        assert err <= bound, f"|J~(tv) - t^2 J~(v)| = {err:.3e} > {bound:.3e}"


def test_criterion_06_concavity(pass1):
    worst = pass1[0]["concavity_worst"]
    assert worst <= 1e-8, f"concavity inequality violated by {worst:.3e}"


def test_criterion_07_sign_change(pass1):
    worst_pos, worst_neg = pass1[0]["sign_change"]
    assert worst_pos > 1e-12, f"smallest positive part {worst_pos:.3e}"
    assert worst_neg > 1e-12, f"smallest negative part {worst_neg:.3e}"


def test_criterion_08_gradient_consistency(pass1):
    errs = pass1[0]["gradients"]
    for name, err in errs.items():
        assert err <= 1e-6, f"{name} vs central differences: rel err {err:.3e}"


def test_criterion_09_linear_fredholm(pass1):
    for case in pass1[0]["fredholm"]:
        assert case["status"] == fucik.CONVERGED
        assert case["max_err"] <= 1e-8, f"coefficient error {case['max_err']:.3e}"


def test_criterion_10_nonresonance_solve(pass1):
    info = pass1[0]["nonresonance"]
    assert info["regime"] == fucik.NONRESONANCE
    assert info["status"] == fucik.CONVERGED
    assert info["residual"] <= info["tol_res"], (
        f"residual {info['residual']:.3e} > tol {info['tol_res']:.3e}"
    )
    assert info["report_max"] <= info["tol_res"]


def test_criterion_11_resonance_discrimination(pass1):
    info = pass1[0]["resonance"]
    assert info["aligned"]["status"] == fucik.DIVERGING_RAY
    assert info["aligned"]["cosine"] >= 0.99, (
        f"escape ray cosine {info['aligned']['cosine']:.6f} below 0.99"
    )
    assert info["orthogonal"]["status"] == fucik.CONVERGED
    assert info["orthogonal"]["residual"] <= info["orthogonal"]["tol_res"]
    assert info["gll"]["satisfied"]
    assert info["gll"]["status"] == fucik.CONVERGED
    assert info["gll"]["residual"] <= info["gll"]["tol_res"]


def test_criterion_12_determinism(pass1, tmp_path):
    # rerun the full collection at the same seed: every serialized artifact
    # must come back byte-identical
    _, artifacts1 = pass1
    _, artifacts2 = _collect(SEED)
    assert sorted(artifacts1) == sorted(artifacts2)
    for name in artifacts1:
        assert artifacts1[name] == artifacts2[name], f"artifact {name} differs between reruns"

    # the command-line pipeline double-run: identical config and seed give
    # byte-identical CSV/JSON/SVG files in all four modes
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"alpha": 2.0, "beta": 2.0, "k": 1,
                                "f": {"name": "tanh"}, "h": {"named": "phi_1"}}))
    runs = {
        "eigen": ["--mode", "eigen", "--elements", "24"],
        "curve": ["--mode", "curve", "--elements", "48", "--alpha-samples", "4"],
        "solve": ["--mode", "solve", "--elements", "48", "--problem", str(prob)],
        "validate": ["--mode", "validate", "--elements", "96", "--alpha-samples", "5"],
    }
    for mode, args in runs.items():
        d1 = tmp_path / f"{mode}_1"
        d2 = tmp_path / f"{mode}_2"
        assert fucik.main(args + ["--seed", "1", "--out", str(d1)]) == 0
        assert fucik.main(args + ["--seed", "1", "--out", str(d2)]) == 0
        names1 = sorted(f.name for f in d1.iterdir())
        names2 = sorted(f.name for f in d2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (
                f"{mode}/{name} differs between identical runs"
            )
