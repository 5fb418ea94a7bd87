"""Command-line front end: configuration, run orchestration, artifact emission.

Four modes share one configuration object: `eigen` tabulates the operator
spectrum, `curve` traces one spectral curve branch, `solve` runs the forced
semilinear saddle search on a problem document, and `validate` compares the
traced curve against the closed-form shooting construction (local kernel).

Determinism contract: every artifact is a pure function of (config, seed,
library version).  No timestamps are recorded; floats use shortest
round-trip formatting; every file embeds the config hash, the seed, and the
version.  All files for a run are computed first, then each is written
(JSON formatted as it is written) to a uniquely named temp file; only then
are they renamed into place, so a failing computation or formatting writes
nothing and no file is ever seen half-written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptySeries, FucikError
from .operator import (
    EigenBasis,
    Kernel,
    Mesh1D,
    _config_number,
    _config_numbers,
    _json_document,
    _write_atomic,
    assemble,
    basis_document,
    eigenpairs,
)
from .oracle import classical_curve
from .semilinear import CONVERGED, problem_from_dict, solve
from .semilinear import check_gll  # noqa: F401  kept importable as fucik.cli.check_gll
from .spectrum import CurveBranch, trace_curve

__all__ = ["RunConfig", "Series", "plot_svg", "run", "main"]

_VERSION = "0.1.0"
_MODES = ("eigen", "curve", "solve", "validate")
_TOL_KEYS = ("beta", "validate")

_CANVAS_W = 800
_CANVAS_H = 600
_MARGIN = {"left": 70.0, "right": 25.0, "top": 45.0, "bottom": 55.0}
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: mode, discretization, and mode parameters.

    The dictionary form round-trips exactly (from_dict(to_dict()) == self)
    and its canonical JSON serialization is what config_hash digests, so two
    configs hash equal iff they would produce the same artifacts at a seed.
    """

    mode: str
    kernel: str = "local"
    domain: tuple = (0.0, math.pi)
    elements: int = 64
    k: int = 1
    alpha_samples: int = 9
    problem: str | None = None
    out: str = "out"
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        parse_kernel(self.kernel)
        dom = _config_numbers(self.domain, "domain", count=2)
        if dom[1] <= dom[0]:
            raise ConfigError(f"domain {dom!r} is not a nonempty finite interval")
        object.__setattr__(self, "domain", dom)
        for name in ("elements", "k", "alpha_samples", "seed"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.elements < 4:
            raise ConfigError(f"elements must be >= 4, got {self.elements}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.alpha_samples < 3:
            raise ConfigError(f"alpha_samples must be >= 3, got {self.alpha_samples}")
        if self.problem is not None and not isinstance(self.problem, str):
            raise ConfigError(f"problem must be a path string, got {self.problem!r}")
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError(f"out must be a nonempty path string, got {self.out!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances must be a mapping, got {self.tolerances!r}")
        tols = dict(self.tolerances)
        for name, value in tols.items():
            if name not in _TOL_KEYS:
                raise ConfigError(f"unknown tolerance {name!r}; known: {_TOL_KEYS}")
            value = _config_number(value, f"tolerance {name!r}")
            if value <= 0.0:
                raise ConfigError(f"tolerance {name!r} must be positive, got {value!r}")
            tols[name] = value
        object.__setattr__(self, "tolerances", tols)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["domain"] = list(self.domain)
        doc["tolerances"] = {name: self.tolerances[name] for name in sorted(self.tolerances)}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "mode" not in doc:
            raise ConfigError("config is missing required key 'mode'")
        return cls(**doc)

    @property
    def config_hash(self) -> str:
        # the output directory does not affect artifact content, so it is
        # left out of the digest; everything else is hashed canonically
        doc = self.to_dict()
        del doc["out"]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_kernel(spec: str) -> Kernel:
    """Kernel flag syntax: 'local' or 'fractional:s=<order in (0,1)>'."""
    if not isinstance(spec, str):
        raise ConfigError(f"kernel spec must be a string, got {spec!r}")
    if spec == "local":
        return Kernel.local()
    prefix = "fractional:s="
    if spec.startswith(prefix):
        try:
            s = float(spec[len(prefix):])
        except ValueError:
            raise ConfigError(f"cannot parse fractional order in kernel spec {spec!r}")
        return Kernel.fractional(s)
    raise ConfigError(f"unknown kernel spec {spec!r}; use 'local' or 'fractional:s=<order>'")


def _build_basis(cfg: RunConfig) -> EigenBasis:
    mesh = Mesh1D(cfg.domain[0], cfg.domain[1], cfg.elements)
    return eigenpairs(assemble(parse_kernel(cfg.kernel), mesh), k=cfg.k)


# ---------------------------------------------------------------------------
# artifact formatting


def _provenance(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash, "seed": cfg.seed, "version": _VERSION}


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_document(schema: str, columns: list, rows: list, prov: dict) -> str:
    lines = [
        f"# schema: {schema}",
        f"# config_hash: {prov['config_hash']}",
        f"# seed: {prov['seed']}",
        f"# version: {prov['version']}",
        ",".join(columns),
    ]
    for row in rows:
        if len(row) != len(columns):
            raise ConfigError(f"row width {len(row)} vs {len(columns)} columns in {schema}")
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG emission


@dataclass(frozen=True)
class Series:
    """One labeled polyline; markers additionally dot every vertex."""

    label: str
    x: tuple
    y: tuple
    markers: bool = False

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        y = tuple(float(v) for v in self.y)
        if len(x) != len(y):
            raise ConfigError(f"series {self.label!r}: {len(x)} x values vs {len(y)} y values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _axis_range(lo: float, hi: float) -> tuple:
    if hi <= lo:
        pad = max(1.0, 0.1 * abs(lo))
        return lo - pad, lo + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _svg_num(v: float) -> str:
    return f"{v:.4f}"


def plot_svg(series: list, title: str = "", xlabel: str = "", ylabel: str = "", meta: dict | None = None) -> str:
    """Deterministic SVG scatter/line plot on a fixed 800x600 canvas.

    Coordinates are emitted at fixed 4-decimal precision so identical inputs
    produce byte-identical documents.  A single-point series is drawn as one
    marker; longer series get a polyline with one vertex per sample.
    """
    series = list(series)
    points = sum(len(s.x) for s in series)
    if not series or points == 0:
        raise EmptySeries("nothing to plot")
    for s in series:
        if not all(math.isfinite(v) for v in s.x + s.y):
            raise ConfigError(f"series {s.label!r} contains non-finite coordinates")

    xlo, xhi = _axis_range(min(v for s in series for v in s.x), max(v for s in series for v in s.x))
    ylo, yhi = _axis_range(min(v for s in series for v in s.y), max(v for s in series for v in s.y))
    px0, py0 = _MARGIN["left"], _MARGIN["top"]
    pw = _CANVAS_W - _MARGIN["left"] - _MARGIN["right"]
    ph = _CANVAS_H - _MARGIN["top"] - _MARGIN["bottom"]

    def to_px(x: float) -> float:
        return px0 + (x - xlo) / (xhi - xlo) * pw

    def to_py(y: float) -> float:
        return py0 + (yhi - y) / (yhi - ylo) * ph

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" height="{_CANVAS_H}" '
        f'viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
    ]
    if meta:
        tags = " ".join(f"{key}={meta[key]}" for key in sorted(meta))
        out.append(f"<!-- {tags} -->")
    out.append(f'<rect x="0" y="0" width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>')
    out.append(
        f'<rect x="{_svg_num(px0)}" y="{_svg_num(py0)}" width="{_svg_num(pw)}" '
        f'height="{_svg_num(ph)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i in range(5):
        frac = i / 4.0
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        xp, yp = to_px(xv), to_py(yv)
        out.append(
            f'<line x1="{_svg_num(xp)}" y1="{_svg_num(py0 + ph)}" x2="{_svg_num(xp)}" '
            f'y2="{_svg_num(py0 + ph + 5)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_svg_num(xp)}" y="{_svg_num(py0 + ph + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{xv:.4g}</text>'
        )
        out.append(
            f'<line x1="{_svg_num(px0 - 5)}" y1="{_svg_num(yp)}" x2="{_svg_num(px0)}" '
            f'y2="{_svg_num(yp)}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_svg_num(px0 - 8)}" y="{_svg_num(yp + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{yv:.4g}</text>'
        )
    if title:
        out.append(
            f'<text x="{_svg_num(_CANVAS_W / 2)}" y="24" font-size="15" text-anchor="middle" '
            f'font-family="monospace">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_svg_num(px0 + pw / 2)}" y="{_svg_num(_CANVAS_H - 12)}" font-size="13" '
            f'text-anchor="middle" font-family="monospace">{xlabel}</text>'
        )
    if ylabel:
        yc = py0 + ph / 2
        out.append(
            f'<text x="16" y="{_svg_num(yc)}" font-size="13" text-anchor="middle" '
            f'font-family="monospace" transform="rotate(-90 16 {_svg_num(yc)})">{ylabel}</text>'
        )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        px = [to_px(v) for v in s.x]
        py = [to_py(v) for v in s.y]
        if len(px) == 1:
            out.append(
                f'<circle class="marker" cx="{_svg_num(px[0])}" cy="{_svg_num(py[0])}" '
                f'r="4" fill="{color}"/>'
            )
        elif px:
            pts = " ".join(f"{_svg_num(a)},{_svg_num(b)}" for a, b in zip(px, py))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
            if s.markers:
                for a, b in zip(px, py):
                    out.append(
                        f'<circle class="marker" cx="{_svg_num(a)}" cy="{_svg_num(b)}" '
                        f'r="3" fill="{color}"/>'
                    )
        ly = py0 + 16 + 16 * idx
        lx = px0 + pw - 150
        out.append(
            f'<line x1="{_svg_num(lx)}" y1="{_svg_num(ly - 4)}" x2="{_svg_num(lx + 22)}" '
            f'y2="{_svg_num(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_svg_num(lx + 28)}" y="{_svg_num(ly)}" font-size="11" '
            f'font-family="monospace">{s.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# mode runners (each returns ({filename: text or text chunks}, exit_status))


def _run_eigen(cfg: RunConfig, prov: dict):
    basis = _build_basis(cfg)
    rows = [[j + 1, float(lam)] for j, lam in enumerate(basis.eigenvalues)]
    csv = _csv_document("eigen-v1", ["index", "eigenvalue"], rows, prov)
    doc = basis_document(basis)
    doc["k"] = cfg.k
    doc["provenance"] = prov
    return {"eigenvalues.csv": csv, "basis.json": _json_document(doc)}, 0


def _curve_rows(branch: CurveBranch) -> list:
    return [[p.alpha, p.beta, p.m_value, p.iterations] for p in branch.samples]


def _curve_svg(branch: CurveBranch, lambda_1: float, prov: dict) -> str:
    alphas = [p.alpha for p in branch.samples]
    betas = [p.beta for p in branch.samples]
    xlo, xhi = min([lambda_1] + alphas), max([branch.lambda_k1] + alphas)
    ylo, yhi = min([lambda_1] + betas), max([branch.lambda_k1] + betas)
    dlo, dhi = min(xlo, ylo), max(xhi, yhi)
    series = [
        Series("curve", tuple(alphas), tuple(betas), markers=True),
        Series("diagonal", (dlo, dhi), (dlo, dhi)),
        Series("lambda_1 x R", (lambda_1, lambda_1), (ylo, yhi)),
        Series("R x lambda_1", (xlo, xhi), (lambda_1, lambda_1)),
    ]
    return plot_svg(
        series,
        title=f"spectral curve, strip k={branch.k}",
        xlabel="alpha",
        ylabel="beta",
        meta=prov,
    )


def _run_curve(cfg: RunConfig, prov: dict):
    basis = _build_basis(cfg)
    branch = trace_curve(
        basis, n_samples=cfg.alpha_samples, seed=cfg.seed, tol_beta=cfg.tolerances.get("beta")
    )
    csv = _csv_document("curve-v1", ["alpha", "beta", "m_residual", "iters"], _curve_rows(branch), prov)
    doc = {
        "provenance": prov,
        "k": branch.k,
        "lambda_k": branch.lambda_k,
        "lambda_k1": branch.lambda_k1,
        "tolerances": branch.tolerances,
        "lipschitz": branch.lipschitz,
        "annotations": list(branch.annotations),
        "mirrored": branch.mirrored,
        "samples": [
            {
                "alpha": p.alpha,
                "beta": p.beta,
                "m_residual": p.m_value,
                "iters": p.iterations,
                "root_solves": p.root_solves,
                "careful": p.careful,
                "continued": p.continued,
                "gradient_residual": p.residual,
                "beta_slope": p.beta_slope,
                "minimizer": p.minimizer.coeffs,
            }
            for p in branch.samples
        ],
    }
    svg = _curve_svg(branch, float(basis.eigenvalues[0]), prov)
    return {"curve.csv": csv, "curve.json": _json_document(doc), "curve.svg": svg}, 0


def _run_solve(cfg: RunConfig, prov: dict):
    if cfg.problem is None:
        raise ConfigError("solve mode requires --problem <file.json>")
    try:
        text = Path(cfg.problem).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read problem file {cfg.problem!r}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"problem file {cfg.problem!r} is not valid JSON: {e}")
    basis = _build_basis(cfg)
    problem = problem_from_dict(basis, doc, seed=cfg.seed)
    result = solve(problem)
    gll = result.gll

    out = {
        "provenance": prov,
        "alpha": problem.params.alpha,
        "beta": problem.params.beta,
        "k": problem.params.basis.k,
        "regime": problem.regime,
        "curve_beta": problem.curve_beta,
        "nonlinearity": problem.nonlinearity.name,
        "status": result.status,
        "energy": result.energy,
        "residual": result.residual,
        "tol_res": problem.tol_res,
        "iterations": result.iterations,
        "u_star": None if result.u_star is None else {
            "coeffs": result.u_star.coeffs,
            "nodal": result.u_star.nodal,
        },
        "ray": None if result.ray is None else {
            "coeffs": result.ray.coeffs,
            "nodal": result.ray.nodal,
        },
        "diagnostics": dict(result.diagnostics),
        "trace": [
            {"iter": i, "value": v, "residual": r} for i, (v, r) in enumerate(result.trace)
        ],
    }
    if gll is not None:
        out["gll"] = {
            "satisfied": gll.satisfied,
            "ray_values": list(gll.ray_values),
            "ray_slopes": list(gll.ray_slopes),
            "slope_consistent": gll.slope_consistent,
            "window": None if gll.window is None else list(gll.window),
            "eigenset_size": gll.eigenset_size,
        }
    trace_rows = [[i, v, r] for i, (v, r) in enumerate(result.trace)]
    trace_csv = _csv_document("trace-v1", ["iter", "value", "residual"], trace_rows, prov)

    profile = result.u_star if result.u_star is not None else result.ray
    nodes = basis.operator.mesh.nodes[1:-1]
    label = "u*" if result.u_star is not None else "escape ray"
    svg = plot_svg(
        [Series(label, tuple(nodes), tuple(profile.nodal))],
        title=f"saddle solve: {result.status}",
        xlabel="x",
        ylabel="u",
        meta=prov,
    )
    status = 0 if result.status == CONVERGED else 1
    return {
        "solution.json": _json_document(out),
        "trace.csv": trace_csv,
        "solution.svg": svg,
    }, status


def _run_validate(cfg: RunConfig, prov: dict):
    kernel = parse_kernel(cfg.kernel)
    if kernel.variant != "local":
        raise ConfigError("validate mode compares against the closed-form local-kernel curve; use kernel=local")
    basis = _build_basis(cfg)
    branch = trace_curve(
        basis, n_samples=cfg.alpha_samples, seed=cfg.seed, tol_beta=cfg.tolerances.get("beta")
    )
    tol = cfg.tolerances.get("validate", 0.01)
    # the closed-form construction lives on an interval of length pi; an
    # interval of length L carries the same curve scaled by (pi/L)^2 in
    # both coordinates
    length = cfg.domain[1] - cfg.domain[0]
    scale = (math.pi / length) ** 2

    rows = [[p.alpha, p.beta, p.m_value, p.iterations, "solver"] for p in branch.samples]
    checks = []
    all_pass = len(branch.samples) > 0
    for p in branch.samples:
        oracle = classical_curve(branch.k, [p.alpha / scale])[0]
        beta_oracle = oracle.beta * scale
        rel = abs(p.beta - beta_oracle) / abs(beta_oracle)
        passed = rel <= tol
        all_pass = all_pass and passed
        rows.append([p.alpha, beta_oracle, oracle.boundary_mismatch, 0, "oracle"])
        checks.append(
            {
                "alpha": p.alpha,
                "beta_solver": p.beta,
                "beta_oracle": beta_oracle,
                "rel_diff": rel,
                "passed": passed,
            }
        )
    csv = _csv_document(
        "curve-oracle-v1", ["alpha", "beta", "m_residual", "iters", "source"], rows, prov
    )
    doc = {
        "provenance": prov,
        "k": branch.k,
        "kernel": cfg.kernel,
        "domain": list(cfg.domain),
        "elements": cfg.elements,
        "tolerance": tol,
        "checks": checks,
        "annotations": list(branch.annotations),
        "passed": all_pass,
    }
    return {"validate.csv": csv, "validate.json": _json_document(doc)}, 0 if all_pass else 1


_MODE_RUNNERS = {
    "eigen": _run_eigen,
    "curve": _run_curve,
    "solve": _run_solve,
    "validate": _run_validate,
}


def run(config: RunConfig) -> int:
    """Execute one configured run and write its artifacts.

    Artifacts are computed in full, then each goes to its own temp file,
    JSON formatted as it is written, before any is renamed into place, so a
    failure while computing or formatting leaves --out untouched.  The set
    is not swapped in as a whole: a crash between two renames leaves some
    files from the previous run.  Returns the process exit status (0 iff
    all requested checks passed).
    """
    prov = _provenance(config)
    artifacts, status = _MODE_RUNNERS[config.mode](config, prov)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic({out_dir / name: [a] if isinstance(a, str) else a for name, a in sorted(artifacts.items())})
    return status


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fucik",
        description=(
            "Spectral curves of asymmetric (jumping) eigenvalue problems for "
            "local and fractional Dirichlet operators on an interval, and "
            "forced semilinear solves near those curves."
        ),
    )
    p.add_argument("--mode", choices=_MODES, help="what to run (required here or in --config)")
    p.add_argument("--config", metavar="FILE", help="JSON run configuration; explicit flags override its entries")
    p.add_argument("--kernel", help="'local' or 'fractional:s=<order in (0,1)>' (default: local)")
    p.add_argument("--domain", metavar="A,B", help="interval endpoints (default: 0,pi)")
    p.add_argument("--elements", type=int, help="uniform mesh elements (default: 64)")
    p.add_argument("--k", type=int, help="spectral strip index; curves live in (lambda_k, lambda_k+1) (default: 1)")
    p.add_argument("--alpha-samples", type=int, dest="alpha_samples", help="curve sample count (default: 9)")
    p.add_argument("--problem", metavar="FILE", help="problem document for solve mode (JSON)")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="seed for reproducible multistarts (default: 0)")
    p.add_argument("--tol-beta", type=float, dest="tol_beta", help="curve root tolerance override")
    p.add_argument("--tol-validate", type=float, dest="tol_validate", help="oracle comparison relative tolerance (default: 0.01)")
    return p


def _parse_domain(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"domain must be 'a,b', got {text!r}")
    try:
        return [float(parts[0]), float(parts[1])]
    except ValueError:
        raise ConfigError(f"domain endpoints must be numbers, got {text!r}")


def config_from_args(argv: list | None = None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    doc: dict = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config!r}: {e}")
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config!r} is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object")
        doc.update(loaded)
    # every field but tolerances has a flag of its name; the tolerance flags follow
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            doc[f.name] = _parse_domain(value) if f.name == "domain" else value
    tols = doc.get("tolerances", {})
    if isinstance(tols, dict):  # RunConfig refuses any other value
        tols = dict(tols)
        if args.tol_beta is not None:
            tols["beta"] = args.tol_beta
        if args.tol_validate is not None:
            tols["validate"] = args.tol_validate
        if tols:
            doc["tolerances"] = tols
    return RunConfig.from_dict(doc)


def main(argv: list | None = None) -> int:
    try:
        config = config_from_args(argv)
        return run(config)
    except FucikError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
