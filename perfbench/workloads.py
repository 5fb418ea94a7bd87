"""The benchmark's three workloads and the operations each round runs.

An operation is one CLI invocation through ``fucik.cli.main(argv)``, or one
``fucik.operator.load_basis`` call in ``eigen``.  A workload is built from
the run's seed alone; every round replays the same operations, each into a
directory of its own (the CLI writes ``<name>.tmp`` then renames, so two
runs sharing an ``--out`` would collide).  The seed changes the multistart
seed handed to the CLI and jitters problem data inside ranges on which
every operation succeeds and costs about the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# curve: one mesh size at which the default BLAS pool is already in play
CURVE_ELEMENTS = 96
CURVE_SAMPLES = 5

# solve: the local operator on (0, pi); lambda_1 ~ 1, lambda_2 ~ 4
SOLVE_DOMAIN = (0.0, math.pi)
TABLE_ELEMENTS = 10
ONCURVE_ELEMENTS = 64
LINEAR_ELEMENTS = 32
# tanh tabulated off the dyadic anchors 0, +-1, +-2 of the quadrature
# primitive, so every fresh primitive value integrates across a kink
TABLE_POINTS = np.arange(-2.75, 3.0, 0.5)
TABLE_VALUES = np.tanh(TABLE_POINTS)
# (alpha, beta, leading forcing coefficients) of the table problems
TABLE_PROBLEMS = ((1.5, 1.5, (1.6, -0.8, 0.5)), (1.8, 2.1, (1.2, -0.6, 0.4)))
# table solutions stay within this multiple of the table's interpolation error
TWIN_FACTOR = 4.0
# the validate tolerance, reused for the on-curve closed-form comparison
CLOSED_FORM_RTOL = 0.01

# eigen: the refinement ladder; below 129 elements an operation takes a few
# milliseconds, and so many of them would put op_p50_s on the noisiest ops
EIGEN_LADDER = (129, 257, 513, 1025)


@dataclass
class Op:
    """One timed operation and what its check needs to know."""

    label: str
    argv: list | None = None  # CLI operation
    reload: "Op | None" = None  # load_basis of this eigen operation's basis.json
    info: dict = field(default_factory=dict)
    out: Path | None = None
    # filled by the run
    latency: float = 0.0
    result: object = None
    errors: list = field(default_factory=list)


def _cli(mode: str, label: str, *args, seed: int) -> Op:
    return Op(label=label, argv=["--mode", mode, *args, "--seed", str(seed)])


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.cli_seed = int(self.rng.integers(0, 2**31 - 1))

    def prepare(self, inputs: Path) -> None:
        """Write any input documents the operations read."""

    def ops(self) -> list:
        raise NotImplementedError

    def round_ops(self, round_dir: Path) -> list:
        """Fresh operations for one round, each with its own --out directory."""
        out = []
        for op in self.ops():
            op.out = round_dir / op.label
            if op.argv is not None:
                op.argv = op.argv + ["--out", str(op.out)]
            out.append(op)
        return out

    def check(self, op: Op) -> list:
        raise NotImplementedError

    def check_round(self, ops: list) -> None:
        """Checks that span several operations; they append to op.errors."""


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class CurveWorkload(Workload):
    name = "curve"

    def __init__(self, seed: int):
        super().__init__(seed)
        # local validate run on a seeded interval; the closed form rescales
        a = float(self.rng.uniform(-1.0, 1.0))
        self.local_domain = (a, a + math.pi * float(self.rng.uniform(0.8, 1.25)))

    def ops(self) -> list:
        common = ["--elements", str(CURVE_ELEMENTS), "--alpha-samples", str(CURVE_SAMPLES)]
        frac = ["--domain=-1,1", *common]
        a, b = self.local_domain
        return [
            _cli("curve", "frac-s0.5-k1", "--kernel", "fractional:s=0.5", "--k", "1", *frac, seed=self.cli_seed),
            _cli("curve", "frac-s0.5-k2", "--kernel", "fractional:s=0.5", "--k", "2", *frac, seed=self.cli_seed),
            _cli("curve", "frac-s0.25-k1", "--kernel", "fractional:s=0.25", "--k", "1", *frac, seed=self.cli_seed),
            _cli("validate", "local-k1", "--kernel", "local", f"--domain={a!r},{b!r}", *common,
                 seed=self.cli_seed),
        ]

    def check(self, op: Op) -> list:
        if op.label.startswith("frac"):
            return checks.check_fractional_curve(_read_json(op.out / "curve.json"), CURVE_SAMPLES)
        a, b = self.local_domain
        return checks.check_validate_local(
            _read_json(op.out / "validate.json"), a, b, CURVE_ELEMENTS, CURVE_SAMPLES
        )


class SolveWorkload(Workload):
    name = "solve"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.problems = []  # (label, elements, document, kind, extra)
        # fixed data: phase 1 of solve converges on these (about 75 outer
        # iterations); nearby data can run it to its 500-iteration cap, which
        # would make a seeded table solve cost anywhere from 1 s to 60 s
        table = {"table": {"points": TABLE_POINTS.tolist(), "values": TABLE_VALUES.tolist()}}
        for j, (alpha, beta, h3) in enumerate(TABLE_PROBLEMS):
            h = np.zeros(TABLE_ELEMENTS - 1)
            h[:3] = h3
            base = {"alpha": alpha, "beta": beta, "h": {"coeffs": h.tolist()}}
            self.problems.append((f"table-{j}", TABLE_ELEMENTS, {**base, "f": table}, "table", {}))
            self.problems.append((f"tanh-{j}", TABLE_ELEMENTS, {**base, "f": {"name": "tanh"}}, "tanh",
                                  {"twin_of": f"table-{j}"}))
        # alphas whose curve point beta(alpha) < 2 lambda_2 - lambda_1 lies in
        # the first bracket of the root search, so every seed costs the same
        for j in range(2):
            alpha = 2.7 + 0.8 * float(rng.uniform())
            h = 0.02 * rng.standard_normal(ONCURVE_ELEMENTS - 1)
            h[8:] = 0.0
            doc = {"alpha": alpha, "beta": "on-curve", "k": 1, "f": {"name": "atan_scaled"},
                   "h": {"coeffs": h.tolist()}}
            self.problems.append((f"oncurve-{j}", ONCURVE_ELEMENTS, doc, "oncurve", {}))
        for j in range(2):
            mu = 1.5 + 2.0 * float(rng.uniform())
            h = rng.standard_normal(LINEAR_ELEMENTS - 1)
            doc = {"alpha": mu, "beta": mu, "f": {"name": "zero"}, "h": {"coeffs": h.tolist()}}
            self.problems.append((f"linear-{j}", LINEAR_ELEMENTS, doc, "linear", {"mu": mu, "h": h}))
        self.inputs = None

    def prepare(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        for label, _, doc, _, _ in self.problems:
            (inputs / f"{label}.json").write_text(json.dumps(doc), encoding="utf-8")
        self.inputs = inputs

    def ops(self) -> list:
        a, b = SOLVE_DOMAIN
        out = []
        for label, elements, _, kind, extra in self.problems:
            op = _cli("solve", label, "--kernel", "local", f"--domain={a!r},{b!r}",
                      "--elements", str(elements), "--problem", str(self.inputs / f"{label}.json"),
                      seed=self.cli_seed)
            op.info = {"kind": kind, "elements": elements, **extra}
            out.append(op)
        return out

    def check(self, op: Op) -> list:
        doc = _read_json(op.out / "solution.json")
        kind = op.info["kind"]
        regime = "resonance" if kind == "oncurve" else "nonresonance"
        errors = checks.check_status(doc, "converged", regime)
        if errors:
            return errors
        a, b = SOLVE_DOMAIN
        if kind == "oncurve":
            errors += checks.check_on_curve_beta(doc, a, b, CLOSED_FORM_RTOL)
        elif kind == "linear":
            errors += checks.check_linear_solution(doc, op.info["mu"], op.info["h"], a, b, op.info["elements"])
        return errors

    def check_round(self, ops: list) -> None:
        by_label = {op.label: op for op in ops}
        for op in ops:
            twin_of = op.info.get("twin_of")
            if twin_of is None or op.errors or by_label[twin_of].errors:
                continue
            table = _read_json(by_label[twin_of].out / "solution.json")
            twin = _read_json(op.out / "solution.json")
            by_label[twin_of].errors += checks.check_twin(
                table, twin, TABLE_POINTS, TABLE_VALUES, np.tanh, TWIN_FACTOR
            )


class EigenWorkload(Workload):
    name = "eigen"

    def __init__(self, seed: int):
        super().__init__(seed)
        a = float(self.rng.uniform(-2.0, 2.0))
        self.local_domain = (a, a + float(self.rng.uniform(1.0, 4.0)))

    def ops(self) -> list:
        a, b = self.local_domain
        out = []
        for elements in EIGEN_LADDER:
            for variant, args in (
                ("frac", ["--kernel", "fractional:s=0.5", "--domain=-1,1"]),
                ("local", ["--kernel", "local", f"--domain={a!r},{b!r}"]),
            ):
                op = _cli("eigen", f"{variant}-{elements}", *args, "--elements", str(elements),
                          seed=self.cli_seed)
                op.info = {"variant": variant, "elements": elements}
                out.append(op)
                out.append(Op(label=f"reload-{variant}-{elements}", reload=op))
        return out

    def check(self, op: Op) -> list:
        if op.reload is not None:
            src = op.reload.out
            basis = op.result
            doc = _read_json(src / "basis.json")
            csv = checks.read_eigen_csv((src / "eigenvalues.csv").read_text(encoding="utf-8"))
            return checks.check_reload(basis.eigenvalues, basis.vectors, csv, doc, 1, basis.k)
        if op.info["variant"] == "local":
            csv = checks.read_eigen_csv((op.out / "eigenvalues.csv").read_text(encoding="utf-8"))
            a, b = self.local_domain
            return checks.check_local_eigenvalues(csv, a, b, op.info["elements"])
        return []

    def check_round(self, ops: list) -> None:
        frac = {op.info["elements"]: op for op in ops
                if op.reload is None and op.info["variant"] == "frac" and not op.errors}
        lambda1 = {}
        for n, op in frac.items():
            csv = checks.read_eigen_csv((op.out / "eigenvalues.csv").read_text(encoding="utf-8"))
            lambda1[n] = float(csv[0])
        for n, errs in checks.check_fractional_ladder(lambda1).items():
            frac[n].errors += errs


WORKLOADS = {w.name: w for w in (CurveWorkload, SolveWorkload, EigenWorkload)}
