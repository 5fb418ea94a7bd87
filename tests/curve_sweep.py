"""The 24-curve sweep that gates changes to the spectrum layer.

Twelve configurations, each traced with 9 samples at seeds 0 and 3:
fractional s in {0.25, 0.5, 0.75} x k in {1, 2}, s = 0.5 with k = 3 and
local k in {1, 2} at 96 elements; fractional s in {0.001, 0.999} at 64
elements; fractional s = 0.5 at 129 elements (k = 1 where none is named).
Fractional kernels live on (-1, 1), the local one on (0, pi).

    PYTHONPATH=src python tests/curve_sweep.py run SWEEP.json
    PYTHONPATH=src python tests/curve_sweep.py compare BASE.json NEW.json

run writes every curve's samples (alpha, beta, m, careful, root_solves,
iterations), its annotations and its tolerances as JSON; floats keep their
shortest round-trip form.  compare prints the worst |delta beta| / tol_beta,
the worst |m| / tol_m of either sweep and every mismatch in alphas,
annotations, flags or counts, and exits 1 when a mismatch is found or a
ratio exceeds 1.  The alphas are Chebyshev nodes of the strip, so they move
with lambda_k's last bits: they match within a relative ALPHA_RTOL, and the
annotations, which print alpha and beta, match with their numbers masked.
The file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import json
import math
import re
import sys

import fucik

SAMPLES = 9
SEEDS = (0, 3)
CONFIGS = (
    *((f"frac s={s} k={k} n=96", fucik.Kernel.fractional(s), (-1.0, 1.0), 96, k) for s in (0.25, 0.5, 0.75) for k in (1, 2)),
    ("frac s=0.5 k=3 n=96", fucik.Kernel.fractional(0.5), (-1.0, 1.0), 96, 3),
    *((f"local k={k} n=96", fucik.Kernel.local(), (0.0, math.pi), 96, k) for k in (1, 2)),
    *((f"frac s={s} k=1 n=64", fucik.Kernel.fractional(s), (-1.0, 1.0), 64, 1) for s in (0.001, 0.999)),
    ("frac s=0.5 k=1 n=129", fucik.Kernel.fractional(0.5), (-1.0, 1.0), 129, 1),
)
# per-sample entries that must match exactly between two sweeps
_EXACT = ("careful", "continued", "root_solves", "iterations")
ALPHA_RTOL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _masked(annotations: list) -> list:
    """The annotations with every number in them replaced by #."""
    return [_NUMBER.sub("#", a) for a in annotations]


def sweep() -> list:
    curves = []
    for label, kernel, domain, elements, k in CONFIGS:
        basis = fucik.eigenpairs(fucik.assemble(kernel, fucik.Mesh1D(*domain, elements)), k=k)
        for seed in SEEDS:
            branch = fucik.trace_curve(basis, SAMPLES, seed=seed)
            curves.append({
                "config": label,
                "seed": seed,
                "tolerances": branch.tolerances,
                "annotations": list(branch.annotations),
                "samples": [
                    {
                        "alpha": p.alpha,
                        "beta": p.beta,
                        "m": p.m_value,
                        "careful": p.careful,
                        "continued": p.continued,
                        "root_solves": p.root_solves,
                        "iterations": p.iterations,
                    }
                    for p in branch.samples
                ],
            })
            print(f"{label} seed {seed}: {len(branch.samples)} samples", file=sys.stderr)
    return curves


def compare(base: list, new: list) -> int:
    """Print the comparison of two sweeps; the number of failures found."""
    failures = 0
    worst_beta = worst_m = 0.0
    equal = total = 0
    if [(c["config"], c["seed"]) for c in base] != [(c["config"], c["seed"]) for c in new]:
        print("the sweeps hold different curves")
        return 1
    for b, n in zip(base, new):
        name = f"{b['config']} seed {b['seed']}"
        tol_beta, tol_m = n["tolerances"]["tol_beta"], n["tolerances"]["tol_m"]
        if _masked(b["annotations"]) != _masked(n["annotations"]):
            print(f"{name}: annotations differ: {b['annotations']} vs {n['annotations']}")
            failures += 1
        if len(b["samples"]) != len(n["samples"]):
            print(f"{name}: {len(b['samples'])} vs {len(n['samples'])} samples")
            failures += 1
            continue
        for i, (sb, sn) in enumerate(zip(b["samples"], n["samples"])):
            if not abs(sn["alpha"] - sb["alpha"]) <= ALPHA_RTOL * abs(sb["alpha"]):
                print(f"{name} sample {i}: alpha {sb['alpha']!r} vs {sn['alpha']!r}")
                failures += 1
            for key in _EXACT:
                if sb[key] != sn[key]:
                    print(f"{name} sample {i}: {key} {sb[key]!r} vs {sn[key]!r}")
                    failures += 1
            worst_beta = max(worst_beta, abs(sn["beta"] - sb["beta"]) / tol_beta)
            worst_m = max(worst_m, abs(sb["m"]) / tol_m, abs(sn["m"]) / tol_m)
            equal += sb["beta"] == sn["beta"]
            total += 1
    print(f"{len(new)} curves, {total} samples, {equal} betas bitwise equal")
    print(f"worst |delta beta| / tol_beta = {worst_beta:.3g}")
    print(f"worst |m| / tol_m = {worst_m:.3g}")
    return failures + (worst_beta > 1.0) + (worst_m > 1.0)


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "run":
        with open(argv[1], "w", encoding="utf-8") as f:
            json.dump(sweep(), f, indent=1)
            f.write("\n")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        docs = []
        for path in argv[1:]:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        return 1 if compare(*docs) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
