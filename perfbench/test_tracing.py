"""The tracer wraps every module that holds a layer function and restores it after.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from fucik import cli, semilinear, spectrum  # noqa: E402


def test_on_curve_solve_counts(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"alpha": 3.0, "beta": "on-curve", "f": {"name": "atan_scaled"},
                                   "h": {"named": "phi_1"}}))
    originals = (cli.check_gll, semilinear.check_gll, semilinear.beta_of_alpha, spectrum._maximize_t)
    tracer = tracing.Tracer()
    tracer.install()
    mark = tracer.mark()
    tracer.begin_op("oncurve")
    try:
        status = cli.main(["--mode", "solve", "--elements", "16", "--problem", str(problem),
                           "--out", str(tmp_path / "out")])
    finally:
        tracer.end_op()
        tracer.uninstall()
    assert status == 0
    assert (cli.check_gll, semilinear.check_gll, semilinear.beta_of_alpha, spectrum._maximize_t) == originals

    stats = tracer.round_stats(mark)
    # cli._run_solve and solve() each run the admissibility check, and the
    # on-curve root is found by problem_from_dict and again by classify
    assert stats["semilinear.check_gll.calls"] == 2
    assert stats["spectrum.beta_of_alpha.calls"] == 2
    assert stats["spectrum.beta_of_alpha.repeat_calls"] == 1
    assert stats["spectrum.maximize_t.calls"] > 0
    assert stats["spectrum.maximize_t.iterations"] > 0
    assert stats["semilinear.solve.iterations"] > 0
    assert stats["trace.spans"] == len(tracer.spans)
    assert stats["cli.run.self_s"] > 0.0

    names = tracer.names
    root = tracer.spans[0]
    assert names[root[0]] == "op:oncurve" and root[3] == -1
    for nid, t0, t1, parent, op in tracer.spans[1:]:
        assert 0 <= parent and op == 0
        p0, p1 = tracer.spans[parent][1:3]
        assert p0 <= t0 <= t1 <= p1, names[nid]


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
