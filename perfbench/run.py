"""Benchmark of the fucik CLI: curve, solve and eigen workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {curve,solve,eigen} --seed N \
        --seconds S --trace {0,1}

Each run is one process.  Set-up (interpreter start plus imports, timed in
fresh child processes, and input generation) is measured several times and
its median reported.  The run then replays rounds of the workload's
operations, each a ``fucik.cli.main(argv)`` call in-process (or a
``load_basis`` call), until another round as long as the last would end
past ``--seconds``; the first round always runs.  Outputs are checked after
each round, outside the timed region; an operation that raises, exits with
a nonzero status or fails its check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` plain and traced rounds
alternate, at least one of each; the traced rounds give the per-layer
metrics, and spans go to ``perfbench-traces/``.  BLAS runs with the
threading the program gets by default; the thread count is printed with
the results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"
TRACE_DIR = ROOT / "perfbench-traces"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

_IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import fucik.cli"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("curve", "solve", "eigen"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info() -> list:
    """(library, version string, threads) for each OpenBLAS loaded in the process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        threads = config = None
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                if threads is None and hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")()
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode().split()[1]
        out.append((Path(path).name, config, threads))
    return out


def measure_setup(workload_cls, seed: int, inputs: Path):
    """Median import time in fresh processes plus median input generation time."""
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], check=True)
        imports.append(time.perf_counter() - t0)
    gens = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        workload = workload_cls(seed)
        workload.prepare(inputs)
        gens.append(time.perf_counter() - t0)
    return workload, statistics.median(imports) + statistics.median(gens)


def execute(op, cli, operator) -> None:
    if op.reload is not None:
        op.result = operator.load_basis(str(op.reload.out / "basis.json"), k=1)
    else:
        op.result = cli.main(op.argv)


def run_round(ops, cli, operator, tracer=None) -> tuple:
    """Time one round of operations; returns (wall, cpu)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.label)
        ts = time.perf_counter()
        try:
            execute(op, cli, operator)
        except Exception:  # the run goes on; the operation counts as failed
            op.errors.append("raised:\n" + traceback.format_exc())
        op.latency = time.perf_counter() - ts
        if tracer is not None:
            tracer.end_op()
    return time.perf_counter() - t0, time.process_time() - c0


def check_round(workload, ops) -> None:
    for op in ops:
        if op.errors:
            continue
        if op.reload is None and op.result != 0:
            op.errors.append(f"exit status {op.result}")
            continue
        try:
            op.errors += workload.check(op)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            op.errors.append(f"unreadable output: {exc!r}")
    workload.check_round(ops)


def artifact_bytes(ops) -> int:
    return sum(f.stat().st_size for op in ops if op.argv is not None
               for f in op.out.rglob("*") if f.is_file())


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fucik" / "__init__.py").is_file():
        print(f"error: no fucik sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload, setup_s = measure_setup(workloads.WORKLOADS[args.workload], args.seed, run_dir / "inputs")

    from fucik import cli, operator

    tracer = None
    rounds = []  # (wall, cpu, traced, per-layer stats or None)
    all_ops = []
    t_start = time.perf_counter()
    while True:
        # a traced run alternates plain and traced rounds, so the two kinds
        # see the same machine and their difference is the tracing overhead
        traced = args.trace == 1 and len(rounds) % 2 == 1
        if traced:
            if tracer is None:
                import tracing

                tracer = tracing.Tracer()
            tracer.install()
            mark = tracer.mark()
        ops = workload.round_ops(run_dir / f"round{len(rounds)}")
        wall, cpu = run_round(ops, cli, operator, tracer if traced else None)
        stats = None
        if traced:
            tracer.uninstall()
            stats = tracer.round_stats(mark)
        check_round(workload, ops)
        if stats is not None:
            stats["cli.artifact_bytes"] = artifact_bytes(ops)
        for op in ops:
            op.result = None  # drop loaded bases before the next round
            print(f"round {len(rounds)}{' traced' if traced else ''} {op.label}: {op.latency:.3f} s",
                  file=sys.stderr)
            if op.errors:
                print(f"FAILED {args.workload}/{op.label}: {'; '.join(op.errors)}", file=sys.stderr)
        shutil.rmtree(run_dir / f"round{len(rounds)}", ignore_errors=True)
        rounds.append((wall, cpu, traced, stats))
        all_ops += ops
        # project the next round by the last one's timed work; the checks
        # between rounds are short next to it
        elapsed = time.perf_counter() - t_start
        need_traced = args.trace == 1 and len(rounds) < 2
        if not need_traced and elapsed + wall > args.seconds:
            break
    if tracer is not None:
        tracer.write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.csv", t_start)
    shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if op.errors)
    timed = [r for r in rounds if not r[2]]
    blas = blas_info()
    metrics = {}
    if args.trace == 0:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r[0] for r in timed),
            "op_p50_s": statistics.median(op.latency for op in all_ops),
            "cpu_s": statistics.median(r[1] for r in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced_rounds = [r for r in rounds if r[2]]
        first = traced_rounds[0][3]
        values = {}
        for key in tracing.PER_LAYER:
            series = [r[3][key] for r in traced_rounds]
            if tracing.PER_LAYER[key] == "count" and len(set(series)) > 1:
                print(f"note: {key} differs between traced rounds: {series}", file=sys.stderr)
            values[key] = statistics.median(series) if key.endswith("_s") else first[key]
        values["trace.overhead_s"] = (statistics.median(r[0] for r in traced_rounds)
                                      - statistics.median(r[0] for r in timed))
        units = tracing.PER_LAYER
    for name, value in values.items():
        metrics[name] = {"value": float(value), "unit": units[name]}

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={len(all_ops) // len(rounds)} attempted={attempted} failed={failed}")
    for lib, version, threads in blas:
        print(f"blas: {lib} OpenBLAS {version} threads={threads}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
