"""A scoped single-threaded OpenBLAS for the solver loops, the eigensolve,
the basis reload and the CLI.

numpy and scipy each load their own OpenBLAS (numpy's build has 64-bit
integer symbols).  The sphere and saddle loops make thousands of small gemv
calls and small Cholesky and eigensolver calls (LAPACK handles that spectrum
binds once from scipy's library), on which a thread pool only spins.  A
call that wakes the default two-thread pool costs far more than its
arithmetic: on a 2-vCPU VM, after 50 ms idle, a 1023^2 matrix-vector
product took a median 9.9 ms pooled against 0.7-0.8 ms on one thread, and a
128^2 gemm 17.9 ms against 0.20 ms (20 calls each).  The woken worker then
spins on through the next operation: a 513-element eigen run took a median
0.155 s right after one pooled product, against 0.081 s otherwise (10 runs
each).  The eigensolve's two half-size pencils are as fast on one thread as
with both pools awake up to 1025 elements, the largest size the benchmark
runs (0.21-0.23 s against 0.21-0.36 s there), and 20-30% slower at 2049
(1.0-1.7 s against 0.86-1.25 s), so the eigensolve runs on one thread too.
The scopes are minimize_on_sphere, solve, eigenpairs, load_basis (its
consistency probe makes N^2 products) and cli.run, which holds a whole CLI
run.  Each runs inside single_threaded(): it sets both pools to one thread
and restores the previous counts on exit.  Scopes nest; the counts are
process-wide, so scopes that overlap in several Python threads restore in
the order they exit.  The libraries are resolved through ctypes on the
first entry, via extension modules that link them; a missing library or
symbol leaves that pool alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib

# (extension module linking the library, setter symbol, getter symbol)
_LIBRARIES = (
    ("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)

# (getter, setter) per resolved pool; None until the first entry
_pools = None


def _resolve() -> list:
    pools = []
    for module, set_name, get_name in _LIBRARIES:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except (ImportError, OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        pools.append((getter, setter))
    return pools


@contextlib.contextmanager
def single_threaded():
    """Run the body (or, as a decorator, each call) with one BLAS thread."""
    global _pools
    if _pools is None:
        _pools = _resolve()
    pools = _pools
    previous = [getter() for getter, _ in pools]
    for _, setter in pools:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(pools, previous):
            setter(count)
