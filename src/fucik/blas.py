"""numpy's OpenBLAS, the one BLAS and LAPACK library of the process: a scoped
single-threaded pool, and ctypes bindings of the LAPACK routines the package
calls.

numpy 2's Linux wheels bundle OpenBLAS built with 64-bit integers
(scipy-openblas64), whose symbols carry a prefix and a suffix
(scipy_dposv_64_); numpy links it, so it is loaded once numpy is imported.
It is opened here through the extension module that links it.  That is
checked on numpy 2.4.6's Linux x86-64 wheel only.  Elsewhere importing this
module raises ImportError naming the first missing routine: macOS arm64
wheels link Accelerate, Windows wheels keep OpenBLAS in a DLL of its own,
which a lookup through the extension module does not search, and a numpy
built against another BLAS (MKL, a system OpenBLAS) names its symbols
otherwise.

Thread scope.  The sphere and saddle loops make thousands of small gemv
calls and small Cholesky and eigensolver calls, on which a thread pool only
spins.  A call that wakes the default two-thread pool costs far more than
its arithmetic: on a 2-vCPU VM, after 50 ms idle, a 1023^2 matrix-vector
product took a median 9.9 ms pooled against 0.7-0.8 ms on one thread, and a
128^2 gemm 17.9 ms against 0.20 ms (20 calls each).  The woken worker then
spins on through the next operation: a 513-element eigen run took a median
0.155 s right after one pooled product, against 0.081 s otherwise (10 runs
each).  The eigensolve's two half-size pencils are as fast on one thread as
with the pool awake up to 1025 elements, the largest size the benchmark
runs (0.21-0.23 s against 0.21-0.36 s there), and 20-30% slower at 2049
(1.0-1.7 s against 0.86-1.25 s), so the eigensolve runs on one thread too.
The scopes are minimize_on_sphere, solve, eigenpairs, load_basis (its
consistency probe makes N^2 products) and cli.run, which holds a whole CLI
run.  Each runs inside single_threaded(): it sets the pool to one thread
and restores the previous count on exit.  Scopes nest; the count is
process-wide, so scopes that overlap in several Python threads restore in
the order they exit.  A library without the thread-count symbols leaves the
scope inert.

LAPACK (Anderson et al., LAPACK Users' Guide, SIAM, 3rd ed., 1999).  posv
solves the Newton systems and forms the Schur complement's low lift
(dposv), syevr_lowest takes the lowest eigenpair of the frozen step's
complement (dsyevr), sygvd the folded pencils' eigenpairs (dsygvd), and
lu_solve the phase-2 Newton system with its condition estimate (dlange,
dgetrf, dgetrs, dgecon).  Each matrix is copied, as f2py's wrappers copy
it, to a fresh column-major array and read through the same triangle, with
the same work sizes, as scipy.linalg's wrappers pass: with the other
triangle or another workspace the results move in the last bits.  Every
array is the call's own, so calls from several Python threads (a call
releases the GIL) share no buffer.  A ctypes call costs a few us, against
under 1 us for f2py; a curve round makes 2,587 posv and 521 syevr calls, so
their arguments are passed as cheaply as ctypes allows (_ref).
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np
from numpy._core import _multiarray_umath

_LIB = ctypes.CDLL(_multiarray_umath.__file__)
_INT = ctypes.c_int64
# the hidden length Fortran passes after the arguments for each character argument
_CHAR_LEN = ctypes.c_size_t(1)
# argument codes: c a character, i an integer, d a double (each by reference,
# as Fortran passes them), p an array, l a character argument's hidden length
_ARGTYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(_INT), "d": ctypes.POINTER(ctypes.c_double),
             "p": ctypes.c_void_p, "l": ctypes.c_size_t}


def _routine(name: str, signature: str, restype=None):
    """The library's LAPACK routine name (e.g. "dposv"), taking the
    arguments signature spells in _ARGTYPES's codes, in LAPACK's order."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(_LIB, symbol)
    except AttributeError:
        raise ImportError(f"numpy's BLAS library {_LIB._name} exports no LAPACK routine {name} ({symbol})") from None
    routine.argtypes = [_ARGTYPES[code] for code in signature]
    routine.restype = restype
    return routine


def _thread_pool(lib):
    """(getter, setter) of lib's OpenBLAS thread count, or None without one."""
    try:
        setter, getter = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter, setter


_pool = _thread_pool(_LIB)


@contextlib.contextmanager
def single_threaded():
    """Run the body (or, as a decorator, each call) with one BLAS thread."""
    pool = _pool
    if pool is None:
        yield
        return
    getter, setter = pool
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


_dposv = _routine("dposv", "ciipipiil")
_dsyevr = _routine("dsyevr", "cccipiddiidippippipiilll")
_dsygvd = _routine("dsygvd", "iccipipippipiill")
_dlange = _routine("dlange", "ciipipl", ctypes.c_double)
_dgetrf = _routine("dgetrf", "iipipi")
_dgetrs = _routine("dgetrs", "ciipippiil")
_dgecon = _routine("dgecon", "cipiddppil")

def _ref(a: np.ndarray):
    """a's buffer by reference, for an argument LAPACK reads or writes in
    place.  a must be C-contiguous: a column-major n x m matrix is held as its
    m x n transpose, whose C-order bytes are the column-major ones (f2py's
    wrappers copy a matrix to the same bytes).  This takes 0.4 us, against
    1.4 us for a.ctypes.data, at a few arrays per call."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


def posv(a: np.ndarray, b: np.ndarray):
    """(x, info): the solution of a x = b for symmetric positive definite a,
    by Cholesky factorization of a's upper triangle (dposv).  b is a vector
    or a matrix of columns; x has its shape, column-major for a matrix.
    info > 0 when a is not positive definite, and x is then meaningless."""
    n = len(a)
    if a.shape != (n, n) or b.shape[:1] != (n,) or b.ndim > 2:
        raise ValueError(f"posv takes a square matrix and right-hand sides of its size, not {a.shape} and {b.shape}")
    lhs = np.array(a.T, dtype=np.float64, order="C")
    xt = np.array(b.T, dtype=np.float64, order="C")
    size, info = _INT(n), _INT()
    byref = ctypes.byref
    _dposv(b"U", byref(size), byref(_INT(1 if b.ndim == 1 else b.shape[1])), _ref(lhs), byref(size), _ref(xt),
           byref(size), byref(info), _CHAR_LEN)
    return xt.T, info.value


def syevr_lowest(a: np.ndarray):
    """(mu, v, info): the lowest eigenvalue of the symmetric matrix whose
    upper triangle a holds, and a unit eigenvector (dsyevr, workspace 26 n
    and 10 n); info != 0 when LAPACK failed."""
    n = len(a)
    if a.shape != (n, n):
        raise ValueError(f"syevr_lowest takes a square matrix, not {a.shape}")
    z = np.array(a.T, dtype=np.float64, order="C")
    w, v = np.empty(n), np.empty(n)
    isuppz, iwork = np.empty(2 * n, dtype=np.int64), np.empty(10 * n, dtype=np.int64)
    work = np.empty(26 * n)
    size, one, found, info = _INT(n), _INT(1), _INT(), _INT()
    zero = ctypes.c_double(0.0)
    byref = ctypes.byref
    _dsyevr(b"V", b"I", b"U", byref(size), _ref(z), byref(size), byref(zero), byref(zero), byref(one), byref(one),
            byref(zero), byref(found), _ref(w), _ref(v), byref(size), _ref(isuppz), _ref(work),
            byref(_INT(len(work))), _ref(iwork), byref(_INT(len(iwork))), byref(info), _CHAR_LEN, _CHAR_LEN,
            _CHAR_LEN)
    return w[0], v, info.value


def sygvd(a: np.ndarray, b: np.ndarray):
    """(w, v, info): the eigenvalues w, ascending, and column-major
    eigenvectors v (v^T b v = I) of the pencil a v = w b v, from the lower
    triangles of symmetric a and positive definite b (dsygvd, itype 1).
    info > n when b's leading minor of order info - n is not positive
    definite, 0 < info <= n when the eigensolve did not converge."""
    n = len(a)
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"sygvd takes two square matrices of one size, not {a.shape} and {b.shape}")
    vt, mass = np.array(a.T, dtype=np.float64, order="C"), np.array(b.T, dtype=np.float64, order="C")
    w = np.empty(n)
    work, iwork = np.empty(1 + 6 * n + 2 * n * n), np.empty(3 + 5 * n, dtype=np.int64)
    size, info = _INT(n), _INT()
    byref = ctypes.byref
    _dsygvd(byref(_INT(1)), b"V", b"L", byref(size), _ref(vt), byref(size), _ref(mass), byref(size), _ref(w),
            _ref(work), byref(_INT(len(work))), _ref(iwork), byref(_INT(len(iwork))), byref(info), _CHAR_LEN,
            _CHAR_LEN)
    return w, vt.T, info.value


def lu_solve(a: np.ndarray, b: np.ndarray):
    """(x, rcond): the solution of a x = b for a vector b by LU factorization
    with partial pivoting (dgetrf, dgetrs), and the reciprocal condition
    estimate scipy.linalg.solve reports: dgecon's 1-norm estimate of a's
    inverse against a's infinity norm (dlange).  (None, 0.0) when a pivot is
    exactly zero."""
    n = len(a)
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"lu_solve takes a square matrix and a vector of its size, not {a.shape} and {b.shape}")
    lu = np.array(a.T, dtype=np.float64, order="C")
    ipiv = np.empty(n, dtype=np.int64)
    work, iwork = np.empty(4 * n), np.empty(n, dtype=np.int64)
    size, info = _INT(n), _INT()
    byref = ctypes.byref
    anorm = ctypes.c_double(_dlange(b"I", byref(size), byref(size), _ref(lu), byref(size), _ref(work),
                                    _CHAR_LEN))
    _dgetrf(byref(size), byref(size), _ref(lu), byref(size), _ref(ipiv), byref(info))
    if info.value:
        return None, 0.0
    x = np.array(b, dtype=np.float64)
    _dgetrs(b"N", byref(size), byref(_INT(1)), _ref(lu), byref(size), _ref(ipiv), _ref(x), byref(size),
            byref(info), _CHAR_LEN)
    rcond = ctypes.c_double()
    _dgecon(b"1", byref(size), _ref(lu), byref(size), byref(anorm), byref(rcond), _ref(work), _ref(iwork),
            byref(info), _CHAR_LEN)
    return x, rcond.value
