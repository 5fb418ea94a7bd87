"""Discrete nonlocal Dirichlet operators on an interval.

Builds the Galerkin (piecewise-linear, uniform mesh) discretization of an
integral operator

    <L u, v> = iint (u(x) - u(y)) (v(x) - v(y)) K(x - y) dx dy

for a symmetric singular kernel K on the line, with the exterior Dirichlet
condition imposed by extending basis functions by zero outside (a, b).  The
``local`` variant is the classical second-derivative operator used as the
s -> 1 validation mode.

The fractional stiffness is assembled on the unit-spacing mesh of (0, n):
every pair and tail integral of the uniform mesh is h^(1-2s) times its value
there, so h enters only through the one factor scale * h^(1-2s) applied to
the result.  The singular element-pair integrals (same and adjacent
elements) are done in closed form via power-law antiderivatives;
well-separated pairs use 8-point tensor Gauss.  The exterior contribution
weights each element's Gauss points by the kernel tail, which is exact in
the exterior variable; only its term singular on an end element is
integrated in closed form.  Each pair integral depends only on the element
gap, so the pair terms form a symmetric Toeplitz matrix computed from one
8x8 Gauss block per gap, and the far-pair row sums and exterior tails form
a tridiagonal matrix: assembly takes O(n) memory besides the dense result.
This is the P1 scheme of Acosta and Borthagaray (SIAM J. Numer. Anal. 55,
2017).

Both matrices are exactly invariant under the mirror x -> a + b - x, which
GalerkinOperator checks.  Eigen-decomposition folds the generalized
symmetric problem A c = lambda M c by that mirror into its even and odd
halves, two dense solves of half the size (Cholesky reduction of M inside
LAPACK, on one BLAS thread), producing an L2-orthonormal basis of exactly
even and odd eigenfunctions in which all later spectral computations are
diagonal.

A basis is saved as a JSON document whose float arrays are streamed one
entry a line, and reloaded without holding the text whole: each such array
(a float block) is read in fixed-size pieces straight into a float64 array,
and only the few hundred bytes around the blocks go through json.loads.
The writer and the reader share the block's layout tokens.  A reload checks
every eigenpair against the reassembled matrices with one O(n^2) probe.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
import sys
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
import orjson

from .blas import single_threaded, sygvd
from .errors import (
    ConfigError,
    DegenerateSplit,
    DimensionMismatch,
    FactorizationFailure,
    MeshTooCoarse,
    NonPositiveKernel,
    OrderOutOfRange,
)

SCHEMA_VERSION = 1

# Per-element Simpson sample rule shared by every nonlinear quadrature in the
# package: 5 points per element, composite Simpson weights h/12 * [1 4 2 4 1].
# Exact for piecewise-cubic integrands, so products of two piecewise-linear
# fields integrate exactly; positive weights keep monotonicity arguments
# valid at the discrete level.
_SIMPSON_OFFSETS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_SIMPSON_WEIGHTS = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
# The element's left and right hats at the offsets (the entries of P's
# rows), and the products that build T: left^2, right^2, left * right.
_HATS = np.array([1.0 - _SIMPSON_OFFSETS, _SIMPSON_OFFSETS])
_HAT_PRODUCTS = np.array([_HATS[0] ** 2, _HATS[1] ** 2, _HATS[0] * _HATS[1]])

# Tensor Gauss points per element for the well-separated element pairs.
_GAUSS_ORDER = 8
# Array entries formatted per JSON chunk: few number strings alive at once.
_JSON_BLOCK = 4096
# The indented layout of a top-level float array member (a float block):
# _json_document writes these tokens and _read_document cuts its pieces at them.
_BLOCK_OPEN, _BLOCK_SEP, _BLOCK_CLOSE = b"[\n    ", b",\n    ", b"\n  ]"
# The start of a float block, through its opener, and its longest length;
# a member whose key is longer is left to json.loads with the rest.
_BLOCK_START = re.compile(rb'\n  "[^"\\\n]{0,64}": ' + re.escape(_BLOCK_OPEN))
_BLOCK_START_MAX = len('\n  "": ') + 64 + len(_BLOCK_OPEN)
# Bytes of a document read at a time: past 64 KiB the buffers, not the
# arrays, set a reload's peak, and the parse is no faster.
_READ_PIECE = 1 << 16
# The bytes of JSON numbers, commas and whitespace: a float block piece made
# of these alone holds numbers only.
_NUMBER_BYTES = b"0123456789+-.eE,\t\n\r "
# Log-grid points of validate_kernel's trapezoid integrals.
_LOG_GRID_POINTS = 4000


def _config_number(value, what: str) -> float:
    """A finite number from a run config or problem document."""
    try:
        number = math.nan if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:  # an integer beyond the floats
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _config_numbers(value, what: str, count: int | None = None) -> tuple:
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        raise ConfigError(f"{what} must be a list of {count or 'finite'} numbers, got {value!r}")
    return tuple(_config_number(v, what) for v in value)


def _readonly(a: np.ndarray) -> np.ndarray:
    """a as a read-only contiguous float64 array: a itself when it already is
    one, else a copy, so an array the caller still holds stays writable.
    Producers of large arrays freeze their own before handing them over."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable:
        return a
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class Kernel:
    """Interaction kernel specification.

    variant: "fractional" (K(z) = scale * |z|^(-1-2s)), "local" (classical
    second-derivative mode, no pointwise kernel), or "tabulated" (arbitrary
    callable, validation only).  lambda_K is the declared constant in the
    lower bound K(z) >= lambda_K * |z|^(-1-2s).
    """

    variant: str
    s: float | None = None
    scale: float = 1.0
    lambda_K: float | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.variant not in ("fractional", "local", "tabulated"):
            raise ConfigError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "local":
            if self.s is not None:
                raise ConfigError("local variant carries no order s")
            return
        if self.s is None or not (0.0 < self.s < 1.0):
            raise OrderOutOfRange(f"order s must lie in (0, 1), got {self.s}")
        if self.scale <= 0.0:
            raise NonPositiveKernel(f"kernel scale must be positive, got {self.scale}")
        if self.lambda_K is None:
            object.__setattr__(self, "lambda_K", self.scale)
        if self.variant == "tabulated" and self.func is None:
            raise ConfigError("tabulated variant needs an evaluator")

    @classmethod
    def fractional(cls, s: float, scale: float = 1.0, lambda_K: float | None = None) -> "Kernel":
        return cls(variant="fractional", s=s, scale=scale, lambda_K=lambda_K)

    @classmethod
    def local(cls) -> "Kernel":
        return cls(variant="local")

    @classmethod
    def tabulated(cls, func: Callable, s: float, lambda_K: float, scale: float = 1.0) -> "Kernel":
        return cls(variant="tabulated", s=s, scale=scale, lambda_K=lambda_K, func=func)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Pointwise kernel values at nonzero x."""
        x = np.asarray(x, dtype=float)
        if self.variant == "fractional":
            return self.scale * np.abs(x) ** (-(1.0 + 2.0 * self.s))
        if self.variant == "tabulated":
            return np.asarray(self.func(x), dtype=float)
        raise ConfigError("local variant has no pointwise kernel")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    details: dict


class CheckReport:
    """Base of the reports whose checks field holds ConditionChecks."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class ValidationReport(CheckReport):
    kernel: Kernel
    checks: tuple[ConditionCheck, ...]


def _log_grid_integral(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Trapezoid on a log grid of |x| over [lo, hi], one sign of the axis."""
    t = np.linspace(math.log(lo), math.log(hi), _LOG_GRID_POINTS)
    x = np.exp(t)
    return float(np.trapezoid(f(x) * x, t))


def validate_kernel(kernel: Kernel) -> ValidationReport:
    """Check a kernel against the three admissibility conditions.

    (integrability) min(x^2, 1) * K integrable near 0 and at infinity,
    reported through truncated integrals and their refinement trend;
    (lower bound)   K(x) * |x|^(1+2s) >= lambda_K on a 512-point sample grid;
    (evenness)      K(x) = K(-x) on the sample grid.

    Sampling kernels that return a non-positive value raise NonPositiveKernel.
    The local variant has no pointwise kernel; its report records the three
    conditions as analytically satisfied in the classical limit.
    """
    if kernel.variant == "local":
        checks = tuple(
            ConditionCheck(name, True, {"note": "classical local mode, analytic"})
            for name in ("integrability", "lower_bound", "evenness")
        )
        return ValidationReport(kernel=kernel, checks=checks)

    mags = np.logspace(-6, 3, 512)
    xs = np.concatenate([-mags[::-1], mags])
    vals = kernel.evaluate(xs)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        bad = xs[np.argmin(vals)]
        raise NonPositiveKernel(f"kernel sample K({bad!r}) <= 0 or non-finite")

    def weighted(x):
        return np.minimum(x * x, 1.0) * kernel.evaluate(x)

    # truncated integral over [-R, R] with an extrapolated inner tail; the
    # refinement trend is measured by outer-decade increments computed
    # directly (differencing the big integrals would cancel catastrophically)
    eps = 1e-12
    core = _log_grid_integral(weighted, eps, 1e3) + _log_grid_integral(lambda x: weighted(-x), eps, 1e3)
    # local power fit near the origin to account for mass below eps
    x1, x2 = eps, 2.0 * eps
    inner = 0.0
    for sgn in (1.0, -1.0):
        f1, f2 = weighted(np.array([sgn * x1]))[0], weighted(np.array([sgn * x2]))[0]
        if f1 > 0 and f2 > 0:
            p = math.log(f2 / f1) / math.log(x2 / x1)
            if p > -1.0:
                inner += f1 * x1 / (p + 1.0)
    increment_1 = _log_grid_integral(weighted, 1e3, 1e4) + _log_grid_integral(lambda x: weighted(-x), 1e3, 1e4)
    increment_2 = _log_grid_integral(weighted, 1e4, 1e5) + _log_grid_integral(lambda x: weighted(-x), 1e4, 1e5)
    integrable = bool(
        np.isfinite(core) and np.isfinite(increment_1) and increment_2 <= increment_1 + 1e-15
    )
    k1 = ConditionCheck(
        "integrability",
        integrable,
        {
            "truncated_integral_R1e3": core + inner,
            "increment_to_R1e4": increment_1,
            "increment_to_R1e5": increment_2,
        },
    )

    sig = 1.0 + 2.0 * kernel.s
    ratios = vals * np.abs(xs) ** sig
    worst = int(np.argmin(ratios))
    lower_ok = bool(ratios[worst] >= kernel.lambda_K * (1.0 - 1e-12))
    k2 = ConditionCheck(
        "lower_bound",
        lower_ok,
        {"min_ratio": float(ratios[worst]), "lambda_K": kernel.lambda_K, "witness_x": float(xs[worst])},
    )

    asym = np.abs(kernel.evaluate(mags) - kernel.evaluate(-mags))
    widx = int(np.argmax(asym))
    even_ok = bool(asym[widx] <= 1e-12 * max(float(np.max(vals[np.isfinite(vals)])), 1.0))
    k3 = ConditionCheck(
        "evenness",
        even_ok,
        {"max_asymmetry": float(asym[widx]), "witness_x": float(mags[widx])},
    )
    return ValidationReport(kernel=kernel, checks=(k1, k2, k3))


# ---------------------------------------------------------------------------
# mesh and assembly


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of (a, b) with n_elements cells; Dirichlet exterior."""

    a: float
    b: float
    n_elements: int

    def __post_init__(self):
        if not (self.b > self.a):
            raise ConfigError(f"empty interval ({self.a}, {self.b})")
        if self.interior_dim < 3:
            raise MeshTooCoarse(
                f"{self.n_elements} elements give {self.interior_dim} interior nodes; need >= 3"
            )
        if not math.isfinite(self.b - self.a) or self.h < sys.float_info.min:
            raise ConfigError(f"({self.a}, {self.b}) in {self.n_elements} elements has no normal finite spacing")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_elements

    @property
    def interior_dim(self) -> int:
        return self.n_elements - 1

    @property
    def nodes(self) -> np.ndarray:
        # (b - a) * (i / n) stays finite wherever b - a is, unlike h * i
        return self.a + (self.b - self.a) * (np.arange(self.n_elements + 1) / self.n_elements)


@dataclass(frozen=True)
class GalerkinOperator:
    """Assembled stiffness A and consistent mass M on interior hat functions."""

    kernel: Kernel
    mesh: Mesh1D
    stiffness: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stiffness", _readonly(self.stiffness))
        object.__setattr__(self, "mass", _readonly(self.mass))
        n = self.mesh.interior_dim
        if self.stiffness.shape != (n, n) or self.mass.shape != (n, n):
            raise DimensionMismatch("matrix shapes do not match the mesh")
        if not (np.isfinite(self.stiffness).all() and np.isfinite(self.mass).all()):
            raise ConfigError("stiffness or mass overflows on this mesh")
        # the mirror x -> a + b - x maps the uniform mesh and the even kernel
        # to themselves, and eigenpairs solves the even and odd halves apart;
        # the upper rows through the centre meet every mirrored pair
        rows = slice(n - n // 2)
        if not all(np.array_equal(X[rows], X[::-1, ::-1][rows]) for X in (self.stiffness, self.mass)):
            raise ConfigError("stiffness or mass is not exactly reflection-symmetric")

    def mass_times(self, v: np.ndarray) -> np.ndarray:
        """M v in O(n) per column, from the three diagonals of the P1 mass."""
        return _tridiagonal_times(np.diagonal(self.mass), np.diagonal(self.mass, 1), v)


def _mass_matrix(mesh: Mesh1D) -> np.ndarray:
    h, n = mesh.h, mesh.interior_dim
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 4.0 * h / 6.0
    m[idx[:-1], idx[:-1] + 1] = h / 6.0
    m[idx[:-1] + 1, idx[:-1]] = h / 6.0
    return m


def _assemble_local(mesh: Mesh1D) -> np.ndarray:
    h, n = mesh.h, mesh.interior_dim
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 2.0 / h
    a[idx[:-1], idx[:-1] + 1] = -1.0 / h
    a[idx[:-1] + 1, idx[:-1]] = -1.0 / h
    return a


def _assemble_fractional(kernel: Kernel, mesh: Mesh1D) -> np.ndarray:
    # Every pair and tail integral on the uniform mesh is h^(1-2s) times its
    # value on the unit-spacing mesh of (0, n), so the matrix is built there
    # and scaled once: the domain's length cannot cancel in any moment.  Each
    # pair integral depends only on the gap between the two elements, so the
    # stiffness is a symmetric Toeplitz matrix (the near and far pair cross
    # terms) plus a tridiagonal part (the far-pair row sums and the exterior
    # tails) and a correction at the two end nodes.
    s = kernel.s
    sig = 1.0 + 2.0 * s
    n, N = mesh.n_elements, mesh.interior_dim
    row = np.zeros(N)  # first row of the Toeplitz part
    diag, off = np.zeros(N), np.zeros(N - 1)  # tridiagonal part

    # same-element pairs: the hat differences are proportional to (x - y), so
    # the integrand is |x-y|^(1-2s) times the slope product
    slope = np.array([-1.0, 1.0])  # hats p-1, p on element p
    same = 2.0 / ((2.0 - 2.0 * s) * (3.0 - 2.0 * s)) * np.outer(slope, slope)

    # adjacent-element pairs: with u, v the distances to the shared node the
    # integrand is (b_p u + b_q v)(b'_p u + b'_q v)(u+v)^(-1-2s); reduced along
    # lines u + v = t the two monomial integrals need P(e) = int_1^2 t^e dt
    def P(e):
        p = e + 1.0
        return math.log(2.0) if p == 0.0 else math.expm1(p * math.log(2.0)) / p

    i20 = 1.0 / (3.0 * (4.0 - sig)) + (2.0 / 3.0) * P(-sig) - P(1.0 - sig) + P(2.0 - sig) - P(3.0 - sig) / 3.0
    i11 = 1.0 / (6.0 * (4.0 - sig)) - P(3.0 - sig) / 6.0 + P(1.0 - sig) - (2.0 / 3.0) * P(-sig)
    # slopes of hats p-1, p, p+1 on elements p and q = p+1; the pair is
    # counted for (x, y) and (y, x)
    bp, bq = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]).T
    adjacent = 2.0 * (i20 * (np.outer(bp, bp) + np.outer(bq, bq)) + i11 * (np.outer(bp, bq) + np.outer(bq, bp)))
    # summed over all elements, a local matrix adds its m-th diagonal to the
    # Toeplitz offset m
    row[:2] += [np.trace(same, offset=m) for m in range(2)]
    row[:3] += [np.trace(adjacent, offset=m) for m in range(3)]
    # the end nodes have no adjacent pair reaching past the boundary; that
    # interaction is part of the exterior tail below
    diag[0] -= adjacent[2, 2]
    diag[-1] -= adjacent[0, 0]

    # far pairs (element gap d >= 2): tensor Gauss on the smooth integrand.
    # B[d] is the Gauss-point kernel block of elements e and e + d, E[d] its
    # contraction with the two hat shapes on each element (0: hat e, 1: hat
    # e + 1); E[d] = 0 for the near gaps d < 2
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    wg = 0.5 * gw
    dist = np.arange(2.0, n)[:, None, None] + 0.5 * (gx[None, None, :] - gx[None, :, None])
    B = np.zeros((n, _GAUSS_ORDER, _GAUSS_ORDER))
    B[2:] = dist ** (-sig) * wg[:, None] * wg[None, :]
    shapes = np.stack([0.5 * (1.0 - gx), 0.5 * (1.0 + gx)])
    E = shapes @ B @ shapes.T
    # S^T W S: the pair (i, j = i + m) meets element gaps m - 1, m, m + 1
    far_row = E[:N, 0, 0] + E[:N, 1, 1] + E[1 : N + 1, 1, 0]
    far_row[1:] += E[: N - 1, 0, 1]
    row -= 2.0 * far_row
    # S^T diag(r) S with r the far row sums of each element's Gauss points:
    # gaps 2 .. n-1-e to the right (block rows), 2 .. e to the left (columns)
    to_right = np.cumsum(B.sum(axis=2), axis=0)
    to_left = np.cumsum(B.sum(axis=1), axis=0)
    r = to_right[n - 1 :: -1] + to_left[:n]  # (element, Gauss point)
    # the exterior tail T(x) = [x^(-2s) + (n-x)^(-2s)]/(2s) joins r at the same
    # points, except for the term singular on each end element: there the one
    # hat is the distance u to the boundary and int_0^1 u^2 u^(-2s) du is exact
    x = np.arange(n)[:, None] + shapes[1]
    r[1:] += wg * x[1:] ** (-2.0 * s) / (2.0 * s)
    r[:-1] += wg * (n - x[:-1]) ** (-2.0 * s) / (2.0 * s)
    diag[[0, -1]] += 2.0 / (2.0 * s) / (3.0 - 2.0 * s)
    q = r @ np.stack([shapes[0] ** 2, shapes[1] ** 2, shapes[0] * shapes[1]]).T
    diag += 2.0 * (q[:N, 1] + q[1:, 0])
    off += 2.0 * q[1:N, 2]

    # Toeplitz plus symmetric tridiagonal is exactly symmetric, and exactly
    # reflection-symmetric once the tridiagonal part is: the cumulative sums
    # above reach node i and node N-1-i in different orders, so each pair of
    # mirrored entries is replaced by its mean, which is the same float both
    # ways round
    diag = 0.5 * (diag + diag[::-1])
    off = 0.5 * (off + off[::-1])
    # A[i, j] = row[|i - j|]: row i is the window of row[::-1] ++ row[1:] that
    # starts at N - 1 - i, copied out of one strided view
    A = np.lib.stride_tricks.sliding_window_view(np.concatenate([row[::-1], row[1:]]), N)[::-1].copy()
    idx = np.arange(N)
    A[idx, idx] += diag
    A[idx[:-1], idx[1:]] += off
    A[idx[1:], idx[:-1]] += off
    with np.errstate(over="ignore"):  # GalerkinOperator refuses an overflowed matrix
        A *= kernel.scale * mesh.h ** (1.0 - 2.0 * s)
    return A


def assemble(kernel: Kernel, mesh: Mesh1D) -> GalerkinOperator:
    """Assemble stiffness and mass matrices for a kernel on a mesh."""
    if kernel.variant == "local":
        A = _assemble_local(mesh)
    elif kernel.variant == "fractional":
        A = _assemble_fractional(kernel, mesh)
    else:
        raise ConfigError(
            "tabulated kernels are validation-only; assembly needs the "
            "power-law form for its closed-form singular quadrature"
        )
    mass = _mass_matrix(mesh)
    A.setflags(write=False)
    mass.setflags(write=False)
    return GalerkinOperator(kernel=kernel, mesh=mesh, stiffness=A, mass=mass)


# ---------------------------------------------------------------------------
# eigen-decomposition and fields


@dataclass(frozen=True)
class EigenBasis:
    """Full L2-orthonormal eigenbasis of A c = lambda M c with a split index.

    vectors[:, j] holds interior nodal values of the j-th eigenfunction;
    columns are M-orthonormal, eigenvalues ascend.  The first k columns span
    the "low" subspace used by the variational layer.

    Every nonlinear quadrature in the package uses the shared per-element
    Simpson rule (offsets 0, h/4, ..., h in each element, sample_weights w)
    through four methods, where modes selects the columns V_m (all by
    default): sample(c) = P V_m c, gather(v) = V_m^T P^T (w v),
    integrate(v) = w . v and gram(v) = V_m^T T V_m.  P interpolates nodal
    values at the points (two nonzeros per row) and T = P^T diag(w v) P is
    tridiagonal, so no 5n x N table of eigenfunction samples is formed.  The
    low modes alone (modes = slice(k)) are kept sampled, as the 5n x k table
    low_samples = P V_low, because the low-subspace Newton reads them at
    every iteration and a table product costs fewer numpy calls than one
    through P.
    """

    operator: GalerkinOperator
    eigenvalues: np.ndarray
    vectors: np.ndarray
    k: int

    def __post_init__(self):
        mesh = self.operator.mesh
        n = mesh.interior_dim
        if not 1 <= self.k < n:
            raise ConfigError(f"split index k={self.k} outside [1, {n - 1}]")
        lam = np.asarray(self.eigenvalues, dtype=float)
        gap = lam[self.k] - lam[self.k - 1]
        if gap <= 1e-9 * abs(lam[self.k]):
            raise DegenerateSplit(
                f"lambda_{self.k} = {lam[self.k - 1]!r} and lambda_{self.k + 1} = "
                f"{lam[self.k]!r} coincide to relative tolerance 1e-9"
            )
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "vectors", _readonly(self.vectors))
        object.__setattr__(self, "sample_weights", _readonly(np.tile(mesh.h * _SIMPSON_WEIGHTS, mesh.n_elements)))
        full = np.zeros((n + 2, self.k))
        full[1:-1] = self.vectors[:, : self.k]
        low = full[:-1, None] * _HATS[0][:, None] + full[1:, None] * _HATS[1][:, None]
        object.__setattr__(self, "low_samples", _readonly(low.reshape(-1, self.k)))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_k(self) -> float:
        return float(self.eigenvalues[self.k - 1])

    @property
    def lambda_k1(self) -> float:
        return float(self.eigenvalues[self.k])

    def with_k(self, k: int) -> "EigenBasis":
        """Same decomposition, different split index."""
        return replace(self, k=k)

    def _low(self, modes) -> bool:
        return type(modes) is slice and modes == slice(self.k)

    def sample(self, coeffs: np.ndarray, modes=slice(None)) -> np.ndarray:
        """Values at the sample points of the field with these coefficients."""
        # ndarray.dot: half of matmul's per-call cost on the small products
        if self._low(modes):
            return self.low_samples.dot(coeffs)
        full = np.zeros(len(self.vectors) + 2)
        full[1:-1] = self.vectors[:, modes].dot(coeffs)
        return (full[:-1, None] * _HATS[0] + full[1:, None] * _HATS[1]).reshape(-1)

    def gather(self, values: np.ndarray, modes=slice(None)) -> np.ndarray:
        """Integrals of the sampled values against each eigenfunction."""
        if self._low(modes):
            return self.low_samples.T.dot(self.sample_weights * values)
        per_element = (self.sample_weights * values).reshape(-1, 5).dot(_HATS.T)
        # interior node i is the left node of element i, the right of i - 1
        return self.vectors[:, modes].T.dot(per_element[1:, 0] + per_element[:-1, 1])

    def integrate(self, values: np.ndarray) -> float:
        return float(self.sample_weights @ values)

    def gram(self, values: np.ndarray, modes=slice(None)) -> np.ndarray:
        """Integrals of values * phi_i * phi_j."""
        if self._low(modes):
            s = self.low_samples
            return s.T.dot((self.sample_weights * values)[:, None] * s)
        per_element = (self.sample_weights * values).reshape(-1, 5).dot(_HAT_PRODUCTS.T)
        v = self.vectors[:, modes]
        return v.T.dot(_tridiagonal_times(per_element[1:, 0] + per_element[:-1, 1], per_element[1:-1, 2], v))

    def coeffs_from_nodal(self, nodal: np.ndarray) -> np.ndarray:
        return self.vectors.T @ self.operator.mass_times(nodal)

    def nodal_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return self.vectors @ coeffs


def _tridiagonal_times(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v for the symmetric tridiagonal T with this diagonal and off-diagonal,
    v a vector or a matrix of columns."""
    if v.ndim == 2:
        diag, off = diag[:, None], off[:, None]
    tv = diag * v
    tv[:-1] += off * v[1:]
    tv[1:] += off * v[:-1]
    return tv


def _fold(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forms of a reflection-symmetric X on its even and odd vectors.

    With m = N // 2 and J the m x m reversal, an even vector is (y, c, J y)
    and an odd one (y, 0, -J y), the centre entry c only for odd N.  On them
    x^T X x = z^T E z with z = (y, c), and y^T O y, where
    E = [[2 (X_LL + X_LR J), 2 x], [2 x^T, X_cc]] (x the centre column's
    upper part) and O = 2 (X_LL - X_LR J).  The doubling is exact, and both
    forms are exactly symmetric because X is.  An overflowed entry is left
    for eigh to refuse.
    """
    n = len(X)
    m = n // 2
    near, far = X[:m, :m], X[:m, ::-1][:, :m]
    even = np.empty((n - m, n - m))
    if n % 2:
        even[m, :m] = even[:m, m] = X[m, :m]
    with np.errstate(over="ignore"):
        np.add(near, far, out=even[:m, :m])
        odd = near - far
        even *= 2.0
        odd *= 2.0
    if n % 2:
        even[m, m] = X[m, m]
    return even, odd


def _signed(Z: np.ndarray) -> np.ndarray:
    """Z with each column's sign fixed: its largest-magnitude entry positive,
    where entries within a relative 1e-9 of the largest tie and the tie
    goes to the row nearest a (the first).  The ties are real: an odd mode's
    mirrored entries are equal and opposite, and the local kernel's sampled
    sines peak at two nodes alike to the last bits, which LAPACK would
    otherwise decide between."""
    magnitude = np.abs(Z)
    first = np.argmax(magnitude >= (1.0 - 1e-9) * magnitude.max(axis=0), axis=0)
    return Z * np.where(Z[first, np.arange(Z.shape[1])] < 0.0, -1.0, 1.0)


@single_threaded()
def eigenpairs(op: GalerkinOperator, k: int) -> EigenBasis:
    """Dense generalized symmetric eigensolve, folded by the reflection.

    The mesh, the kernel and so A and M are invariant under the mirror
    x -> a + b - x, so every eigenfunction is even or odd, and the pencil
    (A, M) splits into the two half-size pencils of _fold (Cantoni and
    Butler, Linear Algebra Appl. 13, 1976).  Each is solved by LAPACK's
    dsygvd on one BLAS thread, which up to 1025 elements is as fast as two
    (blas.py gives the measurements).  Each half's vectors get their
    deterministic signs (_signed) and are written, mirrored, straight into
    their columns of the one C-ordered V, in ascending order of the
    eigenvalues, so every column is exactly even or odd.  The cross-parity blocks of V^T M V and V^T A V then vanish, and
    the certificates are taken per half: Z^T (X Z) needs one half-size
    temporary besides its own storage, and the folded P1 mass is
    tridiagonal, so its product is formed from three diagonals.  Raises
    FactorizationFailure when a half's mass is not positive definite or a
    half misses its certificates (a NaN defect misses them too), and
    DegenerateSplit when lambda_k and lambda_{k+1} coincide to tolerance.
    """
    pencils = list(zip(_fold(op.stiffness), _fold(op.mass)))
    halves = []
    for a, b in pencils:
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise FactorizationFailure("generalized eigensolve failed: an overflowed fold")
        lam, Z, info = sygvd(a, b)
        if info > len(a):
            raise FactorizationFailure(
                f"generalized eigensolve failed: the folded mass's leading minor of order {info - len(a)} "
                "is not positive definite")
        if info:
            raise FactorizationFailure(f"generalized eigensolve failed: dsygvd did not converge (info {info})")
        halves.append((lam, _signed(Z)))
    scale = max(1.0, max(float(np.max(np.abs(lam))) for lam, _ in halves))

    def defect(Z: np.ndarray, product: np.ndarray, diagonal) -> float:
        cert = Z.T @ product
        cert[np.diag_indices_from(cert)] -= diagonal
        return float(np.max(np.abs(cert, out=cert)))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        for parity, (a, b), (lam, Z) in zip(("even", "odd"), pencils, halves):
            ortho_defect = defect(Z, _tridiagonal_times(np.diagonal(b), np.diagonal(b, 1), Z), 1.0)
            if not ortho_defect <= 1e-10:
                raise FactorizationFailure(f"{parity} basis not M-orthonormal (defect {ortho_defect:.2e})")
            diag_defect = defect(Z, a @ Z, lam)
            if not diag_defect <= 1e-8 * scale:
                raise FactorizationFailure(f"{parity} basis does not diagonalize A (defect {diag_defect:.2e})")
    n = len(op.stiffness)
    m = n // 2
    lam = np.concatenate([lam for lam, _ in halves])
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    even, odd = np.split(column, [n - m])
    (_, Z_even), (_, Z_odd) = halves
    V = np.empty((n, n))
    V[:m, even] = Z_even[:m]
    V[n - m :, even] = Z_even[m - 1 :: -1]
    V[:m, odd] = Z_odd
    V[n - m :, odd] = -Z_odd[::-1]
    if n % 2:
        V[m, even] = Z_even[m]
        V[m, odd] = 0.0
    if not lam[0] > 0.0:
        raise FactorizationFailure(f"first eigenvalue {lam[0]!r} not positive")
    first = V[:, 0]
    if np.min(first) < -1e-8 * np.max(first):
        raise FactorizationFailure("first eigenfunction is not single-signed")
    lam.setflags(write=False)
    V.setflags(write=False)
    return EigenBasis(operator=op, eigenvalues=lam, vectors=V, k=k)


@dataclass(frozen=True)
class Field:
    """A discrete function: its coordinates in the eigenbasis.

    coeffs are coordinates in the eigenbasis (so the L2 inner product is the
    Euclidean dot product and the energy form is diagonal), and all a field
    holds.  samples (values on the shared Simpson grid) and nodal (interior
    nodal values V coeffs, which only CLI artifacts read) are views that the
    P1 mesh supplies on first read.
    """

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(self.coeffs))
        n = self.basis.dim
        if self.coeffs.shape != (n,):
            raise DimensionMismatch(f"field length {self.coeffs.shape} vs basis dim {n}")

    @property
    def norm_l2(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @property
    def norm_energy(self) -> float:
        return float(math.sqrt(max(0.0, float(self.basis.eigenvalues @ self.coeffs**2))))

    @cached_property
    def samples(self) -> np.ndarray:
        """Values on the shared per-element Simpson grid."""
        return _readonly(self.basis.sample(self.coeffs))

    @cached_property
    def nodal(self) -> np.ndarray:
        return _readonly(self.basis.nodal_from_coeffs(self.coeffs))


def to_field(basis: EigenBasis, coeffs: np.ndarray | None = None, nodal: np.ndarray | None = None) -> Field:
    """Build a Field from exactly one representation, converting nodal values once."""
    if (coeffs is None) == (nodal is None):
        raise ConfigError("give exactly one of coeffs or nodal")
    if coeffs is not None:
        return Field(basis=basis, coeffs=coeffs)
    nodal = np.asarray(nodal, dtype=float)
    if nodal.shape != (basis.dim,):
        raise DimensionMismatch(f"nodal shape {nodal.shape} vs basis dim {basis.dim}")
    return Field(basis=basis, coeffs=basis.coeffs_from_nodal(nodal))


def split(u: Field) -> tuple[Field, Field]:
    """M-orthogonal split into the low (first k modes) and high parts."""
    k = u.basis.k
    low = np.zeros_like(u.coeffs)
    low[:k] = u.coeffs[:k]
    high = np.zeros_like(u.coeffs)
    high[k:] = u.coeffs[k:]
    return to_field(u.basis, coeffs=low), to_field(u.basis, coeffs=high)


# ---------------------------------------------------------------------------
# serialization


def basis_document(basis: EigenBasis) -> dict:
    """Versioned JSON document for an operator + basis, its eigenvalues and
    flattened vectors left as arrays (json.dumps needs default=_json_default)."""
    kernel = basis.operator.kernel
    if kernel.variant == "tabulated":
        raise ConfigError("tabulated kernels cannot be serialized")
    mesh = basis.operator.mesh
    return {
        "version": SCHEMA_VERSION,
        "kernel": {
            "variant": kernel.variant,
            "s": kernel.s,
            "scale": kernel.scale,
            "lambda_K": kernel.lambda_K,
        },
        "mesh": {"a": mesh.a, "b": mesh.b, "n_elements": mesh.n_elements},
        "eigenvalues": basis.eigenvalues,
        "vectors": basis.vectors.reshape(-1),
    }


def _write_atomic(files: dict) -> None:
    """Write each {path: text or byte chunks} through a uniquely named temp file beside it.

    A str is encoded once, as UTF-8; any other value is an iterable of bytes
    chunks, written as they come.  All are written before any is renamed, so
    a failure while producing one leaves every target untouched; one between
    renames keeps the earlier ones.
    """
    temps = {}
    try:
        for path, content in files.items():
            fd, temps[path] = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                # mkstemp creates the file owner-only; give it the mode open() would
                mask = os.umask(0)
                os.umask(mask)
                os.fchmod(f.fileno(), 0o666 & ~mask)
                f.writelines([content.encode("utf-8")] if isinstance(content, str) else content)
        for path in files:
            os.replace(temps[path], path)
            del temps[path]
    except BaseException:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _json_default(value):
    """json's default= hook: numpy arrays and scalars as their Python values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_block(block: np.ndarray) -> bytes:
    """The entries' reprs joined by the indented array separator, as bytes.

    orjson formats the contiguous float64 block straight from the array and
    picks the same shortest digits as repr, but writes no exponent where
    repr writes one (0 < |x| < 1e-4 and |x| >= 1e16).  The block is cut at
    those few entries, which repr formats, and orjson formats the runs
    between them.  On a 1025-element fractional basis (1.05M entries, 54 of
    them cut out) _json_document formats basis.json in 0.07-0.08 s against
    0.12-0.13 s when each block's tolist() was formatted and its entries
    split and joined one by one (7 runs each, 2-vCPU VM).
    """
    block = np.ascontiguousarray(block)
    magnitude = np.abs(block)
    pieces, start = [], 0
    for i in np.flatnonzero(((magnitude > 0.0) & (magnitude < 1e-4)) | (magnitude >= 1e16)).tolist():
        if start < i:
            pieces.append(orjson.dumps(block[start:i], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1])
        pieces.append(float.__repr__(block[i]).encode())
        start = i + 1
    if start < block.size:
        pieces.append(orjson.dumps(block[start:], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1])
    return b",".join(pieces).replace(b",", _BLOCK_SEP)


def _json_document(doc: dict):
    """Yield ``json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\\n"``
    as UTF-8 bytes, in chunks.

    json's indenting encoder is pure Python and returns the whole text, so a
    top-level member that is a non-empty 1-D array of finite float64 (the
    eigenvectors of basis.json) is formatted one block of _JSON_BLOCK entries
    at a time by _float_block, and the text is never held whole; every other
    member goes through json.dumps, whose ASCII text is encoded as it is.
    """
    opener = b"{"
    for key in sorted(doc):
        value = doc[key]
        yield opener + b"\n  " + json.dumps(key).encode() + b": "
        opener = b","
        floats = isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1
        if floats and value.size and np.isfinite(value).all():
            for start in range(0, value.size, _JSON_BLOCK):
                yield (_BLOCK_SEP if start else _BLOCK_OPEN) + _float_block(value[start : start + _JSON_BLOCK])
            yield _BLOCK_CLOSE
        else:
            yield json.dumps(value, sort_keys=True, indent=2, default=_json_default).replace("\n", "\n  ").encode()
    yield b"\n}\n" if doc else b"{}\n"


def save_basis(basis: EigenBasis, path: str) -> None:
    _write_atomic({Path(os.path.abspath(path)): _json_document(basis_document(basis))})


@dataclass(frozen=True, eq=False)
class _FloatBlock:
    """A float block's numbers, where json.loads met the block's marker.

    It equals nothing but itself, so a block where the reader expects
    anything but an array of numbers is refused as the list would be.
    """

    array: np.ndarray


def _block_numbers(text: bytes) -> np.ndarray | None:
    """The numbers of a run of number bytes, or None unless it is one or
    more numbers between commas."""
    try:
        values = orjson.loads(b"[" + text + b"]")
    except orjson.JSONDecodeError:  # also a number beyond the floats
        return None
    return np.array(values, dtype=float) if values else None


def _read_block(f, data: bytes, at: int):
    """A float block's numbers, with the bytes in hand and the offset past
    its closer, or None if the text from data[at] on is not a float block.

    data[at:] holds the bytes read past the block's opener.  The file is
    read on in _READ_PIECE pieces, each parsed up to its last comma, so
    about one piece of the block's text is held at a time.  The text is not
    a block once anything but numbers, commas and whitespace comes before
    the first closing bracket, or that bracket is not the closer.
    """
    pieces, head = [], bytearray()  # head: the number bytes since the last comma
    while True:
        end = data.find(_BLOCK_CLOSE[-1:], at)
        body = data[at : len(data) if end < 0 else end]
        if body.translate(None, _NUMBER_BYTES):
            return None
        if end >= 0:
            head += body
            if not head.endswith(_BLOCK_CLOSE[:-1]):
                return None
            pieces.append(_block_numbers(head[: 1 - len(_BLOCK_CLOSE)]))
            return None if pieces[-1] is None else (np.concatenate(pieces), data, end + 1)
        cut = body.rfind(b",")
        if cut >= 0:
            head += body[:cut]
            pieces.append(_block_numbers(head))
            if pieces[-1] is None:
                return None
            head = bytearray(body[cut + 1 :])
        else:
            head += body
        data, at = f.read(_READ_PIECE), 0
        if not data:  # an array of numbers that never closes
            raise ConfigError("basis document ends inside an array")


def _read_document(path: str):
    """The JSON value of the document at path, read in _READ_PIECE pieces.

    A float block, an array of numbers laid out as _json_document writes a
    float array (`\\n  "key": [\\n    ...\\n  ]`), is parsed piece by piece
    by orjson into a read-only float64 array, and a number token found
    nowhere else in the text stands in its place.  json.loads reads the
    rest, a few hundred bytes of basis.json, and gives each such marker as
    the block's _FloatBlock, wherever it stands.  A block is an array value,
    so the document parses as it would with the array in place.  The text
    of a member that only starts like a block, and all of a document in
    another layout, is read by json.loads as it stands.  Each byte is read
    once, or twice where a member that started like a block was not one.
    """
    rest, blocks = bytearray(), []  # the text outside the blocks; (offset, block)
    with open(path, "rb") as f:
        data, pos = b"", 0
        while True:
            start = _BLOCK_START.search(data, pos)
            if start is None:
                piece = f.read(_READ_PIECE)
                # a block start the piece cut off lies in the last bytes
                keep = max(len(data) - _BLOCK_START_MAX, pos) if piece else len(data)
                rest += data[pos:keep]
                if not piece:
                    break
                data, pos = data[keep:] + piece, 0
                continue
            rest += data[pos : start.end() - len(_BLOCK_OPEN)]
            read = f.tell()
            block = _read_block(f, data, start.end())
            if block is None:  # the member's text joins the rest
                rest += _BLOCK_OPEN
                pos = start.end()
                if f.tell() != read:  # read again what the block read on
                    f.seek(read - len(data) + pos)
                    data, pos = b"", 0
                continue
            array, data, pos = block
            array.setflags(write=False)
            blocks.append((len(rest), _FloatBlock(array)))
    marker = b"-0E-0"
    while marker in rest:
        marker += b"0"
    markers = {}
    for i, (offset, block) in reversed(list(enumerate(blocks))):
        token = marker + b"%d" % i
        rest[offset:offset] = token + b" "  # the space ends the token
        markers[token.decode()] = block

    def parse_float(token: str):
        return markers[token] if token in markers else float(token)

    try:
        text = rest.decode("utf-8")
        del rest  # all of a document in another layout
        return json.loads(text, parse_float=parse_float if markers else float)
    except (ValueError, RecursionError) as e:  # JSON, UTF-8, integer digits, depth
        raise ConfigError(f"basis document {path!r} is not valid JSON: {e}") from e


def _document_array(values, what: str, size: int) -> np.ndarray:
    """A float array of `size` finite numbers from a document member: a float
    block, or a list json.loads read."""
    if isinstance(values, _FloatBlock):
        values = values.array
    if not isinstance(values, (list, np.ndarray)) or len(values) != size:
        got = f"{len(values)} entries" if isinstance(values, (list, np.ndarray)) else type(values).__name__
        raise ConfigError(f"{what} must be a list of {size} finite numbers, got {got}")
    array = np.empty(0)
    if isinstance(values, np.ndarray):
        array = values
    elif bool not in map(type, values):  # numpy reads true as 1.0
        try:
            array = np.array(values)
        except ValueError:  # ragged nesting
            pass
    if array.shape == (size,) and array.dtype.kind in "fiu" and np.isfinite(array).all():
        return array.astype(float, copy=False)
    # name the offending entry; an integer beyond 64 bits is read as its float
    return np.array([_config_number(value, f"{what} entry") for value in values])


@single_threaded()
def load_basis(path: str, k: int = 1) -> EigenBasis:
    """Rebuild a basis from its document, reassembling the matrices.

    The document is read by _read_document, in pieces: its float blocks go
    straight into arrays, and neither the text nor a list of its numbers is
    held whole.  On a 1025-element fractional basis.json (25.8 MB), one
    reload in a fresh process took 0.11-0.14 s and raised peak RSS by
    26 MiB, about the 24 MiB of the vectors and the two reassembled
    matrices (5 runs, 2-vCPU VM); a whole-document json.load took
    0.36-0.47 s and 65 MiB.  One probe r = A V x - M V (lambda x), for a
    fixed x, checks every pair against the reassembled matrices in O(n^2).
    It runs on one BLAS thread (blas.py): on the default two-thread pool
    its N^2 products cost over ten times as much, and the woken worker
    spins on into the caller's next operation.

    Raises ConfigError on a document that is not valid UTF-8 JSON, misses or
    mistypes a member, holds an array of the wrong length (n eigenvalues and
    n^2 vector entries for n interior nodes), an entry that is not a finite
    number (true and false are not numbers), or pairs the reassembled
    operator does not have.
    """
    doc = _read_document(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"basis document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported document version {version!r}")
    kd, md = doc.get("kernel"), doc.get("mesh")
    if not isinstance(kd, dict) or not isinstance(md, dict):
        raise ConfigError("basis document needs 'kernel' and 'mesh' objects")
    if kd.get("variant") == "local":
        kernel = Kernel.local()
    elif kd.get("variant") == "fractional":
        s, scale, lambda_K = (_config_number(kd.get(name), f"kernel {name}") for name in ("s", "scale", "lambda_K"))
        kernel = Kernel.fractional(s, scale=scale, lambda_K=lambda_K)
    else:
        raise ConfigError(f"cannot load kernel variant {kd.get('variant')!r}")
    n_elements = md.get("n_elements")
    if not isinstance(n_elements, int) or isinstance(n_elements, bool):
        raise ConfigError(f"mesh n_elements must be an integer, got {n_elements!r}")
    a, b = (_config_number(md.get(name), f"mesh {name}") for name in ("a", "b"))
    mesh = Mesh1D(a=a, b=b, n_elements=n_elements)
    n = mesh.interior_dim
    # the lengths bound n by the document's size before anything is assembled
    lam = _document_array(doc.get("eigenvalues"), "eigenvalues", n)
    V = _document_array(doc.get("vectors"), "vectors", n * n).reshape(n, n)
    lam.setflags(write=False)
    V.setflags(write=False)
    op = assemble(kernel, mesh)
    # r sums the column residuals A v_j - lambda_j M v_j with weights
    # x_j = u_j / (1 + |lambda_j|), so a document whose every column is within
    # 1e-6 (1 + |lambda_j|) has |r| <= 1e-6 sum |u_j|.  The weights leave each
    # column about n times its own tolerance, low and high pairs alike.  An
    # entry near the float limit overflows r to inf or nan, which fails the test
    rng = np.random.default_rng(0)
    u = rng.uniform(1.0, 2.0, n) * rng.choice((-1.0, 1.0), n)
    x = u / (1.0 + np.abs(lam))
    with np.errstate(over="ignore", invalid="ignore"):
        r = op.stiffness @ (V @ x) - op.mass_times(V @ (lam * x))
        consistent = np.linalg.norm(r) <= 1e-6 * float(np.abs(u).sum())
    if not consistent:
        raise ConfigError("document inconsistent with reassembled operator")
    return EigenBasis(operator=op, eigenvalues=lam, vectors=V, k=k)
