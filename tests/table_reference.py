"""Reference table of eigenfunction values at the Simpson sample points.

The package applies its sample rule through the P1 hat interpolation and
never forms this 5n x N table.  Tests rebuild it here, straight from the
definition (each sample point interpolates its element's two end nodes),
and compare the package's products with the table's.  The two sum in
different orders, so they agree to rounding: RTOL bounds the largest
difference relative to the largest entry of the reference.
"""

import numpy as np

RTOL = 1e-13

_OFFSETS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def sample_table(basis) -> np.ndarray:
    """Values of every eigenfunction at every sample point (5n x N)."""
    mesh = basis.operator.mesh
    n, dim = mesh.n_elements, mesh.interior_dim
    full = np.zeros((n + 1, dim))
    full[1:-1] = basis.vectors
    xi = _OFFSETS[None, :, None]
    return ((1.0 - xi) * full[:-1, None, :] + xi * full[1:, None, :]).reshape(-1, dim)


def assert_close(got, ref, rtol=RTOL):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(got - ref))) <= rtol * scale
