"""Oracles that only the tests use.

Each is an independent route to a number the library computes another
way: a dense matrix operator between two atom sets, and the closed-form
3-d wave from Gaussian data.  The library's
public surface holds only what a CLI run, a criterion or the benchmark
calls (tests/test_api.py), so these live here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from frostlab.errors import ParameterError
from frostlab.measures import DiscreteMeasure
from frostlab.operators import _check_t, default_mollify_eps
from frostlab.spectral import SpectralGrid


# ---- dense operators ----

def matrix_operator_handle(matrix: np.ndarray, mu: DiscreteMeasure,
                           nu: DiscreteMeasure) -> Callable:
    """The operator Tf(y_j) = sum_i M[j,i] w_i f(x_i) on atom values."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (nu.n_atoms, mu.n_atoms):
        raise ParameterError(
            f"matrix shape {matrix.shape} does not map {mu.n_atoms} mu atoms "
            f"to {nu.n_atoms} nu atoms")
    return lambda f: matrix @ (mu.weights * np.asarray(f))


def kernel_matrix_handle(kernel: Callable, mu: DiscreteMeasure,
                         nu: DiscreteMeasure) -> Callable:
    """Dense radial-kernel operator between two atom sets."""
    from scipy.spatial.distance import cdist

    dist = cdist(nu.atoms, mu.atoms)
    return matrix_operator_handle(kernel(dist), mu, nu)


# ---- closed-form wave ----

def gaussian_wave_target(a: float, t: float, grid: SpectralGrid) -> np.ndarray:
    """Closed-form u(., t) for data exp(-|x|^2 / (2 a^2)) against Lebesgue.

    The Gaussian mollifier widens the data to b^2 = a^2 + eps^2 and scales
    it by (a^2/b^2)^(3/2); the radius-t spherical mean of a centered
    Gaussian has an explicit radial profile, stable in difference form.
    """
    if grid.dim != 3:
        raise ParameterError(f"need a d=3 grid, got d={grid.dim}")
    if a <= 0:
        raise ParameterError(f"data width must be positive, got {a}")
    _check_t(t, grid)
    eps = default_mollify_eps(grid)
    b2 = a * a + eps * eps
    axis = grid.space_axis()
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    r = np.sqrt(x * x + y * y + z * z)
    amp = (a * a / b2) ** 1.5
    rt = r * t / b2
    small = rt < 1e-6
    rs = np.where(small, 1.0, r)
    mean = (b2 / (2.0 * rs * t)) * (
        np.exp(-((rs - t) ** 2) / (2.0 * b2))
        - np.exp(-((rs + t) ** 2) / (2.0 * b2)))
    lim = np.exp(-(r * r + t * t) / (2.0 * b2)) * (1.0 + rt * rt / 6.0)
    return t * amp * np.where(small, lim, mean)
