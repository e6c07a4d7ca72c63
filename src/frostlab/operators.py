"""Convolution-type operators acting on weighted measures.

Spherical averages, the [1,2]-range maximal operator, dyadic low-pass
smoothing, T_lambda convolution with a radial multiplier, and Riesz-kernel
row sums.  Every operator has a fast frequency-side path through
:class:`frostlab.spectral.Spectrum`; the spherical average additionally
ships a direct quadrature evaluator used as a cross-check oracle.

Normalization: all sphere multipliers belong to probability measures on the
sphere (value 1 at the origin), so constants here are comparable across
dimensions only through exponents, not prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError, ResourceError
from .measures import DiscreteMeasure, _sphere_area, _unit_ball_volume
from .spectral import (
    Field,
    SpectralGrid,
    Spectrum,
    _atom_values,
    _check_in_box,
    lowpass_phi_hat,
    mollifier_hat,
)


# ---- radial multipliers ----

def sphere_multiplier(dim: int) -> Callable:
    """Transform of the probability measure on the unit sphere, as a radial function."""
    if dim == 3:
        return lambda rho: np.sinc(2.0 * np.asarray(rho, dtype=np.float64))
    if dim == 2:
        from scipy.special import j0

        return lambda rho: j0(2.0 * math.pi * np.asarray(rho, dtype=np.float64))
    raise ParameterError(f"sphere multiplier needs dim 2 or 3, got {dim}")


def sphere_spatial_kernel(dim: int, t: float, eps: float, r) -> np.ndarray:
    """Gaussian-mollified kernel of the radius-t sphere, evaluated at radii r.

    Closed forms; stable for r*t >> eps^2 because only nonpositive exponents
    appear.  dim=2 routes the Bessel growth through i0e.
    """
    r = np.asarray(r, dtype=np.float64)
    e2 = eps * eps
    if dim == 3:
        amp = (2.0 * math.pi * e2) ** -1.5
        x = r * t / e2
        small = x < 1e-4
        rs = np.where(small, 1.0, r)
        full = amp * (e2 / (2.0 * rs * t)) * (
            np.exp(-((rs - t) ** 2) / (2.0 * e2))
            - np.exp(-((rs + t) ** 2) / (2.0 * e2)))
        lim = amp * np.exp(-(r * r + t * t) / (2.0 * e2)) * (1.0 + x * x / 6.0)
        return np.where(small, lim, full)
    if dim == 2:
        from scipy.special import i0e

        amp = 1.0 / (2.0 * math.pi * e2)
        return amp * np.exp(-((r - t) ** 2) / (2.0 * e2)) * i0e(r * t / e2)
    raise ParameterError(f"sphere kernel needs dim 2 or 3, got {dim}")


def riesz_multiplier(grid: SpectralGrid, alpha: float) -> Callable:
    """|xi|^-alpha, 0 < alpha < dim, with the origin cell given its mean.

    The mean over the frequency cell at the origin is computed exactly on
    the ball of equal volume; alpha < dim keeps the singularity locally
    integrable, so it is finite.
    """
    d = grid.dim
    if not (0.0 < alpha < d):
        raise ParameterError(
            f"riesz exponent must satisfy 0 < alpha < dim, got alpha={alpha} dim={d}")
    cell = grid.freq_step ** d
    r_eq = (cell / _unit_ball_volume(d)) ** (1.0 / d)
    dc = _sphere_area(d) * r_eq ** (d - alpha) / ((d - alpha) * cell)

    def mult(rho):
        rho = np.asarray(rho, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return np.where(rho > 0.0, rho ** -alpha, dc)

    return mult


def default_mollify_eps(grid: SpectralGrid) -> float:
    """One frequency-band width of smoothing: eps = 2 / freq_max."""
    return 2.0 / grid.freq_max


# ---- spherical averages ----

# the quadrature oracle's blocks: grid points (a multiple of 8 rows keeps
# each row's BLAS sum, so its bits) by atoms, a few MB at any grid size
_QUADRATURE_POINTS = 2**15
_QUADRATURE_CHUNK = 32


def _check_t(t: float, grid: SpectralGrid) -> None:
    if not t > 0:
        raise ParameterError(f"sphere radius must be positive, got {t}")
    if t > grid.box_half_width / 2.0:
        raise DomainError(
            f"sphere radius {t} exceeds box_half_width/2 = "
            f"{grid.box_half_width / 2.0}; wrap-around would contaminate the average")


def spherical_average(f, mu: DiscreteMeasure, t: float,
                      grid: SpectralGrid) -> Field:
    """Average of f d(mu) over the radius-t sphere around each grid point.

    T_lambda with lambda the probability measure on the radius-t sphere:
    transform of the weighted measure, damped by the sphere multiplier at
    dilation t and a Gaussian mollifier, inverted to the space side, in
    float64.
    """
    _check_t(t, grid)
    base = sphere_multiplier(grid.dim)
    return convolve_distribution(lambda rho: base(t * rho), f, mu, grid)


def quadrature_spherical_average(f, mu: DiscreteMeasure, t: float,
                                 grid: SpectralGrid) -> Field:
    """Direct-sum oracle for spherical_average: sum_i f_i w_i K_t(|x - x_i|).

    O(n_grid * n_atoms); intended for cross-checks on modest grids.
    """
    from scipy.spatial.distance import cdist

    _check_t(t, grid)
    _check_in_box(mu, grid)
    eps = default_mollify_eps(grid)
    coeffs = _atom_values(f, mu) * mu.weights
    mesh = np.meshgrid(*[grid.space_axis()] * grid.dim, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, grid.dim)
    out = np.zeros(pts.shape[0])
    chunk = _QUADRATURE_CHUNK
    for p0 in range(0, pts.shape[0], _QUADRATURE_POINTS):
        block = slice(p0, p0 + _QUADRATURE_POINTS)
        for lo in range(0, mu.n_atoms, chunk):
            dist = cdist(pts[block], mu.atoms[lo:lo + chunk])
            out[block] += (sphere_spatial_kernel(grid.dim, t, eps, dist)
                           @ coeffs[lo:lo + chunk])
    return Field(grid, out.reshape((grid.n_per_axis,) * grid.dim), rep="space")


_MAX_T_GRID_N = 1024


def default_t_grid(n: int) -> np.ndarray:
    """Geometric grid 2^(j/n), j = 0..n, covering [1,2]; nested across n | m.

    Each radius costs the maximal function one inverse transform, so n is
    capped at _MAX_T_GRID_N.
    """
    if n < 1:
        raise ParameterError(f"need at least one interval, got n={n}")
    if n > _MAX_T_GRID_N:
        raise ResourceError(f"t-grid n={n} exceeds the cap {_MAX_T_GRID_N}")
    return 2.0 ** (np.arange(n + 1) / n)


def maximal_function(f, mu: DiscreteMeasure, t_grid,
                     grid: SpectralGrid) -> Field:
    """Pointwise max of |spherical average| over a sorted t-grid inside [1,2].

    One measure transform is shared across all radii; each radius costs one
    inverse transform.  Refining the t-grid can only increase the output,
    a real (float64) field.
    """
    t_arr = np.asarray(t_grid, dtype=np.float64)
    if t_arr.ndim != 1 or t_arr.size == 0:
        raise ParameterError("t_grid must be a nonempty 1-d list of radii")
    if np.any(np.diff(t_arr) < 0):
        raise ParameterError("t_grid must be sorted ascending")
    outside = t_arr[~((1.0 <= t_arr) & (t_arr <= 2.0))]
    if outside.size:
        raise ParameterError(f"t_grid must lie in [1, 2], got {outside[0]}")
    _check_t(float(t_arr[-1]), grid)
    eps = default_mollify_eps(grid)
    spec = Spectrum(f, mu, grid)
    base = sphere_multiplier(grid.dim)
    best = None
    for t in t_arr:
        # each apply returns a fresh field, reduced in its own memory
        mag = spec.apply(lambda rho: base(t * rho) * mollifier_hat(eps * rho)).values
        np.abs(mag, out=mag)
        best = mag if best is None else np.maximum(best, mag, out=best)
    return Field(grid, best, rep="space")


# ---- dyadic low-pass and T_lambda convolution ----

def dyadic_operator(f, mu: DiscreteMeasure, j: int, grid: SpectralGrid) -> Field:
    """Low-pass smoothing of f d(mu) at scale 2^-j via multiplier phi_hat(2^-j xi)."""
    if 2.0 ** j > grid.freq_max / 4.0:
        raise DomainError(
            f"dyadic scale 2^{j} exceeds freq_max/4 = {grid.freq_max / 4.0}; "
            "the pass band would alias")
    return Spectrum(f, mu, grid)._apply_in_place(
        lambda rho: lowpass_phi_hat(2.0 ** (-j) * rho))


def convolve_distribution(multiplier: Callable, f, mu: DiscreteMeasure,
                          grid: SpectralGrid) -> Field:
    """T_lambda f = lambda * (f d(mu)) for lambda with real radial transform.

    multiplier maps |xi| arrays to the transform of lambda; it is damped by
    the Gaussian mollifier at one band, eps = 2/freq_max.
    A non-finite multiplier value anywhere on the grid is a configuration
    error: singular multipliers carry their own finite origin value, as
    riesz_multiplier does.
    """
    eps = default_mollify_eps(grid)
    # damping keeps a non-finite value non-finite, and Spectrum rejects it;
    # one profile, so the inverse runs in the spectrum's own memory
    return Spectrum(f, mu, grid)._apply_in_place(
        lambda rho: np.asarray(multiplier(rho), dtype=np.float64)
        * mollifier_hat(eps * rho))


# ---- Riesz row sums ----

_RIESZ_CHUNK = 2 ** 21  # atoms per distance block in riesz_row_sum


@dataclass(frozen=True)
class RieszRowReport:
    """Dyadic-shell decomposition of a Riesz row sum around one point."""

    total: float
    levels: np.ndarray         # shell indices m (distance band [2^-m, 2^-m+1])
    contributions: np.ndarray  # 2^{m(d-alpha)} * shell mass per level
    alpha: float
    x: np.ndarray


def riesz_row_sum(mu: DiscreteMeasure, alpha_mu: float, x,
                  level_cap: int) -> RieszRowReport:
    """Schur-type row sum sum_m 2^{m(d-alpha)} mu(shell_m(x)) over dyadic shells.

    Shell m collects atoms at distance in (2^-m, 2^{-m+1}]; atoms closer than
    the deepest shell (including x itself) are dropped, as are distances
    above 2.  Streaming over atom chunks keeps memory flat for
    multi-million-atom measures.
    """
    x = np.asarray(x, dtype=np.float64).reshape(mu.dim)
    if level_cap < 1:
        raise ParameterError(f"level_cap must be >= 1, got {level_cap}")
    shell_mass = np.zeros(level_cap + 1)
    chunk = _RIESZ_CHUNK
    for lo in range(0, mu.n_atoms, chunk):
        diff = mu.atoms[lo:lo + chunk] - x
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = dist > 0.0
        # band (2^-m, 2^-m+1] holds dist iff m = floor(1 - log2 dist)
        m = np.floor(1.0 - np.log2(dist[keep])).astype(np.int64)
        sel = (m >= 0) & (m <= level_cap)
        shell_mass += np.bincount(m[sel],
                                  weights=mu.weights[lo:lo + chunk][keep][sel],
                                  minlength=level_cap + 1)
    levels = np.arange(level_cap + 1)
    contributions = 2.0 ** (levels * (mu.dim - alpha_mu)) * shell_mass
    return RieszRowReport(total=float(contributions.sum()), levels=levels,
                          contributions=contributions, alpha=float(alpha_mu), x=x)


# ---- small-scale L2 profile ----

def sphere_l2_profile(f, mu: DiscreteMeasure, grid: SpectralGrid,
                      j_values) -> np.ndarray:
    """L2(R^d) norms of the radius-2^-j spherical average of f d(mu).

    Pure frequency-side quadrature: sqrt of sum |fmu_hat|^2 sigma_hat(2^-j xi)^2
    times the frequency cell volume.  No mollifier, so the decaying tail of
    sigma_hat is kept intact and growth exponents are unbiased.
    """
    j_arr = [float(j) for j in np.atleast_1d(j_values)]
    if not all(j.is_integer() for j in j_arr):
        raise ParameterError(f"scales j must be integers, got {j_values}")
    spec = Spectrum(f, mu, grid)
    base = sphere_multiplier(grid.dim)
    return np.array([math.sqrt(spec.energy(lambda rho: base(2.0 ** (-j) * rho) ** 2))
                     for j in j_arr])
