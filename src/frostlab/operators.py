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
from functools import lru_cache
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

# Cephes j0.c (S. L. Moshier, Cephes Math Library 2.8, 2000): for x <= 5,
# J0(x) = (z - DR1)(z - DR2) RP(z) / RQ(z) with z = x^2, DR1 and DR2 the
# squares of the first two zeros; above 5, the Hankel asymptotic form with
# the rational factors PP/PQ and QP/QQ of 25/x^2
_J0_PP = (7.96936729297347051624E-4, 8.28352392107440799803E-2,
          1.23953371646414299388E0, 5.44725003058768775090E0,
          8.74716500199817011941E0, 5.30324038235394892183E0,
          9.99999999999999997821E-1)
_J0_PQ = (9.24408810558863637013E-4, 8.56288474354474431428E-2,
          1.25352743901058953537E0, 5.47097740330417105182E0,
          8.76190883237069594232E0, 5.30605288235394617618E0,
          1.00000000000000000218E0)
_J0_QP = (-1.13663838898469149931E-2, -1.28252718670509318512E0,
          -1.95539544257735972385E1, -9.32060152123768231369E1,
          -1.77681167980488050595E2, -1.47077505154951170175E2,
          -5.14105326766599330220E1, -6.05014350600728481186E0)
_J0_QQ = (6.43178256118178023184E1, 8.56430025976980587198E2,
          3.88240183605401609683E3, 7.24046774195652478189E3,
          5.93072701187316984827E3, 2.06209331660327847417E3,
          2.42005740240291393179E2)
_J0_DR1 = 5.78318596294678452118E0
_J0_DR2 = 3.04712623436620863991E1
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12,
          -2.49248344360967716204E14, 9.70862251047306323952E15)
_J0_RQ = (4.99563147152651017219E2, 1.73785401676374683123E5,
          4.84409658339962045305E7, 1.11855537045356834862E10,
          2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_SQ2OPI = 7.9788456080286535587989E-1  # sqrt(2 / pi)


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Cephes polevl, coef[0] x^N + ... + coef[N] by Horner's rule, in a
    new array; monic (Cephes p1evl) puts a leading coefficient 1 before
    coef."""
    ans = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        ans *= x
        ans += c
    return ans


def _j0(x) -> np.ndarray:
    """Bessel J0, float64: Cephes j0.c's operations in its order, so
    scipy.special.j0's bits (it runs that routine), nan and inf included.
    tests/test_operators.py compares the two bit for bit."""
    x = np.array(x, dtype=np.float64)
    np.negative(x, out=x, where=x < 0)  # not abs: nan keeps its sign bit
    out = np.empty_like(x)
    near = x <= 5.0  # nan takes the asymptotic branch, as in j0.c
    far = ~near
    # x^2 overflows above 1e154 (25/x^2 is then 0), and inf gives nan
    with np.errstate(over="ignore", invalid="ignore"):
        z = x[near]
        tiny = z < 1e-5
        z *= z
        p = (z - _J0_DR1) * (z - _J0_DR2)
        p *= _polevl(z, _J0_RP)
        p /= _polevl(z, _J0_RQ, monic=True)
        p[tiny] = 1.0 - z[tiny] / 4.0
        out[near] = p
        x = x[far]
        q = 25.0 / (x * x)
        p = _polevl(q, _J0_PP)
        p /= _polevl(q, _J0_PQ)
        w = _polevl(q, _J0_QP)
        w /= _polevl(q, _J0_QQ, monic=True)
        w *= 5.0 / x
        xn = x - math.pi / 4.0
        p *= np.cos(xn)
        w *= np.sin(xn)
        p -= w
        p *= _SQ2OPI
        p /= np.sqrt(x)
        out[far] = p
    return out


def sphere_multiplier(dim: int) -> Callable:
    """Transform of the probability measure on the unit sphere, as a radial function.

    In 2-d it is J0(2 pi rho), from _j0, a numpy port of Cephes j0.c
    (Moshier), the routine scipy.special.j0 runs: the same bits without
    loading scipy.special, which
    tests/test_operators.py::test_sphere_multiplier_2d_has_scipy_j0_bits
    checks."""
    if dim == 3:
        return lambda rho: np.sinc(2.0 * np.asarray(rho, dtype=np.float64))
    if dim == 2:
        return lambda rho: _j0(2.0 * math.pi * np.asarray(rho, dtype=np.float64))
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
    return convolve_distribution(_sphere_at(grid.dim, float(t)), f, mu, grid)


# one profile object per key, so that Spectrum's table memo recognises a
# repeated operator: opnorm's witnesses evaluate J0 once, not per witness
@lru_cache(maxsize=8)
def _sphere_at(dim: int, t: float) -> Callable:
    """The sphere multiplier at dilation t."""
    base = sphere_multiplier(dim)
    return lambda rho: base(t * rho)


@lru_cache(maxsize=8)
def _mollified(multiplier: Callable, eps: float) -> Callable:
    """multiplier damped by the Gaussian mollifier at eps."""
    return lambda rho: (np.asarray(multiplier(rho), dtype=np.float64)
                        * mollifier_hat(eps * rho))


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
    riesz_multiplier does.  multiplier must be a fixed function of |xi|:
    the table of the last one applied on a grid is reused (Spectrum).
    """
    eps = default_mollify_eps(grid)
    try:
        profile = _mollified(multiplier, eps)
    except TypeError:  # an unhashable multiplier gets a profile of its own
        profile = _mollified.__wrapped__(multiplier, eps)
    # damping keeps a non-finite value non-finite, and Spectrum rejects it;
    # one profile, so the inverse runs in the spectrum's own memory
    return Spectrum(f, mu, grid)._apply_in_place(profile)


# ---- Riesz row sums ----

_RIESZ_CHUNK = 2 ** 21  # atoms per distance block in riesz_row_sum


def riesz_row_sum(mu: DiscreteMeasure, alpha_mu: float, x,
                  level_cap: int) -> np.ndarray:
    """Per-level terms 2^{m(d-alpha)} mu(shell_m(x)) of a Schur-type row sum.

    Entry m, for m = 0 .. level_cap, is the term of shell m, the atoms at
    distance in (2^-m, 2^{-m+1}] from x.  Atoms closer than the deepest
    shell (including x itself) are dropped, as are distances above 2.
    Streaming over atom chunks keeps memory flat for multi-million-atom
    measures.
    """
    x = np.asarray(x, dtype=np.float64).reshape(mu.dim)
    if level_cap < 1:
        raise ParameterError(f"level_cap must be >= 1, got {level_cap}")
    shell_mass = np.zeros(level_cap + 1)
    chunk = _RIESZ_CHUNK
    for lo in range(0, mu.n_atoms, chunk):
        # a distance that overflows to inf lies above 2 and is dropped
        with np.errstate(over="ignore"):
            diff = mu.atoms[lo:lo + chunk] - x
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = (dist > 0.0) & (dist <= 2.0)
        # band (2^-m, 2^-m+1] holds dist iff m = floor(1 - log2 dist)
        m = np.floor(1.0 - np.log2(dist[keep])).astype(np.int64)
        sel = m <= level_cap
        shell_mass += np.bincount(m[sel],
                                  weights=mu.weights[lo:lo + chunk][keep][sel],
                                  minlength=level_cap + 1)
    return 2.0 ** (np.arange(level_cap + 1) * (mu.dim - alpha_mu)) * shell_mass


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
