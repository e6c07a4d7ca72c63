"""Wave evolution in three dimensions from measure initial velocity.

The solution with zero initial displacement and velocity data f d(mu) is
t times the spherical average of the data at radius t, so everything here
rides on the averaging operator: wave_solution wraps it, the small-time
probe measures how fast u/t approaches the data as t shrinks, and
blowup_probe box-counts super-threshold sets of u across grid refinements
to estimate the dimension of the divergence locus.

Convention: unit propagation speed and a probability-normalized sphere,
so u(x, t) = t * average and u/t tends to the (mollified) data exactly.
The discrete pipeline never produces infinities; blowup is probed through
growth of finite super-level sets, never flagged pointwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .exponents import blowup_dim_fixed_time
from .fitting import FitReport, loglog_fit
from .measures import DiscreteMeasure, lebesgue_box_measure
from .operators import (
    _check_t,
    default_mollify_eps,
    sphere_multiplier,
    spherical_average,
)
from .spectral import ComplexField, SpectralGrid, Spectrum, mollifier_hat

__all__ = [
    "wave_solution",
    "PointwiseReport",
    "pointwise_limit_fit",
    "gaussian_wave_target",
    "sharpness_family",
    "BlowupReport",
    "blowup_probe",
]


def wave_solution(f, mu: DiscreteMeasure, t: float,
                  grid: SpectralGrid) -> ComplexField:
    """Snapshot u(., t) = t * (radius-t spherical average of f d(mu)), a
    float64 space-side field."""
    if grid.dim != 3:
        raise ParameterError(f"wave evolution needs a d=3 grid, got d={grid.dim}")
    u = spherical_average(f, mu, t, grid)
    u.values *= float(t)  # a fresh field, scaled in place
    if not np.all(np.isfinite(u.values)):
        raise ParameterError("wave field contains non-finite values")
    return u


# ---- small-time pointwise limit ----

@dataclass(frozen=True)
class PointwiseReport:
    """Sup-norm distance of u/t from the mollified data, per probe time."""

    times: tuple
    errors: tuple
    fit: FitReport

    @property
    def order(self) -> float:
        return self.fit.slope

    def csv_rows(self):
        rows = ["t,sup_error"]
        rows.extend(f"{t!r},{e!r}" for t, e in zip(self.times, self.errors))
        return rows

    def verdict_json(self):
        return {
            "construction": "small-time-limit",
            "times": list(self.times),
            "sup_errors": list(self.errors),
            "order": self.order,
        }


def pointwise_limit_fit(f, mu: DiscreteMeasure, grid: SpectralGrid,
                        times=(0.2, 0.1, 0.05)) -> PointwiseReport:
    """Convergence order of u(., t)/t toward the data as t shrinks.

    The reference profile is the zero-radius limit of the same pipeline
    (the mollified data), so the measured error isolates the curvature
    term of the sphere average, which is quadratic in t.  One measure
    transform is shared across all probe times.
    """
    if grid.dim != 3:
        raise ParameterError(f"need a d=3 grid, got d={grid.dim}")
    t_arr = tuple(float(t) for t in times)
    if len(t_arr) < 3:
        raise ParameterError("need at least three probe times for an order fit")
    if len(set(t_arr)) != len(t_arr):
        raise ParameterError("probe times must be distinct")
    for t in t_arr:
        _check_t(t, grid)
    eps = default_mollify_eps(grid)
    spec = Spectrum(f, mu, grid)
    target = spec.apply(lambda rho: mollifier_hat(eps * rho)).values
    base = sphere_multiplier(3)
    errors = []
    for t in t_arr:
        sp = spec.apply(lambda rho: base(t * rho) * mollifier_hat(eps * rho))
        errors.append(float(np.max(np.abs(sp.values - target))))
    fit = loglog_fit(t_arr, errors)
    return PointwiseReport(times=t_arr, errors=tuple(errors), fit=fit)


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


# ---- blowup-set probing ----

_SUPPORT_RADIUS = 0.5
_BOX_EPS = (0.125, 0.25, 0.5)
_BOX_HALF_WIDTH = 2.0


def sharpness_family(support_radius: float = _SUPPORT_RADIUS):
    """Refinement-indexed data whose unit-time solution peaks on a sphere.

    Returns (f_family, mu_family, p): the critical radial profile
    r^-2 / log(1/r) on a half-unit ball, clamped at each grid's cell size
    so every refinement resolves one more octave of the singularity, with
    a Lebesgue lattice at the grid pitch, and the boundary exponent p of
    the profile's integrability.
    """
    if not 0.0 < support_radius <= 0.5:
        raise ParameterError(
            f"support radius must lie in (0, 0.5], got {support_radius}")

    def f_family(grid: SpectralGrid):
        floor = grid.spacing

        def f(pts):
            r = np.linalg.norm(np.asarray(pts, dtype=np.float64), axis=-1)
            rc = np.clip(r, floor, support_radius)
            vals = rc ** -2.0 / np.log(1.0 / rc)
            return np.where(r <= support_radius, vals, 0.0)

        return f

    def mu_family(grid: SpectralGrid):
        return lebesgue_box_measure(3, support_radius, grid.n_per_axis // 4)

    return f_family, mu_family, 1.5


@dataclass(frozen=True)
class BlowupReport:
    """Box-counting dimension estimate of a super-threshold set."""

    t: float
    refinements: tuple
    thresholds: tuple
    box_eps: tuple         # absolute box sizes, shared by all refinements
    box_half_width: float
    counts: tuple          # per refinement, one count per box size
    level_dims: tuple      # per-refinement box-dimension fits
    boxdim_estimate: float
    compare: float | None
    family_p: float | None
    inconclusive: bool

    def csv_rows(self):
        rows = ["n,threshold,eps,count,level_dim"]
        for n, tau, row, dim in zip(self.refinements, self.thresholds,
                                    self.counts, self.level_dims):
            for e, c in zip(self.box_eps, row):
                rows.append(f"{n},{tau!r},{e!r},{c},{dim!r}")
        return rows

    def verdict_json(self):
        return {
            "construction": "superlevel-boxdim",
            "t": self.t,
            "refinements": list(self.refinements),
            "thresholds": list(self.thresholds),
            "level_dims": list(self.level_dims),
            "boxdim_estimate": self.boxdim_estimate,
            "compare": self.compare,
            "family_p": self.family_p,
            "inconclusive": self.inconclusive,
        }


def _box_dimension(mask: np.ndarray, sides, spacing: float):
    """Occupied-box counts at the given sides (in cells) and the slope fit."""
    n = mask.shape[0]
    counts = []
    for s in sides:
        m = mask.reshape(n // s, s, n // s, s, n // s, s).any(axis=(1, 3, 5))
        counts.append(int(m.sum()))
    if counts[-1] == 0:
        return tuple(counts), 0.0
    eps = np.array(sides, dtype=float) * spacing
    fit = loglog_fit(1.0 / eps, np.array(counts, dtype=float))
    return tuple(counts), float(fit.slope)


def blowup_probe(f_family, mu, t: float, refinements=(64, 128, 256),
                 thresholds=None, family_p: float | None = None,
                 threshold_fraction: float = 0.95,
                 box_eps=_BOX_EPS) -> BlowupReport:
    """Box-dimension estimate of {u(., t) >= threshold} across refinements.

    f_family maps a grid to data values (so singular profiles can sharpen
    with resolution); mu is a fixed measure or a grid-indexed callable.
    Box sizes are absolute and shared by every refinement: refining the
    grid sharpens the field while the observation scales stay put, so the
    per-refinement estimates can stabilize.  Explicit thresholds must be
    non-decreasing; by default each refinement thresholds at a fixed
    fraction of its own maximum.  Every grid spans [-2, 2]^3.  When the
    last two estimates differ by more than 0.3 the result is flagged
    inconclusive, not failed.
    """
    refs = tuple(int(n) for n in refinements)
    if len(refs) < 2:
        raise ParameterError("need at least two grid refinements")
    if any(b <= a for a, b in zip(refs, refs[1:])):
        raise ParameterError("refinements must be strictly increasing")
    eps_levels = tuple(sorted(float(e) for e in box_eps))
    if len(eps_levels) < 3:
        raise ParameterError("need at least three box sizes for a slope")
    if len(set(eps_levels)) != len(eps_levels):
        raise ParameterError("box sizes must be distinct")
    side_table = []
    for n in refs:
        dx = 2.0 * _BOX_HALF_WIDTH / n
        sides = []
        for e in eps_levels:
            s = e / dx
            if abs(s - round(s)) > 1e-9 or round(s) < 1:
                raise ParameterError(
                    f"box size {e} is not a whole number of grid-{n} cells")
            if n % round(s):
                raise ParameterError(f"box size {e} does not tile grid {n}")
            sides.append(int(round(s)))
        side_table.append(tuple(sides))
    if not 0.0 < threshold_fraction < 1.0:
        raise ParameterError(
            f"threshold_fraction must lie in (0, 1), got {threshold_fraction}")
    tau_given = None
    if thresholds is not None:
        tau_given = tuple(float(x) for x in thresholds)
        if len(tau_given) != len(refs):
            raise ParameterError("one threshold per refinement required")
        if any(b < a for a, b in zip(tau_given, tau_given[1:])):
            raise ParameterError("thresholds must be non-decreasing")

    taus, all_counts, dims = [], [], []
    for r, n in enumerate(refs):
        grid = SpectralGrid(dim=3, n_per_axis=n, box_half_width=_BOX_HALF_WIDTH)
        f = f_family(grid)
        mu_r = mu(grid) if callable(mu) else mu
        u = wave_solution(f, mu_r, t, grid).values
        tau = tau_given[r] if tau_given is not None else (
            threshold_fraction * float(u.max()))
        counts, dim = _box_dimension(u >= tau, side_table[r], grid.spacing)
        taus.append(tau)
        all_counts.append(counts)
        dims.append(dim)

    compare = None if family_p is None else blowup_dim_fixed_time(3, family_p)
    return BlowupReport(
        t=float(t), refinements=refs, thresholds=tuple(taus),
        box_eps=eps_levels, box_half_width=_BOX_HALF_WIDTH,
        counts=tuple(all_counts), level_dims=tuple(dims),
        boxdim_estimate=dims[-1], compare=compare, family_p=family_p,
        inconclusive=bool(abs(dims[-1] - dims[-2]) > 0.3))
