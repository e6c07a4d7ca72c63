"""Wave evolution in three dimensions from measure initial velocity.

The solution with zero initial displacement and velocity data f d(mu) is
t times the spherical average of the data at radius t, so everything here
rides on the averaging operator: wave_solution wraps it, the small-time
probe measures how fast u/t approaches the data as t shrinks, and
blowup_probe box-counts super-threshold sets of u across grid refinements
to estimate the dimension of the divergence locus.  The operator is
linear, so the small-time probe forms no reference field: its error u/t
minus the data is one inverse of the error multiplier (sphere minus one,
times the mollifier) per probe time.

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
from .spectral import Field, SpectralGrid, Spectrum, mollifier_hat


def wave_solution(f, mu: DiscreteMeasure, t: float,
                  grid: SpectralGrid) -> Field:
    """Snapshot u(., t) = t * (radius-t spherical average of f d(mu)), a
    float64 space-side field."""
    if grid.dim != 3:
        raise ParameterError(f"wave evolution needs a d=3 grid, got d={grid.dim}")
    u = spherical_average(f, mu, t, grid)
    u.values *= float(t)  # a fresh field, scaled in place
    # a NaN reaches both extremes, -inf the min and +inf the max, and no
    # n^3 mask is made
    if not (np.isfinite(u.values.min()) and np.isfinite(u.values.max())):
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

    The data are taken mollified, the zero-radius limit of the same
    pipeline, so the measured error isolates the curvature term of the
    sphere average, which is quadratic in t.  The averaging operator is
    linear, so u/t minus the mollified data is one radial multiplier,
    (sphere_multiplier(3)(t rho) - 1) * mollifier_hat(eps rho), on the
    transform of f dmu: each probe time's sup error is read off one inverse
    of it, with no reference field and no cancellation between two O(1)
    fields.  One measure transform is shared across all probe times.
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
    base = sphere_multiplier(3)
    errors = []
    for t in t_arr:
        # each error field is reduced in its own memory and dropped before
        # the next inverse
        err = spec.apply(lambda rho: (base(t * rho) - 1.0) * mollifier_hat(eps * rho)).values
        errors.append(float(np.max(np.abs(err, out=err))))
        del err
    fit = loglog_fit(t_arr, errors)
    return PointwiseReport(times=t_arr, errors=tuple(errors), fit=fit)


# ---- blowup-set probing ----

_SUPPORT_RADIUS = 0.5
_BOX_EPS = (0.125, 0.25, 0.5)
_BOX_HALF_WIDTH = 2.0


def sharpness_family():
    """Refinement-indexed data whose unit-time solution peaks on a sphere.

    Returns (f_family, mu_family, p): the critical radial profile
    r^-2 / log(1/r) on the ball of radius 1/2, clamped at each grid's cell
    size so every refinement resolves one more octave of the singularity,
    with a Lebesgue lattice at the grid pitch, and the boundary exponent p
    of the profile's integrability.
    """

    def f_family(grid: SpectralGrid):
        floor = grid.spacing

        def f(pts):
            r = np.linalg.norm(np.asarray(pts, dtype=np.float64), axis=-1)
            rc = np.clip(r, floor, _SUPPORT_RADIUS)
            vals = rc ** -2.0 / np.log(1.0 / rc)
            return np.where(r <= _SUPPORT_RADIUS, vals, 0.0)

        return f

    def mu_family(grid: SpectralGrid):
        return lebesgue_box_measure(3, _SUPPORT_RADIUS, grid.n_per_axis // 4)

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
    compare: float
    family_p: float
    inconclusive: bool

    def csv_rows(self):
        rows = [("n", "threshold", "eps", "count", "level_dim")]
        for n, tau, row, dim in zip(self.refinements, self.thresholds,
                                    self.counts, self.level_dims):
            rows.extend((n, tau, e, c, dim) for e, c in zip(self.box_eps, row))
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


def _or_blocks(mask: np.ndarray, s: int) -> np.ndarray:
    """OR over the s x s x s blocks of a cubic mask, one axis at a time: the
    first two stages OR whole slabs and rows, so only the last, on a mask
    already s^2 times smaller, reduces along the contiguous axis."""
    k, n = mask.shape[0] // s, mask.shape[0]
    mask = mask.reshape(k, s, n * n).any(axis=1)
    mask = mask.reshape(k, k, s, n).any(axis=2)
    return mask.reshape(k, k, k, s).any(axis=3)


def _box_dimension(mask: np.ndarray, sides, spacing: float):
    """Occupied-box counts at the given sides (in cells) and the slope fit.

    Each side is a multiple of the one before it (the box sizes double), so a
    box is occupied when any of its sub-boxes at the previous side is: only the
    finest count reads the full mask.
    """
    counts, prev = [], 1
    for s in sides:
        mask = _or_blocks(mask, s // prev)
        prev = s
        counts.append(int(np.count_nonzero(mask)))
    if counts[-1] == 0:
        return tuple(counts), 0.0
    eps = np.array(sides, dtype=float) * spacing
    fit = loglog_fit(1.0 / eps, np.array(counts, dtype=float))
    return tuple(counts), float(fit.slope)


def blowup_probe(f_family, mu_family, t: float, family_p: float,
                 refinements=(64, 128, 256),
                 threshold_fraction: float = 0.95) -> BlowupReport:
    """Box-dimension estimate of {u(., t) >= threshold} across refinements.

    f_family and mu_family map a grid to data values and to the measure
    (so singular profiles can sharpen with resolution), as the pair
    sharpness_family returns; family_p is the family's boundary exponent,
    whose fixed-time blowup dimension is reported as the comparison bound.
    The box sizes 1/8, 1/4 and 1/2 are absolute and shared by every
    refinement: refining the grid sharpens the field while the observation
    scales stay put, so the per-refinement estimates can stabilize.  Each
    refinement thresholds at a fixed fraction of its own maximum.  Every
    grid spans [-2, 2]^3.  When the last two estimates differ by more than
    0.3 the result is flagged inconclusive, not failed.
    """
    refs = tuple(int(n) for n in refinements)
    if len(refs) < 2:
        raise ParameterError("need at least two grid refinements")
    if any(b <= a for a, b in zip(refs, refs[1:])):
        raise ParameterError("refinements must be strictly increasing")
    # box sides in cells; n / side is 32, 16 or 8, so whole sides tile
    side_table = []
    for n in refs:
        sides = tuple(e * n / (2.0 * _BOX_HALF_WIDTH) for e in _BOX_EPS)
        if not all(s >= 1 and s == int(s) for s in sides):
            raise ParameterError(f"box sizes {_BOX_EPS} are not whole"
                                 f" numbers of grid-{n} cells")
        side_table.append(tuple(int(s) for s in sides))
    if not 0.0 < threshold_fraction < 1.0:
        raise ParameterError(
            f"threshold_fraction must lie in (0, 1), got {threshold_fraction}")

    taus, all_counts, dims = [], [], []
    for sides, n in zip(side_table, refs):
        grid = SpectralGrid(dim=3, n_per_axis=n, box_half_width=_BOX_HALF_WIDTH)
        u = wave_solution(f_family(grid), mu_family(grid), t, grid).values
        tau = threshold_fraction * float(u.max())
        counts, dim = _box_dimension(u >= tau, sides, grid.spacing)
        del u  # the next refinement's transform runs without this field
        taus.append(tau)
        all_counts.append(counts)
        dims.append(dim)

    return BlowupReport(
        t=float(t), refinements=refs, thresholds=tuple(taus),
        box_eps=_BOX_EPS, box_half_width=_BOX_HALF_WIDTH,
        counts=tuple(all_counts), level_dims=tuple(dims),
        boxdim_estimate=dims[-1],
        compare=blowup_dim_fixed_time(3, family_p), family_p=family_p,
        inconclusive=bool(abs(dims[-1] - dims[-2]) > 0.3))
