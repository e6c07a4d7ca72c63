"""Discrete approximations of fractal (Frostman-type) measures.

A measure is a finite list of weighted atoms in R^d.  Constructors cover the
standard zoo: Cantor sets and their products, radial power densities on the
unit ball, uniform sphere shells, Lebesgue boxes, and seeded random clouds.
Mass statistics (ball masses, regularity fits, energy integrals, annulus and
chain masses) operate on any measure uniformly.

Conventions
-----------
* Cantor atoms sit at the left endpoint of each surviving interval and carry
  weight 2^-depth; closed balls include boundary ties.
* Grid-backed measures (radial_power, lebesgue_box) place atoms on the nodes
  j*h including the origin, so they align exactly with spectral-grid lattices
  of compatible pitch.
* All randomness is seeded; identical inputs give bit-identical measures.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ParameterError, ResourceError
from .fitting import loglog_fit

_MEASURE_MAGIC = b"FMEAS001"

# pair-scan row blocks hold at most this many float64 distances (4 MB)
_PAIR_BLOCK = 2**19
_MAX_ENERGY_ATOMS = 100_000
_MAX_ATOMS = 2**25
# atom coordinates: the atom cap in three dimensions, 768 MiB of float64;
# only a product of measures can pass the atom cap and still exceed it
_MAX_COORDS = 3 * _MAX_ATOMS


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atomic measure in R^dim.

    Attributes
    ----------
    dim : ambient dimension
    atoms : (n, dim) float64 positions
    weights : (n,) float64 nonnegative masses
    total_mass : sum of weights
    nominal_s : construction-time regularity exponent, or None
    construction : tag ("cantor" | "product" | "radial_power" | "sphere" |
                   "lebesgue_box" | "custom")
    box_lo, box_hi : declared bounding box (per-axis)
    resolution : finest reliable spatial scale, 0.0 if unknown
    """

    dim: int
    atoms: np.ndarray
    weights: np.ndarray
    total_mass: float
    nominal_s: float | None
    construction: str
    box_lo: np.ndarray
    box_hi: np.ndarray
    resolution: float

    def __post_init__(self):
        if self.atoms.ndim != 2 or self.atoms.shape[1] != self.dim:
            raise ParameterError("atoms must have shape (n, dim)")
        if self.weights.shape != (self.atoms.shape[0],):
            raise ParameterError("weights must have shape (n,)")
        if self.atoms.shape[0] == 0:
            raise ParameterError("measure needs at least one atom")
        if not np.all(np.isfinite(self.atoms)) or not np.all(np.isfinite(self.weights)):
            raise ParameterError("atoms and weights must be finite")
        if np.any(self.weights < 0):
            raise ParameterError("weights must be nonnegative")
        if abs(self.total_mass - float(self.weights.sum())) > 1e-12 * max(1.0, self.total_mass):
            raise ParameterError("total_mass inconsistent with weights")
        eps = 1e-12
        if np.any(self.atoms < self.box_lo - eps) or np.any(self.atoms > self.box_hi + eps):
            raise ParameterError("atoms outside the declared bounding box")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def support_diameter(self) -> float:
        # atoms near the float limit overflow the diameter to inf, which
        # callers check for, so the overflow is no warning
        with np.errstate(over="ignore"):
            span = self.atoms.max(axis=0) - self.atoms.min(axis=0)
            return float(np.linalg.norm(span))


def _finish(atoms, weights, *, nominal_s, construction, box_lo, box_hi, resolution):
    atoms = np.ascontiguousarray(atoms, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    return DiscreteMeasure(
        dim=atoms.shape[1],
        atoms=atoms,
        weights=weights,
        total_mass=float(weights.sum()),
        nominal_s=nominal_s,
        construction=construction,
        box_lo=np.asarray(box_lo, dtype=np.float64),
        box_hi=np.asarray(box_hi, dtype=np.float64),
        resolution=float(resolution),
    )


def measure_from_atoms(atoms, weights, nominal_s=None, construction="custom",
                       resolution=0.0) -> DiscreteMeasure:
    """Wrap raw arrays as a measure; bounding box is the atom hull."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    return _finish(atoms, weights, nominal_s=nominal_s, construction=construction,
                   box_lo=atoms.min(axis=0), box_hi=atoms.max(axis=0),
                   resolution=resolution)


# ---- constructors ----

def _check_atom_count(count: int, what: str) -> None:
    """Refuse a measure above the atom cap before any array is allocated."""
    if count > _MAX_ATOMS:
        raise ResourceError(f"{what} would have {count} atoms (cap {_MAX_ATOMS})")


def _node_lattice(d: int, n: int, h: float) -> np.ndarray:
    """The (n + 1)^d nodes j*h, |j_i| <= n/2, as rows in C order of j."""
    _check_atom_count((n + 1) ** d, "lattice")
    half = n // 2
    axis = np.arange(-half, half + 1) * h
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def cantor_measure(ratio: float, depth: int) -> DiscreteMeasure:
    """Self-similar Cantor measure on [0,1] with two branches of the given ratio.

    Atoms at the left endpoints of the depth-level intervals, weight 2^-depth
    each.  ratio=1/2 degenerates to the dyadic grid on [0,1].  The similarity
    dimension log 2 / log(1/ratio) is recorded as nominal_s.
    """
    if not (0.0 < ratio <= 0.5):
        raise ParameterError(f"ratio must be in (0, 1/2], got {ratio}")
    if not (1 <= depth <= 24):
        raise ParameterError(f"depth must be in [1, 24], got {depth}")
    left = np.array([0.0])
    for k in range(depth):
        step = (1.0 - ratio) * ratio**k
        left = np.concatenate([left, left + step])
    left.sort(kind="stable")
    weights = np.full(left.size, 2.0**-depth)
    return _finish(left[:, None], weights,
                   nominal_s=math.log(2.0) / math.log(1.0 / ratio),
                   construction="cantor", box_lo=[0.0], box_hi=[1.0],
                   resolution=ratio**depth)


def product_measure(factors) -> DiscreteMeasure:
    """Tensor product of measures; atom coordinates concatenate, weights multiply."""
    factors = list(factors)
    if not factors:
        raise ParameterError("product of zero factors")
    if len(factors) == 1:
        return factors[0]
    count = math.prod(f.n_atoms for f in factors)
    _check_atom_count(count, "product")
    dim = sum(f.dim for f in factors)
    if count * dim > _MAX_COORDS:
        raise ResourceError(f"product would have {count} atoms in {dim} dimensions,"
                            f" {count * dim} coordinates (cap {_MAX_COORDS})")

    atoms = factors[0].atoms
    weights = factors[0].weights
    for f in factors[1:]:
        n_a, n_b = atoms.shape[0], f.n_atoms
        atoms = np.concatenate(
            [np.repeat(atoms, n_b, axis=0), np.tile(f.atoms, (n_a, 1))], axis=1)
        weights = (weights[:, None] * f.weights[None, :]).ravel()

    s_parts = [f.nominal_s for f in factors]
    nominal = sum(s_parts) if all(s is not None for s in s_parts) else None
    return _finish(
        atoms, weights, nominal_s=nominal, construction="product",
        box_lo=np.concatenate([f.box_lo for f in factors]),
        box_hi=np.concatenate([f.box_hi for f in factors]),
        resolution=min(f.resolution for f in factors))


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _sphere_area(d: int) -> float:
    # surface area of the unit sphere in R^d
    return d * _unit_ball_volume(d)


def _origin_cell_mass(d: int, s: float, log_u: float | None, h: float) -> float:
    """Exact mass of the density over the equal-volume ball of the origin cell."""
    r0 = h / _unit_ball_volume(d) ** (1.0 / d)
    area = _sphere_area(d)
    if log_u is None:
        return area * r0**s / s
    if s == 0.0:
        return area * math.log(1.0 / r0) ** (1.0 - log_u) / (log_u - 1.0)
    # int_0^r0 rho^(s-1) log(1/rho)^-u drho via rho = r0 * tau^(1/s)
    nodes, gl_w = np.polynomial.legendre.leggauss(64)
    tau = 0.5 * (nodes + 1.0)
    logterm = np.log(1.0 / (r0 * tau ** (1.0 / s)))
    vals = logterm**-log_u
    return area * (r0**s / s) * float(np.sum(gl_w * 0.5 * vals))


def radial_power_measure(d: int, s: float, grid_n: int,
                         log_u: float | None = None) -> DiscreteMeasure:
    """Measure with density |x|^(s-d), optionally damped by log(1/|x|)^-u.

    Sampled on the nodes j*h of a uniform grid over the unit ball (half ball
    when the log factor is present: the log density blows up at |x|=1).  The
    node at the origin carries the exact analytic mass of its cell's
    equal-volume ball; every other node carries density * h^d.
    """
    if d not in (1, 2, 3):
        raise ParameterError(f"d must be 1, 2 or 3, got {d}")
    if not (0.0 <= s <= d):
        raise ParameterError(f"s must be in [0, {d}], got {s}")
    if s == 0.0 and (log_u is None or log_u <= 1.0):
        raise ParameterError("s=0 requires log_u > 1 for finite mass")
    if log_u is not None and log_u <= 1.0:
        raise ParameterError(f"log_u must exceed 1, got {log_u}")
    if not (2 <= grid_n <= 1024) or grid_n % 2:
        raise ParameterError(f"grid_n must be even in [2, 1024], got {grid_n}")

    radius = 0.5 if log_u is not None else 1.0
    h = 2.0 / grid_n
    pts = _node_lattice(d, grid_n, h)
    r = np.linalg.norm(pts, axis=1)
    keep = r <= radius
    pts, r = pts[keep], r[keep]

    weights = np.zeros(r.size)
    off = r > 0
    dens = r[off] ** (s - d)
    if log_u is not None:
        dens = dens * np.log(1.0 / r[off]) ** -log_u
    weights[off] = dens * h**d
    weights[~off] = _origin_cell_mass(d, s, log_u, h)
    return _finish(pts, weights, nominal_s=s, construction="radial_power",
                   box_lo=[-radius] * d, box_hi=[radius] * d, resolution=h)


def sphere_measure(d: int, t: float, n_points: int) -> DiscreteMeasure:
    """Uniform probability measure on the sphere of radius t.

    d=2: equispaced points on the circle.  d=3: Fibonacci lattice.  Weights 1/n.
    """
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d}")
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    if n_points < 64:
        raise ParameterError(f"n_points must be at least 64, got {n_points}")
    _check_atom_count(n_points, "sphere")
    if d == 2:
        theta = 2.0 * np.pi * np.arange(n_points) / n_points
        pts = t * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        res = t * 2.0 * np.pi / n_points
    else:
        i = np.arange(n_points)
        z = 1.0 - (2.0 * i + 1.0) / n_points
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = t * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        res = t * math.sqrt(4.0 * np.pi / n_points)
    weights = np.full(n_points, 1.0 / n_points)
    return _finish(pts, weights, nominal_s=float(d - 1), construction="sphere",
                   box_lo=[-t] * d, box_hi=[t] * d, resolution=res)


def lebesgue_box_measure(d: int, half_width: float, n_cells: int) -> DiscreteMeasure:
    """Unit-density Lebesgue measure on [-a, a]^d, trapezoid-sampled on nodes j*h.

    Total mass is exactly (2a)^d.  Node pitch h = 2a/n_cells; boundary nodes
    get halved weight per boundary axis.
    """
    if d not in (1, 2, 3):
        raise ParameterError(f"d must be 1, 2 or 3, got {d}")
    if half_width <= 0:
        raise ParameterError(f"half_width must be positive, got {half_width}")
    if not (2 <= n_cells <= 1024) or n_cells % 2:
        raise ParameterError(f"n_cells must be even in [2, 1024], got {n_cells}")
    h = 2.0 * half_width / n_cells
    pts = _node_lattice(d, n_cells, h)
    w1 = np.ones(n_cells + 1)
    w1[0] = w1[-1] = 0.5
    wgrids = np.meshgrid(*([w1] * d), indexing="ij")
    weights = h**d * np.prod(np.stack([w.ravel() for w in wgrids]), axis=0)
    return _finish(pts, weights, nominal_s=float(d), construction="lebesgue_box",
                   box_lo=[-half_width] * d, box_hi=[half_width] * d, resolution=h)


def random_ball_measure(d: int, n_atoms: int, seed: int,
                        radius: float = 1.0) -> DiscreteMeasure:
    """Equal-weight atoms drawn uniformly from the ball of the given radius.

    Monte-Carlo stand-in for Lebesgue measure when lattice artifacts would
    pollute pair statistics (annulus masses, energies).
    """
    if d not in (1, 2, 3):
        raise ParameterError(f"d must be 1, 2 or 3, got {d}")
    if n_atoms < 1:
        raise ParameterError("n_atoms must be positive")
    _check_atom_count(n_atoms, "random ball")
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_atoms, d))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    rad = radius * rng.random(n_atoms) ** (1.0 / d)
    pts = normals * rad[:, None]
    weights = np.full(n_atoms, 1.0 / n_atoms)
    return _finish(pts, weights, nominal_s=float(d), construction="custom",
                   box_lo=[-radius] * d, box_hi=[radius] * d, resolution=0.0)


# ---- mass statistics ----

def ball_mass(mu: DiscreteMeasure, x, r: float) -> float:
    """Measure of the closed ball B(x, r); boundary ties are included."""
    if r < 0:
        raise ParameterError(f"radius must be nonnegative, got {r}")
    x = np.asarray(x, dtype=np.float64).reshape(mu.dim)
    total = 0.0
    n = mu.n_atoms
    step = max(1, int(4_000_000 // max(mu.dim, 1)))
    for i0 in range(0, n, step):
        d = np.linalg.norm(mu.atoms[i0:i0 + step] - x, axis=1)
        total += float(mu.weights[i0:i0 + step][d <= r].sum())
    return total


@dataclass(frozen=True)
class FrostmanReport:
    """Result of fitting mu(B(x,r)) ~ C r^s over probe centers and dyadic radii."""

    fitted_s: float
    constant: float
    lower_regular: bool
    residual: float
    radii: np.ndarray
    max_masses: np.ndarray
    min_masses: np.ndarray


def frostman_fit(mu: DiscreteMeasure, n_probes: int = 256,
                 seed: int = 0) -> FrostmanReport:
    """Estimate the Frostman exponent from ball masses at probe atoms.

    Probes are sampled from the atoms (seeded); radii are geometric with
    ratio 2, from a quarter of the support diameter down to the atomic
    resolution or 2^-8 of the top radius, whichever is larger.  The upper
    envelope (max mass over probes) is fitted in log-log; lower_regular is
    set when the lower envelope fits a slope within 0.15 of the upper one,
    i.e. the measure looks Ahlfors-David regular at these scales.
    """
    if n_probes < 1:
        raise ParameterError(f"n_probes must be at least 1, got {n_probes}")
    diam = mu.support_diameter()
    if not math.isfinite(diam):
        raise ParameterError(f"support diameter {diam} is not finite")
    if diam <= 0:
        raise ParameterError("single-point support has no radius range")
    r_max = diam / 4.0
    r_min = max(mu.resolution, r_max / 2.0**8)
    n_rad = int(math.floor(math.log2(r_max / r_min))) + 1
    if n_rad < 3:
        raise FitError("fewer than 3 dyadic radii between the atomic"
                       " resolution and a quarter of the diameter")
    radii = r_max / 2.0 ** np.arange(n_rad)

    rng = np.random.default_rng(seed)
    k = min(n_probes, mu.n_atoms)
    idx = rng.choice(mu.n_atoms, size=k, replace=False)
    # the heaviest atom always probes: it marks the density peak, and a pure
    # random draw almost never lands on a point singularity
    idx[0] = int(np.argmax(mu.weights))
    probes = mu.atoms[idx]

    max_masses = np.zeros(n_rad)
    min_masses = np.full(n_rad, np.inf)
    step = max(1, int(2_000_000 // max(mu.n_atoms, 1)))
    for p0 in range(0, k, step):
        block = probes[p0:p0 + step]
        # squared differences summed one coordinate at a time, so the fit
        # holds two (block, atoms) arrays and no (block, atoms, dim) one;
        # below 8 coordinates this is the order np.linalg.norm sums them in,
        # and the distances are its bits
        dists = np.subtract.outer(block[:, 0], mu.atoms[:, 0])
        dists *= dists
        scratch = np.empty_like(dists)
        for c in range(1, mu.dim):
            np.subtract.outer(block[:, c], mu.atoms[:, c], out=scratch)
            scratch *= scratch
            dists += scratch
        np.sqrt(dists, out=dists)
        for i, r in enumerate(radii):
            masses = np.multiply(mu.weights, dists <= r,
                                 out=scratch).sum(axis=1)
            max_masses[i] = max(max_masses[i], float(masses.max()))
            min_masses[i] = min(min_masses[i], float(masses.min()))

    fit_max = loglog_fit(radii, max_masses)
    clamped = min(float(mu.dim), max(0.0, fit_max.slope))
    lower_ok = False
    if np.all(min_masses > 0):
        fit_min = loglog_fit(radii, min_masses)
        lower_ok = abs(fit_min.slope - fit_max.slope) <= 0.15
    return FrostmanReport(
        fitted_s=clamped, constant=float(np.exp(fit_max.intercept)),
        lower_regular=lower_ok, residual=fit_max.residual,
        radii=radii, max_masses=max_masses, min_masses=min_masses)


@dataclass(frozen=True)
class EnergyReport:
    """Energy integral with a refinement-divergence diagnosis.

    value        : double sum over distinct atom pairs
    divergent    : True when coarsened-level energies keep growing (or atoms coincide)
    levels       : dyadic coarsening levels used
    level_values : energy of the binned measure at each level
    """

    value: float
    divergent: bool
    levels: np.ndarray
    level_values: np.ndarray


def _check_pair_cap(mu: DiscreteMeasure) -> None:
    """The pair scans are quadratic: refuse measures above the atom cap."""
    if mu.n_atoms > _MAX_ENERGY_ATOMS:
        raise ResourceError(
            f"{mu.n_atoms} atoms exceed the pairwise cap {_MAX_ENERGY_ATOMS}")


def _pair_blocks(pts: np.ndarray):
    """Upper-triangle row blocks (i0, d): d[a, b] = |x[i0+a] - x[i0+b]| if b > a, else 0."""
    from scipy.spatial.distance import cdist

    rows = max(1, _PAIR_BLOCK // pts.shape[0])
    for i0 in range(0, pts.shape[0], rows):
        d = cdist(pts[i0:i0 + rows], pts[i0:])
        d[:, :rows] = np.triu(d[:, :rows], 1)
        yield i0, d


def _pair_energy(pts: np.ndarray, w: np.ndarray, s: float) -> float:
    total = 0.0
    for i0, d in _pair_blocks(pts):
        np.power(d, -s, out=d, where=d > 0)
        total += float(w[i0:i0 + d.shape[0]] @ (d @ w[i0:]))
    return 2.0 * total


def _coarsen(mu: DiscreteMeasure, m: int):
    keys = np.floor(mu.atoms * 2.0**m).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    w = np.bincount(inverse, weights=mu.weights, minlength=uniq.shape[0])
    centers = (uniq + 0.5) * 2.0**-m
    return centers, w


def energy_integral(mu: DiscreteMeasure, s: float) -> EnergyReport:
    """s-energy of the measure: sum over i != j of w_i w_j |x_i - x_j|^-s.

    Divergence is probed by rebinning the atoms at dyadic pitches 2^-m and
    regressing the log of the per-level energy INCREMENTS against m: growing
    increments (fitted per-level factor above 1.01) flag refinement
    divergence, shrinking increments mean the binned energies converge.
    Value-level ratios would misfire near the boundary, where convergence is
    polynomially slow; single increment pairs are too noisy when the binning
    lattice is incommensurate with the measure's own scale (dyadic vs
    triadic).  Coincident distinct atoms make the energy +inf outright.
    """
    if not (0.0 < s <= mu.dim):
        raise ParameterError(f"s must be in (0, {mu.dim}], got {s}")
    _check_pair_cap(mu)

    uniq = np.unique(mu.atoms, axis=0)
    if uniq.shape[0] < mu.n_atoms:
        levels = np.array([], dtype=int)
        return EnergyReport(math.inf, True, levels, np.array([]))

    # finest scale worth probing: atomic resolution, else nearest scale that
    # separates the closest pair we can see cheaply through the bins
    res = mu.resolution
    if res > 0:
        # stay one level above the atomic pitch: at the pitch itself the bins
        # isolate single atoms and the level energies saturate
        m_hi = max(3, min(40, int(math.floor(-math.log2(res))) - 1))
    else:
        # no declared pitch (random samples): probe down to the mean atom
        # spacing, where saturation is the verdict for a convergent energy
        spacing = mu.support_diameter() / max(2.0, mu.n_atoms ** (1.0 / mu.dim))
        m_hi = max(3, min(40, int(math.ceil(-math.log2(spacing))) + 1))
    m_lo = max(0, m_hi - 5)
    levels = np.arange(m_lo, m_hi + 1)
    level_values = np.empty(levels.size)
    for i, m in enumerate(levels):
        centers, w = _coarsen(mu, int(m))
        level_values[i] = _pair_energy(centers, w, s)

    value = _pair_energy(mu.atoms, mu.weights, s)
    divergent = False
    # stride-2 increments: same-parity levels bin compatibly, so the center
    # shift of odd-vs-even rebinning cancels out of the comparison
    increments = level_values[2:] - level_values[:-2]
    if increments.size >= 3 and np.all(increments > 0):
        slope = np.polyfit(levels[2:].astype(float), np.log2(increments), 1)[0]
        divergent = bool(slope > math.log2(1.01))
    return EnergyReport(value, bool(divergent), levels, level_values)


def _annulus_inner(mu: DiscreteMeasure, t: float, eps_list) -> np.ndarray:
    """inner[i, k] = mu{y : t <= |x_i - y| <= t + eps_k}.

    Only the pairs with t <= |x_i - x_j| <= t + max eps are binned, ties at both ends
    included; the rest, most pairs when eps is small, are dropped first.  A kept pair
    adds w_j to row i and w_i to row j, in bin b = #{sorted t + eps below |x_i - x_j|},
    and width k sums the bins up to t + eps_k.  The kept pairs reach bincount in
    row-major order, so every bin adds the same floats in the same order as a
    histogram of all pairs would."""
    eps = np.asarray(eps_list, dtype=float)
    if not (eps.size and 0 < t < math.inf and np.all((0 < eps) & (eps < math.inf))):
        raise ParameterError(f"t and eps must be finite and positive, got {t}, {eps_list}")
    _check_pair_cap(mu)
    hi = t + np.sort(eps)
    k, w = hi.size, mu.weights
    hist = np.zeros((mu.n_atoms, k))
    for i0, d in _pair_blocks(mu.atoms):
        n = d.shape[1]
        f = np.flatnonzero((d >= t) & (d <= hi[-1]))
        b = np.searchsorted(hi, d.ravel()[f])
        # kept pair f joins row i0 + f // n and column i0 + f % n: the row's bin gains
        # the column's weight, then the column's bin gains the row's.  The weights are
        # gathered before the bin ids and dropped after, so no more block-sized arrays
        # are alive at once than in an all-pairs histogram
        for key, partner in ((np.floor_divide, np.remainder), (np.remainder, np.floor_divide)):
            wt = w[i0:][partner(f, n)]
            hist[i0:] += np.bincount(key(f, n) * k + b, wt, hist[i0:].size).reshape(-1, k)
            del wt
    return np.cumsum(hist, axis=1)[:, np.searchsorted(hi, t + eps)]


def annulus_pair_profile(mu: DiscreteMeasure, t: float, eps_list) -> np.ndarray:
    """Annulus pair masses for several widths in one pass over the pairs.

    Entry k is the mu x mu mass of ordered pairs with t <= |x-y| <= t+eps_k.
    """
    return mu.weights @ _annulus_inner(mu, t, eps_list)


def chain_triple_profile(mu: DiscreteMeasure, t: float, eps_list) -> np.ndarray:
    """Chain triple masses for several widths in one pass over the pairs.

    Entry k is the mu^3 mass of triples (x, y, z) with both |x-z| and
    |y-z| in [t, t+eps_k].  Factorizes through the per-z annulus mass, so
    the cost stays quadratic.
    """
    return mu.weights @ _annulus_inner(mu, t, eps_list) ** 2


# ---- serialization ----

def save_measure_binary(mu: DiscreteMeasure, path) -> None:
    """Little-endian binary layout behind an 8-byte magic."""
    tag = mu.construction.encode("utf-8")
    nominal = math.nan if mu.nominal_s is None else float(mu.nominal_s)
    with open(path, "wb") as fh:
        fh.write(_MEASURE_MAGIC)
        fh.write(struct.pack("<IQddd", mu.dim, mu.n_atoms, nominal,
                             mu.total_mass, mu.resolution))
        fh.write(mu.box_lo.astype("<f8").tobytes())
        fh.write(mu.box_hi.astype("<f8").tobytes())
        fh.write(struct.pack("<I", len(tag)))
        fh.write(tag)
        fh.write(np.ascontiguousarray(mu.atoms, dtype="<f8"))
        fh.write(np.ascontiguousarray(mu.weights, dtype="<f8"))


def _read_exact(fh, size: int, path) -> bytes:
    """Read exactly size bytes; a file with fewer left is truncated.  Sizes
    come from headers, so each is checked against the file before a
    buffer is allocated for it."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ParameterError(f"{path}: truncated file")
    data = fh.read(size)
    if len(data) != size:
        raise ParameterError(f"{path}: truncated file")
    return data


def _check_end(fh, path) -> None:
    """The read must end at end of file: bytes after the data the header
    declares mean the file is not the one written."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise ParameterError(f"{path}: {extra} bytes after the end of the data")


def load_measure_binary(path) -> DiscreteMeasure:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MEASURE_MAGIC:
            raise ParameterError(f"{path}: bad magic {magic!r}")
        dim, n, nominal, total, res = struct.unpack("<IQddd",
                                                    _read_exact(fh, 36, path))
        if dim < 1:
            raise ParameterError(f"{path}: dim must be >= 1, got {dim}")
        box_lo = np.frombuffer(_read_exact(fh, 8 * dim, path), dtype="<f8").copy()
        box_hi = np.frombuffer(_read_exact(fh, 8 * dim, path), dtype="<f8").copy()
        (taglen,) = struct.unpack("<I", _read_exact(fh, 4, path))
        tag = _read_exact(fh, taglen, path).decode("utf-8")
        atoms = np.frombuffer(_read_exact(fh, 8 * dim * n, path),
                              dtype="<f8").reshape(n, dim).copy()
        weights = np.frombuffer(_read_exact(fh, 8 * n, path), dtype="<f8").copy()
        _check_end(fh, path)
    return DiscreteMeasure(
        dim=dim, atoms=atoms, weights=weights, total_mass=total,
        nominal_s=None if math.isnan(nominal) else nominal,
        construction=tag, box_lo=box_lo, box_hi=box_hi, resolution=res)
