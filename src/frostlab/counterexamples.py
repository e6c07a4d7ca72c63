"""Executable negative results: log-corrected radial extremizers, tangent
annulus scaling on Cantor products, and fractal potential divergence.

Each construction turns an "equals infinity" argument into a finite
computation.  A dyadic truncation series is evaluated level by level; the
verdict comes from the tail behavior of that series, with two proxies:

* convergence: the last increment is negligible next to the running sum
  (relative Cauchy test), or the trailing increments decay geometrically;
* divergence: the trailing increments grow geometrically (positive log2
  rate), or the partial sums keep climbing at a positive per-level slope.

Both proxies are monotone under adding levels for the power-law-with-log
integrands used here, so refining a computation never flips its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError
from .exponents import blowup_dim_fixed_time
from .fitting import FitReport, line_fit, log2_fit, loglog_fit
from .measures import (
    _sphere_area,
    cantor_measure,
    measure_from_atoms,
    product_measure,
)
from .operators import riesz_row_sum


_SHELLS = 40
# 2^-shells underflows to 0 past 1074 shells, so more add nothing but memory
_MAX_SHELLS = 1000
_TAIL_WINDOW = 10
_CAUCHY_RTOL = 1e-6
_GL_ORDER = 16
# probe radii stay inside the quarter ball so the integrand's log factor
# is bounded away from zero over the whole sphere
_PROBE_RADII = (0.125, 0.0625)
_ANNULUS_PROBE_TARGETS = (0.1, 0.45, 0.8)
_MAX_TEST_ATOMS = 2 ** 22
_BAND_BLOCK = 2 ** 16  # product atoms per block in mattila_example
_MAX_FACTOR_DEPTH = 24
_CSV_HEADER = ("series", "level", "partial_sum", "increment")


def _check_dim(d, max_d=None):
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {d}")
    if max_d is not None and d > max_d:
        raise ParameterError(
            f"sphere quadrature implemented for dimensions 2..{max_d}, got {d}")


# ---- truncation series ----

@dataclass(frozen=True)
class ShellSeries:
    """Per-level record of a dyadic truncation: increments and running sums."""

    levels: tuple
    increments: tuple
    partial_sums: tuple


def _series(levels, increments) -> ShellSeries:
    inc = np.asarray(increments, dtype=np.float64)
    sums = np.cumsum(inc)
    return ShellSeries(
        levels=tuple(int(v) for v in np.asarray(levels)),
        increments=tuple(float(v) for v in inc),
        partial_sums=tuple(float(v) for v in sums),
    )


def _increment_rate(series: ShellSeries) -> float:
    """log2 growth rate of the trailing positive increments.

    +inf when the series overflowed (certainly divergent), -inf when the
    tail underflowed to zero (certainly summable at machine precision).
    """
    inc = np.asarray(series.increments, dtype=np.float64)
    if not np.all(np.isfinite(inc)):
        return math.inf
    lv = np.asarray(series.levels, dtype=np.float64)
    pos = inc > 0.0
    lv, inc = lv[pos][-_TAIL_WINDOW:], inc[pos][-_TAIL_WINDOW:]
    if inc.size < 3:
        return -math.inf
    return log2_fit(lv, inc).slope


def _sum_growth_slope(series: ShellSeries) -> float:
    """Per-level slope of the partial sums over the trailing window."""
    lv = np.asarray(series.levels, dtype=np.float64)[-_TAIL_WINDOW:]
    ps = np.asarray(series.partial_sums, dtype=np.float64)[-_TAIL_WINDOW:]
    return line_fit(lv, ps).slope


def _lp_finite(series: ShellSeries, rate: float) -> bool:
    total = series.partial_sums[-1]
    if not math.isfinite(total):
        return False
    if series.increments[-1] <= _CAUCHY_RTOL * max(total, 1.0):
        return True
    return rate <= 0.0


def _series_csv(rows, tag, series):
    rows.extend((tag, *row) for row in zip(series.levels, series.partial_sums,
                                           series.increments))


def _check_shells(shells: int) -> None:
    """The tail fit needs _TAIL_WINDOW + 2 shells; each shell costs
    _GL_ORDER floats, so more than _MAX_SHELLS are refused before any is
    allocated."""
    if shells < _TAIL_WINDOW + 2:
        raise ParameterError(f"need at least {_TAIL_WINDOW + 2} shells")
    if shells > _MAX_SHELLS:
        raise ResourceError(f"{shells} shells exceed the cap {_MAX_SHELLS}")


def _radial_series(power: float, log_power: float, shells: int,
                   scale: float) -> ShellSeries:
    """Quadrature of scale * r^power * log^(-log_power)(1/r) over dyadic
    shells [2^-(j+1), 2^-j], j = 1..shells (top radius 1/2)."""
    nodes, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
    j = np.arange(1, shells + 1, dtype=np.float64)
    hi = 2.0 ** -j
    lo = 0.5 * hi
    mid = 0.5 * (hi + lo)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    r = mid + half * nodes[None, :]
    # in log space, so that overflow gives +inf (divergent), never inf / inf
    with np.errstate(over="ignore"):
        vals = np.exp(power * np.log(r) - log_power * np.log(np.log(1.0 / r)))
        inc = scale * (vals * gw[None, :]).sum(axis=1) * half[:, 0]
    return _series(j, inc)


def _sphere_series(d: int, t: float, chord_max: float,
                   levels: int) -> ShellSeries:
    """Truncated singular integral over the unit sphere.

    Level k integrates (t*c)^(1-d) / log(1/(t*c)) over the chord band
    c in [chord_max*2^-k, chord_max*2^-(k-1)], with the angular measure of
    the band (arc pairs for d=2, zonal belts for d=3).  The caller must keep
    t*chord_max < 1 so the log factor stays positive.
    """
    nodes, gw = np.polynomial.legendre.leggauss(_GL_ORDER)
    delta = chord_max * 2.0 ** -np.arange(levels + 1, dtype=np.float64)
    theta = 2.0 * np.arcsin(0.5 * delta)
    inc = np.empty(levels)
    for k in range(1, levels + 1):
        a, b = theta[k], theta[k - 1]
        th = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        tc = 2.0 * t * np.sin(0.5 * th)
        ang = 2.0 if d == 2 else 2.0 * math.pi * np.sin(th)
        # in log space with the angular measure: the density alone,
        # (t*c)^(1-d) ~ 2^(k(d-1)), overflows past level k ~ 1024/(d-1)
        vals = np.exp((1 - d) * np.log(tc) - np.log(np.log(1.0 / tc)) + np.log(ang))
        inc[k - 1] = float(np.sum(vals * gw) * 0.5 * (b - a))
    return _series(np.arange(1, levels + 1), inc)


# ---- radial extremizer against a power-density measure ----

@dataclass(frozen=True)
class SteinReport:
    """Verdict pair for the log-corrected radial extremizer."""

    d: int
    s: float
    p: float
    lp_norm_finite: bool
    divergence_slope: float
    lp_tail_rate: float
    lp_series: ShellSeries
    probe_series: tuple

    def csv_rows(self):
        rows = [_CSV_HEADER]
        _series_csv(rows, "lp", self.lp_series)
        for t, series in self.probe_series:
            _series_csv(rows, f"probe-{t:g}", series)
        return rows

    def verdict_json(self):
        return {
            "construction": "radial-extremizer",
            "d": self.d, "s": self.s, "p": self.p,
            "lp_norm_finite": self.lp_norm_finite,
            "divergence_slope": self.divergence_slope,
            "lp_tail_rate": self.lp_tail_rate,
            "lp_partial_sum": self.lp_series.partial_sums[-1],
        }


def stein_example(d: int, s: float, p: float,
                  shells: int = _SHELLS) -> SteinReport:
    """Radial function |x|^(1-s) log^(-1)(1/|x|) on the half ball, paired
    with the power density |x|^(s-d).

    Decides whether its p-th moment against that density is finite (shell
    quadrature of r^(p(1-s)+s-1) log^(-p)) and reports the growth slope of
    the truncated singular sphere integral at interior probe radii.  A
    positive slope certifies that spherical averages of the pair blow up.
    """
    _check_dim(d, max_d=3)
    if not (0.0 < s <= d):
        raise ParameterError(f"s must lie in (0, d], got {s}")
    if p <= 1.0:
        raise ParameterError(f"p must exceed 1, got {p}")
    _check_shells(shells)
    power = p * (1.0 - s) + s - 1.0
    lp_series = _radial_series(power, p, shells, _sphere_area(d))
    rate = _increment_rate(lp_series)
    probes = tuple(
        (t, _sphere_series(d, t, 2.0, shells)) for t in _PROBE_RADII)
    slope = min(_sum_growth_slope(series) for _, series in probes)
    return SteinReport(
        d=d, s=float(s), p=float(p),
        lp_norm_finite=_lp_finite(lp_series, rate),
        divergence_slope=float(slope), lp_tail_rate=float(rate),
        lp_series=lp_series, probe_series=probes)


# ---- tangent annulus scaling on Cantor products ----

@dataclass(frozen=True)
class MattilaReport:
    """Annulus-mass power fit against its closed-form prediction."""

    d: int
    alpha: float
    beta: float
    p: float
    fit: FitReport
    probe_fits: tuple
    predicted: float
    maximal_lower_exponent: float
    eps: tuple
    depth_horizontal: int
    depth_vertical: int
    probe_masses: tuple

    def csv_rows(self):
        header = ("eps", "mass_mean", *(
            f"mass_probe{i}" for i in range(len(self.probe_masses))))
        mean = np.mean(self.probe_masses, axis=0)
        return [header, *zip(self.eps, mean, *self.probe_masses)]

    def verdict_json(self):
        return {
            "construction": "tangent-annulus",
            "d": self.d, "alpha": self.alpha, "beta": self.beta, "p": self.p,
            "fitted_exponent": self.fit.slope,
            "predicted_exponent": self.predicted,
            "maximal_lower_exponent": self.maximal_lower_exponent,
            "probe_exponents": [f.slope for f in self.probe_fits],
        }


def _line_fractal(dim_value: float, cell_floor: float):
    """Self-similar factor of the requested dimension on [0,1], at the
    least depth that resolves cell_floor.  Dimension 0 degenerates to the
    endpoint pair."""
    if dim_value == 0.0:
        mu = measure_from_atoms(
            np.array([[0.0], [1.0]]), np.array([0.5, 0.5]),
            nominal_s=0.0, construction="endpoint-pair", resolution=1.0)
        return mu, 0
    ratio = 2.0 ** (-1.0 / dim_value)
    depth = max(1, math.ceil(math.log(1.0 / cell_floor)
                             / math.log(1.0 / ratio)))
    if depth > _MAX_FACTOR_DEPTH:
        raise ResourceError(
            f"required factor depth {depth} exceeds cap {_MAX_FACTOR_DEPTH}; "
            "raise the smallest eps")
    return cantor_measure(ratio, depth), depth


def mattila_example(d: int, alpha: float, beta: float, p: float,
                    eps_list) -> MattilaReport:
    """Mass of the tangent annulus band |dist(x,y) - x_d| <= eps against the
    weight |y_d|^(-beta/p), on the product of horizontal dimension-alpha
    factors with a vertical dimension-beta factor.

    Fits the power law of the band mass in eps; the prediction is
    alpha*(d-1)/2 + beta*(1-1/p), and dividing by the band width (exponent
    minus one) gives the lower-bound exponent for the maximal operator.
    Probes sit on the set itself: vertical coordinate at the top atom so the
    sphere through the origin-side tangent point stays inside the box.
    Each factor takes the least depth that resolves the smallest eps: a
    quarter of its square root horizontally, a quarter of it vertically.

    The product is never built: its atoms are streamed in blocks of
    _BAND_BLOCK, in product_measure's order and with its bits, and each
    probe keeps only the atoms inside its widest band.  Memory is bounded by
    one block plus those atoms.
    """
    _check_dim(d)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not (0.0 <= val <= 1.0):
            raise ParameterError(f"{name} must lie in [0, 1], got {val}")
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    eps = np.asarray(list(eps_list), dtype=np.float64)
    if eps.size < 4:
        raise ParameterError("eps_list needs at least 4 values")
    if not np.all(np.isfinite(eps)):
        raise ParameterError(f"eps values must be finite, got {eps.tolist()}")
    if np.any(eps <= 0.0) or np.any(eps > 0.25):
        raise ParameterError("eps values must lie in (0, 1/4]")
    ratios = eps[1:] / eps[:-1]
    if abs(ratios[0] - 1.0) < 1e-9 or not np.allclose(
            ratios, ratios[0], rtol=1e-6):
        raise ParameterError("eps_list must be a nontrivial geometric ladder")
    eps_min = float(eps.min())

    h_factor, depth_h = _line_fractal(alpha, 0.25 * math.sqrt(eps_min))
    v_factor, depth_v = _line_fractal(beta, 0.25 * eps_min)
    n_total = h_factor.n_atoms ** (d - 1) * v_factor.n_atoms
    if n_total > _MAX_TEST_ATOMS:
        raise ResourceError(
            f"product needs {n_total} atoms (cap {_MAX_TEST_ATOMS}); "
            "raise the smallest eps or lower d")
    factors = [h_factor] * (d - 1) + [v_factor]

    t = float(v_factor.atoms.max())
    h_atoms = h_factor.atoms[:, 0]
    probes = [
        np.array([float(h_atoms[np.argmin(np.abs(h_atoms - target))])]
                 * (d - 1) + [t])
        for target in _ANNULUS_PROBE_TARGETS
    ]

    # per probe, fw and band of the atoms inside the widest band, in order
    kept = [([], []) for _ in probes]
    eps_max = eps.max()
    shape = tuple(f.n_atoms for f in factors)
    for lo in range(0, n_total, _BAND_BLOCK):
        # C order of the factor indices: the last factor varies fastest
        index = np.unravel_index(
            np.arange(lo, min(lo + _BAND_BLOCK, n_total)), shape)
        atoms = np.concatenate([f.atoms[i] for f, i in zip(factors, index)],
                               axis=1)
        weights = factors[0].weights[index[0]]
        for f, i in zip(factors[1:], index[1:]):
            weights = weights * f.weights[i]

        if beta == 0.0:
            f_vals = np.ones(atoms.shape[0])
        else:
            # the atom at 0 stands for its construction cell: clamp the
            # weight at the cell scale instead of evaluating the singularity
            f_vals = np.maximum(atoms[:, -1],
                                v_factor.resolution) ** (-beta / p)
        fw = f_vals * weights

        for x, (fw_kept, band_kept) in zip(probes, kept):
            diff = atoms - x
            band = np.abs(np.sqrt(np.einsum("ij,ij->i", diff, diff)) - t)
            inside = band <= eps_max
            fw_kept.append(fw[inside])
            band_kept.append(band[inside])

    masses = np.empty((len(probes), eps.size))
    for i in range(len(probes)):
        fw_kept, band_kept = (np.concatenate(a) for a in kept[i])
        kept[i] = None  # drop the probe's blocks once they are joined
        for k, e in enumerate(eps):
            masses[i, k] = float(fw_kept[band_kept <= e].sum())
    if np.any(masses <= 0.0):
        raise ResourceError(
            "annulus captured no mass at the smallest eps; deepen the "
            "construction or raise eps")

    probe_fits = tuple(loglog_fit(eps, row) for row in masses)
    fit = loglog_fit(eps, masses.mean(axis=0))
    predicted = alpha * (d - 1) / 2.0 + beta * (1.0 - 1.0 / p)
    return MattilaReport(
        d=d, alpha=float(alpha), beta=float(beta), p=float(p), fit=fit,
        probe_fits=probe_fits, predicted=float(predicted),
        maximal_lower_exponent=float(fit.slope - 1.0),
        eps=tuple(float(e) for e in eps),
        depth_horizontal=depth_h, depth_vertical=depth_v,
        probe_masses=tuple(tuple(float(v) for v in row) for row in masses))


# ---- fractal potential row divergence ----

@dataclass(frozen=True)
class RieszDivergenceReport:
    """Shell-sum trend of a power potential against a product test measure."""

    d: int
    s: float
    alpha: float
    slope: float
    predicted_slope: float
    series: ShellSeries
    probe: tuple
    depth: int

    def csv_rows(self):
        rows = [_CSV_HEADER]
        _series_csv(rows, "potential", self.series)
        return rows

    def verdict_json(self):
        return {
            "construction": "fractal-potential",
            "d": self.d, "s": self.s, "alpha": self.alpha,
            "slope": self.slope, "predicted_slope": self.predicted_slope,
            "total": self.series.partial_sums[-1],
        }


def riesz_divergence(d: int, s: float, alpha: float,
                     levels: int = 12) -> RieszDivergenceReport:
    """Level-by-level shell sums of the order-alpha potential at an atom of
    a dimension-s product test measure.

    The per-level contributions scale like 2^(level*(d-s-alpha)); the
    reported slope is their trailing log2 rate, so positive means the
    potential diverges at points of the set and negative means it stays
    bounded.  Each Cantor factor takes the least depth that resolves
    levels + 2 dyadic scales.
    """
    _check_dim(d)
    if not (0.0 < s <= d):
        raise ParameterError(f"s must lie in (0, d], got {s}")
    if not (0.0 < alpha < d):
        raise ParameterError(f"alpha must lie in (0, d), got {alpha}")
    if levels < 6:
        raise ParameterError(f"levels must be >= 6, got {levels}")
    per_dim = s / d
    ratio = 2.0 ** (-1.0 / per_dim)
    k = max(1, math.ceil((levels + 2) * per_dim))
    if k > _MAX_FACTOR_DEPTH or (2.0 ** k) ** d > _MAX_TEST_ATOMS:
        raise ResourceError(
            f"depth {k} with {d} factors exceeds the atom cap "
            f"{_MAX_TEST_ATOMS}; reduce levels or s")
    mu = product_measure([cantor_measure(ratio, k)] * d)
    x = mu.atoms[0]
    row = riesz_row_sum(mu, alpha, x, level_cap=levels)
    series = _series(row.levels, row.contributions)
    return RieszDivergenceReport(
        d=d, s=float(s), alpha=float(alpha),
        slope=float(_increment_rate(series)),
        predicted_slope=float(d - s - alpha),
        series=series, probe=tuple(float(v) for v in x), depth=k)


# ---- fixed-time extremizer on the unit sphere ----

@dataclass(frozen=True)
class FixedTimeReport:
    """Verdicts for the borderline density sampled at unit distance."""

    d: int
    p: float
    lp_norm_finite: bool
    divergence_slope: float
    lp_tail_rate: float
    lp_series: ShellSeries
    probe_series: ShellSeries
    blowup_dim: float
    blowup_dim_matches: bool

    def csv_rows(self):
        rows = [_CSV_HEADER]
        _series_csv(rows, "lp", self.lp_series)
        _series_csv(rows, "sphere-probe", self.probe_series)
        return rows

    def verdict_json(self):
        return {
            "construction": "fixed-time-extremizer",
            "d": self.d, "p": self.p,
            "lp_norm_finite": self.lp_norm_finite,
            "divergence_slope": self.divergence_slope,
            "blowup_dim": self.blowup_dim,
            "blowup_dim_matches": self.blowup_dim_matches,
        }


def fixed_time_sharpness(d: int, p: float,
                         shells: int = _SHELLS) -> FixedTimeReport:
    """Radial density |x|^(1-d) log^(-1)(1/|x|) on the half ball, sampled by
    unit-radius spherical averages at points of the unit sphere.

    Decides p-th power integrability by shell quadrature and reports the
    growth slope of the truncated sphere integral (the chord cutoff 1/2 is
    the support radius of the density).  Also records the blowup dimension
    d-1 delivered by the fixed-time exponent rule at its critical p.
    """
    _check_dim(d, max_d=3)
    if p <= 1.0:
        raise ParameterError(f"p must exceed 1, got {p}")
    _check_shells(shells)
    power = (d - 1.0) * (1.0 - p)
    lp_series = _radial_series(power, p, shells, _sphere_area(d))
    rate = _increment_rate(lp_series)
    probe = _sphere_series(d, 1.0, 0.5, shells)
    p_crit = d / (d - 1.0)
    dim = blowup_dim_fixed_time(d, p_crit)
    return FixedTimeReport(
        d=d, p=float(p),
        lp_norm_finite=_lp_finite(lp_series, rate),
        divergence_slope=float(_sum_growth_slope(probe)),
        lp_tail_rate=float(rate),
        lp_series=lp_series, probe_series=probe,
        blowup_dim=float(dim),
        blowup_dim_matches=bool(abs(dim - (d - 1.0)) <= 1e-12))
