"""Acceptance battery: ten numbered checks over the exponent tables, the
dual-route transforms, and the counterexample ladders.

Each criterion computes its own fixtures and returns a pass/fail verdict
with a deterministic detail string, so two runs with the same seed produce
byte-identical reports.  ``quick=True`` trims only the slowest quadrature
fixtures of criterion 5; every threshold is identical in both modes.

Criterion 10 (byte-identical reruns) lives at the command-line layer: it
needs two separate processes writing artifacts, so the CLI and the test
suite drive it rather than this module.
"""

from dataclasses import dataclass

import numpy as np

from .counterexamples import mattila_example, stein_example
from .exponents import blowup_dim_fixed_time, eps_p, maximal_interval
from .measures import (
    cantor_measure,
    lebesgue_box_measure,
    measure_from_atoms,
    product_measure,
    sphere_measure,
)
from .operators import (
    default_mollify_eps,
    quadrature_spherical_average,
    riesz_row_sum,
    sphere_l2_profile,
    spherical_average,
)
from .spectral import (
    SpectralGrid,
    Spectrum,
    decay_fit,
    field_l2sq,
    measure_fourier,
    mollifier_hat,
    partition_residual,
)
from .wave3d import blowup_probe, pointwise_limit_fit, sharpness_family


CRITERION_COUNT = 9

_EXACT_TOL = 1e-12
_REGIME_DRAWS = 10_000
_DUAL_ROUTE_TOL = 1e-3
_ANNULUS_LADDER = tuple(2.0 ** -k for k in range(12, 18))
_ANNULUS_LADDER_QUICK = tuple(2.0 ** -k for k in range(10, 16))


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.index:>2} {self.name:<26} {self.detail}"


@dataclass(frozen=True)
class SuiteReport:
    quick: bool
    seed: int
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self):
        out = [r.line for r in self.results]
        n_pass = sum(r.passed for r in self.results)
        out.append(f"{n_pass}/{len(self.results)} criteria passed"
                   f" ({'quick' if self.quick else 'full'} mode)")
        return out

    def csv_rows(self):
        return [("criterion", "name", "passed", "detail"),
                *((r.index, r.name, str(r.passed).lower(), r.detail)
                  for r in self.results)]


def _rel_l2(a, b) -> float:
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def criterion_1() -> CriterionResult:
    """Closed-form exponent identities at machine tolerance."""
    checks = []
    iv_full = maximal_interval(3, 2.5, 3.0)
    checks.append(iv_full.case_label == "i"
                  and abs(iv_full.lo - 2.5 / 1.5) <= _EXACT_TOL)
    iv_planar = maximal_interval(2, 1.95, 1.95)
    checks.append(iv_planar.case_label == "iii"
                  and abs(iv_planar.lo - 2.5) <= _EXACT_TOL
                  and abs(iv_planar.hi - 10.0) <= _EXACT_TOL)
    iv_edge = maximal_interval(3, 2.9, 2.1)
    checks.append(iv_edge.case_label == "ii"
                  and (iv_edge.lo, iv_edge.hi) == (2.0, 4.0)
                  and iv_edge.lo_open and not iv_edge.hi_open)
    checks.append(all(
        abs(blowup_dim_fixed_time(d, d / (d - 1.0)) - (d - 1.0)) <= _EXACT_TOL
        for d in (2, 3)))
    # p = 4 is the knee of the smoothing gain: both branch formulas apply
    checks.append(abs(eps_p(4.0) - 0.125) <= _EXACT_TOL
                  and abs(eps_p(4.0) - 0.5 * (0.5 - 0.25)) <= _EXACT_TOL
                  and abs(eps_p(4.0) - 1.0 / 8.0) <= _EXACT_TOL)
    detail = (f"identities={sum(checks)}/{len(checks)} tol=1e-12"
              f" lo_full={iv_full.lo!r} hi_planar={iv_planar.hi!r}")
    return CriterionResult(1, "exponent-identities", all(checks), detail)


def criterion_2(seed: int) -> CriterionResult:
    """Seeded sweep of the low-dimension regime: p=2 excluded, p=4 included,
    over 10 000 draws that land in the regime."""
    rng = np.random.default_rng(seed)
    hits = 0
    violations = 0
    while hits < _REGIME_DRAWS:
        d = int(rng.integers(2, 4))
        s_mu = d - 0.25 * rng.random()
        s_nu = rng.random() * d
        if not (s_mu + s_nu < d + 2.0 and 3.0 * s_mu + s_nu > 3.0 * d + 1.5):
            continue
        iv = maximal_interval(d, s_mu, s_nu)
        if iv.case_label != "iii" or iv.contains(2.0) or not iv.contains(4.0):
            violations += 1
        hits += 1
    detail = f"draws={_REGIME_DRAWS} seed={seed} violations={violations}"
    return CriterionResult(2, "regime-membership", violations == 0, detail)


def criterion_3() -> CriterionResult:
    """Dyadic sphere-convolution norms grow in j on a planar Cantor square."""
    mu = product_measure([cantor_measure(0.25, 6)] * 2)
    grid = SpectralGrid(2, 1024, 2.0)
    js = np.arange(2, 8)
    norms = sphere_l2_profile(None, mu, grid, js)
    slope = float(np.polyfit(js, np.log2(norms), 1)[0])
    detail = f"log2_slope={slope:.6f} floor=0.35 j=2..7"
    return CriterionResult(3, "dyadic-norm-growth", slope >= 0.35, detail)


def criterion_4() -> CriterionResult:
    """Potential level sums contract above the critical order and grow below.

    Window [1, 11]: an even step count absorbs the period-2 wobble of the
    ratio-1/4 lattice, and deeper shells are empty from the origin probe.
    """
    mu = product_measure([cantor_measure(0.25, 6)] * 2)
    x = mu.atoms[0]
    ratios = {}
    for alpha in (1.2, 0.8):
        contrib = riesz_row_sum(mu, alpha, x, level_cap=12).contributions
        ratios[alpha] = float((contrib[11] / contrib[1]) ** (1.0 / 10.0))
    passed = ratios[1.2] < 1.0 and ratios[0.8] > 1.0
    detail = (f"ratio_super={ratios[1.2]:.6f} ratio_sub={ratios[0.8]:.6f}"
              f" window=1..11")
    return CriterionResult(4, "potential-level-ratio", passed, detail)


def _dual_route_gap(f, mu, t, grid) -> float:
    fast = spherical_average(f, mu, t, grid)
    slow = quadrature_spherical_average(f, mu, t, grid)
    return _rel_l2(fast.values, slow.values)


def _gaussian_probe_gap() -> float:
    """Spherical mean of a Gaussian against its mollified closed form."""
    grid = SpectralGrid(3, 128, 2.0)
    mu = lebesgue_box_measure(3, 1.75, 112)
    a, t = 2.0, 0.5
    out = spherical_average(
        lambda x: np.exp(-a * (x ** 2).sum(axis=1)), mu, t, grid)
    eps = default_mollify_eps(grid)
    ap = a / (1.0 + 2.0 * a * eps * eps)
    ax = grid.space_axis()
    ii = np.array([56, 60, 64, 68, 72])
    probes = np.stack(np.meshgrid(ax[ii], ax[ii], ax[ii], indexing="ij"),
                      axis=-1).reshape(-1, 3)
    got = out.values[np.ix_(ii, ii, ii)].ravel()  # the probes are grid nodes
    r = np.linalg.norm(probes, axis=1)
    x1 = 2.0 * ap * t * r
    ref = (1.0 + 2.0 * a * eps * eps) ** -1.5 \
        * np.exp(-ap * (t * t + r * r)) \
        * np.where(x1 < 1e-8, 1.0,
                   np.sinh(np.minimum(x1, 50.0)) / np.maximum(x1, 1e-300))
    return _rel_l2(got, ref)


def criterion_5(quick: bool) -> CriterionResult:
    """FFT spreading agrees with direct quadrature and with a closed form."""
    gaps = {"gaussian": _gaussian_probe_gap()}
    gaps["box2"] = _dual_route_gap(None, lebesgue_box_measure(2, 0.75, 48),
                                   0.5, SpectralGrid(2, 128, 2.0))
    if not quick:
        g2 = SpectralGrid(2, 256, 2.0)
        gaps["cantor-sq"] = _dual_route_gap(
            None, product_measure([cantor_measure(0.25, 5)] * 2), 0.7, g2)
        gaps["circle"] = _dual_route_gap(
            None, sphere_measure(2, 0.5, 512), 0.6, g2)
        rng = np.random.default_rng(5)
        atoms = rng.uniform(-0.4, 0.4, size=(300, 3))
        mu3 = measure_from_atoms(atoms, np.full(300, 1 / 300.0))
        gaps["ball3"] = _dual_route_gap(
            lambda x: np.exp(-(x ** 2).sum(axis=1)), mu3, 0.5,
            SpectralGrid(3, 64, 2.0))
    worst = max(gaps.values())
    detail = (f"fixtures={len(gaps)} worst_rel_l2={worst:.3e}"
              f" tol={_DUAL_ROUTE_TOL:.0e}")
    return CriterionResult(5, "dual-route-transforms",
                           worst <= _DUAL_ROUTE_TOL, detail)


def criterion_6() -> CriterionResult:
    """Partition residual, the operators' transform and inverse: a round
    trip and Parseval, and sphere decay rates."""
    residual = max(partition_residual(SpectralGrid(2, 256, 2.0)),
                   partition_residual(SpectralGrid(1, 4096, 2.0)))
    grid = SpectralGrid(2, 256, 2.0)
    # 64 atoms at multiples of 3/64, on the 1/64 lattice: the unit
    # profile's inverse, times the cell area, gives back each atom's weight
    mu = product_measure([cantor_measure(0.25, 3)] * 2)
    strengths = np.zeros((grid.n_per_axis,) * 2)
    nodes = np.round((mu.atoms + grid.box_half_width) / grid.spacing).astype(int)
    np.add.at(strengths, tuple(nodes.T), mu.weights)
    back = Spectrum(None, mu, grid).apply(np.ones_like).values * grid.spacing**2
    round_gap = float(np.max(np.abs(back - strengths)) / np.max(strengths))
    # off the lattice: Cantor square depth 6, through the spreader
    spec = Spectrum(None, product_measure([cantor_measure(0.25, 6)] * 2), grid)
    eps = default_mollify_eps(grid)
    l2_freq = spec.energy(lambda rho: mollifier_hat(eps * rho) ** 2)
    parseval_gap = abs(l2_freq - field_l2sq(
        spec.apply(lambda rho: mollifier_hat(eps * rho)))) / l2_freq
    decay3 = -decay_fit(measure_fourier(
        None, sphere_measure(3, 1.0, 8192), SpectralGrid(3, 128, 2.0))).slope
    decay2 = -decay_fit(measure_fourier(
        None, sphere_measure(2, 1.0, 4096), SpectralGrid(2, 1024, 2.0))).slope
    passed = (residual <= 1e-12 and round_gap <= 1e-10
              and parseval_gap <= 1e-10
              and abs(decay3 - 1.0) <= 0.1 and abs(decay2 - 0.5) <= 0.1)
    detail = (f"residual={residual:.2e} roundtrip={round_gap:.2e}"
              f" parseval={parseval_gap:.2e}"
              f" decay3={decay3:.4f} decay2={decay2:.4f}")
    return CriterionResult(6, "spectral-identities", passed, detail)


def criterion_7(quick: bool) -> CriterionResult:
    """Tangent-annulus mass follows its predicted power law within 0.1."""
    ladder = _ANNULUS_LADDER_QUICK if quick else _ANNULUS_LADDER
    rep = mattila_example(2, 1.0, 0.5, 4.0, ladder)
    gap = abs(rep.fit.slope - rep.predicted)
    passed = gap <= 0.1 and abs(rep.predicted - 0.875) <= _EXACT_TOL
    detail = (f"fitted={rep.fit.slope:.6f} predicted={rep.predicted!r}"
              f" gap={gap:.4f}")
    return CriterionResult(7, "annulus-mass-exponent", passed, detail)


def criterion_8() -> CriterionResult:
    """Radial extremizer verdicts flip at the critical moment exponent."""
    reps = [stein_example(2, 1.5, p) for p in (2.5, 3.0, 3.5)]
    verdicts = tuple(r.lp_norm_finite for r in reps)
    min_slope = min(r.divergence_slope for r in reps)
    passed = verdicts == (True, True, False) and min_slope > 0.0
    detail = (f"finite@2.5={verdicts[0]} finite@3={verdicts[1]}"
              f" finite@3.5={verdicts[2]} min_div_slope={min_slope:.5f}")
    return CriterionResult(8, "extremizer-verdicts", passed, detail)


def criterion_9() -> CriterionResult:
    """Small-time wave convergence is near-quadratic and the superlevel set
    of the critical family has box dimension near the predicted bound."""
    grid = SpectralGrid(3, 128, 2.0)
    mu = lebesgue_box_measure(3, 1.5, 48)
    f = lambda pts: np.exp(
        -np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1) / (2.0 * 0.35 ** 2))
    pw = pointwise_limit_fit(f, mu, grid)
    f_fam, mu_fam, p = sharpness_family()
    bl = blowup_probe(f_fam, mu_fam, 1.0, family_p=p)
    passed = (pw.order >= 1.7 and not bl.inconclusive
              and abs(bl.boxdim_estimate - 2.0) <= 0.25
              and abs(bl.compare - 2.0) <= _EXACT_TOL)
    detail = (f"order={pw.order:.4f} boxdim={bl.boxdim_estimate:.4f}"
              f" bound={bl.compare!r}")
    return CriterionResult(9, "wave-limit-and-blowup", passed, detail)


def run_suite(quick: bool = False, seed: int = 0) -> SuiteReport:
    """Run criteria 1 through 9 and collect one result per criterion."""
    results = (
        criterion_1(),
        criterion_2(seed),
        criterion_3(),
        criterion_4(),
        criterion_5(quick),
        criterion_6(),
        criterion_7(quick),
        criterion_8(),
        criterion_9(),
    )
    return SuiteReport(quick=quick, seed=seed, results=results)
