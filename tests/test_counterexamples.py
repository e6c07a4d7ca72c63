"""Counterexample construction tests: quadrature oracles, frozen verdicts,
scaling fits, and refinement monotonicity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from frostlab import counterexamples
from frostlab.counterexamples import (
    fixed_time_sharpness,
    mattila_example,
    riesz_divergence,
    stein_example,
)
from frostlab.errors import ParameterError, ResourceError
from frostlab.fitting import loglog_fit
from frostlab.measures import product_measure

EPS_CRITERION = tuple(2.0 ** -k for k in range(12, 18))

# parameter sets exercised by the suite, with their eps ladders
SHIPPED_SETS = (
    (2, 1.0, 0.5, 4.0, EPS_CRITERION),
    (2, 0.5, 0.0, 3.0, tuple(2.0 ** -k for k in range(6, 12))),
    (2, 0.5, 0.5, 2.0, tuple(2.0 ** -k for k in range(8, 14))),
    (3, 0.5, 0.5, 4.0, tuple(2.0 ** -k for k in range(6, 12))),
)


# ---- quadrature oracles ----

def test_radial_shells_match_quad_oracle():
    rep = stein_example(2, 1.5, 3.0)
    a = 3.0 * (1.0 - 1.5) + 1.5 - 1.0
    for j in (1, 5, 20):
        lo, hi = 2.0 ** -(j + 1), 2.0 ** -j
        want, _ = quad(
            lambda r: 2.0 * math.pi * r ** a * math.log(1.0 / r) ** -3.0,
            lo, hi)
        assert rep.lp_series.increments[j - 1] == pytest.approx(want,
                                                                rel=1e-12)


def _zonal_band_d3(t, chord_max, k):
    # zonal bands of (t c)^-2 / log(1/(t c)) integrate in closed form
    d_k, d_km1 = chord_max * 2.0 ** -k, chord_max * 2.0 ** (1 - k)
    return (2.0 * math.pi / t ** 2) * math.log(
        math.log(1.0 / (t * d_k)) / math.log(1.0 / (t * d_km1)))


def test_sphere_shells_match_log_ratio_closed_form_d3():
    rep = stein_example(3, 1.5, 3.0)
    t = 0.125
    series = dict(rep.probe_series)[t]
    for k in (1, 10, 30):
        assert series.increments[k - 1] == pytest.approx(
            _zonal_band_d3(t, 2.0, k), rel=1e-12)


def test_sphere_shells_match_quad_oracle_d2():
    rep = stein_example(2, 1.5, 3.0)
    t = 0.0625
    series = dict(rep.probe_series)[t]
    for k in (2, 5, 25):
        c_lo, c_hi = 2.0 ** (1 - k), 2.0 ** (2 - k)
        th_lo, th_hi = 2 * math.asin(c_lo / 2), 2 * math.asin(c_hi / 2)

        def integrand(th):
            c = 2.0 * math.sin(th / 2.0)
            return 2.0 / (t * c * math.log(1.0 / (t * c)))

        want, _ = quad(integrand, th_lo, th_hi)
        assert series.increments[k - 1] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shells", [700, 1000])
@pytest.mark.parametrize("d", [2, 3])
def test_sphere_series_stays_finite_up_to_the_shell_cap(d, shells):
    # in d = 3 the density (t c)^-2 alone passes the float range at level
    # ~512; formed in log space with the band's angular measure it does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stein = stein_example(d, 1.5, 3.0, shells=shells)
        fixed = fixed_time_sharpness(d, 1.5, shells=shells)
    probes = [(t, 2.0, series) for t, series in stein.probe_series]
    probes.append((1.0, 0.5, fixed.probe_series))
    for t, chord_max, series in probes:
        assert len(series.increments) == shells
        assert all(0.0 < v < math.inf for v in series.increments)
        assert all(math.isfinite(v) for v in series.partial_sums)
        if d == 3:
            for k in (500, 520, shells):
                assert series.increments[k - 1] == pytest.approx(
                    _zonal_band_d3(t, chord_max, k), rel=1e-12)
    assert math.isfinite(stein.divergence_slope) and stein.divergence_slope > 0.0
    assert math.isfinite(fixed.divergence_slope) and fixed.divergence_slope > 0.0


def test_convergent_partial_sum_matches_full_integral():
    rep = stein_example(2, 1.5, 2.0)
    a = 2.0 * (1.0 - 1.5) + 1.5 - 1.0
    want, _ = quad(
        lambda r: 2.0 * math.pi * r ** a * math.log(1.0 / r) ** -2.0,
        0.0, 0.5)
    assert rep.lp_series.partial_sums[-1] == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("p", [1e3, 1e6])
def test_overflowing_shell_series_is_divergent_not_nan(p):
    # r^power / log(1/r)^p overflows both ways here; in log space it is +inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = stein_example(2, 1.5, p)
    values = (rep.lp_series.increments + rep.lp_series.partial_sums
              + (rep.lp_tail_rate, rep.divergence_slope))
    assert not any(math.isnan(v) for v in values)
    assert not rep.lp_norm_finite


def test_partial_sums_are_cumulative_increments():
    rep = stein_example(2, 1.5, 3.0)
    inc = np.array(rep.lp_series.increments)
    assert np.allclose(np.cumsum(inc), rep.lp_series.partial_sums, rtol=1e-13)


# ---- radial extremizer verdicts ----

def test_stein_criterion_triple():
    verdicts = {p: stein_example(2, 1.5, p) for p in (2.5, 3.0, 3.5)}
    assert verdicts[2.5].lp_norm_finite
    assert verdicts[3.0].lp_norm_finite      # boundary case: log saves it
    assert not verdicts[3.5].lp_norm_finite
    for rep in verdicts.values():
        assert rep.divergence_slope > 0.0
    assert verdicts[3.0].divergence_slope == pytest.approx(0.42816, abs=1e-3)


def test_stein_matches_critical_exponent_classification():
    # finite exactly for p <= s/(s-1) when s > 1, all p when s <= 1;
    # probes stay >= 0.2 away from critical so 40 shells resolve the tail
    cases = (
        (2, 0.5, (1.5, 3.0, 8.0, 20.0), ()),
        (2, 1.0, (2.0, 10.0), ()),
        (3, 3.0, (1.2, 1.4, 1.5), (1.8, 2.5)),
        (3, 2.0, (1.5, 2.0), (2.5, 4.0)),
    )
    for d, s, finite_ps, infinite_ps in cases:
        for p in finite_ps:
            assert stein_example(d, s, p).lp_norm_finite, (d, s, p)
        for p in infinite_ps:
            assert not stein_example(d, s, p).lp_norm_finite, (d, s, p)


def test_stein_divergence_slope_positive_everywhere():
    for d in (2, 3):
        for s in (0.5, 1.5, float(d)):
            rep = stein_example(d, s, 2.0)
            assert rep.divergence_slope > 0.0
            for _, series in rep.probe_series:
                assert all(v > 0.0 for v in series.increments)


def test_stein_probe_radii_are_interior():
    rep = stein_example(2, 1.5, 3.0)
    assert tuple(t for t, _ in rep.probe_series) == (0.125, 0.0625)


def test_stein_verdicts_monotone_under_refinement():
    for d, s, p, want in ((2, 1.5, 3.0, True), (2, 1.5, 3.5, False),
                          (3, 3.0, 1.5, True), (3, 3.0, 1.8, False)):
        for shells in (30, 40, 60):
            rep = stein_example(d, s, p, shells=shells)
            assert rep.lp_norm_finite is want, (d, s, p, shells)
            assert rep.divergence_slope > 0.0


def test_stein_validation():
    with pytest.raises(ParameterError):
        stein_example(2, 0.0, 3.0)
    with pytest.raises(ParameterError):
        stein_example(2, 2.5, 3.0)
    with pytest.raises(ParameterError):
        stein_example(2, 1.5, 1.0)
    with pytest.raises(ParameterError):
        stein_example(4, 1.5, 3.0)
    with pytest.raises(ParameterError):
        stein_example(2, 1.5, 3.0, shells=5)


def test_stein_csv_and_json():
    rep = stein_example(2, 1.5, 3.0)
    rows = rep.csv_rows()
    assert rows[0] == ("series", "level", "partial_sum", "increment")
    assert len(rows) == 1 + 3 * 40
    ps, inc = rep.lp_series.partial_sums[0], rep.lp_series.increments[0]
    assert rows[1] == ("lp", 1, ps, inc) and ps == inc
    assert rows[41][0] == "probe-0.125"
    blob = rep.verdict_json()
    assert blob["construction"] == "radial-extremizer"
    assert blob["lp_norm_finite"] is True
    assert isinstance(blob["divergence_slope"], float)


# ---- tangent annulus scaling ----

def test_annulus_criterion_parameter_set():
    rep = mattila_example(2, 1.0, 0.5, 4.0, EPS_CRITERION)
    assert rep.predicted == pytest.approx(0.875, abs=1e-12)
    assert abs(rep.fit.slope - 0.875) <= 0.1
    for fit in rep.probe_fits:
        assert abs(fit.slope - 0.875) <= 0.1
    assert rep.maximal_lower_exponent < 0.0   # band-normalized mass diverges
    assert rep.maximal_lower_exponent == pytest.approx(rep.fit.slope - 1.0)


def test_annulus_fits_match_prediction_on_shipped_sets():
    for d, alpha, beta, p, eps in SHIPPED_SETS:
        rep = mattila_example(d, alpha, beta, p, eps)
        assert abs(rep.fit.slope - rep.predicted) <= 0.1, (d, alpha, beta, p)


def test_annulus_beta_zero_prediction_is_pure_width_geometry():
    rep = mattila_example(2, 0.5, 0.0, 3.0, SHIPPED_SETS[1][4])
    assert rep.predicted == pytest.approx(0.25, abs=1e-12)


def test_annulus_p2_prediction_depends_only_on_total_dimension():
    eps = SHIPPED_SETS[2][4]
    a = mattila_example(2, 1.0, 0.0, 2.0, eps)
    b = mattila_example(2, 0.5, 0.5, 2.0, eps)
    assert a.predicted == pytest.approx(0.5, abs=1e-12)
    assert b.predicted == pytest.approx(0.5, abs=1e-12)


def test_annulus_masses_positive_and_decreasing():
    rep = mattila_example(2, 1.0, 0.5, 4.0, EPS_CRITERION)
    for row in rep.probe_masses:
        vals = np.array(row)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)   # eps ladder is decreasing


def test_annulus_validation():
    eps = EPS_CRITERION
    with pytest.raises(ParameterError):
        mattila_example(2, 1.2, 0.5, 4.0, eps)
    with pytest.raises(ParameterError):
        mattila_example(2, 1.0, -0.1, 4.0, eps)
    with pytest.raises(ParameterError):
        mattila_example(2, 1.0, 0.5, 0.9, eps)
    with pytest.raises(ParameterError):
        mattila_example(2, 1.0, 0.5, 4.0, eps[:3])
    with pytest.raises(ParameterError):
        mattila_example(2, 1.0, 0.5, 4.0, (0.3, 0.15, 0.075, 0.0375))
    with pytest.raises(ParameterError):
        mattila_example(2, 1.0, 0.5, 4.0, (0.2, 0.1, 0.06, 0.03))
    with pytest.raises(ParameterError):
        mattila_example(2, 1.0, 0.5, 4.0, (0.1, 0.1, 0.1, 0.1))


def test_annulus_depth_overrides_and_resource_errors():
    with pytest.raises(ResourceError):
        mattila_example(3, 0.5, 0.5, 4.0,
                        tuple(2.0 ** -k for k in range(14, 20)))
    with pytest.raises(ResourceError):
        mattila_example(2, 1.0, 0.5, 4.0,
                        tuple(2.0 ** -k for k in range(59, 63)))
    # the least depths resolving eps = 2^-13: a ratio-1/2 factor below
    # 2^-8.5 horizontally, a ratio-1/4 factor below 2^-15 vertically
    rep = mattila_example(2, 1.0, 0.5, 4.0, SHIPPED_SETS[2][4])
    assert (rep.depth_horizontal, rep.depth_vertical) == (9, 8)


def test_annulus_csv_and_json():
    rep = mattila_example(2, 0.5, 0.5, 2.0, SHIPPED_SETS[2][4])
    rows = rep.csv_rows()
    assert rows[0] == ("eps", "mass_mean", "mass_probe0", "mass_probe1",
                       "mass_probe2")
    assert len(rows) == 1 + len(rep.eps)
    masses = tuple(row[0] for row in rep.probe_masses)
    assert rows[1][0] == rep.eps[0] and rows[1][2:] == masses
    assert rows[1][1] == pytest.approx(sum(masses) / 3, rel=1e-15)
    blob = rep.verdict_json()
    assert blob["construction"] == "tangent-annulus"
    assert blob["predicted_exponent"] == rep.predicted
    assert len(blob["probe_exponents"]) == 3


def test_annulus_nan_eps_is_refused_as_non_finite():
    with pytest.raises(ParameterError, match="finite"):
        mattila_example(2, 1.0, 0.5, 4.0, (0.1, 0.05, math.nan, 0.0125))


def materialized_probe_masses(d, alpha, beta, p, eps):
    """The annulus masses from the whole product and full-length bands."""
    eps = np.asarray(eps)
    h_factor, _ = counterexamples._line_fractal(
        alpha, 0.25 * math.sqrt(eps.min()))
    v_factor, _ = counterexamples._line_fractal(beta, 0.25 * eps.min())
    mu = product_measure([h_factor] * (d - 1) + [v_factor])
    t = float(v_factor.atoms.max())
    h_atoms = h_factor.atoms[:, 0]
    if beta == 0.0:
        f_vals = np.ones(mu.n_atoms)
    else:
        f_vals = np.maximum(mu.atoms[:, -1],
                            v_factor.resolution) ** (-beta / p)
    fw = f_vals * mu.weights
    masses = np.empty((len(counterexamples._ANNULUS_PROBE_TARGETS), eps.size))
    for i, target in enumerate(counterexamples._ANNULUS_PROBE_TARGETS):
        x = np.array([float(h_atoms[np.argmin(np.abs(h_atoms - target))])]
                     * (d - 1) + [t])
        diff = mu.atoms - x
        band = np.abs(np.sqrt(np.einsum("ij,ij->i", diff, diff)) - t)
        for k, e in enumerate(eps):
            masses[i, k] = float(fw[band <= e].sum())
    return masses


# (parameter set, block sizes): blocks of 7 and 1000 end mid-row; the
# default ladder's 2^21 atoms take 1000 and the shipped block only
STREAMED_CASES = (
    ((2, 1.0, 0.5, 4.0, EPS_CRITERION), (1000, 2 ** 16)),
    (SHIPPED_SETS[3], (7, 1000)),                               # d = 3
    ((2, 0.0, 0.5, 4.0, tuple(2.0 ** -k for k in range(8, 14))), (7, 1000)),
    (SHIPPED_SETS[1], (7, 1000)),                               # beta = 0
    ((2, 0.7, 0.3, 3.0, tuple(0.2 * 0.6 ** k for k in range(10))), (7, 1000)),
)


@pytest.mark.parametrize("params, blocks", STREAMED_CASES)
def test_streamed_annulus_is_bitwise_the_materialized_product(
        monkeypatch, params, blocks):
    want = materialized_probe_masses(*params)
    reports = []
    for block in blocks:
        monkeypatch.setattr(counterexamples, "_BAND_BLOCK", block)
        rep = mattila_example(*params)
        assert rep.probe_masses == tuple(tuple(row) for row in want.tolist())
        assert rep.fit == loglog_fit(np.asarray(params[4]), want.mean(axis=0))
        reports.append(rep)
    assert reports[0].verdict_json() == reports[1].verdict_json()


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_annulus_peak_is_a_block_not_the_product():
    # the 2^21-atom product and its full-length temporaries took 160 MiB;
    # blocks of 2^16 atoms and the atoms inside the widest band take 8
    mattila_example(2, 1.0, 0.5, 4.0, (0.2, 0.1, 0.05, 0.025))
    peak = traced_peak(lambda: mattila_example(2, 1.0, 0.5, 4.0,
                                               EPS_CRITERION))
    assert peak < 16 * 2 ** 20


def test_annulus_peak_on_the_widest_ladder_stays_below_the_product():
    # eps up to 1/4 keeps a large share of the atoms in every probe's band
    # (74 MiB); the product alone took 160 MiB at every ladder
    mattila_example(2, 1.0, 0.5, 4.0, (0.2, 0.1, 0.05, 0.025))
    eps = tuple(0.25 * 2.0 ** -k for k in range(17))
    peak = traced_peak(lambda: mattila_example(2, 1.0, 0.5, 4.0, eps))
    assert peak < 100 * 2 ** 20


def test_annulus_deterministic():
    a = mattila_example(2, 0.5, 0.5, 2.0, SHIPPED_SETS[2][4])
    b = mattila_example(2, 0.5, 0.5, 2.0, SHIPPED_SETS[2][4])
    assert a.probe_masses == b.probe_masses
    assert a.fit == b.fit


# ---- fractal potential divergence ----

def test_potential_slope_bands():
    conv = riesz_divergence(2, 1.0, 1.2, levels=12)
    div = riesz_divergence(2, 1.0, 0.8, levels=12)
    marginal = riesz_divergence(2, 1.0, 1.0, levels=12)
    assert conv.slope <= -0.1
    assert div.slope >= 0.1
    assert abs(marginal.slope) <= 0.1
    assert conv.predicted_slope == pytest.approx(-0.2)
    assert div.predicted_slope == pytest.approx(0.2)
    assert marginal.predicted_slope == pytest.approx(0.0)


def test_potential_partial_sums_monotone():
    rep = riesz_divergence(2, 1.0, 0.8, levels=12)
    sums = np.array(rep.series.partial_sums)
    assert np.all(np.diff(sums) >= 0.0)
    assert np.allclose(np.cumsum(rep.series.increments), sums)


def test_potential_verdicts_stable_under_more_levels():
    for alpha, check in ((1.2, lambda v: v <= -0.1), (0.8, lambda v: v >= 0.1)):
        for levels in (10, 12, 16):
            rep = riesz_divergence(2, 1.0, alpha, levels=levels)
            assert check(rep.slope), (alpha, levels, rep.slope)


def test_potential_validation():
    with pytest.raises(ParameterError):
        riesz_divergence(2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        riesz_divergence(2, 1.0, 2.0)
    with pytest.raises(ParameterError):
        riesz_divergence(2, 1.0, 1.0, levels=3)
    with pytest.raises(ResourceError):
        riesz_divergence(2, 2.0, 1.0, levels=40)


def test_potential_csv_and_json():
    rep = riesz_divergence(2, 1.0, 0.8, levels=12)
    rows = rep.csv_rows()
    assert rows[0] == ("series", "level", "partial_sum", "increment")
    assert len(rows) == 1 + len(rep.series.levels)
    assert rows[-1] == ("potential", rep.series.levels[-1],
                        rep.series.partial_sums[-1], rep.series.increments[-1])
    blob = rep.verdict_json()
    assert blob["construction"] == "fractal-potential"
    assert blob["slope"] == rep.slope
    assert blob["predicted_slope"] == pytest.approx(0.2)


# ---- fixed-time extremizer ----

def test_fixed_time_criterion_verdicts_d3():
    reps = {p: fixed_time_sharpness(3, p) for p in (1.4, 1.5, 1.6)}
    assert reps[1.4].lp_norm_finite
    assert reps[1.5].lp_norm_finite          # boundary case: log saves it
    assert not reps[1.6].lp_norm_finite
    for rep in reps.values():
        assert rep.divergence_slope > 0.0
        assert rep.blowup_dim == pytest.approx(2.0, abs=1e-12)
        assert rep.blowup_dim_matches


def test_fixed_time_verdicts_d2():
    assert fixed_time_sharpness(2, 1.8).lp_norm_finite
    assert fixed_time_sharpness(2, 2.0).lp_norm_finite
    assert not fixed_time_sharpness(2, 2.4).lp_norm_finite
    assert not fixed_time_sharpness(2, 5.0).lp_norm_finite
    assert fixed_time_sharpness(2, 2.0).blowup_dim == pytest.approx(1.0)


def test_fixed_time_monotone_under_refinement():
    for p, want in ((1.5, True), (1.6, False)):
        for shells in (30, 40, 60):
            rep = fixed_time_sharpness(3, p, shells=shells)
            assert rep.lp_norm_finite is want, (p, shells)
            assert rep.divergence_slope > 0.0


def test_fixed_time_validation():
    with pytest.raises(ParameterError):
        fixed_time_sharpness(3, 1.0)
    with pytest.raises(ParameterError):
        fixed_time_sharpness(4, 1.4)


def test_fixed_time_csv_and_json():
    rep = fixed_time_sharpness(3, 1.5)
    rows = rep.csv_rows()
    assert rows[0] == ("series", "level", "partial_sum", "increment")
    assert len(rows) == 1 + 2 * 40
    assert {row[0] for row in rows[1:]} == {"lp", "sphere-probe"}
    blob = rep.verdict_json()
    assert blob["construction"] == "fixed-time-extremizer"
    assert blob["blowup_dim_matches"] is True
