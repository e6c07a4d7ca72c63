"""Operator tests: dual-route agreement, scaling laws, row sums, validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frostlab import operators
from frostlab.errors import ConfigError, DomainError, ParameterError
from frostlab.measures import (
    cantor_measure,
    lebesgue_box_measure,
    measure_from_atoms,
    product_measure,
    random_ball_measure,
    sphere_measure,
)
from frostlab.operators import (
    convolve_distribution,
    default_mollify_eps,
    default_t_grid,
    dyadic_operator,
    maximal_function,
    quadrature_spherical_average,
    riesz_multiplier,
    riesz_row_sum,
    sphere_l2_profile,
    sphere_multiplier,
    sphere_spatial_kernel,
    spherical_average,
)
from frostlab.spectral import (
    SpectralGrid,
    Spectrum,
    direct_fourier,
    field_at_points,
    field_l2sq,
    lowpass_phi_hat,
    measure_fourier,
)
from frostlab.wave3d import pointwise_limit_fit, wave_solution

G2_256 = SpectralGrid(2, 256, 2.0)
G2_512 = SpectralGrid(2, 512, 2.0)
G3_64 = SpectralGrid(3, 64, 2.0)

CANTOR45SQ = product_measure([cantor_measure(0.25, 5)] * 2)
DIRAC2 = measure_from_atoms(np.zeros((1, 2)), np.ones(1))


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


@st.composite
def atom_cases(draw, box_half_width):
    """A 16^2 or 8^3 grid on [-L, L)^d and up to 12 atoms in its middle half,
    on grid nodes or anywhere."""
    d = draw(st.integers(2, 3))
    grid = SpectralGrid(d, 16 if d == 2 else 8, box_half_width)
    k = draw(st.integers(1, 12))
    half = box_half_width / 2.0
    atoms = draw(hnp.arrays(np.float64, (k, d), elements=st.floats(-half, half)))
    if draw(st.booleans()):
        atoms = grid.spacing * np.round(atoms / grid.spacing)
    weights = draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
    return grid, measure_from_atoms(atoms, weights)


@PROPERTY
@given(atom_cases(2.0), st.floats(0.1, 1.0), st.data())
def test_spherical_average_is_linear_in_f(case, t, data):
    grid, mu = case
    values = hnp.arrays(np.float64, mu.n_atoms, elements=st.floats(-1.0, 1.0))
    f, g = (data.draw(values) for _ in range(2))
    coef = st.floats(-10.0, 10.0)
    a, b = data.draw(coef), data.draw(coef)
    got = spherical_average(a * f + b * g, mu, t, grid).values
    want = (a * spherical_average(f, mu, t, grid).values
            + b * spherical_average(g, mu, t, grid).values)
    # sum |f w| (n dxi)^d bounds each term's values, so it scales roundoff
    scale = ((abs(a) * np.sum(np.abs(f) * mu.weights)
              + abs(b) * np.sum(np.abs(g) * mu.weights))
             * (grid.n_per_axis * grid.freq_step) ** grid.dim)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@PROPERTY
@given(atom_cases(4.0),
       st.lists(st.floats(1.0, 2.0), min_size=1, max_size=6, unique=True),
       st.lists(st.floats(1.0, 2.0), min_size=1, max_size=6), st.data())
def test_maximal_function_grows_under_t_grid_refinement(case, coarse, extra, data):
    grid, mu = case
    f = data.draw(hnp.arrays(np.float64, mu.n_atoms, elements=st.floats(-1.0, 1.0)))
    coarse = sorted(coarse)
    fine = sorted(set(coarse) | set(extra))
    m_coarse = maximal_function(f, mu, coarse, grid).values.real
    m_fine = maximal_function(f, mu, fine, grid).values.real
    assert np.all(m_fine >= m_coarse)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def grid_points(grid):
    ax = grid.space_axis()
    mesh = np.meshgrid(*([ax] * grid.dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---- real f only ----

# a 3-d box wide enough for every route: maximal radii reach 2 = L / 2
G3_8 = SpectralGrid(3, 8, 4.0)
BOX3 = lebesgue_box_measure(3, 0.5, 2)
REAL_F_ROUTES = {
    "measure_fourier": lambda f: measure_fourier(f, BOX3, G3_8),
    "Spectrum": lambda f: Spectrum(f, BOX3, G3_8),
    "spherical_average": lambda f: spherical_average(f, BOX3, 0.5, G3_8),
    "maximal_function": lambda f: maximal_function(f, BOX3, [1.0, 2.0], G3_8),
    "quadrature_spherical_average":
        lambda f: quadrature_spherical_average(f, BOX3, 0.5, G3_8),
    "direct_fourier": lambda f: direct_fourier(f, BOX3, np.zeros((1, 3))),
    "wave_solution": lambda f: wave_solution(f, BOX3, 0.5, G3_8),
}
COMPLEX_F = {
    "array": np.full(BOX3.n_atoms, 1.0 + 0.5j),
    "callable": lambda x: np.exp(1j * x[:, 0]),
}


@pytest.mark.parametrize("f", COMPLEX_F.values(), ids=COMPLEX_F.keys())
@pytest.mark.parametrize("route", REAL_F_ROUTES.values(), ids=REAL_F_ROUTES.keys())
def test_complex_f_is_refused(route, f):
    with pytest.raises(ParameterError) as err:
        route(f)
    assert str(err.value) == (
        "f must be real; transform its real and imaginary parts separately")


# ---- radial multipliers ----

def test_sphere_multiplier_is_one_at_origin():
    assert sphere_multiplier(2)(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sphere_multiplier(3)(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sphere_multiplier(3)(0.7 * np.array([0.0]))[0] == pytest.approx(
        1.0, abs=1e-15)


def test_lowpass_multiplier_nonnegative_unit_dc():
    rho = np.linspace(0.0, 50.0, 2001)
    vals = lowpass_phi_hat(2.0 ** -3 * rho)
    assert vals[0] == 1.0
    assert np.all(vals >= 0.0)


def test_kernel_parameter_validation():
    with pytest.raises(ParameterError):
        sphere_multiplier(4)
    with pytest.raises(ParameterError):
        spherical_average(None, CANTOR45SQ, 0.0, G2_256)
    with pytest.raises(ParameterError):
        riesz_multiplier(G2_256, 2.0)
    with pytest.raises(ParameterError):
        riesz_multiplier(G2_256, -0.1)


# ---- spherical average: dual-route fixtures ----

def test_dual_route_cantor_square():
    fast = spherical_average(None, CANTOR45SQ, 0.7, G2_256)
    slow = quadrature_spherical_average(None, CANTOR45SQ, 0.7, G2_256)
    assert rel_l2(fast.values, slow.values) < 1e-6


def test_dual_route_lebesgue_box():
    g = SpectralGrid(2, 128, 2.0)
    mu = lebesgue_box_measure(2, 0.75, 48)
    fast = spherical_average(None, mu, 0.5, g)
    slow = quadrature_spherical_average(None, mu, 0.5, g)
    assert rel_l2(fast.values, slow.values) < 1e-6


def test_dual_route_circle_offlattice():
    mu = sphere_measure(2, 0.5, 512)
    fast = spherical_average(None, mu, 0.6, G2_256)
    slow = quadrature_spherical_average(None, mu, 0.6, G2_256)
    assert rel_l2(fast.values, slow.values) < 1e-6


def test_dual_route_lattice_d3():
    ax = G3_64.space_axis()
    rng = np.random.default_rng(3)
    idx = rng.integers(26, 39, size=(500, 3))
    mu = measure_from_atoms(ax[idx], np.full(500, 1 / 500.0))
    fast = spherical_average(None, mu, 0.5, G3_64)
    slow = quadrature_spherical_average(None, mu, 0.5, G3_64)
    assert rel_l2(fast.values, slow.values) < 1e-4


def test_dual_route_offlattice_d3_with_density():
    rng = np.random.default_rng(5)
    atoms = rng.uniform(-0.4, 0.4, size=(300, 3))
    mu = measure_from_atoms(atoms, np.full(300, 1 / 300.0))
    f = lambda x: np.exp(-(x ** 2).sum(axis=1))
    fast = spherical_average(f, mu, 0.5, G3_64)
    slow = quadrature_spherical_average(f, mu, 0.5, G3_64)
    assert rel_l2(fast.values, slow.values) < 1e-5


# ---- spherical average: closed forms ----

def test_gaussian_spherical_mean_closed_form():
    g = SpectralGrid(3, 128, 2.0)
    mu = lebesgue_box_measure(3, 1.75, 112)
    a = 2.0
    f = lambda x: np.exp(-a * (x ** 2).sum(axis=1))
    t = 0.5
    out = spherical_average(f, mu, t, g)
    eps = default_mollify_eps(g)
    ap = a / (1.0 + 2.0 * a * eps * eps)
    ax = g.space_axis()
    ii = np.array([56, 60, 64, 68, 72])
    probes = np.stack(np.meshgrid(ax[ii], ax[ii], ax[ii], indexing="ij"),
                      axis=-1).reshape(-1, 3)
    got = field_at_points(out, probes).real
    r = np.linalg.norm(probes, axis=1)
    x1 = 2.0 * ap * t * r
    ref = (1.0 + 2.0 * a * eps * eps) ** -1.5 * np.exp(-ap * (t * t + r * r)) \
        * np.where(x1 < 1e-8, 1.0, np.sinh(np.minimum(x1, 50.0)) / np.maximum(x1, 1e-300))
    assert np.abs(got - ref).max() < 1e-4


def test_constant_average_on_ball_is_one():
    pts = grid_points(G2_512)
    keep = np.linalg.norm(pts, axis=1) <= 1.3
    mu = measure_from_atoms(pts[keep], np.full(int(keep.sum()), G2_512.spacing ** 2),
                            construction="lebesgue-ball")
    out = spherical_average(None, mu, 0.5, G2_512)
    ctr = G2_512.n_per_axis // 2
    interior = out.values.real[ctr - 20:ctr + 20, ctr - 20:ctr + 20]
    assert np.abs(interior - 1.0).max() < 1e-6


def test_dirac_average_is_mollified_sphere_kernel():
    t = 0.6
    out = spherical_average(None, DIRAC2, t, G2_512)
    eps = default_mollify_eps(G2_512)
    r = np.linalg.norm(grid_points(G2_512), axis=1).reshape(out.values.shape)
    ref = sphere_spatial_kernel(2, t, eps, r)
    assert np.abs(out.values.real - ref).max() < 1e-6 * ref.max()


def test_sphere_radius_validation():
    with pytest.raises(DomainError):
        spherical_average(None, CANTOR45SQ, 1.2, G2_256)
    with pytest.raises(ParameterError):
        spherical_average(None, CANTOR45SQ, 0.0, G2_256)
    with pytest.raises(DomainError):
        quadrature_spherical_average(None, CANTOR45SQ, 1.2, G2_256)


def test_nan_radius_is_refused_as_a_radius():
    # NaN passes t <= 0 and every range comparison; it must not reach the
    # multiplier, which would report it as a singular multiplier
    with pytest.raises(ParameterError, match="sphere radius must be positive, got nan"):
        spherical_average(None, CANTOR45SQ, math.nan, G2_256)
    with pytest.raises(ParameterError, match="sphere radius must be positive, got nan"):
        pointwise_limit_fit(None, BOX3, G3_8, (0.2, math.nan, 0.05))
    g = SpectralGrid(2, 64, 4.0)
    for t_grid in ([1.0, math.nan, 2.0], [1.0, 2.0, math.nan], [math.nan]):
        with pytest.raises(ParameterError, match=r"t_grid must lie in \[1, 2\], got nan"):
            maximal_function(None, CANTOR45SQ, t_grid, g)


@pytest.mark.parametrize("rows", [8, 1024])
def test_quadrature_blocks_keep_the_bits(monkeypatch, rows):
    # 4096 grid points in blocks of `rows`: each point's sum over the atom
    # chunks is the one-block sum bit for bit
    g = SpectralGrid(2, 64, 2.0)
    mu = sphere_measure(2, 0.5, 100)
    whole = quadrature_spherical_average(None, mu, 0.6, g).values
    monkeypatch.setattr(operators, "_QUADRATURE_POINTS", rows)
    assert quadrature_spherical_average(None, mu, 0.6, g).values.tobytes() \
        == whole.tobytes()


def test_quadrature_rejects_measure_outside_box():
    mu = measure_from_atoms(np.array([[3.0, 0.0]]), np.ones(1))
    with pytest.raises(DomainError):
        quadrature_spherical_average(None, mu, 0.5, G2_256)


# ---- maximal operator ----

def test_maximal_constant_one_interior():
    g = SpectralGrid(2, 1024, 4.5)
    pts = grid_points(g)
    keep = np.linalg.norm(pts, axis=1) <= 4.2
    mu = measure_from_atoms(pts[keep], np.full(int(keep.sum()), g.spacing ** 2),
                            construction="lebesgue-ball")
    mx = maximal_function(None, mu, default_t_grid(16), g)
    ctr = g.n_per_axis // 2
    interior = mx.values.real[ctr - 56:ctr + 56, ctr - 56:ctr + 56]
    assert np.abs(interior - 1.0).max() < 1e-6


def test_maximal_singleton_equals_average_modulus():
    g = SpectralGrid(2, 256, 4.0)
    single = maximal_function(None, CANTOR45SQ, [1.3], g)
    avg = spherical_average(None, CANTOR45SQ, 1.3, g)
    assert single.values.dtype == avg.values.dtype == np.float64
    assert np.abs(single.values - np.abs(avg.values)).max() == 0.0


def test_maximal_refinement_monotone():
    g = SpectralGrid(2, 256, 4.0)
    coarse = maximal_function(None, CANTOR45SQ, default_t_grid(16), g)
    fine = maximal_function(None, CANTOR45SQ, default_t_grid(64), g)
    assert (fine.values.real - coarse.values.real).min() >= -1e-12


def test_maximal_t_grid_validation():
    g = SpectralGrid(2, 256, 4.0)
    with pytest.raises(ParameterError):
        maximal_function(None, CANTOR45SQ, [], g)
    with pytest.raises(ParameterError):
        maximal_function(None, CANTOR45SQ, [1.5, 1.2], g)
    with pytest.raises(ParameterError):
        maximal_function(None, CANTOR45SQ, [0.9, 1.5], g)
    with pytest.raises(ParameterError):
        maximal_function(None, CANTOR45SQ, [1.5, 2.1], g)


def test_default_t_grid_nested_and_bracketed():
    t16 = default_t_grid(16)
    t64 = default_t_grid(64)
    assert t16[0] == 1.0 and t16[-1] == 2.0
    assert np.isin(t16, t64).all()
    with pytest.raises(ParameterError):
        default_t_grid(0)


# ---- dyadic low-pass ----

def test_dyadic_dirac_peak_scaling():
    peaks = {}
    for j in (3, 4):
        out = dyadic_operator(None, DIRAC2, j, G2_512)
        peaks[j] = out.values.real.max()
    for j in (3, 4):
        pred = 2.0 ** (2 * j) * (math.pi / 36.0)
        assert abs(peaks[j] / pred - 1.0) < 0.05
    assert abs(peaks[4] / peaks[3] - 4.0) < 0.2


def test_dyadic_approximate_identity():
    mu = lebesgue_box_measure(2, 1.75, 448)
    f = lambda x: np.exp(-0.25 * (x ** 2).sum(axis=1))
    out = dyadic_operator(f, mu, 4, G2_512)
    ctr = G2_512.n_per_axis // 2
    assert abs(out.values.real[ctr, ctr] - 1.0) < 0.02


def test_dyadic_young_bound():
    out = dyadic_operator(None, CANTOR45SQ, 0, G2_256)
    bound = CANTOR45SQ.total_mass * (math.pi / 36.0)
    assert np.abs(out.values).max() <= bound * (1.0 + 1e-9)


def test_dyadic_alias_guard():
    with pytest.raises(DomainError):
        dyadic_operator(None, CANTOR45SQ, 5, G2_256)


# ---- T_lambda convolution ----

def test_sphere_multiplier_convolution_is_spherical_average():
    dirac3 = measure_from_atoms(np.zeros((1, 3)), np.ones(1))
    for grid, mu, t in ((G2_256, CANTOR45SQ, 0.7), (G3_64, dirac3, 0.5)):
        base = sphere_multiplier(grid.dim)
        via_t = convolve_distribution(lambda r: base(t * r), None, mu, grid)
        direct = spherical_average(None, mu, t, grid)
        np.testing.assert_array_equal(via_t.values, direct.values)


def test_spectrum_energy_is_grid_parseval():
    spec = Spectrum(None, CANTOR45SQ, G2_256)
    base = sphere_multiplier(2)
    for j in (1, 3, 5):
        w = lambda rho: base(2.0 ** -j * rho)
        reduced = spec.energy(lambda rho: w(rho) ** 2)
        inverted = field_l2sq(spec.apply(w))
        assert reduced == pytest.approx(inverted, rel=1e-10)


def test_identity_multiplier_returns_mollified_density():
    out = convolve_distribution(lambda rho: np.ones_like(rho), None, DIRAC2, G2_512)
    eps = default_mollify_eps(G2_512)
    r = np.linalg.norm(grid_points(G2_512), axis=1).reshape(out.values.shape)
    ref = (2.0 * math.pi * eps * eps) ** -1.0 * np.exp(-r * r / (2.0 * eps * eps))
    assert np.abs(out.values.real - ref).max() < 1e-6 * ref.max()


def test_riesz_dc_rule_allows_singular_origin():
    mult = riesz_multiplier(G2_256, 1.2)
    assert np.isfinite(mult(np.array([0.0])))[0]
    out = convolve_distribution(mult, None, CANTOR45SQ, G2_256)
    assert np.isfinite(out.values.real).all()


def test_singular_multiplier_without_rule_rejected():
    with pytest.raises(ConfigError, match="singular at 1 grid frequencies"):
        convolve_distribution(
            lambda rho: np.where(rho == 0.0, np.inf, np.ones_like(rho)),
            None, CANTOR45SQ, G2_256)
    step = G2_256.freq_step
    with pytest.raises(ConfigError, match="singular at 4 grid frequencies"):
        convolve_distribution(
            lambda rho: np.where(np.isclose(rho, step), np.inf, np.ones_like(rho)),
            None, CANTOR45SQ, G2_256)
    # |k|^2 = 3 is no sum of two squares: no grid frequency has this radius
    out = convolve_distribution(
        lambda rho: np.where(np.isclose(rho, math.sqrt(3.0) * step), np.inf,
                             np.ones_like(rho)),
        None, CANTOR45SQ, G2_256)
    assert np.isfinite(out.values).all()


def test_riesz_sup_bounded_for_large_alpha():
    g = SpectralGrid(2, 1024, 2.0)
    mult = riesz_multiplier(g, 1.2)
    sups = []
    for k in (4, 5, 6):
        mu = product_measure([cantor_measure(0.25, k)] * 2)
        out = convolve_distribution(mult, None, mu, g)
        idx = np.round((mu.atoms + 2.0) / g.spacing).astype(int)
        sups.append(out.values.real[idx[:, 0], idx[:, 1]].max())
    assert 0.9 < sups[1] / sups[0] < 1.1
    assert 0.9 < sups[2] / sups[1] < 1.1


# ---- Riesz row sums ----

def test_row_sum_alpha_equals_dim_recovers_mass():
    contrib = riesz_row_sum(CANTOR45SQ, 2.0, CANTOR45SQ.atoms[0], level_cap=30)
    expect = CANTOR45SQ.total_mass - CANTOR45SQ.weights[0]
    assert contrib.shape == (31,)
    assert contrib.sum() == pytest.approx(expect, rel=1e-12)


def test_row_sum_contribution_rates_depth12():
    mu = product_measure([cantor_measure(0.25, 12)] * 2)
    x = mu.atoms[0]
    for alpha, sign in ((1.2, -1.0), (0.8, 1.0)):
        contrib = riesz_row_sum(mu, alpha, x, level_cap=20)
        pos = contrib > 0
        m = np.arange(21)[pos]
        gm = math.log2(contrib[pos][-1] / contrib[pos][0]) \
            / (m[-1] - m[0])
        assert abs(gm - sign * 0.2) < 0.1


def test_row_sum_partial_sums_discriminate():
    mu = product_measure([cantor_measure(0.25, 12)] * 2)
    x = mu.atoms[0]
    ps = np.cumsum(riesz_row_sum(mu, 0.8, x, level_cap=20))
    m = np.arange(8, 19)
    slope = np.polyfit(m.astype(float), np.log2(ps[m]), 1)[0]
    assert 0.13 < slope < 0.32
    ps12 = np.cumsum(riesz_row_sum(mu, 1.2, x, level_cap=20))
    assert ps12[18] / ps12[8] < 1.5


@pytest.mark.parametrize("chunk", [1, 7])
def test_row_sum_chunked_scan_matches_one_chunk(monkeypatch, chunk):
    # 1024 atoms of unequal weight: 1024 one-atom chunks, or 146 of 7 and a
    # ragged last one
    weights = np.random.default_rng(5).uniform(0.5, 1.5, CANTOR45SQ.n_atoms)
    mu = measure_from_atoms(CANTOR45SQ.atoms, weights)
    x = mu.atoms[0]
    whole = riesz_row_sum(mu, 1.2, x, level_cap=20)
    monkeypatch.setattr(operators, "_RIESZ_CHUNK", chunk)
    got = riesz_row_sum(mu, 1.2, x, level_cap=20)
    assert np.count_nonzero(whole) > 5
    np.testing.assert_allclose(got, whole,
                               rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_row_sum_drops_overflowing_distances_without_warning():
    # atoms near 1e308 apart: every distance is far above 2 or overflows to inf
    far = random_ball_measure(3, 10, seed=0, radius=1e308)
    contrib = riesz_row_sum(far, 1.0, far.atoms[0], level_cap=8)
    np.testing.assert_array_equal(contrib, np.zeros(9))
    # the difference 1e308 - (-1e308) overflows; the neighbour at 1 still counts
    mu = measure_from_atoms(np.array([[1e308, 0.0], [-1e308, 0.0], [1e308, 1.0]]),
                            np.ones(3))
    contrib = riesz_row_sum(mu, 1.0, mu.atoms[0], level_cap=4)
    np.testing.assert_array_equal(contrib, [0.0, 2.0, 0.0, 0.0, 0.0])


def test_row_sum_level_cap_validation():
    with pytest.raises(ParameterError):
        riesz_row_sum(CANTOR45SQ, 1.0, CANTOR45SQ.atoms[0], level_cap=0)


# ---- small-scale L2 profile ----

def test_sphere_l2_profile_growth_slope():
    mu = product_measure([cantor_measure(0.25, 6)] * 2)
    g = SpectralGrid(2, 1024, 2.0)
    js = np.arange(2, 8)
    norms = sphere_l2_profile(None, mu, g, js)
    slope = np.polyfit(js.astype(float), np.log2(norms), 1)[0]
    assert slope >= 0.35
    assert norms[-1] > norms[0]


def test_sphere_l2_profile_refuses_a_non_integer_scale():
    g = SpectralGrid(2, 64, 2.0)
    # integral values of any type are scales
    assert np.array_equal(sphere_l2_profile(None, CANTOR45SQ, g, [2, 2.0, np.int64(2)]),
                          np.repeat(sphere_l2_profile(None, CANTOR45SQ, g, 2), 3))
    for j in (2.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="scales j must be integers"):
            sphere_l2_profile(None, CANTOR45SQ, g, [3, j])


# ---- algebraic properties ----

def test_operators_linear_in_density():
    rng = np.random.default_rng(11)
    fa = rng.standard_normal(CANTOR45SQ.n_atoms)
    fb = rng.standard_normal(CANTOR45SQ.n_atoms)
    combo = 2.0 * fa + 3.0 * fb
    sa = spherical_average(fa, CANTOR45SQ, 0.7, G2_256).values
    sb = spherical_average(fb, CANTOR45SQ, 0.7, G2_256).values
    sc = spherical_average(combo, CANTOR45SQ, 0.7, G2_256).values
    assert np.abs(sc - 2.0 * sa - 3.0 * sb).max() < 1e-10 * np.abs(sc).max()
    da = dyadic_operator(fa, CANTOR45SQ, 3, G2_256).values
    db = dyadic_operator(fb, CANTOR45SQ, 3, G2_256).values
    dc = dyadic_operator(combo, CANTOR45SQ, 3, G2_256).values
    assert np.abs(dc - 2.0 * da - 3.0 * db).max() < 1e-10 * np.abs(dc).max()


def test_positive_kernels_keep_nonnegative_density():
    rng = np.random.default_rng(13)
    f = rng.random(CANTOR45SQ.n_atoms)
    for out in (spherical_average(f, CANTOR45SQ, 0.7, G2_256),
                dyadic_operator(f, CANTOR45SQ, 3, G2_256)):
        scale = np.abs(out.values.real).max()
        assert out.values.real.min() >= -1e-10 * scale
        assert np.abs(out.values.imag).max() < 1e-10 * scale


def test_dilation_identity():
    mu = product_measure([cantor_measure(0.25, 4)] * 2)
    mu2 = dataclasses.replace(mu, atoms=mu.atoms * 2.0, box_lo=mu.box_lo * 2,
                              box_hi=mu.box_hi * 2, resolution=mu.resolution * 2)
    g1 = SpectralGrid(2, 512, 2.0)
    g2 = SpectralGrid(2, 512, 4.0)
    dilated = spherical_average(None, mu2, 0.8, g2)
    reference = spherical_average(None, mu, 0.4, g1)
    err = np.abs(dilated.values - 0.25 * reference.values).max()
    assert err < 1e-6 * np.abs(reference.values).max()
