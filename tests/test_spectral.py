"""Transforms vs the direct-sum oracle, cutoff hygiene, and scaling fits."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import j0

from frostlab import spectral
from frostlab.errors import DomainError, FitError, ParameterError, ResourceError
from frostlab.measures import (
    cantor_measure,
    lebesgue_box_measure,
    measure_from_atoms,
    product_measure,
    radial_power_measure,
    random_ball_measure,
    sphere_measure,
)
from frostlab.spectral import (
    ComplexField,
    CUTOFFS,
    SpectralGrid,
    annulus_beta,
    annulus_energy_profile,
    annulus_growth_fit,
    beta0,
    decay_fit,
    direct_fourier,
    field_at_points,
    field_csv_rows,
    field_l2sq,
    littlewood_paley,
    load_field_binary,
    lowpass_chi,
    measure_fourier,
    mollifier_hat,
    partition_residual,
    save_field_binary,
    set_fft_workers,
    strichartz_profile,
    to_freq,
    to_space,
)

GRID2 = SpectralGrid(2, 256, 2.0)
CANTOR4SQ = product_measure([cantor_measure(0.25, 6)] * 2)


def dirac(d):
    return measure_from_atoms(np.zeros((1, d)), np.array([1.0]))


def oracle_gap(f, mu, grid, seed=7, n_probe=100):
    """Max |field - direct sum| over random low frequencies, relative to the
    largest oracle modulus (the spec'd agreement metric)."""
    field = measure_fourier(f, mu, grid)
    rng = np.random.default_rng(seed)
    n = grid.n_per_axis
    kmax = max(2, n // 16)  # |xi| stays below freq_max / 4
    idx = rng.integers(-kmax, kmax, size=(n_probe, grid.dim))
    xi = idx * grid.freq_step
    oracle = direct_fourier(f, mu, xi)
    got = field.values[tuple(idx[:, a] % n for a in range(grid.dim))]
    return float(np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)))


# ---- grid plumbing ----

def test_grid_invariants():
    g = SpectralGrid(2, 512, 2.0)
    assert g.freq_max == 512 / 8.0
    assert g.spacing == pytest.approx(4.0 / 512)
    assert g.freq_step == pytest.approx(0.25)
    np.testing.assert_allclose(g.axis_freqs(), np.fft.fftfreq(512, d=g.spacing))


def test_fft_workers_capped_at_core_count():
    old = spectral._fft_workers
    try:
        set_fft_workers(10**6)
        assert spectral._fft_workers == (os.cpu_count() or 1)
    finally:
        set_fft_workers(old)
    assert spectral._fft_workers == old


def test_grid_validation():
    with pytest.raises(ParameterError):
        SpectralGrid(2, 100, 2.0)  # not a power of two
    with pytest.raises(ParameterError):
        SpectralGrid(4, 64, 2.0)
    with pytest.raises(ResourceError):
        SpectralGrid(3, 512, 2.0)  # 512^3 above the value cap


# ---- oracle equivalence for every constructor ----

def test_oracle_cantor_1d():
    assert oracle_gap(None, cantor_measure(1 / 3, 12), SpectralGrid(1, 2048, 2.0)) < 1e-6


def test_oracle_cantor_product_2d():
    assert oracle_gap(None, CANTOR4SQ, GRID2) < 1e-6


def test_oracle_nonconstant_f():
    def f(a):
        return 1.0 + a[:, 0] - 0.5 * a[:, 1] ** 2
    assert oracle_gap(f, CANTOR4SQ, GRID2) < 1e-6


def test_oracle_radial_power_2d():
    mu = radial_power_measure(2, 1.5, 256)  # nodes at k/128 sit on the lattice
    assert oracle_gap(None, mu, SpectralGrid(2, 512, 2.0)) < 1e-6


def test_oracle_lebesgue_2d_and_3d():
    assert oracle_gap(None, lebesgue_box_measure(2, 1.0, 128), GRID2) < 1e-6
    assert oracle_gap(None, lebesgue_box_measure(3, 1.0, 32),
                      SpectralGrid(3, 64, 2.0)) < 1e-6


def test_oracle_sphere_2d_and_3d():
    assert oracle_gap(None, sphere_measure(2, 1.0, 2048), GRID2) < 1e-6
    assert oracle_gap(None, sphere_measure(3, 1.0, 2048),
                      SpectralGrid(3, 64, 2.0)) < 1e-6


def test_oracle_random_ball_3d():
    assert oracle_gap(None, random_ball_measure(3, 4000, seed=5),
                      SpectralGrid(3, 64, 2.0)) < 1e-6


# ---- off-lattice spreader against the direct sum ----

SPREAD_TOL = 1e-11  # the ES spreader's bound, relative to max |F|


def spread_gap(f, mu, grid, seed=11, n_probe=60):
    """Max |spread - direct| over random lattice frequencies plus every
    combination of DC, top and Nyquist index per axis, relative to the
    largest modulus of the transform."""
    field = measure_fourier(f, mu, grid).values
    n, d = grid.n_per_axis, grid.dim
    rng = np.random.default_rng(seed)
    corners = np.stack(np.meshgrid(*[[0, n // 2 - 1, -(n // 2)]] * d,
                                   indexing="ij"), axis=-1).reshape(-1, d)
    idx = np.vstack([rng.integers(-(n // 2), n // 2, size=(n_probe, d)),
                     corners])
    oracle = direct_fourier(f, mu, idx * grid.freq_step)
    got = field[tuple((idx % n).T)]
    return float(np.max(np.abs(got - oracle)) / np.max(np.abs(field)))


@pytest.mark.parametrize("d, n", [(1, 512), (2, 64), (3, 32)])
def test_spreader_matches_direct_sum_to_1e_11(d, n):
    grid = SpectralGrid(d, n, 2.0)
    rng = np.random.default_rng(d)
    atoms = rng.uniform(-2.0, 2.0, size=(300, d))
    atoms[0] = -2.0                          # the box corner, torus index 0
    atoms[1] = 2.0 - 0.3 * grid.spacing / 2  # within one fine cell of L
    mu = measure_from_atoms(atoms, rng.uniform(0.1, 1.0, 300))
    assert spectral._lattice_indices(mu, grid) is None

    def real_f(x):
        return 1.0 + 0.5 * np.sin(3.0 * x[:, 0])

    def complex_f(x):
        return np.exp(2j * x[:, -1]) + 0.5j * x[:, 0]

    for f in (None, real_f, complex_f):
        assert spread_gap(f, mu, grid) <= SPREAD_TOL


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def offlattice_cases(draw):
    """A small grid in d = 1, 2, 3 and up to 24 atoms anywhere in [-L, L)^d,
    plus one atom off the lattice so the spreading path is taken."""
    d = draw(st.integers(1, 3))
    grid = SpectralGrid(d, draw(st.sampled_from([8, 16, 32])), 2.0)
    k = draw(st.integers(1, 24))
    coord = st.floats(-2.0, 2.0, exclude_max=True)
    atoms = draw(hnp.arrays(np.float64, (k, d), elements=coord))
    atoms = np.vstack([atoms, np.full((1, d), 0.3 * grid.spacing)])
    weights = draw(hnp.arrays(np.float64, k + 1, elements=st.floats(0.01, 1.0)))
    return grid, measure_from_atoms(atoms, weights)


@PROPERTY
@given(offlattice_cases())
def test_spreader_matches_direct_sum_on_random_atoms(case):
    grid, mu = case
    n, d = grid.n_per_axis, grid.dim
    field = measure_fourier(None, mu, grid).values
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * d, indexing="ij"),
                 axis=-1).reshape(-1, d)
    oracle = direct_fourier(None, mu, k * grid.freq_step)
    gap = np.max(np.abs(field.ravel() - oracle)) / np.max(np.abs(field))
    assert gap <= SPREAD_TOL


@PROPERTY
@given(offlattice_cases(), st.data())
def test_measure_fourier_is_linear_in_f(case, data):
    grid, mu = case
    values = hnp.arrays(np.float64, mu.n_atoms, elements=st.floats(-1.0, 1.0))
    f, g_re, g_im = (data.draw(values) for _ in range(3))
    g = g_re + 1j * g_im  # the complex path against two real ones
    coef = st.floats(-10.0, 10.0)
    a, b = data.draw(coef), complex(data.draw(coef), data.draw(coef))
    got = measure_fourier(a * f + b * g, mu, grid).values
    want = (a * measure_fourier(f, mu, grid).values
            + b * measure_fourier(g, mu, grid).values)
    # the l1 mass of each term bounds its transform, so it scales roundoff
    scale = (abs(a) * np.sum(np.abs(f) * mu.weights)
             + abs(b) * np.sum(np.abs(g) * mu.weights))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_measure_outside_box_rejected():
    mu = measure_from_atoms(np.array([[2.5]]), np.array([1.0]))
    with pytest.raises(DomainError):
        measure_fourier(None, mu, SpectralGrid(1, 64, 2.0))


# ---- closed-form transforms ----

def test_dirac_transform_is_one():
    field = measure_fourier(None, dirac(2), GRID2)
    np.testing.assert_allclose(field.values, 1.0, atol=1e-12)


def test_sphere3_transform_matches_sinc():
    # freq_max = 128/(4*1.6) = 20, the example's comparison range
    grid = SpectralGrid(3, 128, 1.6)
    field = measure_fourier(None, sphere_measure(3, 1.0, 16384), grid)
    radii = grid.freq_radii()
    mask = (radii <= 20.0) & (radii > 0)
    target = np.sinc(2.0 * radii[mask])
    assert np.max(np.abs(field.values[mask] - target)) < 1e-3
    assert abs(field.values[0, 0, 0] - 1.0) < 1e-9  # probability normalization


def test_circle_transform_matches_bessel():
    grid = SpectralGrid(2, 512, 2.0)
    field = measure_fourier(None, sphere_measure(2, 1.0, 2048), grid)
    radii = grid.freq_radii()
    mask = radii <= 20.0
    assert np.max(np.abs(field.values[mask] - j0(2 * np.pi * radii[mask]))) < 1e-3


def test_uniform_interval_transform_matches_sinc():
    n = 65536
    atoms = (np.arange(n + 1) / n)[:, None]
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    mu = measure_from_atoms(atoms, w, nominal_s=1.0)
    grid = SpectralGrid(1, 4096, 2.0)
    field = measure_fourier(None, mu, grid)
    ks = np.arange(1, 33)  # xi = k/4 up to 8
    target = np.abs(np.sinc(ks / 4.0))
    assert np.max(np.abs(np.abs(field.values[ks]) - target)) < 1e-6


# ---- round trip and Parseval ----

def test_round_trip_and_parseval():
    field = measure_fourier(None, CANTOR4SQ, GRID2)
    spatial = to_space(field)
    back = to_freq(spatial)
    scale = np.max(np.abs(field.values))
    assert np.max(np.abs(back.values - field.values)) / scale < 1e-10
    assert field_l2sq(field) == pytest.approx(field_l2sq(spatial), rel=1e-10)


def test_rep_tags_enforced():
    field = measure_fourier(None, dirac(2), GRID2)
    with pytest.raises(ParameterError):
        to_freq(field)
    with pytest.raises(ParameterError):
        field_at_points(field, np.zeros((1, 2)))


def test_field_at_points_matches_nodes():
    field = to_space(measure_fourier(None, CANTOR4SQ, GRID2))
    g = field.grid
    ax = g.space_axis()
    pts = np.array([[ax[10], ax[20]], [ax[100], ax[200]]])
    got = field_at_points(field, pts)
    np.testing.assert_allclose(
        got, [field.values[10, 20], field.values[100, 200]], rtol=1e-12)
    # midpoint of two nodes interpolates linearly along that axis
    mid = np.array([[0.5 * (ax[10] + ax[11]), ax[20]]])
    expect = 0.5 * (field.values[10, 20] + field.values[11, 20])
    np.testing.assert_allclose(field_at_points(field, mid)[0], expect, rtol=1e-12)


# ---- cutoffs ----

def test_cutoff_shapes():
    r = np.linspace(0, 3, 301)
    chi = lowpass_chi(r)
    assert np.all(chi[r <= 1.5] == 1.0)
    assert np.all(chi[r >= 2.0] == 0.0)
    assert np.all((chi >= 0) & (chi <= 1))
    b = annulus_beta(r)
    assert np.all(b[(r >= 1.0) & (r <= 1.5)] == 1.0)
    assert np.all(b[(r <= 0.75) | (r >= 2.0)] == 0.0)
    spec = CUTOFFS["littlewood_paley_annulus"]
    assert spec.support == (0.75, 2.0) and spec.plateau == (1.0, 1.5)
    assert mollifier_hat(0.0) == 1.0


def test_partition_residual_machine_zero():
    assert partition_residual(GRID2) <= 1e-12
    assert partition_residual(SpectralGrid(1, 4096, 2.0)) <= 1e-12


def test_littlewood_paley_reconstruction_on_band_limited_field():
    g = GRID2
    radii = g.freq_radii()
    # smooth data supported where admissible annuli (alias guard) can cover
    values = np.exp(-0.1 * radii**2) * (1.0 + 0.3 * np.cos(radii))
    field = ComplexField(g, values.astype(np.complex128), "freq")
    j_max = int(math.floor(math.log2(g.freq_max / 2.0)))
    total = littlewood_paley(field, 0).values.copy()
    for j in range(1, j_max + 1):
        total += littlewood_paley(field, j).values
    covered = radii <= 1.5 * 2.0**j_max
    assert np.max(np.abs((total - values)[covered])) <= 1e-12


def test_littlewood_paley_identity_on_plateau():
    g = GRID2
    radii = g.freq_radii()
    j = 4
    support = (radii >= 2.0**j) & (radii <= 1.5 * 2.0**j)
    values = np.where(support, 1.0 + radii, 0.0).astype(np.complex128)
    field = ComplexField(g, values, "freq")
    out = littlewood_paley(field, j)
    np.testing.assert_allclose(out.values, values, atol=1e-14)


def test_littlewood_paley_squares_and_alias_guard():
    field = measure_fourier(None, CANTOR4SQ, GRID2)
    j = 3
    twice = littlewood_paley(littlewood_paley(field, j), j)
    weight = annulus_beta(GRID2.freq_radii() * 2.0**-j) ** 2
    np.testing.assert_allclose(twice.values, field.values * weight, atol=1e-14)
    with pytest.raises(DomainError):
        littlewood_paley(field, 6)  # 2^6 * 2 > freq_max = 32


# ---- scaling fits ----

def test_decay_fit_sphere3():
    field = measure_fourier(None, sphere_measure(3, 1.0, 8192),
                            SpectralGrid(3, 128, 2.0))
    assert abs(-decay_fit(field).slope - 1.0) <= 0.1


def test_decay_fit_sphere2():
    field = measure_fourier(None, sphere_measure(2, 1.0, 4096),
                            SpectralGrid(2, 1024, 2.0))
    assert abs(-decay_fit(field).slope - 0.5) <= 0.1


def test_decay_fit_dirac_flat():
    field = measure_fourier(None, dirac(2), GRID2)
    assert abs(decay_fit(field).slope) <= 0.02


def test_decay_fit_needs_shells():
    with pytest.raises(FitError):
        decay_fit(measure_fourier(None, dirac(1), SpectralGrid(1, 16, 2.0)))


def test_strichartz_lebesgue_plancherel():
    mu = lebesgue_box_measure(2, 1.0, 512)
    grid = SpectralGrid(2, 1024, 2.0)
    vals = strichartz_profile(None, mu, grid, [8, 16, 32, 64], s=2.0)
    # s = d: the statistic saturates at ||f||^2 = vol(box) = 4
    np.testing.assert_allclose(vals, 4.0, rtol=0.1)
    assert np.max(vals) / np.min(vals) < 1.05


def test_strichartz_cantor_square_bounded_ratios():
    grid = SpectralGrid(2, 1024, 1.0)
    vals = strichartz_profile(None, CANTOR4SQ, grid, [4, 8, 16, 32, 64], s=1.0)
    ratios = vals[1:] / vals[:-1]
    assert np.all((ratios >= 0.5) & (ratios <= 2.0))


def test_strichartz_zero_f_and_preconditions():
    zero = np.zeros(CANTOR4SQ.n_atoms)
    assert strichartz_profile(zero, CANTOR4SQ, GRID2, [4.0], 1.0)[0] == 0.0
    with pytest.raises(DomainError):
        strichartz_profile(None, CANTOR4SQ, GRID2, [100.0], 1.0)
    with pytest.raises(ParameterError):
        strichartz_profile(None, CANTOR4SQ, GRID2, [0.5], 1.0)


def test_strichartz_bounded_by_mass_multiple():
    # harness invariant: statistic at the fitted exponent stays under 10x mass
    fixtures = [
        (cantor_measure(1 / 3, 10), SpectralGrid(1, 2048, 2.0), 0.6309),
        (CANTOR4SQ, SpectralGrid(2, 1024, 1.0), 1.0),
        (lebesgue_box_measure(2, 1.0, 256), SpectralGrid(2, 512, 2.0), 2.0),
    ]
    for mu, grid, s in fixtures:
        r_vals = [2.0**k for k in range(0, int(math.log2(grid.freq_max / 4)) + 1)]
        vals = strichartz_profile(None, mu, grid, r_vals, s)
        assert np.max(vals) <= 10.0 * mu.total_mass


def test_annulus_energy_growth_cantor_square():
    grid = SpectralGrid(2, 1024, 1.0)
    js = range(2, 8)
    fit = annulus_growth_fit(None, CANTOR4SQ, grid, js)
    assert fit.slope <= 1.2  # (d - s) + 0.2
    # parity-resolved slope: the ratio-1/4 set beats with log2-period 2
    even = annulus_energy_profile(None, CANTOR4SQ, grid, [2, 4, 6])
    even_slope = math.log2(even[2] / even[0]) / 4.0
    assert abs(even_slope - 1.0) <= 0.15


def test_annulus_energy_zero_f_and_lebesgue_decay():
    grid = SpectralGrid(2, 512, 1.0)
    zero = np.zeros(CANTOR4SQ.n_atoms)
    assert annulus_energy_profile(zero, CANTOR4SQ, grid, [3])[0] == 0.0
    leb = lebesgue_box_measure(2, 0.5, 128)

    def smooth(a):
        return np.exp(-4.0 * np.sum(a**2, axis=1))

    fit = annulus_growth_fit(smooth, leb, grid, range(2, 7))
    assert fit.slope <= 0.1


def test_annulus_growth_fit_accepts_a_generator():
    grid = SpectralGrid(2, 256, 1.0)
    from_list = annulus_growth_fit(None, CANTOR4SQ, grid, [2, 3, 4, 5])
    from_gen = annulus_growth_fit(None, CANTOR4SQ, grid,
                                  (j for j in range(2, 6)))
    assert from_gen == from_list


# ---- serialization ----

def test_field_binary_round_trip(tmp_path):
    field = measure_fourier(None, CANTOR4SQ, GRID2)
    path = tmp_path / "f.ffld"
    save_field_binary(field, path)
    loaded = load_field_binary(path)
    assert loaded.rep == "freq"
    assert loaded.grid == field.grid
    np.testing.assert_array_equal(loaded.values, field.values)
    spatial = to_space(field)
    save_field_binary(spatial, path)
    assert load_field_binary(path).rep == "space"


def test_field_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.ffld"
    path.write_bytes(b"XXLD0001" + b"\x00" * 32)
    with pytest.raises(ParameterError):
        load_field_binary(path)


@pytest.mark.parametrize("keep", [20, -5])
def test_field_binary_rejects_truncated_file(tmp_path, keep):
    path = tmp_path / "f.ffld"
    save_field_binary(measure_fourier(None, dirac(2), SpectralGrid(2, 16, 2.0)), path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ParameterError, match="truncated"):
        load_field_binary(path)


def test_field_csv_rows():
    grid = SpectralGrid(1, 16, 2.0)
    field = measure_fourier(None, dirac(1), grid)
    rows = list(field_csv_rows(field))
    assert len(rows) == 16
    assert rows[0] == [0.0, 1.0, 0.0]  # DC row: freq, re, im
    with pytest.raises(ResourceError):
        list(field_csv_rows(measure_fourier(None, dirac(2), GRID2), limit=100))
