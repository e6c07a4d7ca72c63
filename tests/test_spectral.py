"""Transforms vs the direct-sum oracle, cutoff hygiene, and scaling fits."""

import itertools
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
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
from frostlab.operators import spherical_average
from frostlab.spectral import (
    Field,
    SpectralGrid,
    annulus_beta,
    decay_fit,
    direct_fourier,
    field_at_points,
    field_l2sq,
    load_field_binary,
    lowpass_chi,
    measure_fourier,
    mollifier_hat,
    partition_residual,
    save_field_binary,
    strichartz_profile,
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


def test_grid_validation():
    with pytest.raises(ParameterError):
        SpectralGrid(2, 100, 2.0)  # not a power of two
    with pytest.raises(ParameterError):
        SpectralGrid(4, 64, 2.0)
    with pytest.raises(ResourceError):
        SpectralGrid(3, 512, 2.0)  # 512^3 above the value cap
    # NaN <= 0 is False, so a sign test alone built a grid of NaN spacing
    for half_width in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="box_half_width"):
            SpectralGrid(2, 64, half_width)


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

    def signed_f(x):
        return np.cos(2.0 * x[:, -1]) - 0.5 * x[:, 0]

    for f in (None, real_f, signed_f):
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
    f, g = (data.draw(values) for _ in range(2))
    coef = st.floats(-10.0, 10.0)
    a, b = data.draw(coef), data.draw(coef)
    got = measure_fourier(a * f + b * g, mu, grid).values
    want = (a * measure_fourier(f, mu, grid).values
            + b * measure_fourier(g, mu, grid).values)
    # the l1 mass of each term bounds its transform, so it scales roundoff
    scale = (abs(a) * np.sum(np.abs(f) * mu.weights)
             + abs(b) * np.sum(np.abs(g) * mu.weights))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


# ---- the cached spread plan ----

def offlattice_measure(seed, d=2, n_atoms=256):
    rng = np.random.default_rng(seed)
    return measure_from_atoms(rng.uniform(-1.5, 1.5, size=(n_atoms, d)),
                              rng.uniform(0.1, 1.0, n_atoms))


def streamed_fourier(f, mu, grid, monkeypatch):
    """measure_fourier with no plan: every atom spread afresh by np.add.at."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_SPREAD_PLAN_ENTRIES", 0)
        m.setattr(spectral, "_plan_cache", None)
        out = measure_fourier(f, mu, grid).values
        assert spectral._plan_cache is None
        gap = spread_gap(f, mu, grid)
    return out, gap


def cold_warm_and_planned(transform, monkeypatch):
    """transform() three times from an empty plan cache: the first spreads
    directly and keeps the positions and rows but no plan, the second
    builds the plan, and the third reuses it."""
    monkeypatch.setattr(spectral, "_plan_cache", None)
    first = transform()
    *_, occupied, plan = spectral._plan_cache
    assert plan is None
    second = transform()
    plan = spectral._plan_cache[4]
    assert plan is not None and spectral._plan_cache[3] is occupied
    third = transform()
    assert spectral._plan_cache[4] is plan and spectral._plan_cache[3] is occupied
    return first, second, third


@pytest.mark.parametrize("d, n", [(1, 512), (2, 64), (3, 32)])
def test_planned_and_streamed_spreads_agree(monkeypatch, d, n):
    grid = SpectralGrid(d, n, 2.0)
    mu = offlattice_measure(d, d, 200)
    assert spectral._lattice_indices(mu, grid) is None
    rng = np.random.default_rng(20 + d)
    cases = {"real": rng.uniform(0.5, 1.5, 200), "signed": rng.normal(size=200)}
    for name, f in cases.items():
        runs = cold_warm_and_planned(
            lambda: measure_fourier(f, mu, grid).values.tobytes(), monkeypatch)
        assert spread_gap(f, mu, grid) <= SPREAD_TOL, name
        streamed, gap = streamed_fourier(f, mu, grid, monkeypatch)
        assert gap <= SPREAD_TOL, name
        # the plan's product adds each atom's kernel values in the order
        # the direct spread does, so every route has the same bits
        assert len({*runs, streamed.tobytes()}) == 1, name


# a Cantor square on [0, 1)^d in the box [-1, 1)^d: its last atoms sit
# within one fine cell of L, so the rows their kernels reach wrap to row 0
WRAP_CASES = [(2, 64), (3, 32)]


@pytest.mark.parametrize("d, n", WRAP_CASES)
def test_wrapping_rows_give_the_same_bytes_every_way(monkeypatch, d, n):
    grid = SpectralGrid(d, n, 1.0)
    mu = product_measure([cantor_measure(0.25, 3)] * d)
    for f in (np.cos(np.arange(mu.n_atoms)), 1.5 + np.cos(np.arange(mu.n_atoms))):
        routes = (lambda: measure_fourier(f, mu, grid).values.tobytes(),
                  lambda: spherical_average(f, mu, 0.5, grid).values.tobytes())
        for route in routes:
            runs = cold_warm_and_planned(route, monkeypatch)
            # the kernels of the atoms next to L reach the last rows of each
            # leading axis and, through the edge, the first; rows between
            # stay empty
            for rows in spectral._plan_cache[3]:
                assert rows[0] == 0 and rows[-1] == 2 * n - 1 and rows.size < 2 * n
            with monkeypatch.context() as m:
                m.setattr(spectral, "_SPREAD_PLAN_ENTRIES", 0)
                m.setattr(spectral, "_plan_cache", None)
                streamed = route()
                assert spectral._plan_cache is None
            assert len({*runs, streamed}) == 1


def _moved_in_place(mu, grid):
    mu.atoms[:, 0] += 0.1
    return mu, grid


# each change keeps the atom array (or its shape) and moves what the
# spread depends on: a plan looked up by the atoms alone would be stale
PLAN_KEY_CHANGES = {
    "box_half_width": lambda mu, grid: (mu, SpectralGrid(2, 64, 3.0)),
    "n_per_axis": lambda mu, grid: (mu, SpectralGrid(2, 128, 2.0)),
    "atoms_mutated_in_place": _moved_in_place,
    "other_atoms_same_shape": lambda mu, grid: (offlattice_measure(2), grid),
}


@pytest.mark.parametrize("change", PLAN_KEY_CHANGES.values(),
                         ids=PLAN_KEY_CHANGES.keys())
def test_plan_cache_misses_when_the_positions_move(monkeypatch, change):
    mu, grid = offlattice_measure(1), SpectralGrid(2, 64, 2.0)
    measure_fourier(None, mu, grid)  # leaves this plan in the cache
    plan = spectral._plan_cache
    mu, grid = change(mu, grid)
    assert spectral._lattice_indices(mu, grid) is None
    warm = measure_fourier(None, mu, grid).values
    assert spectral._plan_cache is not plan
    monkeypatch.setattr(spectral, "_plan_cache", None)
    cold = measure_fourier(None, mu, grid).values
    assert np.array_equal(warm, cold)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_per_grid_tables_are_built_once_and_read_only(d, n):
    grid = SpectralGrid(d, n, 2.0)
    mu = offlattice_measure(d, d, 50)
    f = np.cos(np.arange(mu.n_atoms))
    spectral._occurring_keys.cache_clear()
    spectral._radius_table.cache_clear()
    spectral._mode_factors.cache_clear()
    cold = [measure_fourier(f, mu, grid).values,
            spectral.Spectrum(f, mu, grid).apply(lowpass_chi).values]
    tables = [(spectral._occurring_keys(grid), spectral._radius_table(grid)),
              spectral._mode_factors(grid, True, True),
              spectral._mode_factors(grid, False, True)]
    spec = spectral.Spectrum(f, mu, grid)
    warm = [measure_fourier(f, mu, grid).values, spec.apply(lowpass_chi).values]
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))
    assert spectral._occurring_keys(grid) is tables[0][0]
    assert spectral._radius_table(grid) is tables[0][1]
    assert spectral._mode_factors(grid, True, True) is tables[1]
    # every caller shares these arrays, so none may write to them
    assert not any(a.flags.writeable for table in tables for a in table)
    # the keys are built per slab: beside its transform a spectrum holds 1-d
    # tables only, no key table of the lattice
    held = [v for v in vars(spec).values() if isinstance(v, np.ndarray)]
    assert any(a is spec._half for a in held)
    assert all(a.ndim == 1 for a in held if a is not spec._half)


@pytest.mark.parametrize("spread", [False, True], ids=["binned", "spread"])
@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_full_lattice_reads_the_half_lattice_spectrum(d, n, spread):
    # measure_fourier and Spectrum read one real spectrum: on the last-axis
    # modes 0..n/2-1 they differ by the origin's sign (-1)^(k_1+...+k_d) alone
    grid = SpectralGrid(d, n, 2.0)
    rng = np.random.default_rng(d)
    if spread:
        mu = offlattice_measure(d, d, 50)
    else:
        nodes = rng.integers(0, n, size=(50, d))
        mu = measure_from_atoms(-2.0 + grid.spacing * nodes, rng.uniform(0.1, 1.0, 50))
    assert (spectral._lattice_indices(mu, grid) is None) == spread
    f = rng.normal(size=mu.n_atoms)
    full = measure_fourier(f, mu, grid).values[..., :n // 2]
    half = spectral.Spectrum(f, mu, grid)._half[..., :n // 2]
    sign = 1.0 - 2.0 * (np.indices(half.shape).sum(axis=0) % 2)
    assert np.array_equal(full, half * sign)


def reference_transform(c, mu, grid, half):
    """_transform as one scipy.fft.rfftn of the whole N^d grid (N = n
    binned, 2n spread), then its reads: the rows k mod N of each leading
    axis and last-axis columns 0..n/2, or for the full lattice the columns
    0..n/2-1 and conj F(-k) read at rows (-k) mod N."""
    n, d, h = grid.n_per_axis, grid.dim, grid.n_per_axis // 2
    lattice = spectral._lattice_indices(mu, grid)
    spread = lattice is None
    if spread:
        size = 2 * n
        u = (mu.atoms + grid.box_half_width) / (2.0 * grid.box_half_width)
        every_row = (np.arange(size),) * (d - 1)
        values = spectral._spread_es(c, u, size, every_row)
    else:
        size = n
        flat = np.ravel_multi_index(tuple(lattice.T), (n,) * d)
        values = np.bincount(flat, weights=c, minlength=n**d).reshape((n,) * d)
    spec = scipy.fft.rfftn(values)
    if half and not spread:
        return spec
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    rows = np.ix_(*[k % size] * (d - 1))
    if half:
        central = spec[..., :h + 1][rows]
    else:
        central = np.empty((n,) * d, dtype=np.complex128)
        central[..., :h] = spec[..., :h][rows]
        central[..., h:] = np.conj(spec[..., h:0:-1][np.ix_(*[-k % size] * (d - 1))])
    for factor in spectral._mode_factors(grid, half, spread):
        central *= factor
    return central


@st.composite
def transform_cases(draw):
    """A small grid in d = 1, 2, 3 and up to 12 atoms, on grid nodes
    (binned) or off them (spread), with signed strengths.  Coordinates are
    drawn in grid cells from -L; some fall within 7 fine cells (3.5 grid
    cells) of either edge, so the occupied rows wrap across it.  With fill,
    a diagonal of atoms, one per grid cell, occupies every row of every
    axis."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([8, 16, 32]))
    grid = SpectralGrid(d, n, 2.0)
    cell = st.one_of(st.floats(0.0, n - 1e-6), st.floats(0.0, 3.5),
                     st.floats(n - 3.5, n - 1e-6))
    cells = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), d),
                            elements=cell))
    fill = draw(st.booleans())
    if fill:
        cells = np.vstack([cells, np.repeat(np.arange(n + 0.0)[:, None], d, axis=1)])
    spread = draw(st.booleans())
    # off the nodes, one atom sits 0.3 cells from one, so the spread is taken
    cells = np.vstack([cells + 0.5, np.full((1, d), 0.3)]) if spread else np.floor(cells)
    cells %= n
    mu = measure_from_atoms(-2.0 + grid.spacing * cells, np.ones(cells.shape[0]))
    assert (spectral._lattice_indices(mu, grid) is None) == spread
    c = draw(hnp.arrays(np.float64, mu.n_atoms, elements=st.floats(-1.0, 1.0)))
    return grid, mu, c


@PROPERTY
@given(transform_cases(), st.booleans())
def test_pruned_transform_is_rfftn_bit_for_bit(case, half):
    # the pruned forward transform runs rfftn's 1-d transforms in rfftn's
    # order on the occupied rows and the kept modes only, so every byte
    # agrees, signed zeros included
    grid, mu, c = case
    got = spectral._transform(c, mu, grid, half)
    want = reference_transform(c, mu, grid, half)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 700, spectral._STAGE_CHUNK])
@pytest.mark.parametrize("half", [False, True])
def test_binned_stages_in_the_final_buffer_are_rfftn_bit_for_bit(chunk, half):
    # the first of two leading axes is transformed into the final buffer
    # one chunk of axis 1's occupied rows at a time: one row per chunk,
    # four, or all of them give rfftn's bytes, also when every row of
    # axis 0 or of axis 1 holds an atom
    n = 16
    grid = SpectralGrid(3, n, 2.0)
    rng = np.random.default_rng(5)
    every = np.arange(n)[:, None]
    cases = [rng.integers(0, n, size=(6, 3)),
             np.hstack([every, rng.integers(0, n, size=(n, 2))]),
             np.hstack([rng.integers(0, n, size=(n, 1)), every,
                        rng.integers(0, n, size=(n, 1))])]
    for nodes in cases:
        mu = measure_from_atoms(-2.0 + grid.spacing * nodes, np.ones(len(nodes)))
        c = rng.normal(size=mu.n_atoms)
        with mock.patch.object(spectral, "_STAGE_CHUNK", chunk):
            got = spectral._transform(c, mu, grid, half)
        want = reference_transform(c, mu, grid, half)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def spectrum_cases(draw, lattice=None):
    """A small grid in d = 1, 2, 3, up to 24 atoms either on grid nodes
    (binned) or anywhere in [-L, L)^d (spread), and signed real f.
    lattice=True keeps the atoms on grid nodes; None draws which."""
    d = draw(st.integers(1, 3))
    grid = SpectralGrid(d, draw(st.sampled_from([8, 16, 32])), 2.0)
    k = draw(st.integers(1, 24))
    if lattice or (lattice is None and draw(st.booleans())):
        nodes = hnp.arrays(np.int64, (k, d),
                           elements=st.integers(0, grid.n_per_axis - 1))
        atoms = -2.0 + grid.spacing * draw(nodes)
    else:
        coord = st.floats(-2.0, 2.0, exclude_max=True)
        atoms = draw(hnp.arrays(np.float64, (k, d), elements=coord))
        atoms = np.vstack([atoms, np.full((1, d), 0.3 * grid.spacing)])
    mu = measure_from_atoms(atoms, draw(hnp.arrays(
        np.float64, atoms.shape[0], elements=st.floats(0.01, 1.0))))
    values = hnp.arrays(np.float64, mu.n_atoms, elements=st.floats(-1.0, 1.0))
    return grid, mu, draw(values)


def damped_cosine(grid, t):
    """A radial profile with the mollifier's damping: it vanishes on the
    Nyquist planes to roundoff, as every operator's multiplier does."""
    eps = 2.0 / grid.freq_max
    return lambda rho: np.cos(2.0 * np.pi * t * rho) * mollifier_hat(eps * rho)


def space_bound(f, mu, grid):
    """sum |f w| (n dxi)^d bounds every space-side value of the transform
    times a profile bounded by 1, so it scales roundoff."""
    return (np.sum(np.abs(f) * mu.weights)
            * (grid.n_per_axis * grid.freq_step) ** grid.dim)


@PROPERTY
@given(spectrum_cases(), st.floats(0.1, 1.0))
def test_spectrum_apply_matches_full_lattice_route(case, t):
    grid, mu, f = case
    w = damped_cosine(grid, t)
    got = spectral.Spectrum(f, mu, grid).apply(w)
    # numpy's own inverse of the full lattice: the sign (-1)^k moves the
    # origin back to the box corner, and (n dxi)^d makes the sum a
    # Riemann sum over the frequencies
    full = measure_fourier(f, mu, grid).values * w(grid.freq_radii())
    k = np.fft.fftfreq(grid.n_per_axis, d=1.0 / grid.n_per_axis).astype(np.int64)
    sign = (-1.0) ** sum(np.ix_(*[k] * grid.dim))
    want = np.fft.ifftn(full * sign) * (grid.n_per_axis * grid.freq_step) ** grid.dim
    assert got.rep == "space"
    assert got.values.dtype == np.float64
    assert np.max(np.abs(got.values - want)) <= 1e-12 * space_bound(f, mu, grid)


@PROPERTY
@given(spectrum_cases(lattice=True))
def test_spectrum_inverts_its_transform_on_the_lattice(case):
    # the unit profile's inverse, times the cell volume, gives back each
    # node's strength: _transform then _inverse is the identity
    grid, mu, f = case
    back = spectral.Spectrum(f, mu, grid).apply(np.ones_like).values * grid.spacing**grid.dim
    nodes = np.round((mu.atoms + grid.box_half_width) / grid.spacing).astype(np.int64)
    strengths = np.zeros((grid.n_per_axis,) * grid.dim)
    np.add.at(strengths, tuple(nodes.T), f * mu.weights)
    assert np.max(np.abs(back - strengths)) <= 1e-12 * np.sum(np.abs(f) * mu.weights)


def k2_table(grid):
    """The keys of |xi| on the whole half lattice, built as one int32
    table: K2 = |k|^2 in integer modes, |k| in d = 1.  The oracle for the
    keys the module builds per slab."""
    n, d = grid.n_per_axis, grid.dim
    last = np.arange(n // 2 + 1, dtype=np.int32)
    if d == 1:
        return last
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int32)
    key = last**2
    for a in range(d - 1):
        key = (k**2).reshape((n,) + (1,) * (d - 1 - a)) + key
    return key


def radius_table(grid):
    """|xi| at each key of k2_table, up to its largest key."""
    keys = k2_table(grid)
    if grid.dim == 1:
        return keys * grid.freq_step
    return np.sqrt(np.arange(int(keys.max()) + 1)) * grid.freq_step


# slab sizes of the inverse: one line per slab, slabs that end mid-plane,
# and the module's own size
INVERSE_SLABS = [1, 7, 64, spectral._INVERSE_SLAB]


@PROPERTY
@given(spectrum_cases(), st.floats(0.1, 1.0), st.sampled_from([1.0, 1e-300, 1e-310]),
       st.sampled_from(INVERSE_SLABS))
def test_spectrum_apply_is_irfftn_bit_for_bit(case, t, scale, slab):
    # the staged inverse runs irfftn's 1-d transforms in irfftn's order and
    # scales once at the end, so every bit agrees; scaling between the
    # stages would differ once values go subnormal, which the small scales
    # reach.  The single-use inverse, in the spectrum's own memory, is the
    # same routine, and so is every slab size.
    grid, mu, f = case
    spec = spectral.Spectrum(scale * f, mu, grid)
    w = damped_cosine(grid, t)
    shape = (grid.n_per_axis,) * grid.dim
    table = spec._table(w) * (grid.n_per_axis * grid.freq_step) ** grid.dim
    want = scipy.fft.irfftn(spec._half * table[k2_table(grid)], s=shape)
    with mock.patch.object(spectral, "_INVERSE_SLAB", slab):
        got = spec.apply(w).values
        spent = spec._apply_in_place(w).values
    for values in (got, spent):
        assert values.dtype == np.float64 and values.shape == shape
        assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("spread", [False, True], ids=["binned", "spread"])
@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_apply_leaves_the_spectrum_as_it_was(d, n, spread):
    # maximal_function and pointwise_limit_fit apply one spectrum many
    # times, and reduce each field in its own memory
    grid = SpectralGrid(d, n, 2.0)
    rng = np.random.default_rng(d)
    if spread:
        mu = offlattice_measure(d, d, 50)
    else:
        mu = measure_from_atoms(-2.0 + grid.spacing * rng.integers(0, n, size=(50, d)),
                                np.ones(50))
    assert (spectral._lattice_indices(mu, grid) is None) == spread
    spec = spectral.Spectrum(rng.normal(size=mu.n_atoms), mu, grid)
    before = spec._half.copy()
    w = damped_cosine(grid, 0.3)
    first, second = spec.apply(w).values, spec.apply(w).values
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, spec._half)
    assert spec._half.tobytes() == before.tobytes()


@pytest.mark.parametrize("power_cached", [False, True])
def test_a_spent_spectrum_refuses_reuse(power_cached):
    grid = SpectralGrid(2, 32, 2.0)
    spec = spectral.Spectrum(None, CANTOR4SQ, grid)
    if power_cached:
        spec.energy(lowpass_chi)
    field = spec._apply_in_place(lowpass_chi)
    assert field.values.dtype == np.float64
    for use in (spec.energy, spec.apply, spec._apply_in_place):
        with pytest.raises(ParameterError, match="build a new one"):
            use(lowpass_chi)


@pytest.mark.parametrize("slab", [7, spectral._INVERSE_SLAB])
@pytest.mark.parametrize("d, n", [(1, 8), (1, 64), (1, 2048), (2, 8), (2, 32),
                                  (2, 256), (3, 8), (3, 16), (3, 64)])
def test_occurring_keys_are_the_keys_that_occur(d, n, slab):
    grid = SpectralGrid(d, n, 2.0)
    keys, radii = k2_table(grid), radius_table(grid)
    want = np.flatnonzero(np.bincount(keys.ravel(), minlength=radii.size))
    with mock.patch.object(spectral, "_INVERSE_SLAB", slab):
        got = spectral._occurring_keys.__wrapped__(grid)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("slab", [1, 7, 2**15])
@pytest.mark.parametrize("d, n", [(1, 8), (1, 64), (1, 2048), (2, 8), (2, 32),
                                  (2, 256), (3, 8), (3, 16), (3, 64)])
def test_key_slabs_tile_the_whole_key_table(d, n, slab):
    # the slabs, in order, tile the K2 table of the whole half lattice (and
    # of the full lattice, read at |k| on the last axis), and the radius
    # table and freq_radii have the bytes of the whole-table construction
    grid = SpectralGrid(d, n, 2.0)
    half = k2_table(grid)
    full = half[..., np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(np.int64))]
    radii = radius_table(grid)
    with mock.patch.object(spectral, "_INVERSE_SLAB", slab):
        for is_full, want in ((False, half), (True, full)):
            slabs = list(spectral._key_slabs(grid, is_full))
            rows = np.concatenate([np.arange(want.shape[0])[s] for s, _ in slabs])
            assert np.array_equal(rows, np.arange(want.shape[0]))
            assert all(keys.dtype == np.int32 for _, keys in slabs)
            got = np.concatenate([keys for _, keys in slabs])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert spectral._radius_table(grid).tobytes() == radii.tobytes()
        assert grid.freq_radii().tobytes() == radii[full].tobytes()


@pytest.mark.parametrize("slab", [1, 7, spectral._INVERSE_SLAB])
@pytest.mark.parametrize("spread", [False, True], ids=["binned", "spread"])
@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_lattice_hist_is_one_bincount_of_the_lattice(d, n, spread, slab):
    # np.add.at slab by slab adds in lattice order, as one bincount does
    grid = SpectralGrid(d, n, 2.0)
    rng = np.random.default_rng(d)
    if spread:
        mu = offlattice_measure(d, d, 50)
    else:
        mu = measure_from_atoms(-2.0 + grid.spacing * rng.integers(0, n, size=(50, d)),
                                np.ones(50))
    spec = spectral.Spectrum(rng.normal(size=mu.n_atoms), mu, grid)
    keys, size = k2_table(grid).ravel(), radius_table(grid).size
    power = spec._half.real**2 + spec._half.imag**2
    ones = np.ones(spec._half.shape)
    for values in (power, ones):
        values[..., 1:-1] *= 2.0
    with mock.patch.object(spectral, "_INVERSE_SLAB", slab):
        got = [spec._power, spec._multiplicity]
    for hist, values in zip(got, (power, ones)):
        want = np.bincount(keys, weights=values.ravel(), minlength=size)
        assert hist.tobytes() == want.tobytes()


def half_lattice_bytes(n, d):
    return n ** (d - 1) * (n // 2 + 1) * 16


def test_binned_transform_peaks_near_one_half_lattice():
    # binned, the stages run in the half lattice the transform returns,
    # beside a chunk and the occupied rows of the first stage: 1.10 half
    # lattices at 128^3.  A second full-size stage array beside the first
    # stage's result took 1.28
    n = 128
    grid = SpectralGrid(3, n, 2.0)
    mu = lebesgue_box_measure(3, 1.0, 32)
    assert spectral._lattice_indices(mu, grid) is not None
    spectral.Spectrum(None, mu, grid)  # build the per-grid tables
    tracemalloc.start()
    try:
        spec = spectral.Spectrum(None, mu, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec._half.shape == (n, n, n // 2 + 1)
    assert peak <= 1.15 * half_lattice_bytes(n, 3)


def test_spectrum_apply_peaks_near_one_half_lattice():
    # one complex buffer of the half lattice's shape, whose float64 view is
    # the field, plus a slab's temporaries: 1.25 half lattices at 64^3, 1.04
    # at 128^3.  The product and a separate real output took 1.98
    n = 64
    grid = SpectralGrid(3, n, 2.0)
    mu = lebesgue_box_measure(3, 1.0, 16)
    assert spectral._lattice_indices(mu, grid) is not None
    spec = spectral.Spectrum(None, mu, grid)
    w = damped_cosine(grid, 0.5)
    spec.apply(w)  # build the per-grid tables outside the measurement
    tracemalloc.start()
    try:
        field = spec.apply(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.values.dtype == np.float64
    assert peak <= 1.30 * half_lattice_bytes(n, 3)


def test_spherical_average_peaks_near_one_half_lattice():
    # a single-use operator transforms into the half lattice and inverts in
    # that same memory, so the average peaks at the half lattice and one
    # slab of the inverse's temporaries: 1.25 half lattices at 64^3.  A
    # second full-size stage array in the transform took 1.30; the
    # spectrum, the product, a gather of the table and the real output
    # took 2.98
    n = 64
    grid = SpectralGrid(3, n, 2.0)
    mu = lebesgue_box_measure(3, 1.0, 16)
    assert spectral._lattice_indices(mu, grid) is not None
    spherical_average(None, mu, 0.5, grid)  # build the per-grid tables
    tracemalloc.start()
    try:
        field = spherical_average(None, mu, 0.5, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.values.dtype == np.float64
    assert peak <= 1.29 * half_lattice_bytes(n, 3)


@PROPERTY
@given(spectrum_cases(), st.floats(0.1, 1.0))
def test_spectrum_energy_is_parseval_of_apply(case, t):
    grid, mu, f = case
    spec = spectral.Spectrum(f, mu, grid)
    # the real inverse keeps the Hermitian part of the last axis's Nyquist
    # column only; a binned transform is Hermitian there, a spread one is
    # not, so off the lattice the profile is damped there
    if spectral._lattice_indices(mu, grid) is not None:
        w = lambda rho: np.cos(2.0 * np.pi * t * rho)
    else:
        w = damped_cosine(grid, t)
    reduced = spec.energy(lambda rho: w(rho) ** 2)
    inverted = field_l2sq(spec.apply(w))
    scale = np.sum(np.abs(f) * mu.weights) ** 2 * (grid.n_per_axis * grid.freq_step) ** grid.dim
    assert reduced == pytest.approx(inverted, rel=1e-10, abs=1e-13 * scale)


def test_spectrum_energy_matches_full_lattice_sum():
    # the half lattice counts each interior column twice, for its mirror
    grid = SpectralGrid(3, 16, 2.0)
    mu = lebesgue_box_measure(3, 1.0, 8)
    f = lambda x: np.cos(x[:, 0]) - x[:, 1]
    full = measure_fourier(f, mu, grid).values
    rho = grid.freq_radii()
    want = np.sum(np.abs(full) ** 2 * lowpass_chi(rho)) * grid.freq_step ** 3
    got = spectral.Spectrum(f, mu, grid).energy(lowpass_chi)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_atoms_just_below_L_bin_as_their_periodic_image(d):
    # such an atom rounds to node n, which is node 0 of the periodic lattice.
    # Binning moves it by its offset delta below L, a phase error of up to
    # 2 pi freq_max delta: 1.3e-12 here, 1.3e-11 at delta = 1e-12
    grid = SpectralGrid(d, 16, 2.0)
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(16, 1.0 / 16)] * d, indexing="ij"),
                 axis=-1).reshape(-1, d)
    for axis, x in itertools.product(range(d), [2.0 - 1e-13, np.nextafter(2.0, 0.0)]):
        atom = np.zeros((1, d))
        atom[0, axis] = x
        mu = measure_from_atoms(atom, np.array([1.0]))
        assert spectral._lattice_indices(mu, grid) is not None
        field = measure_fourier(None, mu, grid).values
        oracle = direct_fourier(None, mu, k * grid.freq_step)
        gap = np.max(np.abs(field.ravel() - oracle)) / np.max(np.abs(oracle))
        assert gap <= 1e-11, (axis, x)


def test_atoms_off_a_node_by_1e_9_cells_are_spread():
    # binning would move such an atom by its offset, a phase error of
    # pi * 1e-9 of max |F| at freq_max; atoms within 1e-12 cells are binned
    grid = SpectralGrid(2, 256, 2.0)
    mu = measure_from_atoms(np.array([[0.9e-9 * grid.spacing, 0.0]]), np.array([1.0]))
    assert spectral._lattice_indices(mu, grid) is None
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(256, 1.0 / 256)] * 2, indexing="ij"),
                 axis=-1).reshape(-1, 2)
    field = measure_fourier(None, mu, grid).values
    oracle = direct_fourier(None, mu, k * grid.freq_step)
    assert np.max(np.abs(field.ravel() - oracle)) / np.max(np.abs(oracle)) <= SPREAD_TOL


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


# ---- space-side fields ----

def test_rep_tags_enforced():
    field = measure_fourier(None, dirac(2), GRID2)
    with pytest.raises(ParameterError):
        field_at_points(field, np.zeros((1, 2)))


def test_field_at_points_matches_nodes():
    field = spectral.Spectrum(None, CANTOR4SQ, GRID2).apply(mollifier_hat)
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


def test_field_at_points_guard_states_its_range():
    field = spectral.Spectrum(None, dirac(2), SpectralGrid(2, 64, 2.0)).apply(mollifier_hat)
    L, dx = 2.0, field.grid.spacing
    assert field_at_points(field, [[-L, L - dx]]).shape == (1,)
    # inside the box [-L, L) but past the last node, so no cell to interpolate in
    with pytest.raises(DomainError) as info:
        field_at_points(field, [[L - dx / 2, 0.0]])
    assert str(info.value) == ("interpolation points must lie in [-L, L - dx]"
                               f" = [{-L!r}, {L - dx!r}] per axis")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_field_at_points_refuses_non_finite_points(bad):
    field = spectral.Spectrum(None, dirac(2), SpectralGrid(2, 64, 2.0)).apply(mollifier_hat)
    with pytest.raises(DomainError, match="interpolation points must lie in"):
        field_at_points(field, [[0.0, 0.0], [0.5, bad]])


def test_field_at_points_keeps_a_real_field_real():
    field = spectral.Spectrum(None, CANTOR4SQ, GRID2).apply(mollifier_hat)
    pts = np.random.default_rng(3).uniform(-1.9, 1.9, size=(50, 2))
    got = field_at_points(field, pts)
    assert got.dtype == np.float64
    as_complex = Field(GRID2, field.values.astype(np.complex128), "space")
    assert np.array_equal(got, field_at_points(as_complex, pts).real)


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
    assert mollifier_hat(0.0) == 1.0


def test_partition_residual_machine_zero():
    assert partition_residual(GRID2) <= 1e-12
    assert partition_residual(SpectralGrid(1, 4096, 2.0)) <= 1e-12


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


# ---- serialization ----

def test_field_binary_round_trip(tmp_path):
    field = measure_fourier(None, CANTOR4SQ, GRID2)
    path = tmp_path / "f.ffld"
    save_field_binary(field, path)
    loaded = load_field_binary(path)
    assert loaded.rep == "freq" and loaded.values.dtype == np.complex128
    assert loaded.grid == field.grid
    np.testing.assert_array_equal(loaded.values, field.values)
    spatial = spectral.Spectrum(None, CANTOR4SQ, GRID2).apply(mollifier_hat)
    save_field_binary(spatial, path)
    loaded = load_field_binary(path)
    assert loaded.rep == "space" and loaded.values.dtype == np.float64
    np.testing.assert_array_equal(loaded.values, spatial.values)


EXTREMES = (-0.0, 5e-324, 1e300, -1e300)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("d, n", [(1, 8), (2, 512), (3, 64)])
def test_field_binary_keeps_the_dtype_and_every_bit(tmp_path, d, n, dtype):
    # v2 writes a real field as float64 and a complex one as complex128,
    # after a 30-byte header whose last byte is the dtype
    grid = SpectralGrid(d, n, 2.0)
    values = np.cos(np.arange(n**d, dtype=np.float64)).astype(dtype)
    values[:4] = EXTREMES
    if dtype is np.complex128:
        values.imag = np.sin(np.arange(n**d))
        values.imag[4:8] = EXTREMES
    values = values.reshape((n,) * d)
    path = tmp_path / "f.ffld"
    save_field_binary(Field(grid, values, "space"), path)
    raw = path.read_bytes()
    itemsize = np.dtype(dtype).itemsize
    assert len(raw) == 30 + itemsize * n**d
    assert raw[:8] == b"FFLD0002" and raw[28:30] == bytes([1, itemsize // 16])
    assert raw[30:] == values.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
    loaded = load_field_binary(path)
    assert loaded.rep == "space" and loaded.grid == grid
    assert loaded.values.dtype == dtype and loaded.values.flags.writeable
    assert loaded.values.tobytes() == values.tobytes()  # signed zeros too


def _v2_header(rep=1, code=0, dim=2, n=8):
    return b"FFLD0002" + struct.pack("<IQdBB", dim, n, 2.0, rep, code)


@pytest.mark.parametrize("rep, code", [(2, 0), (7, 0), (1, 2), (0, 255)])
def test_field_binary_refuses_bad_flag_bytes(tmp_path, rep, code):
    path = tmp_path / "f.ffld"
    path.write_bytes(_v2_header(rep, code) + b"\x00" * 16 * 64)
    with pytest.raises(ParameterError, match="bad rep or dtype byte"):
        load_field_binary(path)


def test_field_binary_refuses_a_v1_file(tmp_path):
    # v1: "FFLD0001", <IQdB (no dtype byte), then (re, im) float64 pairs
    path = tmp_path / "v1.ffld"
    path.write_bytes(b"FFLD0001" + struct.pack("<IQdB", 2, 8, 2.0, 1)
                     + b"\x00" * 16 * 64)
    with pytest.raises(ParameterError, match="bad magic b'FFLD0001'"):
        load_field_binary(path)


def test_field_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.ffld"
    path.write_bytes(b"XXLD0001" + b"\x00" * 32)
    with pytest.raises(ParameterError):
        load_field_binary(path)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_field_binary_rejects_trailing_bytes(tmp_path, dtype):
    # a file written over a longer one, or two files run together, holds
    # more than its header declares
    grid = SpectralGrid(2, 8, 2.0)
    field = Field(grid, np.arange(64, dtype=dtype).reshape(8, 8), "space")
    path = tmp_path / "f.ffld"
    save_field_binary(field, path)
    assert np.array_equal(load_field_binary(path).values, field.values)  # unmodified, it loads
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(ParameterError, match=r"f\.ffld: 8 bytes after the end of the data"):
        load_field_binary(path)


@pytest.mark.parametrize("keep", [20, -5])
def test_field_binary_rejects_truncated_file(tmp_path, keep):
    path = tmp_path / "f.ffld"
    save_field_binary(measure_fourier(None, dirac(2), SpectralGrid(2, 16, 2.0)), path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ParameterError, match="truncated"):
        load_field_binary(path)
