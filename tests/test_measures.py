"""Constructors, ball-mass laws, Frostman fits, energies, and serialization."""

import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frostlab import measures
from frostlab.errors import FitError, ParameterError, ResourceError
from frostlab.fitting import loglog_fit
from frostlab.measures import (
    DiscreteMeasure,
    annulus_pair_profile,
    ball_mass,
    cantor_measure,
    chain_triple_profile,
    energy_integral,
    frostman_fit,
    lebesgue_box_measure,
    load_measure_binary,
    measure_from_atoms,
    product_measure,
    radial_power_measure,
    random_ball_measure,
    save_measure_binary,
    sphere_measure,
)

# shared fixtures; module scope keeps the big pair sums to one evaluation
BALL = random_ball_measure(3, 9000, seed=11)
CANTOR3 = cantor_measure(1 / 3, 10)
CANTOR4SQ = product_measure([cantor_measure(0.25, 6)] * 2)

# Monte-Carlo oracle for the s=1 energy of the uniform unit ball (analytic
# value 6/5): 1e7 pairs, seed 20260819, measured 1.1996193
BALL_ENERGY_MC = 1.1996193


def dirac(d=1):
    return measure_from_atoms(np.zeros((1, d)), np.array([1.0]))


# ---- constructors ----

def test_cantor_depth1_atoms():
    mu = cantor_measure(1 / 3, 1)
    np.testing.assert_allclose(mu.atoms[:, 0], [0.0, 2 / 3])
    np.testing.assert_allclose(mu.weights, [0.5, 0.5])
    assert abs(mu.nominal_s - math.log(2) / math.log(3)) < 1e-14


def test_cantor_quarter_dimension():
    mu = cantor_measure(0.25, 8)
    assert mu.n_atoms == 2**8
    assert abs(mu.nominal_s - 0.5) < 1e-14
    assert np.all(mu.weights == 2.0**-8)


def test_cantor_half_degenerates_to_dyadic_grid():
    mu = cantor_measure(0.5, 6)
    assert abs(mu.nominal_s - 1.0) < 1e-14
    np.testing.assert_allclose(np.sort(mu.atoms[:, 0]), np.arange(64) / 64.0)


def test_cantor_parameter_errors():
    with pytest.raises(ParameterError):
        cantor_measure(0.6, 4)
    with pytest.raises(ParameterError):
        cantor_measure(1 / 3, 0)
    with pytest.raises(ParameterError):
        cantor_measure(1 / 3, 25)


def test_product_mass_and_dimension():
    mu = CANTOR4SQ
    assert mu.n_atoms == 4096
    assert abs(mu.total_mass - 1.0) < 1e-12
    assert abs(mu.nominal_s - 1.0) < 1e-14


def test_product_mixed_factors():
    mu = product_measure([cantor_measure(0.5, 5), cantor_measure(0.25, 5)])
    assert abs(mu.nominal_s - 1.5) < 1e-14
    assert mu.dim == 2


def test_product_single_factor_is_identity():
    c = cantor_measure(1 / 3, 4)
    assert product_measure([c]) is c


def test_product_size_cap():
    big = cantor_measure(0.5, 13)
    with pytest.raises(ResourceError):
        product_measure([big, big])


def test_radial_power_lebesgue_case():
    mu = radial_power_measure(2, 2.0, 128)
    w = mu.weights[mu.weights > 0]
    # s=d means constant density; only the origin cell differs (exact cell mass)
    assert np.unique(np.round(w, 14)).size <= 2


def test_radial_power_log_density_mass_ratio():
    mu = radial_power_measure(3, 0.0, 256, log_u=2.0)
    assert np.isfinite(mu.total_mass)
    ratios = [ball_mass(mu, np.zeros(3), 2.0**-m) / math.log(2.0**m) ** (1 - 2.0)
              for m in range(2, 6)]
    assert max(ratios) / min(ratios) < 1.10


def test_radial_power_errors():
    with pytest.raises(ParameterError):
        radial_power_measure(2, 2.5, 128)
    with pytest.raises(ParameterError):
        radial_power_measure(2, -0.1, 128)
    with pytest.raises(ParameterError):
        radial_power_measure(3, 0.0, 128)  # s=0 needs log_u > 1


def test_sphere_measure_basic():
    circ = sphere_measure(2, 1.0, 256)
    np.testing.assert_allclose(np.linalg.norm(circ.atoms, axis=1), 1.0, atol=1e-12)
    assert np.all(circ.weights == 1.0 / 256)
    sp2 = sphere_measure(3, 2.0, 512)
    np.testing.assert_allclose(np.linalg.norm(sp2.atoms, axis=1), 2.0, atol=1e-12)
    assert abs(sp2.total_mass - 1.0) < 1e-12


# ---- ball_mass ----

def test_ball_mass_full_and_dirac():
    mu = cantor_measure(1 / 3, 6)
    assert ball_mass(mu, np.array([0.5]), 10.0) == pytest.approx(1.0)
    assert ball_mass(dirac(), np.zeros(1), 1e-9) == pytest.approx(1.0)


def test_ball_mass_self_similar_scales():
    for m in range(0, 8):
        assert ball_mass(CANTOR3, np.zeros(1), 3.0**-m) == pytest.approx(
            2.0**-m, abs=2.0**-10)


def test_ball_mass_monotone_in_r():
    rng = np.random.default_rng(2)
    x = CANTOR4SQ.atoms[17]
    masses = [ball_mass(CANTOR4SQ, x, r) for r in np.sort(rng.uniform(0.01, 2, 20))]
    assert np.all(np.diff(masses) >= 0)


# ---- frostman_fit ----

def test_frostman_fit_lebesgue_box():
    rep = frostman_fit(lebesgue_box_measure(2, 1.0, 256), n_probes=128)
    assert abs(rep.fitted_s - 2.0) <= 0.1
    assert rep.constant > 0


def test_frostman_fit_cantor():
    rep = frostman_fit(cantor_measure(1 / 3, 12), n_probes=128)
    assert abs(rep.fitted_s - 0.6309) <= 0.1
    assert rep.lower_regular


def test_frostman_fit_radial_power():
    rep = frostman_fit(radial_power_measure(2, 1.5, 512), n_probes=128)
    assert abs(rep.fitted_s - 1.5) <= 0.1


def test_frostman_fit_sphere():
    rep = frostman_fit(sphere_measure(3, 1.0, 4096), n_probes=128)
    assert abs(rep.fitted_s - 2.0) <= 0.1


def test_frostman_fit_dirac():
    with pytest.raises(ParameterError, match="single-point"):
        frostman_fit(dirac(2), n_probes=4)


def test_frostman_fit_product_additivity():
    a = cantor_measure(1 / 3, 6)
    b = cantor_measure(0.25, 6)
    sa = frostman_fit(a, n_probes=64).fitted_s
    sb = frostman_fit(b, n_probes=64).fitted_s
    sab = frostman_fit(product_measure([a, b]), n_probes=64).fitted_s
    assert abs(sab - (sa + sb)) <= 0.15


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frostman_fit_masses_match_the_norm_reference(d):
    # one probe, the heaviest atom: both envelopes are its ball masses, and
    # below 8 coordinates the distances are np.linalg.norm's to the bit
    mu = random_ball_measure(d, 3000, seed=4)
    rep = frostman_fit(mu, n_probes=1, seed=1)
    probe = mu.atoms[np.argmax(mu.weights)]
    dists = np.linalg.norm(mu.atoms - probe, axis=1)
    masses = [(mu.weights * (dists <= r)).sum() for r in rep.radii]
    assert np.array_equal(rep.max_masses, masses)
    assert np.array_equal(rep.min_masses, masses)


def test_frostman_fit_errors():
    with pytest.raises(ParameterError):
        frostman_fit(CANTOR3, n_probes=0)
    # atoms 0.75 apart at resolution 0.25: no dyadic radius below diam/4
    with pytest.raises(FitError):
        frostman_fit(cantor_measure(0.25, 1))
    # atoms this far apart overflow the diameter, and no radius is finite
    with pytest.raises(ParameterError, match="not finite"):
        frostman_fit(random_ball_measure(3, 10, seed=0, radius=1e308))


# ---- energy_integral ----

def test_energy_dirac_pair_divergent():
    mu = measure_from_atoms(np.zeros((2, 1)), np.array([0.5, 0.5]))
    rep = energy_integral(mu, 0.5)
    assert rep.divergent and math.isinf(rep.value)


def test_energy_ball_matches_monte_carlo():
    rep = energy_integral(BALL, 1.0)
    assert not rep.divergent
    assert abs(rep.value - BALL_ENERGY_MC) / BALL_ENERGY_MC < 0.02


def test_energy_cantor_partial_sums_stabilize():
    e10 = energy_integral(cantor_measure(1 / 3, 10), 0.5).value
    e11 = energy_integral(cantor_measure(1 / 3, 11), 0.5).value
    assert e11 / e10 == pytest.approx(1.0, abs=0.05)


def test_energy_divergence_flags_around_dimension():
    assert not energy_integral(CANTOR3, 0.53).divergent
    assert energy_integral(CANTOR3, 0.73).divergent
    assert not energy_integral(CANTOR4SQ, 0.85).divergent
    assert energy_integral(CANTOR4SQ, 1.15).divergent
    assert not energy_integral(lebesgue_box_measure(2, 1.0, 128), 1.85).divergent


def test_energy_domain_errors():
    with pytest.raises(ParameterError):
        energy_integral(CANTOR3, 0.0)
    with pytest.raises(ParameterError):
        energy_integral(CANTOR3, 1.5)  # above dim of the ambient space


@pytest.mark.filterwarnings("error")
def test_energy_refuses_a_diameter_that_overflows():
    # the mean atom spacing would be inf, and its dyadic level no integer
    far = random_ball_measure(3, 10, seed=0, radius=1e308)
    with pytest.raises(ParameterError, match=r"^support diameter inf is not finite$"):
        energy_integral(far, 1.0)


# ---- annulus and chain masses ----

def test_annulus_profile_slope_near_one():
    eps = [2.0**-m for m in range(3, 9)]
    prof = annulus_pair_profile(BALL, 0.5, eps)
    fit = loglog_fit(np.array(eps), prof)
    assert abs(fit.slope - 1.0) <= 0.1


def test_annulus_saturation_and_dirac():
    sat = annulus_pair_profile(BALL, 0.5, [10.0])[0]
    far = annulus_pair_profile(BALL, 0.5, [5.0])[0]
    assert sat == pytest.approx(far)  # everything beyond t is captured
    assert annulus_pair_profile(dirac(3), 0.5, [0.25])[0] == 0.0


def test_chain_triple_slope_near_two():
    eps = [2.0**-m for m in range(3, 8)]
    prof = chain_triple_profile(BALL, 0.5, eps)
    fit = loglog_fit(np.array(eps), prof)
    assert abs(fit.slope - 2.0) <= 0.15


def test_chain_triple_dirac_and_saturation():
    assert chain_triple_profile(dirac(3), 0.5, [0.25])[0] == 0.0
    sat = chain_triple_profile(BALL, 0.5, [10.0])[0]
    pair_sat = annulus_pair_profile(BALL, 0.5, [10.0])[0]
    assert sat > 0.5 * pair_sat**2 / BALL.total_mass  # Cauchy-Schwarz direction


def brute_force_pair_sums(mu, t, eps, s):
    """Annulus, chain and s-energy sums over ordered pairs, one atom's row at a time,
    with the closed annulus t <= |x - y| <= t + eps_k tested on each distance."""
    x, w = mu.atoms, mu.weights
    inner, energy = np.zeros((len(eps), mu.n_atoms)), 0.0
    for i in range(mu.n_atoms):
        d = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        for k, e in enumerate(eps):
            inner[k, i] = w[(d >= t) & (d <= t + e)].sum()
        energy += w[i] * (w[d > 0] * d[d > 0] ** -s).sum()
    return inner @ w, inner ** 2 @ w, energy


def assert_pair_sums_match_brute_force(mu, t, eps, s=0.5):
    annulus, chain, energy = brute_force_pair_sums(mu, t, eps, s)
    np.testing.assert_allclose(annulus_pair_profile(mu, t, eps), annulus, rtol=1e-12, atol=0)
    np.testing.assert_allclose(chain_triple_profile(mu, t, eps), chain, rtol=1e-12, atol=0)
    assert measures._pair_energy(mu.atoms, mu.weights, s) == pytest.approx(energy, rel=1e-12)


@st.composite
def snapped_cases(draw):
    """Up to 40 atoms on the 1/8 lattice in d = 1, 2, 3, with t and t + eps at
    lattice distances (t = sqrt(k)/8 is the exact rounding of one), so that pairs
    tie with both edges of the annulus; eps holds repeats and arrives unsorted."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(2, 40))
    atoms = draw(hnp.arrays(np.float64, (k, d), elements=st.integers(-6, 6))) / 8.0
    weights = draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
    t = math.sqrt(draw(st.integers(1, 40))) / 8.0
    eps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    return measure_from_atoms(atoms, weights), t, [e / 8.0 for e in eps]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(snapped_cases(), st.sampled_from([1, 7, 64, 2**19]))
def test_pair_scans_match_brute_force_on_lattice_ties(case, block):
    mu, t, eps = case
    # small blocks split the scan into many row blocks, down to one row each
    with mock.patch.object(measures, "_PAIR_BLOCK", block):
        assert_pair_sums_match_brute_force(mu, t, eps)


def all_pairs_inner(mu, t, eps_list):
    """Reference for measures._annulus_inner: bins every pair, in and out of the band,
    and reads only the band's bins."""
    eps = np.asarray(eps_list, dtype=float)
    edges = np.concatenate(([np.nextafter(t, -math.inf)], t + np.sort(eps)))
    nb, w = edges.size + 1, mu.weights
    hist = np.zeros((mu.n_atoms, nb))
    for i0, d in measures._pair_blocks(mu.atoms):
        b = np.searchsorted(edges, d)
        for ids, wt in ((b + nb * np.arange(d.shape[0])[:, None], w[i0:]),
                        (b + nb * np.arange(d.shape[1]), w[i0:i0 + d.shape[0], None])):
            hist[i0:] += np.bincount(ids.ravel(), np.broadcast_to(wt, d.shape).ravel(),
                                     hist[i0:].size).reshape(-1, nb)
    return np.cumsum(hist[:, 1:], axis=1)[:, np.searchsorted(edges, t + eps) - 1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(snapped_cases(), st.sampled_from([1, 7, 64, 2**19]))
def test_band_scan_equals_all_pairs_histogram_bit_for_bit(case, block):
    mu, t, eps = case
    with mock.patch.object(measures, "_PAIR_BLOCK", block):
        assert np.array_equal(measures._annulus_inner(mu, t, eps), all_pairs_inner(mu, t, eps))


# the shape of the offlattice-atoms benchmark's pair-scan input: a 4096-atom disk, t = 0.5
DISK = random_ball_measure(2, 4096, seed=41, radius=1.0)


def test_band_scan_equals_all_pairs_histogram_on_the_offlattice_disk():
    eps = [2.0**-k for k in range(4, 10)]
    assert np.array_equal(measures._annulus_inner(DISK, 0.5, eps),
                          all_pairs_inner(DISK, 0.5, eps))


def test_saturated_band_scan_peaks_no_higher_than_all_pairs_histogram():
    # eps = 10 keeps every pair at distance >= t, so the pruning saves no memory here
    peaks = []
    for scan in (all_pairs_inner, measures._annulus_inner):
        tracemalloc.start()
        try:
            scan(DISK, 0.5, [10.0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


@pytest.mark.parametrize("mu,t", [
    (lebesgue_box_measure(3, 1.0, 12), 0.5),  # a k-d tree count was 18% off here
    (product_measure([cantor_measure(1 / 3, 5)] * 2), 1 / 3),  # and 3.6% here
])
def test_pair_scans_match_brute_force_on_fixtures(mu, t):
    assert_pair_sums_match_brute_force(mu, t, [1 / 6, 1 / 3, 0.5, 1 / 12])


@pytest.mark.parametrize("t,eps", [
    (math.nan, [0.1]), (math.inf, [0.1]), (0.5, [math.nan]), (0.5, [math.inf]),
    (0.5, []), (0.0, [0.1]), (0.5, [0.1, -0.1]),
])
def test_annulus_and_chain_reject_bad_t_and_eps(t, eps):
    mu = cantor_measure(1 / 3, 3)
    with pytest.raises(ParameterError):
        annulus_pair_profile(mu, t, eps)
    with pytest.raises(ParameterError):
        chain_triple_profile(mu, t, eps)


def test_pair_scans_refuse_more_atoms_than_the_cap(monkeypatch):
    def no_scan(pts):
        raise AssertionError("the atom cap must be checked before any pair scan")

    monkeypatch.setattr(measures, "_pair_blocks", no_scan)
    mu = random_ball_measure(1, measures._MAX_ENERGY_ATOMS + 1, seed=0)
    with pytest.raises(ResourceError):
        annulus_pair_profile(mu, 0.5, [0.1])
    with pytest.raises(ResourceError):
        chain_triple_profile(mu, 0.5, [0.1])
    with pytest.raises(ResourceError):
        energy_integral(mu, 0.5)


# ---- serialization ----

def _assert_measures_equal(a: DiscreteMeasure, b: DiscreteMeasure):
    assert a.dim == b.dim and a.construction == b.construction
    np.testing.assert_array_equal(a.atoms, b.atoms)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert (a.nominal_s is None) == (b.nominal_s is None)
    if a.nominal_s is not None:
        assert a.nominal_s == b.nominal_s
    assert a.resolution == b.resolution


def test_binary_round_trip(tmp_path):
    mu = product_measure([cantor_measure(1 / 3, 4), cantor_measure(0.25, 4)])
    path = tmp_path / "m.fmeas"
    save_measure_binary(mu, path)
    _assert_measures_equal(mu, load_measure_binary(path))


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMEAS1" + b"\x00" * 64)
    with pytest.raises(ParameterError):
        load_measure_binary(path)


@pytest.mark.parametrize("keep", [20, -5])
def test_binary_rejects_truncated_file(tmp_path, keep):
    path = tmp_path / "m.fmeas"
    save_measure_binary(cantor_measure(0.25, 4), path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ParameterError, match="truncated"):
        load_measure_binary(path)


def test_binary_rejects_trailing_bytes(tmp_path):
    # a file written over a longer one, or two files run together, holds
    # more than its header declares
    mu = cantor_measure(0.25, 4)
    path = tmp_path / "m.fmeas"
    save_measure_binary(mu, path)
    _assert_measures_equal(mu, load_measure_binary(path))  # unmodified, it loads
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(ParameterError, match=r"m\.fmeas: 8 bytes after the end of the data"):
        load_measure_binary(path)


# header fields (offset, format, value): 2^40 atoms claim 8 TB the file
# does not hold, and dim = 0 would misread every later field
@pytest.mark.parametrize("offset, fmt, value, match", [
    (12, "<Q", 2**40, "truncated"),
    (8, "<I", 0, "dim must be >= 1"),
], ids=["n_atoms", "dim"])
def test_binary_header_is_checked_before_reading(tmp_path, offset, fmt, value, match):
    path = tmp_path / "m.fmeas"
    save_measure_binary(cantor_measure(0.25, 4), path)
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(ParameterError, match=match):
        load_measure_binary(path)
