"""Wave module tests: closed-form oracles, small-time order, blowup probe."""

import json
import tracemalloc

import numpy as np
import pytest

from frostlab import spectral, wave3d
from frostlab.cli import main
from frostlab.errors import DomainError, ParameterError
from frostlab.measures import (
    cantor_measure,
    lebesgue_box_measure,
    product_measure,
    random_ball_measure,
)
from frostlab.norms import grid_operator_handle, lp_norm, opnorm_lower
from frostlab.operators import default_mollify_eps, sphere_multiplier
from frostlab.spectral import (
    Field,
    SpectralGrid,
    Spectrum,
    load_field_binary,
    mollifier_hat,
)
from frostlab.wave3d import (
    _box_dimension,
    blowup_probe,
    pointwise_limit_fit,
    sharpness_family,
    wave_solution,
)
from oracles import gaussian_wave_target


@pytest.fixture(scope="module")
def grid128():
    return SpectralGrid(dim=3, n_per_axis=128, box_half_width=2.0)


@pytest.fixture(scope="module")
def grid32():
    return SpectralGrid(dim=3, n_per_axis=32, box_half_width=2.0)


@pytest.fixture(scope="module")
def mu_lattice():
    return lebesgue_box_measure(3, 1.5, 48)


@pytest.fixture(scope="module")
def mu_small():
    return lebesgue_box_measure(3, 0.5, 8)


def gaussian(a):
    return lambda pts: np.exp(
        -np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1) / (2.0 * a * a))


def interior_mask(grid, margin):
    axis = grid.space_axis()
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(z)) <= margin


# ---- closed-form solution checks ----

def test_constant_data_gives_u_equals_t(grid128, mu_lattice):
    t = 0.4
    u = wave_solution(lambda pts: np.ones(len(pts)), mu_lattice, t, grid128)
    eps = 2.0 / grid128.freq_max
    inside = interior_mask(grid128, 1.5 - t - 4 * eps)
    assert inside.sum() > 10_000
    assert np.max(np.abs(u.values[inside] / t - 1.0)) <= 1e-4


def test_gaussian_data_matches_closed_form(grid128, mu_lattice):
    a, t = 0.35, 0.5
    u = wave_solution(gaussian(a), mu_lattice, t, grid128)
    target = gaussian_wave_target(a, t, grid128)
    assert np.max(np.abs(u.values - target)) <= 1e-4
    core = interior_mask(grid128, 0.5)
    assert np.max(np.abs(u.values[core] - target[core])) <= 1e-8


def test_wave_solution_is_linear(grid32, mu_small):
    f = gaussian(0.3)(mu_small.atoms)
    g = np.cos(3.0 * mu_small.atoms[:, 0])
    ua = wave_solution(f, mu_small, 0.5, grid32).values
    ub = wave_solution(g, mu_small, 0.5, grid32).values
    uc = wave_solution(2.0 * f - 0.5 * g, mu_small, 0.5, grid32).values
    scale = np.max(np.abs(uc))
    assert np.max(np.abs(uc - (2.0 * ua - 0.5 * ub))) <= 1e-12 * scale
    assert ua.dtype == np.float64 and ua.flags.c_contiguous


def test_wave_solution_validation(grid32, mu_small):
    grid2 = SpectralGrid(dim=2, n_per_axis=32, box_half_width=2.0)
    with pytest.raises(ParameterError):
        wave_solution(lambda p: np.ones(len(p)), mu_small, 0.5, grid2)
    with pytest.raises(DomainError):
        wave_solution(lambda p: np.ones(len(p)), mu_small, 1.5, grid32)


def test_wave_solution_rejects_non_finite_values(grid32, mu_small):
    # finite data this large overflow the transform's scaling to inf
    huge = np.full(mu_small.n_atoms, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ParameterError, match="non-finite"):
            wave_solution(huge, mu_small, 0.5, grid32)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_wave_solution_rejects_each_non_finite_value(grid32, mu_small, bad, monkeypatch):
    # the check reads the field's min and max: a NaN reaches both, -inf
    # only the min and +inf only the max
    values = np.linspace(-1.0, 1.0, 32**3).reshape((32,) * 3)
    values[3, 5, 7] = bad
    monkeypatch.setattr(wave3d, "spherical_average",
                        lambda f, mu, t, grid: Field(grid, values.copy(), "space"))
    with pytest.raises(ParameterError, match="wave field contains non-finite values"):
        wave_solution(None, mu_small, 0.5, grid32)


# ---- small-time pointwise limit ----

def test_pointwise_order_meets_quadratic_rate(grid128, mu_lattice):
    rep = pointwise_limit_fit(gaussian(0.35), mu_lattice, grid128)
    assert rep.times == (0.2, 0.1, 0.05)
    assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
    assert 1.7 <= rep.order <= 2.2
    blob = rep.verdict_json()
    assert blob["construction"] == "small-time-limit"
    assert blob["order"] == rep.order


def test_pointwise_validation(grid128, grid32, mu_small):
    f = gaussian(0.3)
    with pytest.raises(ParameterError):
        pointwise_limit_fit(f, mu_small, grid128, times=(0.2, 0.1))
    with pytest.raises(ParameterError):
        pointwise_limit_fit(f, mu_small, grid128, times=(0.2, 0.1, 0.1))
    grid2 = SpectralGrid(dim=2, n_per_axis=32, box_half_width=2.0)
    with pytest.raises(ParameterError):
        pointwise_limit_fit(f, mu_small, grid2)
    with pytest.raises(DomainError):
        pointwise_limit_fit(f, mu_small, grid32, times=(1.5, 0.2, 0.1))


@pytest.mark.parametrize("binned", [True, False], ids=["binned", "spread"])
def test_pointwise_errors_match_the_difference_of_two_fields(grid32, mu_small,
                                                             binned):
    # the oracle: u/t and the mollified data as two fields, subtracted
    mu = mu_small if binned else random_ball_measure(3, 300, seed=3, radius=0.5)
    assert (spectral._lattice_indices(mu, grid32) is not None) == binned
    f = gaussian(0.3)
    times = (0.4, 0.2, 0.1)
    rep = pointwise_limit_fit(f, mu, grid32, times=times)
    eps = default_mollify_eps(grid32)
    base = sphere_multiplier(3)
    spec = Spectrum(f, mu, grid32)
    target = spec.apply(lambda rho: mollifier_hat(eps * rho)).values
    scale = np.max(np.abs(target))
    for t, err in zip(times, rep.errors):
        u = spec.apply(lambda rho: base(t * rho) * mollifier_hat(eps * rho)).values
        assert abs(err - np.max(np.abs(u - target))) <= 1e-12 * scale
    assert rep.errors[-1] > 1e-6 * scale


def test_pointwise_limit_fit_peaks_near_two_half_lattices():
    # the spectrum and one inverse's buffer, plus a slab of the inverse's
    # temporaries: 2.26 half lattices at 64^3.  The mollified target as a
    # third field and a fourth inverse took 4.26
    n = 64
    grid = SpectralGrid(3, n, 2.0)
    mu = lebesgue_box_measure(3, 1.5, 24)
    assert spectral._lattice_indices(mu, grid) is not None
    f = gaussian(0.35)
    pointwise_limit_fit(f, mu, grid)  # build the per-grid tables
    tracemalloc.start()
    try:
        pointwise_limit_fit(f, mu, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.35 * n * n * (n // 2 + 1) * 16


def test_gaussian_target_validation(grid128):
    with pytest.raises(ParameterError):
        gaussian_wave_target(0.0, 0.5, grid128)
    grid2 = SpectralGrid(dim=2, n_per_axis=32, box_half_width=2.0)
    with pytest.raises(ParameterError):
        gaussian_wave_target(0.3, 0.5, grid2)


# ---- field artifacts ----

def test_slice_csv_and_binary_roundtrip(grid32, mu_small, tmp_path, capsys):
    # `frostlab wave` writes the solution as field.bin only; any constant-z
    # plane is a slice of the array that file holds
    doc = {"experiment": "wave", "mode": "solution", "t": 0.5,
           "grid": {"dim": 3, "n_per_axis": 32, "box_half_width": 2.0},
           "measure": {"kind": "lebesgue-box", "d": 3, "half_width": 0.5,
                       "n_cells": 8},
           "density": {"kind": "gaussian", "width": 0.3}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    u = wave_solution(gaussian(0.3), mu_small, 0.5, grid32).values
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "field.bin", "manifest.json"]
    back = load_field_binary(tmp_path / "a" / "field.bin")
    assert back.rep == "space"
    assert back.values.tobytes() == u.tobytes()
    # the wave config has no slice height; an unread field is refused
    doc["slice_z"] = 0.3
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["wave", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 3
    assert "config error: slice_z: unknown field" in capsys.readouterr().err
    assert list((tmp_path / "b").iterdir()) == []


# ---- blowup probing ----

def test_blowup_probe_sharpness_family():
    f_fam, mu_fam, p = sharpness_family()
    assert p == 1.5
    rep = blowup_probe(f_fam, mu_fam, 1.0, family_p=p)
    assert rep.compare == pytest.approx(2.0, abs=1e-12)
    assert abs(rep.boxdim_estimate - 2.0) <= 0.25
    assert not rep.inconclusive
    for dim in rep.level_dims:
        assert 2.0 <= dim <= 2.4
    assert all(b > a for a, b in zip(rep.thresholds, rep.thresholds[1:]))
    for counts in rep.counts:
        assert all(c > 0 for c in counts)
        assert all(b < a for a, b in zip(counts, counts[1:]))
    blob = rep.verdict_json()
    assert blob["construction"] == "superlevel-boxdim"
    assert blob["boxdim_estimate"] == rep.boxdim_estimate
    rows = rep.csv_rows()
    assert rows[0] == ("n", "threshold", "eps", "count", "level_dim")
    assert len(rows) == 1 + 3 * 3
    assert rows[1] == (rep.refinements[0], rep.thresholds[0], rep.box_eps[0],
                       rep.counts[0][0], rep.level_dims[0])


def test_blowup_smooth_data_has_empty_superlevel():
    # box sides 2, 4 and 8 cells of a 32^3 grid: the box sizes 1/4, 1/2, 1
    counts, dim = _box_dimension(np.zeros((32,) * 3, dtype=bool), (2, 4, 8),
                                 0.125)
    assert counts == (0, 0, 0)
    assert dim == 0.0


def test_blowup_saturated_threshold_fills_the_box():
    counts, dim = _box_dimension(np.ones((32,) * 3, dtype=bool), (2, 4, 8),
                                 0.125)
    assert counts == (16 ** 3, 8 ** 3, 4 ** 3)
    assert dim == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("density", [1e-4, 1e-3, 0.02, 0.3])
def test_box_counts_equal_the_direct_reduction_per_side(density):
    # the staged counts OR blocks of the previous box mask; the direct
    # reduction reads the full mask at every side
    rng = np.random.default_rng(7)
    mask = rng.random((32,) * 3) < density
    for sides in ((1, 2, 4), (2, 4, 8), (4, 8, 16), (2, 8, 32)):
        direct = tuple(
            int(mask.reshape(32 // s, s, 32 // s, s, 32 // s, s).any(axis=(1, 3, 5)).sum())
            for s in sides)
        assert _box_dimension(mask, sides, 0.125)[0] == direct


def test_blowup_validation(mu_small):
    f_fam = lambda grid: gaussian(0.3)
    mu_fam = lambda grid: mu_small
    with pytest.raises(ParameterError):
        blowup_probe(f_fam, mu_fam, 0.5, 1.5, refinements=(64,))
    with pytest.raises(ParameterError):
        blowup_probe(f_fam, mu_fam, 0.5, 1.5, refinements=(64, 32))
    # the box size 1/8 is a whole number of cells only at multiples of 32
    for refs in ((16, 32), (32, 48), (0, 32)):
        with pytest.raises(ParameterError, match="whole numbers"):
            blowup_probe(f_fam, mu_fam, 0.5, 1.5, refinements=refs)
    with pytest.raises(ParameterError):
        blowup_probe(f_fam, mu_fam, 0.5, 1.5, refinements=(32, 64),
                     threshold_fraction=1.0)


def test_sharpness_family_profile():
    f_fam, mu_fam, _ = sharpness_family()
    grid = SpectralGrid(dim=3, n_per_axis=64, box_half_width=2.0)
    f = f_fam(grid)
    inside = f(np.array([[0.25, 0.0, 0.0]]))[0]
    assert inside == pytest.approx(16.0 / np.log(4.0), rel=1e-12)
    assert f(np.array([[0.6, 0.0, 0.0]]))[0] == 0.0
    # clamp: the origin takes the cell-size value
    floor = grid.spacing
    assert f(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(
        floor**-2.0 / np.log(1.0 / floor), rel=1e-12)
    mu = mu_fam(grid)
    assert mu.resolution == pytest.approx(grid.spacing, rel=1e-12)


def test_energy_ratio_consistent_with_certified_lower_bound(grid32, mu_small):
    # s_mu + s_nu = 3 + 2.27 > 4: bounded evolution regime at p = 2
    c = cantor_measure(0.4, 3)
    nu = product_measure([c, c, c])
    grid = SpectralGrid(dim=3, n_per_axis=64, box_half_width=2.0)
    handle = grid_operator_handle(
        lambda vals: wave_solution(vals, mu_small, 1.0, grid), nu)
    est = opnorm_lower(handle, mu_small, nu, 2.0, "bumps", seed=7)
    assert 0.05 < est.value < 0.09
    g = gaussian(0.3)(mu_small.atoms)
    ratio = lp_norm(handle.apply(g), nu, 2.0) / lp_norm(g, mu_small, 2.0)
    assert ratio <= est.value * 1.05
