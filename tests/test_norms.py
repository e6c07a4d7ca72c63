"""Norm-estimation tests: lp norms, witness families, certification, growth fits."""

import math

import numpy as np
import pytest

from frostlab.errors import EstimationError, FitError, ParameterError
from frostlab.fitting import FitReport, line_fit, log2_fit
from frostlab.measures import (
    cantor_measure,
    lebesgue_box_measure,
    measure_from_atoms,
    product_measure,
)
from frostlab.norms import (
    LinearOperatorHandle,
    certify,
    evaluate_witnesses,
    grid_operator_handle,
    lp_norm,
    opnorm_lower,
)
from frostlab.operators import sphere_l2_profile, spherical_average
from frostlab.spectral import SpectralGrid
from oracles import kernel_matrix_handle, matrix_operator_handle

CANTOR2SQ = product_measure([cantor_measure(0.25, 2)] * 2)


def riesz_handle(mu, alpha, eps):
    kern = lambda r: (r * r + eps * eps) ** ((alpha - mu.dim) / 2.0)
    return kernel_matrix_handle(kern, mu, mu)


# ---- lp_norm ----

def test_lp_norm_of_ones_is_mass_root():
    for p in (1.0, 2.0, 4.0):
        got = lp_norm(np.ones(CANTOR2SQ.n_atoms), CANTOR2SQ, p)
        assert got == pytest.approx(CANTOR2SQ.total_mass ** (1.0 / p), rel=1e-14)
    assert lp_norm(np.ones(CANTOR2SQ.n_atoms), CANTOR2SQ, math.inf) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [2.0, 700.0, 1100.0, 1e308])
@pytest.mark.parametrize("c", [0.5, 2.0, 1e-300, 1e300])
def test_lp_norm_of_a_constant_neither_underflows_nor_overflows(c, p):
    # (0.5)^1100 underflows and 2^1100 overflows unless the values are scaled first
    box = lebesgue_box_measure(2, 1.0, 32)
    got = lp_norm(np.full(box.n_atoms, c), box, p)
    assert got == pytest.approx(c * box.total_mass ** (1.0 / p), rel=1e-12, abs=0)
    assert lp_norm(np.zeros(box.n_atoms), box, p) == 0.0


def test_lp_norm_pythagoras_disjoint_supports():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(CANTOR2SQ.n_atoms)
    b = rng.standard_normal(CANTOR2SQ.n_atoms)
    half = CANTOR2SQ.n_atoms // 2
    a[half:] = 0.0
    b[:half] = 0.0
    lhs = lp_norm(a + b, CANTOR2SQ, 2.0) ** 2
    rhs = lp_norm(a, CANTOR2SQ, 2.0) ** 2 + lp_norm(b, CANTOR2SQ, 2.0) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lp_norm_holder_inequality():
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        for _ in range(200):
            u = rng.standard_normal(CANTOR2SQ.n_atoms)
            v = rng.standard_normal(CANTOR2SQ.n_atoms)
            inner = abs(float(CANTOR2SQ.weights @ (u * v)))
            bound = lp_norm(u, CANTOR2SQ, p) * lp_norm(v, CANTOR2SQ, q)
            assert inner <= bound * (1.0 + 1e-12)


def test_lp_norm_validation():
    with pytest.raises(ParameterError):
        lp_norm(np.ones(CANTOR2SQ.n_atoms), CANTOR2SQ, 0.5)
    with pytest.raises(ParameterError):
        lp_norm(np.ones(3), CANTOR2SQ, 2.0)


# ---- operator handles ----

def test_matrix_handle_shape_validation():
    with pytest.raises(ParameterError):
        matrix_operator_handle(np.ones((3, 3)), CANTOR2SQ, CANTOR2SQ)


def test_matrix_handle_adjoint_pairing():
    handle = riesz_handle(CANTOR2SQ, 1.0, 1 / 16.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(CANTOR2SQ.n_atoms)
    g = rng.standard_normal(CANTOR2SQ.n_atoms)
    lhs = float(CANTOR2SQ.weights @ (handle.apply(f) * g))
    rhs = float(CANTOR2SQ.weights @ (f * handle.adjoint(g)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---- opnorm_lower ----

def test_identity_operator_estimate_is_one():
    handle = LinearOperatorHandle(apply=lambda f: np.asarray(f),
                                  adjoint=lambda g: np.asarray(g))
    for family in ("random_atoms", "bumps", "extremizers",
                   "power_iteration_p2"):
        est = opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 2.0, family, seed=1)
        assert est.value >= 1.0 - 1e-6
        assert est.value <= 1.0 + 1e-12


def test_lebesgue_sphere_multiplier_sup():
    g = SpectralGrid(2, 256, 2.0)
    mu = lebesgue_box_measure(2, 1.75, 224)
    handle = grid_operator_handle(lambda f: spherical_average(f, mu, 1.0, g), mu)
    est = opnorm_lower(handle, mu, mu, 2.0, "bumps", seed=4)
    assert 0.5 <= est.value <= 1.02


def test_power_iteration_dominates_random_family():
    handle = riesz_handle(CANTOR2SQ, 1.0, 1 / 16.0)
    power = opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 2.0,
                         "power_iteration_p2", seed=7)
    rand = opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 2.0,
                        "random_atoms", seed=7)
    assert power.value >= rand.value - 1e-12
    assert power.iterations <= 200


def test_every_estimate_certifies():
    handle = riesz_handle(CANTOR2SQ, 1.0, 1 / 16.0)
    for family in ("random_atoms", "bumps", "extremizers",
                   "power_iteration_p2"):
        est = opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 2.0, family, seed=9)
        assert abs(certify(est, handle, CANTOR2SQ, CANTOR2SQ) - est.value) <= 1e-10


def test_ratio_scaling_covariance():
    handle = riesz_handle(CANTOR2SQ, 1.0, 1 / 16.0)
    est = opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 2.0, "bumps", seed=5)
    f = est.witness
    base = lp_norm(handle.apply(f), CANTOR2SQ, 2.0) / lp_norm(f, CANTOR2SQ, 2.0)
    scaled = lp_norm(handle.apply(3.7 * f), CANTOR2SQ, 2.0) \
        / lp_norm(3.7 * f, CANTOR2SQ, 2.0)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_opnorm_validation():
    handle = riesz_handle(CANTOR2SQ, 1.0, 1 / 16.0)
    with pytest.raises(ParameterError):
        opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 0.5, "bumps", seed=1)
    with pytest.raises(ParameterError):
        opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 2.0, "no_such_family", seed=1)
    with pytest.raises(ParameterError):
        opnorm_lower(handle, CANTOR2SQ, CANTOR2SQ, 3.0,
                     "power_iteration_p2", seed=1)
    no_adj = LinearOperatorHandle(apply=lambda f: np.asarray(f))
    with pytest.raises(ParameterError):
        opnorm_lower(no_adj, CANTOR2SQ, CANTOR2SQ, 2.0,
                     "power_iteration_p2", seed=1)


def test_all_zero_witnesses_rejected():
    handle = LinearOperatorHandle(apply=lambda f: np.asarray(f))
    zeros = [np.zeros(CANTOR2SQ.n_atoms)] * 3
    with pytest.raises(EstimationError):
        evaluate_witnesses(handle, CANTOR2SQ, CANTOR2SQ, 2.0, zeros)


def test_zero_norm_witnesses_skipped_not_fatal():
    handle = LinearOperatorHandle(apply=lambda f: np.asarray(f))
    mixed = [np.zeros(CANTOR2SQ.n_atoms), np.ones(CANTOR2SQ.n_atoms)]
    ratios, best = evaluate_witnesses(handle, CANTOR2SQ, CANTOR2SQ, 2.0, mixed)
    assert best == 1
    assert ratios[0] == -np.inf
    assert ratios[1] == pytest.approx(1.0, rel=1e-12)


# ---- refinement scaling of riesz-type norms ----

def test_riesz_norm_refinement_scaling():
    values = {1.2: [], 0.8: []}
    for k in (1, 2, 3):
        mu = product_measure([cantor_measure(0.25, k)] * 2)
        eps = 4.0 ** -k
        for alpha in (1.2, 0.8):
            handle = riesz_handle(mu, alpha, eps)
            est = opnorm_lower(handle, mu, mu, 2.0, "power_iteration_p2", seed=3)
            values[alpha].append(est.value)
    for lo, hi in zip(values[1.2], values[1.2][1:]):
        assert 0.5 < hi / lo < 2.0
    for lo, hi in zip(values[0.8], values[0.8][1:]):
        assert hi / lo >= 2.0 ** 0.1
    assert values[0.8][-1] / values[0.8][0] >= 2.0 ** 0.2


# ---- growth rate: log2_fit ----

def test_growth_rate_exact_half_slope():
    j = np.arange(1, 7)
    rep = log2_fit(j, 2.0 ** (j / 2.0))
    assert isinstance(rep, FitReport)
    assert rep.slope == pytest.approx(0.5, abs=1e-12)
    assert rep.residual < 1e-12


def test_growth_rate_constant_is_flat():
    rep = log2_fit(np.arange(5), np.full(5, 3.25))
    assert abs(rep.slope) <= 1e-12


def test_growth_rate_needs_three_points():
    with pytest.raises(FitError):
        log2_fit([1, 2], [1.0, 2.0])


def test_line_fit_needs_two_distinct_x():
    # np.polyfit would warn and return a slope through a vertical line
    with pytest.raises(FitError, match=r"^every x is 2\.0;"):
        line_fit(np.full(3, 2, dtype=np.int64), [1.0, 2.0, 3.0])
    assert line_fit([2, 2, 3], [1.0, 1.0, 3.0]).slope == pytest.approx(2.0)


def test_growth_rate_on_sphere_l2_suite():
    mu = product_measure([cantor_measure(0.25, 6)] * 2)
    g = SpectralGrid(2, 1024, 2.0)
    js = np.arange(2, 8)
    rep = log2_fit(js, sphere_l2_profile(None, mu, g, js))
    assert rep.slope >= 0.35
