"""Exponent calculator tests: printed values, property sweeps, bisection oracles."""

import math

import numpy as np
import pytest

from frostlab.errors import DomainError, ParameterError
from frostlab.exponents import (
    Interval,
    MaximalBlowupBound,
    Params,
    blowup_dim_fixed_time,
    blowup_dim_maximal,
    convolution_l2_condition,
    eps_p,
    fixed_time_condition,
    maximal_interval,
    sharpness_excluded,
)


def margin(u, d, s_mu, s_nu):
    """Vectorized copy of the piecewise-affine convergence margin."""
    u = np.asarray(u, dtype=float)
    low = (d - s_mu) + (s_mu - s_nu - d + 1.5) * u
    high = (d - s_mu - 0.25) + (s_mu - s_nu - d + 2.5) * u
    return np.where(u <= 0.25, low, high)


# ---- eps_p ----

def test_eps_p_printed_values():
    assert eps_p(2.0) == pytest.approx(0.0, abs=1e-12)
    assert eps_p(8.0) == pytest.approx(1.0 / 16.0, abs=1e-12)
    left = 0.5 * (0.5 - 1.0 / 4.0)
    right = 1.0 / (2.0 * 4.0)
    assert left == pytest.approx(right, abs=1e-15)
    assert eps_p(4.0) == pytest.approx(0.125, abs=1e-12)


def test_eps_p_continuity_and_sign():
    assert eps_p(4.0 - 1e-9) == pytest.approx(eps_p(4.0 + 1e-9), abs=1e-9)
    ps = np.linspace(2.0, 50.0, 500)
    assert all(eps_p(p) >= 0.0 for p in ps)
    assert eps_p(1e6) < 1e-6


def test_eps_p_domain():
    with pytest.raises(DomainError):
        eps_p(1.9)


# ---- Params and Interval ----

def test_params_validation():
    with pytest.raises(ParameterError):
        Params(d=1, s_mu=0.5, s_nu=0.5, p=2.0)
    with pytest.raises(ParameterError):
        Params(d=2, s_mu=2.5, s_nu=1.0, p=2.0)
    with pytest.raises(ParameterError):
        Params(d=2, s_mu=1.0, s_nu=-0.1, p=2.0)
    with pytest.raises(ParameterError):
        Params(d=2, s_mu=1.0, s_nu=1.0, p=0.9)


def test_interval_membership_logic():
    iv = Interval(lo=2.0, hi=4.0, lo_open=True, hi_open=False, case_label="ii")
    assert not iv.contains(2.0)
    assert iv.contains(4.0)
    assert iv.contains(3.0)
    assert not iv.contains(4.0001)
    inf_iv = Interval(lo=1.5, hi=math.inf, lo_open=True, hi_open=True,
                      case_label="i")
    assert inf_iv.contains(1e9)
    empty = Interval(lo=3.0, hi=3.0, lo_open=True, hi_open=True,
                     case_label="i")
    assert empty.is_empty and not empty.contains(3.0)


# ---- maximal_interval ----

def test_case_i_full_dimension_endpoint():
    iv = maximal_interval(3, 3.0, 3.0)
    assert iv.case_label == "i"
    assert iv.lo == pytest.approx(1.5, abs=1e-12)
    assert iv.hi == math.inf
    assert iv.lo_open and iv.hi_open


def test_case_iii_planar_near_full():
    iv = maximal_interval(2, 1.95, 1.95)
    assert iv.case_label == "iii"
    assert iv.lo == pytest.approx(2.5, abs=1e-12)
    assert iv.hi == pytest.approx(10.0, abs=1e-12)
    assert iv.lo_open and iv.hi_open


def test_case_ii_interval_is_two_four():
    iv = maximal_interval(3, 2.9, 2.1)
    assert iv.case_label == "ii"
    assert (iv.lo, iv.hi) == (2.0, 4.0)
    assert iv.lo_open and not iv.hi_open


def test_case_none_when_no_hypothesis_holds():
    assert maximal_interval(3, 2.5, 2.0).case_label == "none"
    assert maximal_interval(2, 0.5, 1.8).case_label == "none"
    assert not maximal_interval(3, 2.5, 2.0).contains(3.0)


def test_case_i_endpoint_when_nu_full():
    rng = np.random.default_rng(17)
    count = 0
    while count < 10_000:
        s_mu = 2.0 + rng.random()  # (2, 3]: guarantees case i at d=3, s_nu=3
        iv = maximal_interval(3, s_mu, 3.0)
        assert iv.case_label == "i"
        assert iv.lo == pytest.approx(s_mu / (s_mu - 1.0), abs=1e-12)
        count += 1


def test_case_iii_excludes_two_includes_four():
    rng = np.random.default_rng(23)
    hits = 0
    while hits < 10_000:
        d = int(rng.integers(2, 4))
        s_mu = d - 0.25 * rng.random()
        s_nu = rng.random() * d
        if not (s_mu + s_nu < d + 2.0 and 3.0 * s_mu + s_nu > 3.0 * d + 1.5):
            continue
        iv = maximal_interval(d, s_mu, s_nu)
        assert iv.case_label == "iii"
        assert not iv.contains(2.0)
        assert iv.contains(4.0)
        hits += 1


def test_upper_endpoint_matches_bisection_oracle():
    rng = np.random.default_rng(31)
    ds, smus, snus, his = [], [], [], []
    while len(his) < 10_000:
        d = int(rng.integers(2, 4))
        s_mu = 1.0 + rng.random() * (d - 1.0)
        s_nu = rng.random() * d
        iv = maximal_interval(d, s_mu, s_nu)
        if iv.case_label not in ("i", "iii") or iv.hi == math.inf:
            continue
        ds.append(d); smus.append(s_mu); snus.append(s_nu); his.append(iv.hi)
    ds = np.array(ds); smus = np.array(smus); snus = np.array(snus)
    his = np.array(his)
    # the margin is negative at the seam (case iii) or at p=2 (case i);
    # bracket the upper-p crossing between u -> 0+ and that negative point
    neg_u = np.where(margin(0.25, ds, smus, snus) < 0.0, 0.25, 0.5)
    a = np.full_like(his, 1e-15)
    b = neg_u.astype(float)
    for _ in range(100):
        mid = 0.5 * (a + b)
        neg = margin(mid, ds, smus, snus) < 0.0
        b = np.where(neg, mid, b)
        a = np.where(neg, a, mid)
    oracle = 1.0 / (0.5 * (a + b))
    assert np.max(np.abs(oracle - his) / np.maximum(1.0, his)) < 1e-9


def test_no_contradiction_with_sharpness():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 10_000:
        d = int(rng.integers(2, 4))
        s = 1.0 + rng.random() * (d - 1.0)
        p = 1.0 + rng.random() * 19.0
        iv = maximal_interval(d, s, s)
        if not iv.contains(p) or p == iv.hi:
            continue
        assert not sharpness_excluded(d, s, p)
        checked += 1


# ---- sharpness_excluded ----

def test_sharpness_printed_examples():
    assert sharpness_excluded(2, 1.5, 3.0) is True
    assert sharpness_excluded(3, 1.9, 5.0) is True
    assert sharpness_excluded(2, 1.95, 3.0) is False
    assert sharpness_excluded(2, 0.7, 100.0) is True


def test_sharpness_needs_p_above_one():
    with pytest.raises(ParameterError):
        sharpness_excluded(2, 1.5, 1.0)


# ---- blowup_dim_maximal ----

def test_blowup_maximal_clamps_to_complementary_exponent():
    bound = blowup_dim_maximal(3, 3.0, 3.0)
    assert bound.s_f == pytest.approx(2.0, abs=1e-12)
    assert bound.measure_zero
    assert bound.source == "complementary exponent"


def test_blowup_maximal_refined_branch():
    bound = blowup_dim_maximal(3, 3.0, 6.0)
    assert bound.s_f == pytest.approx(1.5, abs=1e-12)
    assert bound.source == "refined"


def test_blowup_maximal_refinement_beats_complement_iff_high_s():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        d = int(rng.integers(2, 4))
        s_mu = 1.0 + rng.random() * (d - 1.0)
        refined = 3.0 * (d - s_mu) + 1.5
        complement = d + 2.0 - s_mu
        assert (refined < complement) == (s_mu > d - 0.25)


def test_blowup_maximal_critical_index_matches_bisection():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        s_mu = 1.0 + rng.random() * (d - 1.0)
        p_f = 2.0 + rng.random() * 10.0
        s_1 = s_mu + p_f * (d - s_mu) - (d - 2.0) - p_f * eps_p(p_f)
        lo, hi = -40.0, 40.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val = d - s_mu + (s_mu - mid) / p_f - (d - 2.0) / p_f - eps_p(p_f)
            if val > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - s_1) < 1e-9
        bound = blowup_dim_maximal(d, s_mu, p_f)
        expect = max(s_1, d + 2.0 - s_mu)
        if d - 0.25 < s_mu and p_f > 4.0:
            expect = min(expect, 3.0 * (d - s_mu) + 1.5)
        assert bound.s_f == pytest.approx(expect, abs=1e-12)


def test_blowup_maximal_no_bound_return():
    for args in ((3, 0.9, 6.0), (3, 2.5, 2.0)):
        bound = blowup_dim_maximal(*args)
        assert bound.s_f is None
        assert bound.source == "hypotheses not met"
        assert not bound.measure_zero


# ---- fixed-time condition and blowup ----

def test_fixed_time_branches_agree_at_two():
    rng = np.random.default_rng(29)
    for _ in range(500):
        d = int(rng.integers(2, 4))
        s_mu = rng.random() * d
        s_nu = rng.random() * d
        lhs = 0.5 * (s_mu + s_nu)
        upper = d - (d - 1.0) / 2.0
        lower = 1.0 + (d - 1.0) / 2.0
        assert upper == lower
        assert fixed_time_condition(d, s_mu, s_nu, 2.0) == (lhs > upper)


def test_fixed_time_printed_values():
    assert fixed_time_condition(3, 2.1, 2.1, 2.0) is True
    assert fixed_time_condition(3, 2.0, 2.0, 2.0) is False


def test_fixed_time_validation():
    with pytest.raises(ParameterError):
        fixed_time_condition(3, 2.0, 2.0, 0.5)


def test_blowup_fixed_time_printed_values():
    for d in (2, 3):
        assert blowup_dim_fixed_time(d, 1.0) == float(d)
        assert blowup_dim_fixed_time(d, 2.0) == 1.0
        p_c = d / (d - 1.0)
        assert blowup_dim_fixed_time(d, p_c) == pytest.approx(d - 1.0, abs=1e-12)
    assert blowup_dim_fixed_time(3, 7.0) == 1.0
    left = 3 - (2.0 - 1.0) * 2
    assert left == blowup_dim_fixed_time(3, 2.0)


def test_blowup_fixed_time_validation():
    with pytest.raises(ParameterError):
        blowup_dim_fixed_time(3, 0.5)
    with pytest.raises(ParameterError):
        blowup_dim_fixed_time(1, 2.0)


# ---- convolution condition ----

def test_convolution_condition_printed_values():
    assert convolution_l2_condition(3, 2.6, 2.6, 1.0) is True
    assert convolution_l2_condition(2, 2.0, 2.0, 0.1) is True
    for d in (2, 3):
        s = (d + 1.0) / 2.0
        alpha = (d - 1.0) / 2.0
        assert convolution_l2_condition(d, s, s, alpha) is False


def test_convolution_condition_domain():
    with pytest.raises(DomainError):
        convolution_l2_condition(3, 2.0, 2.0, 1.5)
    with pytest.raises(DomainError):
        convolution_l2_condition(3, 2.0, 2.0, -0.1)
