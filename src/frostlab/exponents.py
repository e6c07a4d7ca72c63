"""Closed-form exponent thresholds, boundedness intervals, blowup bounds.

Pure arithmetic, no arrays: every function evaluates a printed formula or a
piecewise-affine condition exactly.  Conventions: all inequalities are
strict except the right-closed (2, 4] interval of the equality case;
boundary values therefore return False / excluded.  Empirical modules may
only produce LOWER evidence; everything upper-sided lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class Params:
    """Common parameter bundle: ambient dimension, two Frostman exponents
    and the Lebesgue exponent."""

    d: int
    s_mu: float
    s_nu: float
    p: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise ParameterError(f"d must be an integer >= 2, got {self.d}")
        for name, s in (("s_mu", self.s_mu), ("s_nu", self.s_nu)):
            if not (0.0 <= s <= self.d):
                raise ParameterError(f"{name} must lie in [0, d], got {s}")
        if self.p < 1.0:
            raise ParameterError(f"p must be >= 1, got {self.p}")


@dataclass(frozen=True)
class Interval:
    """One-dimensional interval of Lebesgue exponents with open/closed ends."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    case_label: str

    @property
    def is_empty(self) -> bool:
        if self.case_label == "none":
            return True
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, p: float) -> bool:
        if self.is_empty:
            return False
        above = p > self.lo if self.lo_open else p >= self.lo
        below = p < self.hi if self.hi_open else p <= self.hi
        return above and below


_EMPTY = Interval(lo=0.0, hi=0.0, lo_open=True, hi_open=True, case_label="none")


def eps_p(p: float) -> float:
    """Smoothing gain exponent: (1/2)(1/2 - 1/p) on [2,4], 1/(2p) beyond."""
    if p < 2.0:
        raise DomainError(f"eps_p is defined for p >= 2, got {p}")
    if p <= 4.0:
        return 0.5 * (0.5 - 1.0 / p)
    return 1.0 / (2.0 * p)


def _favorable(u: float, d: int, s_mu: float, s_nu: float) -> float:
    """The convergence margin g(u), u = 1/p, negative where the maximal bound holds.

    Piecewise affine: g = (d - s_mu) + (s_mu - s_nu - d + 3/2) u     for u <= 1/4,
                      g = (d - s_mu - 1/4) + (s_mu - s_nu - d + 5/2) u  on [1/4, 1/2].
    """
    if u <= 0.25:
        return (d - s_mu) + (s_mu - s_nu - d + 1.5) * u
    return (d - s_mu - 0.25) + (s_mu - s_nu - d + 2.5) * u


def _p_upper(d: int, s_mu: float, s_nu: float) -> float:
    """Supremum of {p >= 2 : g(1/p) < 0}; +inf when g < 0 persists as p grows.

    On the p >= 4 piece the crossing is at p = (d + s_nu - s_mu - 3/2)/(d - s_mu);
    if the crossing happens before p = 4 it lies on the other piece instead,
    at p = (d + s_nu - s_mu - 5/2)/(d - s_mu - 1/4).
    """
    if _favorable(0.25, d, s_mu, s_nu) < 0.0:
        if s_mu == d:
            return math.inf
        return (d + s_nu - s_mu - 1.5) / (d - s_mu)
    return (d + s_nu - s_mu - 2.5) / (d - s_mu - 0.25)


def maximal_interval(d: int, s_mu: float, s_nu: float) -> Interval:
    """Exponent interval where the fractal maximal bound is asserted.

    Three hypothesis regimes, checked exactly:
      i)   s_mu + s_nu > d + 2 and s_mu > 1      -> ((d+s_mu-s_nu)/(s_mu-1), p_U)
      ii)  s_mu + s_nu = d + 2, s_mu > 1,
           2 <= s_nu < 9/4                        -> (2, 4]
      iii) s_mu + s_nu < d + 2 and
           3 s_mu + s_nu > 3d + 3/2               -> both ends from the margin g
    Anything else returns the empty interval with case label "none".
    """
    Params(d=d, s_mu=s_mu, s_nu=s_nu, p=2.0)
    total = s_mu + s_nu
    if total > d + 2.0 and s_mu > 1.0:
        lo = (d + s_mu - s_nu) / (s_mu - 1.0)
        hi = _p_upper(d, s_mu, s_nu)
        if lo >= hi:
            return _EMPTY
        return Interval(lo=lo, hi=hi, lo_open=True, hi_open=True, case_label="i")
    if total == d + 2.0 and s_mu > 1.0 and 2.0 <= s_nu < 2.25:
        return Interval(lo=2.0, hi=4.0, lo_open=True, hi_open=False,
                        case_label="ii")
    if total < d + 2.0 and 3.0 * s_mu + s_nu > 3.0 * d + 1.5:
        # both endpoints solve g = 0; hypothesis iii makes g(1/4) < 0, so the
        # crossings bracket p = 4 on opposite affine pieces
        lo = (s_mu - s_nu - d + 2.5) / (s_mu + 0.25 - d)
        hi = math.inf if s_mu == d else (s_nu - s_mu + d - 1.5) / (d - s_mu)
        return Interval(lo=lo, hi=hi, lo_open=True, hi_open=True,
                        case_label="iii")
    return _EMPTY


def sharpness_excluded(d: int, s_mu: float, p: float) -> bool:
    """True when one of the counterexample regimes rules out a general bound.

    Four printed clauses, each active only in its stated (d, p) range:
    low-dimension / small-p Stein-type, the p <= 2 cap condition, the planar
    p >= 2 condition, and the d >= 3 thin-measure condition.
    """
    if p <= 1.0:
        raise ParameterError(f"sharpness_excluded needs p > 1, got {p}")
    Params(d=d, s_mu=s_mu, s_nu=s_mu, p=max(p, 1.0))
    if s_mu <= 1.0:
        return True
    if p <= s_mu / (s_mu - 1.0):
        return True
    if p <= 2.0 and s_mu < 1.0 + 2.0 / p:
        return True
    if d == 2 and p >= 2.0 and s_mu < (3.0 - 2.0 / p) / (2.0 - 2.0 / p):
        return True
    if d >= 3 and p >= 2.0 and s_mu < 2.0:
        return True
    return False


@dataclass(frozen=True)
class MaximalBlowupBound:
    """Dimension bound for the divergence set of the maximal average.

    s_f is None when no hypothesis set applies; measure_zero marks the
    stronger vanishing-Hausdorff-measure claim at dimension d + 2 - s_mu.
    """

    s_f: float | None
    measure_zero: bool
    source: str


def blowup_dim_maximal(d: int, s_mu: float, p_f: float) -> MaximalBlowupBound:
    """Blowup-set dimension bound s_f = max{s_1, d+2-s_mu}, refined when sharp.

    s_1 solves the critical-index equation
    d - s_mu + (s_mu - s_1)/p_f = (d-2)/p_f + eps_p(p_f).  For s_mu above
    d - 1/4 the refined bound 3(d - s_mu) + 3/2 applies once p_f > 4 and is
    taken when smaller.
    """
    Params(d=d, s_mu=s_mu, s_nu=s_mu, p=max(p_f, 1.0))
    if not (s_mu > 1.0 and p_f > 2.0):
        return MaximalBlowupBound(s_f=None, measure_zero=False,
                                  source="hypotheses not met")
    s_1 = s_mu + p_f * (d - s_mu) - (d - 2.0) - p_f * eps_p(p_f)
    s_f = max(s_1, d + 2.0 - s_mu)
    source = "critical index" if s_f == s_1 and s_1 > d + 2.0 - s_mu \
        else "complementary exponent"
    refined = d - 0.25 < s_mu <= d
    if refined and p_f > 4.0:
        alt = 3.0 * (d - s_mu) + 1.5
        if alt < s_f:
            s_f, source = alt, "refined"
    measure_zero = refined and s_f == d + 2.0 - s_mu
    return MaximalBlowupBound(s_f=s_f, measure_zero=measure_zero, source=source)


def fixed_time_condition(d: int, s_mu: float, s_nu: float, p: float) -> bool:
    """Single-time average bound condition, branching at p = 2.

    p >= 2: s_mu/p' + s_nu/p > d - (d-1)/p;
    p <= 2: s_mu/p' + s_nu/p > 1 + (d-1)/p.  Both agree at p = 2.
    """
    Params(d=d, s_mu=s_mu, s_nu=s_nu, p=p)
    inv_p = 1.0 / p
    inv_pp = 1.0 - inv_p          # 1/p' without the p = 1 special case
    lhs = s_mu * inv_pp + s_nu * inv_p
    if p >= 2.0:
        return lhs > d - (d - 1.0) * inv_p
    return lhs > 1.0 + (d - 1.0) * inv_p


def blowup_dim_fixed_time(d: int, p: float) -> float:
    """Divergence-set dimension bound for single-time averages of L^p data."""
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    if int(d) != d or d < 2:
        raise ParameterError(f"d must be an integer >= 2, got {d}")
    if p <= 2.0:
        return d - (p - 1.0) * (d - 1.0)
    return 1.0


def convolution_l2_condition(d: int, s_mu: float, s_nu: float,
                             alpha: float) -> bool:
    """L2 boundedness condition for the alpha-smoothing convolution: alpha > d - s."""
    Params(d=d, s_mu=s_mu, s_nu=s_nu, p=2.0)
    if not (0.0 <= alpha < d / 2.0):
        raise DomainError(
            f"alpha must lie in [0, d/2) = [0, {d / 2.0}), got {alpha}")
    return alpha > d - 0.5 * (s_mu + s_nu)
