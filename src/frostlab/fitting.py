"""Shared least-squares fit report used by the spectral, norm and
counterexample modules.

All scaling-law estimates in the package reduce to a straight-line fit of
log-quantities; FitReport is the one record type they hand back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError


@dataclass(frozen=True)
class FitReport:
    """Least-squares line fit of y against x.

    slope, intercept : fitted line y ~ slope * x + intercept
    residual         : root-mean-square residual of the fit
    x_lo, x_hi       : sample range used
    n_points         : number of samples
    """

    slope: float
    intercept: float
    residual: float
    x_lo: float
    x_hi: float
    n_points: int


def line_fit(x, y) -> FitReport:
    """Plain least-squares line through at least three points (x, y) with
    at least two distinct x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FitError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise FitError(f"need at least 3 points, got {x.size}")
    if x.min() == x.max():
        raise FitError(f"every x is {float(x[0])}; a line needs two distinct"
                       " x values")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitReport(float(slope), float(intercept), rms,
                     float(x.min()), float(x.max()), int(x.size))


def loglog_fit(x, y) -> FitReport:
    """Fit log y against log x; slope is the power-law exponent.

    Nonpositive samples are rejected rather than dropped: a scaling fit on
    data that touches zero is meaningless.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise FitError("loglog_fit requires strictly positive samples")
    return line_fit(np.log(x), np.log(y))


def log2_fit(j, y) -> FitReport:
    """Fit log2 y against the (already linear) index j.

    Used for dyadic growth rates: slope is the per-level exponent.
    """
    j = np.asarray(j, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise FitError("log2_fit requires strictly positive samples")
    return line_fit(j, np.log2(y))
