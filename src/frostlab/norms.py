"""Empirical lower bounds for weighted-L^p operator norms.

Everything here produces LOWER bounds only: a witness family is evaluated
through an operator handle and the best Rayleigh-type ratio is reported
together with the witness that achieved it, so the claim can be re-verified
from the stored data.  Upper bounds belong to the closed-form exponent
module, never to measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EstimationError, ParameterError
from .measures import DiscreteMeasure
from .spectral import field_at_points


def lp_norm(values, mu: DiscreteMeasure, p: float) -> float:
    """Discrete L^p(mu) norm of atom values; p = inf takes the sup over atoms.

    The values are scaled by m = max |v| before the power, m * (sum w (|v|/m)^p)^(1/p),
    so a large p neither underflows to 0 nor overflows to inf.
    """
    v = np.asarray(values)
    if v.shape != (mu.n_atoms,):
        raise ParameterError(
            f"values must have shape ({mu.n_atoms},), got {v.shape}")
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    a = np.abs(v)
    m = float(a.max())
    if math.isinf(p) or not 0.0 < m < math.inf:
        return m
    return m * float(mu.weights @ (a / m) ** p) ** (1.0 / p)


@dataclass(frozen=True)
class LinearOperatorHandle:
    """Operator as callables on atom-value vectors.

    apply maps values on mu atoms to values on nu atoms.  adjoint, when
    present, must be the adjoint with respect to the weighted inner products
    <u,v>_mu = sum w_i u_i v_i, which is what the p=2 power iteration needs.
    """

    apply: Callable
    adjoint: Callable | None = None


def grid_operator_handle(op: Callable, nu: DiscreteMeasure) -> LinearOperatorHandle:
    """Wrap a callable that returns a space-side grid field, sampled at nu's
    atoms.

    No adjoint: grid operators feed the witness families, not the power
    iteration.
    """
    def apply(f):
        return field_at_points(op(f), nu.atoms)

    return LinearOperatorHandle(apply=apply, adjoint=None)


@dataclass(frozen=True)
class OpNormEstimate:
    """Certified lower bound: value = |T witness|_p(nu) / |witness|_p(mu)."""

    p: float
    value: float
    family: str
    iterations: int
    seed: int
    witness: np.ndarray
    ratios: np.ndarray


_RANDOM_WITNESSES = 512
_BUMP_CENTERS = 32
_BUMP_WIDTHS = 4
_POWER_TOL = 1e-4
_POWER_MAX_ITER = 200


def _random_atom_witnesses(mu: DiscreteMeasure, rng) -> list[np.ndarray]:
    out = []
    for _ in range(_RANDOM_WITNESSES):
        mask = rng.random(mu.n_atoms) < 0.5
        signs = rng.integers(0, 2, mu.n_atoms) * 2.0 - 1.0
        out.append(signs * mask)
    return out

def _bump_witnesses(mu: DiscreteMeasure, rng) -> list[np.ndarray]:
    diam = float(np.linalg.norm(mu.box_hi - mu.box_lo)) or 1.0
    n_centers = min(_BUMP_CENTERS, mu.n_atoms)
    centers = mu.atoms[rng.choice(mu.n_atoms, size=n_centers, replace=False)]
    widths = diam * 2.0 ** -np.arange(2, 2 + _BUMP_WIDTHS)
    out = []
    for c in centers:
        d2 = ((mu.atoms - c) ** 2).sum(axis=1)
        for h in widths:
            out.append(np.exp(-d2 / (2.0 * h * h)))
    return out


def _extremizer_witnesses(mu: DiscreteMeasure, rng) -> list[np.ndarray]:
    """Dyadic-ball indicators and clipped radial powers around one support point.

    These mimic the shapes that drive the sharpness constructions: shrinking
    caps and |x|^-a profiles.
    """
    diam = float(np.linalg.norm(mu.box_hi - mu.box_lo)) or 1.0
    x0 = mu.atoms[int(rng.integers(mu.n_atoms))]
    dist = np.sqrt(((mu.atoms - x0) ** 2).sum(axis=1))
    out = [(dist <= diam * 2.0 ** -m).astype(np.float64) for m in range(11)]
    floor = diam * 2.0 ** -12
    for a in (0.25, 0.5, 0.75, 1.0):
        out.append((dist + floor) ** -a)
    return out


FAMILIES = ("random_atoms", "bumps", "extremizers", "power_iteration_p2")

_GENERATORS = {
    "random_atoms": _random_atom_witnesses,
    "bumps": _bump_witnesses,
    "extremizers": _extremizer_witnesses,
}


def evaluate_witnesses(handle: LinearOperatorHandle, mu: DiscreteMeasure,
                       nu: DiscreteMeasure, p: float, witnesses):
    """Ratios |Tf|_p(nu)/|f|_p(mu) per witness; zero-norm witnesses are skipped.

    Returns (ratios, best_index) where skipped entries carry ratio -inf.
    Raises EstimationError when every witness was skipped.
    """
    ratios = np.full(len(witnesses), -np.inf)
    for i, w in enumerate(witnesses):
        den = lp_norm(w, mu, p)
        if den == 0.0:
            continue
        ratios[i] = lp_norm(handle.apply(w), nu, p) / den
    if not np.isfinite(ratios).any():
        raise EstimationError("every witness in the family had zero norm")
    return ratios, int(np.argmax(ratios))


def _power_iteration(handle: LinearOperatorHandle, mu: DiscreteMeasure,
                     nu: DiscreteMeasure, seed: int) -> OpNormEstimate:
    if handle.adjoint is None:
        raise ParameterError("power_iteration_p2 needs a handle with an adjoint")
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(mu.n_atoms)
    history = []
    ratio = 0.0
    for it in range(1, _POWER_MAX_ITER + 1):
        g = np.asarray(handle.apply(f))
        num = lp_norm(g, nu, 2.0)
        den = lp_norm(f, mu, 2.0)
        if num == 0.0 or den == 0.0:
            raise EstimationError("power iteration hit a zero vector")
        prev, ratio = ratio, num / den
        history.append(ratio)
        if it > 1 and abs(ratio - prev) <= _POWER_TOL * ratio:
            break
        f = np.asarray(handle.adjoint(g))
        f = f / lp_norm(f, mu, 2.0)
    return OpNormEstimate(p=2.0, value=float(ratio), family="power_iteration_p2",
                          iterations=it, seed=seed, witness=f.copy(),
                          ratios=np.asarray(history))


def opnorm_lower(handle: LinearOperatorHandle, mu: DiscreteMeasure,
                 nu: DiscreteMeasure, p: float, family: str,
                 seed: int) -> OpNormEstimate:
    """Best ratio over one witness family; a certified operator-norm lower bound."""
    if p < 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    if family == "power_iteration_p2":
        if p != 2.0:
            raise ParameterError("power_iteration_p2 runs only at p = 2")
        return _power_iteration(handle, mu, nu, seed)
    try:
        gen = _GENERATORS[family]
    except KeyError:
        raise ParameterError(
            f"unknown family {family!r}; choose from {FAMILIES}") from None
    witnesses = gen(mu, np.random.default_rng(seed))
    ratios, best = evaluate_witnesses(handle, mu, nu, p, witnesses)
    return OpNormEstimate(p=float(p), value=float(ratios[best]), family=family,
                          iterations=len(witnesses), seed=seed,
                          witness=np.asarray(witnesses[best], dtype=np.float64),
                          ratios=ratios)


def certify(estimate: OpNormEstimate, handle: LinearOperatorHandle,
            mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Recompute the estimate's ratio from its stored witness."""
    den = lp_norm(estimate.witness, mu, estimate.p)
    if den == 0.0:
        raise EstimationError("stored witness has zero norm")
    return lp_norm(handle.apply(estimate.witness), nu, estimate.p) / den
