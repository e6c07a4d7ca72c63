"""Span recording for the traced benchmark run.

Spans come from the benchmark's own code.  For the length of a traced
phase the tracer replaces, at each module boundary, the public names one
frostlab layer imports from another (plus the defining module's own
binding, which the benchmark and same-module callers use) with a wrapper
that records a span.  It also wraps scipy.fft's n-d entry points to count
FFTs.  Nothing in the library changes; uninstall() restores every binding.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# span name -> frostlab modules whose binding of that function is wrapped:
# the modules that import it from another layer, plus its own module where
# the benchmark or a same-module caller goes through that binding.  The
# first part of the span name is the layer the function belongs to.
BOUNDARIES = {
    "measures.cantor_measure": ("measures", "cli"),
    "measures.product_measure": ("measures", "cli"),
    "measures.lebesgue_box_measure": ("measures", "wave3d", "cli"),
    "measures.sphere_measure": ("measures", "cli"),
    "measures.random_ball_measure": ("measures", "cli"),
    "measures.energy_integral": ("measures",),
    "measures.annulus_pair_profile": ("measures",),
    "measures.chain_triple_profile": ("measures",),
    "measures.frostman_fit": ("cli",),
    "spectral.measure_fourier": ("spectral", "operators", "wave3d", "cli"),
    "spectral.to_space": ("operators", "wave3d"),
    "spectral.field_at_points": ("norms",),
    "spectral.decay_fit": ("spectral", "cli"),
    "spectral.strichartz_profile": ("cli",),
    "operators.spherical_average": ("operators", "wave3d", "cli"),
    "operators.maximal_function": ("operators", "cli"),
    "operators.sphere_l2_profile": ("operators", "cli"),
    "norms.opnorm_lower": ("norms",),
    "wave3d.wave_solution": ("wave3d", "cli"),
    "wave3d.blowup_probe": ("wave3d", "cli"),
    "wave3d.pointwise_limit_fit": ("wave3d", "cli"),
    "exponents.maximal_interval": ("cli",),
    "exponents.blowup_dim_fixed_time": ("wave3d", "counterexamples"),
    "counterexamples.stein_example": ("cli",),
    "counterexamples.mattila_example": ("cli",),
    "counterexamples.riesz_divergence": ("cli",),
    "counterexamples.fixed_time_sharpness": ("cli",),
    "cli.main": ("cli",),
}

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2",
                    "rfft2", "irfft2", "hfftn", "ihfftn")


class Span:
    __slots__ = ("name", "layer", "phase", "parent", "start", "dur", "child",
                 "attrs")

    def __init__(self, name, layer, phase, parent):
        self.name = name
        self.layer = layer
        self.phase = phase
        self.parent = parent
        self.start = time.perf_counter()
        self.dur = 0.0
        self.child = 0.0
        self.attrs = {}

    @property
    def self_time(self) -> float:
        return self.dur - self.child


def _on_lattice(mu, grid) -> bool:
    """The library's path rule: atoms on grid nodes are binned, else spread."""
    scaled = (mu.atoms + grid.box_half_width) / grid.spacing
    return float(np.max(np.abs(scaled - np.round(scaled)))) <= 1e-9


def _fourier_attrs(args, kwargs, out):
    mu, grid = args[1], args[2]
    lattice = _on_lattice(mu, grid)
    return {"path": "lattice" if lattice else "spread",
            "atoms": 0 if lattice else int(mu.n_atoms),
            "grid": f"{grid.n_per_axis}^{grid.dim}"}


def _grid_attrs(args, kwargs, out):
    grid = args[3]
    return {"grid": f"{grid.n_per_axis}^{grid.dim}"}


def _maximal_attrs(args, kwargs, out):
    return {"radii": len(args[2])}


def _opnorm_attrs(args, kwargs, out):
    return {"witnesses": int(out.iterations), "family": out.family}


def _fft_attrs(name):
    def attrs(args, kwargs, out):
        # transform length: the real side for r2c/c2r, else either side
        c2r = name.startswith(("irfft", "hfft"))
        return {"points": int(out.size if c2r else args[0].size)}
    return attrs


_ATTRS = {
    "spectral.measure_fourier": _fourier_attrs,
    "operators.spherical_average": _grid_attrs,
    "operators.maximal_function": _maximal_attrs,
    "norms.opnorm_lower": _opnorm_attrs,
}


class Tracer:
    """Records spans in memory; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.missing: list[str] = []
        self.phase = "setup"
        self._stack: list[Span] = []
        self._undo = []

    # -- wrapping --

    def install(self) -> None:
        import scipy.fft

        for span, modules in BOUNDARIES.items():
            attr = span.split(".", 1)[1]
            for mod in modules:
                module = importlib.import_module(f"frostlab.{mod}")
                self._wrap(module, attr, span, f"frostlab.{mod}.{attr}",
                           _ATTRS.get(span))
        for name in FFT_ENTRY_POINTS:
            self._wrap(scipy.fft, name, f"fft.{name}", f"scipy.fft.{name}",
                       _fft_attrs(name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, module, attr, span, target, post) -> None:
        self.calls.setdefault(target, 0)
        fn = getattr(module, attr, None)
        if fn is None:
            if target not in self.missing:
                self.missing.append(target)
            return
        layer = span.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[target] += 1
            rec = self._open(span, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post is not None:
                rec.attrs.update(post(args, kwargs, out))
            return out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    # -- spans --

    def _open(self, name, layer) -> Span:
        rec = Span(name, layer, self.phase,
                   self._stack[-1] if self._stack else None)
        self._stack.append(rec)
        return rec

    def _close(self, rec: Span) -> None:
        rec.dur = time.perf_counter() - rec.start
        self._stack.pop()
        if rec.parent is not None:
            rec.parent.child += rec.dur
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, **attrs):
        """A span of the benchmark's own code (layer 'bench')."""
        rec = self._open(name, "bench")
        rec.attrs.update(attrs)
        try:
            yield rec
        finally:
            self._close(rec)


# ---- reductions over recorded spans ----

def _has_ancestor(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def outer_time(spans, names, where=None) -> float:
    """Time inside any span of `names`, counting nested ones once."""
    names = set(names)
    return sum(s.dur for s in spans if s.name in names
               and (where is None or where(s)) and not _has_ancestor(s, names))


def count(spans, names, where=None) -> int:
    names = set(names)
    return sum(1 for s in spans if s.name in names
               and (where is None or where(s)))


def attr_sum(spans, name, key) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def layer_self(spans, layer) -> float:
    return sum(s.self_time for s in spans if s.layer == layer)


def descendants(spans, root: Span):
    out = []
    for s in spans:
        p = s.parent
        while p is not None and p is not root:
            p = p.parent
        if p is root:
            out.append(s)
    return out
