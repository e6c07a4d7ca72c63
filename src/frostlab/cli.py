"""Batch front-end: one experiment per invocation, reproducible artifacts.

Every subcommand reads an optional JSON config (top-level ``experiment``
key must match the subcommand) through one reader that applies each
field's default, checks the value's type against it and records it, runs
the experiment, and writes its artifacts plus a ``manifest.json`` holding
that record (the materialized config), its hash, the seed, and library
versions.  No timestamps anywhere: identical config and seed give
byte-identical files.

Exit codes: 0 success, 1 acceptance-suite failure, 2 usage, 3 invalid
config or parameters (message carries the field path), 4 resource limit.
"""

import argparse
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .counterexamples import (
    fixed_time_sharpness,
    mattila_example,
    riesz_divergence,
    stein_example,
)
from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    FitError,
    ParameterError,
    ResourceError,
)
from .exponents import maximal_interval
from .fitting import FitReport
from .measures import (
    cantor_measure,
    frostman_fit,
    lebesgue_box_measure,
    product_measure,
    radial_power_measure,
    random_ball_measure,
    save_measure_binary,
    save_measure_json,
    sphere_measure,
)
from .norms import (
    grid_operator_handle,
    growth_rate,
    opnorm_lower,
    witness_csv_rows,
)
from .operators import (
    default_t_grid,
    maximal_function,
    sphere_l2_profile,
    spherical_average,
)
from .spectral import (
    SpectralGrid,
    decay_fit,
    measure_fourier,
    save_field_binary,
    set_fft_workers,
    strichartz_profile,
)
from .suite import run_suite
from .wave3d import (
    blowup_probe,
    pointwise_limit_fit,
    sharpness_family,
    wave_solution,
)

__all__ = ["main"]


# ---- config reader ----

_TYPE_NAMES = {int: ("an integer", "integers"),
               float: ("a finite number", "finite numbers"),
               str: ("a string", "strings")}


def _fits(value, kind: type) -> bool:
    if isinstance(value, bool):
        return False
    if kind is float:
        # RFC 8259 has no NaN or Infinity (Python's parser takes them), and an
        # integer beyond the float range is no number here either
        return (isinstance(value, float) and math.isfinite(value)) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def _conform(path: str, value, default):
    """value checked against the type of its default.

    An int default takes JSON integers only (never bools), a float default
    any JSON number and yields a float, a list default a nonempty list of
    its elements' type, a str default a string.  A type given as the
    default (a required field) checks the same way, and a None default
    (radial-power's log_u) takes null or a number.
    """
    if default is None:
        return None if value is None else _conform(path, value, float)
    kind = default if isinstance(default, type) else type(default)
    if kind is list:
        item = type(default[0]) if default else float
        if isinstance(value, list) and value and all(_fits(v, item)
                                                     for v in value):
            return [item(v) for v in value]
        raise ConfigError(path, f"must be a nonempty list of"
                          f" {_TYPE_NAMES[item][1]}, got {value!r}")
    if not _fits(value, kind):
        raise ConfigError(path, f"must be {_TYPE_NAMES[kind][0]},"
                          f" got {value!r}")
    return kind(value)


class _Reader:
    """One JSON config object, read field by field.

    Each read applies the field's default, conforms the value to it and
    records it under the field's name, so ``record`` is the materialized
    config that manifest.json stores.  ``done`` rejects unread fields.
    """

    def __init__(self, doc: dict, path: str = ""):
        self._doc = dict(doc)
        self._path = path
        self._sections = []
        self.record = {}

    def get(self, key: str, default):
        """The field's value conformed to default; a type as the default
        makes the field required."""
        path = self._path + key
        if key in self._doc:
            value = self._doc.pop(key)
        elif isinstance(default, type):
            raise ConfigError(path, "missing required field")
        else:
            value = default
        self.record[key] = value = _conform(path, value, default)
        return value

    def fields(self, defaults: dict) -> dict:
        """Every field of defaults, read in order."""
        return {key: self.get(key, dflt) for key, dflt in defaults.items()}

    def choice(self, key: str, options, default=str) -> str:
        """A string field that must be one of options (required by default)."""
        value = self.get(key, default)
        if value not in options:
            raise ConfigError(self._path + key,
                              f"must be one of {', '.join(options)},"
                              f" got {value!r}")
        return value

    def section(self, key: str, default: dict | None):
        """The JSON object at key as a nested reader recorded under key.

        An absent section reads as default; an optional section (default
        None) may also be null, and then there is nothing to read.
        """
        raw = self._doc.pop(key, default)
        if raw is None and default is None:
            return None
        if not isinstance(raw, dict):
            raise ConfigError(self._path + key, "must be a JSON object")
        sub = _Reader(raw, self._path + key + ".")
        self.record[key] = sub.record
        self._sections.append(sub)
        return sub

    def done(self):
        """Reject the first field left unread, here or in a section."""
        if self._doc:
            raise ConfigError(self._path + sorted(self._doc)[0],
                              "unknown field")
        for sub in self._sections:
            sub.done()


def _load_config(path, subcommand: str) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError("config", f"cannot read {p}: {e.strerror}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    experiment = doc.pop("experiment", None)
    if experiment is None:
        raise ConfigError("experiment", "missing required field")
    if experiment != subcommand:
        raise ConfigError(
            "experiment",
            f"config is for {experiment!r} but the subcommand is {subcommand!r}")
    return doc


def _build_grid(r: _Reader, default: dict) -> SpectralGrid:
    try:
        return SpectralGrid(**r.section("grid", default).fields(default))
    except (ParameterError, DomainError) as e:
        raise ConfigError("grid", str(e))


# kind -> (field defaults, builder of (fields, run seed)); the builders name
# the library functions at call time, so wrapping them (tracing) still works
_MEASURES = {
    "cantor": ({"ratio": 0.25, "depth": 6},
               lambda p, seed: cantor_measure(**p)),
    "product-cantor": ({"ratio": 0.25, "depth": 6, "copies": 2},
                       lambda p, seed: product_measure(
                           [cantor_measure(p["ratio"], p["depth"])]
                           * p["copies"])),
    "lebesgue-box": ({"d": 2, "half_width": 1.0, "n_cells": 64},
                     lambda p, seed: lebesgue_box_measure(**p)),
    "sphere": ({"d": 2, "t": 1.0, "n_points": 2048},
               lambda p, seed: sphere_measure(**p)),
    "random-ball": ({"d": 2, "n_atoms": 4096, "radius": 1.0},
                    lambda p, seed: random_ball_measure(**p, seed=seed)),
    "radial-power": ({"d": 2, "s": 1.5, "grid_n": 64, "log_u": None},
                     lambda p, seed: radial_power_measure(**p)),
}

_DEFAULT_MEASURE = {"kind": "product-cantor", "ratio": 0.25, "depth": 6,
                    "copies": 2}

_GRID_2D = {"dim": 2, "n_per_axis": 256, "box_half_width": 2.0}


def _build_measure(r: _Reader, seed: int, key: str = "measure",
                   default: dict = _DEFAULT_MEASURE):
    m = r.section(key, default)
    kind = m.choice("kind", _MEASURES)
    fields, build = _MEASURES[kind]
    params = m.fields(fields)
    if kind == "random-ball":
        m.record["seed"] = seed  # the run seed draws the atoms
    try:
        return build(params, seed)
    except (ParameterError, DomainError) as e:
        raise ConfigError(key, str(e))


def _build_density(r: _Reader, wave: bool = False):
    """The density f, None for the constant 1.  A missing or null section
    is kind "one", which a wave run reads as the 0.35-width Gaussian."""
    d = r.section("density", None) or r.section("density", {"kind": "one"})
    if d.choice("kind", ("one", "gaussian")) == "one":
        if not wave:
            return None
        d = r.section("density", {"kind": "gaussian"})
        d.get("kind", str)
    width = d.get("width", 0.35)
    if not width > 0:
        raise ConfigError("density.width", f"must be positive, got {width}")
    return lambda pts: np.exp(
        -np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)
        / (2.0 * width ** 2))


# ---- artifact plumbing ----

def _write_csv(path: Path, rows):
    # RFC 4180 line endings, explicit so the platform newline never leaks in
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")


def _write_json(path: Path, doc):
    # RFC 8259 JSON has no NaN or Infinity, so a non-finite result fails the
    # run instead of leaving a file other JSON readers reject
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ParameterError(
            f"{path.name}: a result is NaN or infinite at these parameters"
        ) from None
    path.write_text(text + "\n", encoding="utf-8")


def _write_manifest(out: Path, experiment: str, materialized: dict, seed: int):
    canonical = json.dumps(materialized, sort_keys=True, separators=(",", ":"))
    _write_json(out / "manifest.json", {
        "experiment": experiment,
        "config": materialized,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "frostlab": __version__,
        },
    })


def _fit_rows(fit: FitReport):
    return [",".join(FitReport.csv_header()),
            ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                     for v in fit.csv_row())]


def _field_slice_rows(field):
    """Central-slice CSV of a grid field: full plane in 2d, z = 0 plane in 3d."""
    g = field.grid
    ax = g.space_axis()
    v, z = field.values, ""
    if g.dim == 3:
        k = g.n_per_axis // 2
        v, z = v[:, :, k], f"{float(ax[k])!r},"
    rows = ["x,y,z,re,im" if z else "x,y,re,im"]
    for i in range(g.n_per_axis):
        for j in range(g.n_per_axis):
            rows.append(f"{float(ax[i])!r},{float(ax[j])!r},{z}"
                        f"{float(v[i, j].real)!r},{float(v[i, j].imag)!r}")
    return rows


# ---- subcommand handlers ----
# Each handler reads its config through the reader, calls done() before any
# work, and writes its artifacts; main writes manifest.json from the record.

def _run_gen_measure(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    n_probes = r.section("frostman", {"n_probes": 256}).get("n_probes", 256)
    r.done()
    report = frostman_fit(mu, n_probes=n_probes, seed=args.seed)
    save_measure_json(mu, out / "measure.json")
    save_measure_binary(mu, out / "measure.bin")
    rows = ["radius,max_mass,min_mass"]
    for rad, hi, lo in zip(report.radii, report.max_masses, report.min_masses):
        rows.append(f"{float(rad)!r},{float(hi)!r},{float(lo)!r}")
    _write_csv(out / "frostman.csv", rows)
    _write_json(out / "frostman.json", {
        "fitted_s": report.fitted_s,
        "constant": report.constant,
        "lower_regular": report.lower_regular,
        "residual": report.residual,
        "n_atoms": mu.n_atoms,
        "total_mass": mu.total_mass,
    })
    print(f"gen-measure: {mu.n_atoms} atoms fitted_s={report.fitted_s:.4f}"
          f" -> {out}")
    return 0


def _run_fourier(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    grid = _build_grid(r, _GRID_2D)
    f = _build_density(r)
    r.done()
    field = measure_fourier(f, mu, grid)
    fit = decay_fit(field)
    save_field_binary(field, out / "field.bin")
    _write_csv(out / "fit.csv", _fit_rows(fit))
    print(f"fourier: decay exponent {-fit.slope:.4f} -> {out}")
    return 0


def _run_strichartz(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    grid = _build_grid(r, _GRID_2D)
    f = _build_density(r)
    radii = r.get("radii", [float(2.0 ** k) for k in
                            range(int(np.log2(grid.freq_max)))])
    # required when the measure has no nominal exponent
    s = r.get("s", float if mu.nominal_s is None else float(mu.nominal_s))
    r.done()
    energies = strichartz_profile(f, mu, grid, radii, s)
    rows = ["r,energy"]
    for rad, e in zip(radii, energies):
        rows.append(f"{rad!r},{float(e)!r}")
    _write_csv(out / "strichartz.csv", rows)
    print(f"strichartz: {len(radii)} radii max energy"
          f" {float(np.max(energies)):.6g} -> {out}")
    return 0


def _run_avg(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    grid = _build_grid(r, _GRID_2D)
    f = _build_density(r)
    t = r.get("t", 0.5)
    r.done()
    field = spherical_average(f, mu, t, grid)
    save_field_binary(field, out / "field.bin")
    _write_csv(out / "slice.csv", _field_slice_rows(field))
    print(f"avg: radius {t} sup {float(np.abs(field.values).max()):.6g}"
          f" -> {out}")
    return 0


def _run_maximal(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    # radii reach 2, so the box must extend to twice that
    grid = _build_grid(r, {"dim": 2, "n_per_axis": 256, "box_half_width": 4.0})
    f = _build_density(r)
    t_grid_n = r.get("t_grid_n", 16)
    r.done()
    field = maximal_function(f, mu, default_t_grid(t_grid_n), grid)
    save_field_binary(field, out / "field.bin")
    _write_csv(out / "slice.csv", _field_slice_rows(field))
    print(f"maximal: {t_grid_n + 1} radii sup"
          f" {float(np.abs(field.values).max()):.6g} -> {out}")
    return 0


def _run_opnorm(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    nu = _build_measure(r, args.seed, key="nu",
                        default={"kind": "lebesgue-box", "d": 2,
                                 "half_width": 1.0, "n_cells": 32})
    grid = _build_grid(r, _GRID_2D)
    t = r.get("t", 0.5)
    p = r.get("p", 2.0)
    family = r.get("family", "bumps")
    r.done()
    handle = grid_operator_handle(
        lambda vals: spherical_average(vals, mu, t, grid), nu)
    estimate = opnorm_lower(handle, mu, nu, p, family, args.seed)
    _write_json(out / "opnorm.json", {
        "lower_bound": estimate.value,
        "p": estimate.p,
        "family": estimate.family,
        "iterations": estimate.iterations,
        "seed": estimate.seed,
        "t": t,
    })
    _write_csv(out / "witnesses.csv",
               [",".join(str(c) for c in row)
                for row in witness_csv_rows(estimate)])
    print(f"opnorm: lower bound {estimate.value:.6g} at p={p} -> {out}")
    return 0


def _run_growth(r: _Reader, args, out: Path) -> int:
    mu = _build_measure(r, args.seed)
    grid = _build_grid(r, {"dim": 2, "n_per_axis": 512, "box_half_width": 2.0})
    f = _build_density(r)
    js = np.asarray(r.get("j_values", [2, 3, 4, 5, 6]), dtype=int)
    r.done()
    norms = sphere_l2_profile(f, mu, grid, js)
    fit = growth_rate(js, norms)
    rows = ["j,norm"]
    for j, nrm in zip(js, norms):
        rows.append(f"{int(j)},{float(nrm)!r}")
    _write_csv(out / "growth.csv", rows)
    _write_csv(out / "fit.csv", _fit_rows(fit))
    print(f"growth: log2 slope {fit.slope:.4f} over j={js.min()}..{js.max()}"
          f" -> {out}")
    return 0


def _run_exponents(r: _Reader, args, out: Path) -> int:
    d, s_mu, s_nu = r.get("d", 3), r.get("s_mu", 3.0), r.get("s_nu", 3.0)
    region = r.section("region", None)
    n = None if region is None else region.get("n", 32)
    r.done()
    if n is not None and not 2 <= n <= 512:
        raise ConfigError("region.n", f"must be an int in [2, 512], got {n}")
    try:
        iv = maximal_interval(d, s_mu, s_nu)
    except ParameterError as e:
        # the library's message opens with the name of the parameter it rejects
        raise ConfigError(str(e).split()[0], str(e))
    # an unbounded endpoint becomes null: strict JSON has no Infinity literal
    _write_json(out / "exponents.json", {
        "d": d, "s_mu": s_mu, "s_nu": s_nu,
        "lo": iv.lo if np.isfinite(iv.lo) else None,
        "hi": iv.hi if np.isfinite(iv.hi) else None,
        "lo_open": iv.lo_open, "hi_open": iv.hi_open,
        "case": iv.case_label,
    })
    if n is not None:
        rows = ["s_mu,s_nu,case,lo,hi"]
        for a in np.linspace(0.0, d, n):
            for b in np.linspace(0.0, d, n):
                cell = maximal_interval(d, float(a), float(b))
                rows.append(f"{float(a)!r},{float(b)!r},{cell.case_label},"
                            f"{cell.lo!r},{cell.hi!r}")
        _write_csv(out / "region.csv", rows)
    print(f"exponents: case {iv.case_label} lo={iv.lo!r} hi={iv.hi!r}"
          f" -> {out}")
    return 0


# kind -> (parameter defaults, run of those parameters); the runs name the
# library functions at call time, so wrapping them (tracing) still works
_COUNTEREXAMPLES = {
    "stein": ({"d": 2, "s": 1.5, "p": 3.0, "shells": 40},
              lambda p: stein_example(**p)),
    "mattila": ({"d": 2, "alpha": 1.0, "beta": 0.5, "p": 4.0,
                 "eps": [2.0 ** -k for k in range(12, 18)]},
                lambda p: mattila_example(p["d"], p["alpha"], p["beta"],
                                          p["p"], p["eps"])),
    "riesz": ({"d": 2, "s": 1.0, "alpha": 0.8, "levels": 12},
              lambda p: riesz_divergence(**p)),
    "fixed-time": ({"d": 3, "p": 1.5, "shells": 40},
                   lambda p: fixed_time_sharpness(**p)),
}


def _run_counterexample(r: _Reader, args, out: Path) -> int:
    kind = r.choice("kind", _COUNTEREXAMPLES, "stein")
    fields, run = _COUNTEREXAMPLES[kind]
    params = r.fields(fields)
    r.done()
    rep = run(params)
    _write_csv(out / "series.csv", rep.csv_rows())
    _write_json(out / "verdict.json", rep.verdict_json())
    print(f"counterexample: {kind} -> {out}")
    return 0


def _run_wave(r: _Reader, args, out: Path) -> int:
    mode = r.choice("mode", ("solution", "pointwise", "blowup"), "solution")
    if mode == "blowup":
        refinements = r.get("refinements", [64, 128, 256])
        t = r.get("t", 1.0)
        fraction = r.get("threshold_fraction", 0.95)
        r.done()
        f_fam, mu_fam, p = sharpness_family()
        rep = blowup_probe(f_fam, mu_fam, t, refinements=tuple(refinements),
                           family_p=p, threshold_fraction=fraction)
        _write_csv(out / "blowup.csv", rep.csv_rows())
        _write_json(out / "verdict.json", rep.verdict_json())
        print(f"wave: blowup boxdim {rep.boxdim_estimate:.4f}"
              f" (bound {rep.compare!r}) -> {out}")
        return 0
    # the two field modes differ in their default resolutions only
    n, cells = (64, 24) if mode == "solution" else (128, 48)
    mu = _build_measure(r, args.seed, default={
        "kind": "lebesgue-box", "d": 3, "half_width": 1.5, "n_cells": cells})
    grid = _build_grid(r, {"dim": 3, "n_per_axis": n, "box_half_width": 2.0})
    f = _build_density(r, wave=True)
    if mode == "solution":
        t = r.get("t", 0.4)
        z = r.get("slice_z", 0.0)
        r.done()
        u = wave_solution(f, mu, t, grid)
        u.save_binary(out / "field.bin")
        _write_csv(out / "slice.csv", u.slice_csv_rows(z))
        print(f"wave: solution at t={t} sup"
              f" {float(np.abs(u.values).max()):.6g} -> {out}")
        return 0
    times = r.get("times", [0.2, 0.1, 0.05])
    r.done()
    rep = pointwise_limit_fit(f, mu, grid, times=tuple(times))
    _write_csv(out / "pointwise.csv", rep.csv_rows())
    _write_json(out / "verdict.json", rep.verdict_json())
    print(f"wave: pointwise order {rep.order:.4f} -> {out}")
    return 0


def _run_suite(r: _Reader, args, out: Path) -> int:
    r.done()
    r.record["quick"] = args.quick
    report = run_suite(quick=args.quick, seed=args.seed)
    for line in report.lines():
        print(line)
    _write_csv(out / "suite.csv", report.csv_rows())
    return 0 if report.all_passed else 1


_HANDLERS = {
    "gen-measure": _run_gen_measure,
    "fourier": _run_fourier,
    "strichartz": _run_strichartz,
    "avg": _run_avg,
    "maximal": _run_maximal,
    "opnorm": _run_opnorm,
    "growth": _run_growth,
    "exponents": _run_exponents,
    "counterexample": _run_counterexample,
    "wave": _run_wave,
    "suite": _run_suite,
}


def _seed_type(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2 ** 64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit"
                                         " integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON experiment config")
    common.add_argument("--seed", type=_seed_type, default=0, metavar="U64",
                        help="run seed (default 0)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="artifact directory (default .)")
    common.add_argument("--threads", type=int, metavar="N",
                        help="cap FFT worker threads")
    common.add_argument("--quick", action="store_true",
                        help="trim the slowest suite fixtures")
    parser = argparse.ArgumentParser(
        prog="frostlab",
        description="Spherical averaging experiments over fractal measures.")
    parser.add_argument("--version", action="version",
                        version=f"frostlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")
    for name in _HANDLERS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("threads", "must be a positive integer")
            set_fft_workers(args.threads)
        r = _Reader(_load_config(args.config, args.command))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rc = _HANDLERS[args.command](r, args, out)
        _write_manifest(out, args.command, r.record, args.seed)
        return rc
    except ConfigError as e:
        print(f"frostlab: config error: {e}", file=sys.stderr)
        return 3
    except ResourceError as e:
        print(f"frostlab: resource limit: {e}", file=sys.stderr)
        return 4
    except (ParameterError, DomainError, FitError, EstimationError) as e:
        print(f"frostlab: invalid parameters: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
