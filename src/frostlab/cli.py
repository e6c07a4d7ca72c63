"""Batch front-end: one experiment per invocation, reproducible artifacts.

Every subcommand reads an optional JSON config (top-level ``experiment``
key must match the subcommand), materializes all defaults, runs the
experiment, and writes its artifacts plus a ``manifest.json`` recording
the materialized config, its hash, the seed, and library versions.  No
timestamps anywhere: identical config and seed give byte-identical files.

Exit codes: 0 success, 1 acceptance-suite failure, 2 usage, 3 invalid
config or parameters (message carries the field path), 4 resource limit.
"""

import argparse
import hashlib
import json
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

_REQUIRED = object()


# ---- config plumbing ----

def _pop(cfg: dict, key: str, default, prefix: str = ""):
    if key in cfg:
        return cfg.pop(key)
    if default is _REQUIRED:
        raise ConfigError(prefix + key, "missing required field")
    return default


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _pop_int(cfg: dict, key: str, default, prefix: str = ""):
    value = _pop(cfg, key, default, prefix)
    if not _is_int(value):
        raise ConfigError(prefix + key, f"must be an integer, got {value!r}")
    return value


def _pop_number(cfg: dict, key: str, default, prefix: str = ""):
    value = _pop(cfg, key, default, prefix)
    if not _is_number(value):
        raise ConfigError(prefix + key, f"must be a number, got {value!r}")
    return value


def _pop_list(cfg: dict, key: str, default, of_ints: bool = False):
    """A nonempty JSON list of numbers (integers when of_ints)."""
    value = _pop(cfg, key, default)
    ok = _is_int if of_ints else _is_number
    if not (isinstance(value, list) and value and all(ok(v) for v in value)):
        what = "integers" if of_ints else "numbers"
        raise ConfigError(key, f"must be a nonempty list of {what}, got {value!r}")
    return value


def _reject_unknown(cfg: dict, prefix: str = ""):
    if cfg:
        raise ConfigError(prefix + sorted(cfg)[0], "unknown field")


def _section(cfg: dict, key: str, default: dict) -> dict:
    raw = _pop(cfg, key, default)
    if not isinstance(raw, dict):
        raise ConfigError(key, "must be a JSON object")
    return dict(raw)


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


def _build_grid(cfg: dict, default: dict) -> tuple:
    section = _section(cfg, "grid", default)
    dim = _pop_int(section, "dim", default["dim"], "grid.")
    n = _pop_int(section, "n_per_axis", default["n_per_axis"], "grid.")
    half = _pop_number(section, "box_half_width", default["box_half_width"],
                       "grid.")
    _reject_unknown(section, "grid.")
    try:
        grid = SpectralGrid(dim, n, half)
    except (ParameterError, DomainError) as e:
        raise ConfigError("grid", str(e))
    return grid, {"dim": dim, "n_per_axis": n, "box_half_width": half}


_DEFAULT_MEASURE = {"kind": "product-cantor", "ratio": 0.25, "depth": 6,
                    "copies": 2}


def _build_measure(cfg: dict, seed: int, key: str = "measure",
                   default: dict | None = None) -> tuple:
    section = _section(cfg, key, default or dict(_DEFAULT_MEASURE))
    prefix = key + "."
    kind = _pop(section, "kind", _REQUIRED, prefix)
    out = {"kind": kind}

    def take(name, dflt=_REQUIRED):
        out[name] = _pop(section, name, dflt, prefix)
        return out[name]

    try:
        if kind == "cantor":
            mu = cantor_measure(take("ratio", 0.25), take("depth", 6))
        elif kind == "product-cantor":
            ratio, depth = take("ratio", 0.25), take("depth", 6)
            mu = product_measure([cantor_measure(ratio, depth)]
                                 * take("copies", 2))
        elif kind == "lebesgue-box":
            mu = lebesgue_box_measure(take("d", 2), take("half_width", 1.0),
                                      take("n_cells", 64))
        elif kind == "sphere":
            mu = sphere_measure(take("d", 2), take("t", 1.0),
                                take("n_points", 2048))
        elif kind == "random-ball":
            mu = random_ball_measure(take("d", 2), take("n_atoms", 4096),
                                     seed, take("radius", 1.0))
            out["seed"] = seed
        elif kind == "radial-power":
            mu = radial_power_measure(take("d", 2), take("s", 1.5),
                                      take("grid_n", 64), take("log_u", None))
        else:
            raise ConfigError(prefix + "kind", f"unknown measure kind {kind!r}")
    except (ParameterError, DomainError) as e:
        raise ConfigError(key, str(e))
    _reject_unknown(section, prefix)
    return mu, out


def _build_density(cfg: dict) -> tuple:
    section = _pop(cfg, "density", None)
    if section is None:
        return None, {"kind": "one"}
    if not isinstance(section, dict):
        raise ConfigError("density", "must be a JSON object or null")
    section = dict(section)
    kind = _pop(section, "kind", _REQUIRED, "density.")
    if kind == "one":
        _reject_unknown(section, "density.")
        return None, {"kind": "one"}
    if kind == "gaussian":
        width = _pop(section, "width", 0.35, "density.")
        _reject_unknown(section, "density.")
        if not (isinstance(width, (int, float)) and width > 0):
            raise ConfigError("density.width", f"must be positive, got {width}")
        f = lambda pts: np.exp(
            -np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1)
            / (2.0 * float(width) ** 2))
        return f, {"kind": "gaussian", "width": width}
    raise ConfigError("density.kind", f"unknown density kind {kind!r}")


# ---- artifact plumbing ----

def _write_csv(path: Path, rows):
    # RFC 4180 line endings, explicit so the platform newline never leaks in
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


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
    v = field.values
    rows = []
    if g.dim == 1:
        rows.append("x,re,im")
        for i in range(g.n_per_axis):
            rows.append(f"{float(ax[i])!r},{float(v[i].real)!r},"
                        f"{float(v[i].imag)!r}")
    elif g.dim == 2:
        rows.append("x,y,re,im")
        for i in range(g.n_per_axis):
            for j in range(g.n_per_axis):
                rows.append(f"{float(ax[i])!r},{float(ax[j])!r},"
                            f"{float(v[i, j].real)!r},{float(v[i, j].imag)!r}")
    else:
        k = g.n_per_axis // 2
        z = float(ax[k])
        rows.append("x,y,z,re,im")
        for i in range(g.n_per_axis):
            for j in range(g.n_per_axis):
                rows.append(f"{float(ax[i])!r},{float(ax[j])!r},{z!r},"
                            f"{float(v[i, j, k].real)!r},"
                            f"{float(v[i, j, k].imag)!r}")
    return rows


# ---- subcommand handlers ----

def _run_gen_measure(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    fro = _section(cfg, "frostman", {"n_probes": 256})
    n_probes = _pop(fro, "n_probes", 256, "frostman.")
    _reject_unknown(fro, "frostman.")
    _reject_unknown(cfg)
    report = frostman_fit(mu, n_probes=n_probes, seed=args.seed)
    save_measure_json(mu, out / "measure.json")
    save_measure_binary(mu, out / "measure.bin")
    rows = ["radius,max_mass,min_mass"]
    for r, hi, lo in zip(report.radii, report.max_masses, report.min_masses):
        rows.append(f"{float(r)!r},{float(hi)!r},{float(lo)!r}")
    _write_csv(out / "frostman.csv", rows)
    _write_json(out / "frostman.json", {
        "fitted_s": report.fitted_s,
        "constant": report.constant,
        "lower_regular": report.lower_regular,
        "residual": report.residual,
        "n_atoms": mu.n_atoms,
        "total_mass": mu.total_mass,
    })
    _write_manifest(out, "gen-measure",
                    {"measure": mcfg, "frostman": {"n_probes": n_probes}},
                    args.seed)
    print(f"gen-measure: {mu.n_atoms} atoms fitted_s={report.fitted_s:.4f}"
          f" -> {out}")
    return 0


def _run_fourier(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    grid, gcfg = _build_grid(cfg, {"dim": 2, "n_per_axis": 256,
                                   "box_half_width": 2.0})
    f, dcfg = _build_density(cfg)
    _reject_unknown(cfg)
    field = measure_fourier(f, mu, grid)
    fit = decay_fit(field)
    save_field_binary(field, out / "field.bin")
    _write_csv(out / "fit.csv", _fit_rows(fit))
    _write_manifest(out, "fourier",
                    {"measure": mcfg, "grid": gcfg, "density": dcfg},
                    args.seed)
    print(f"fourier: decay exponent {-fit.slope:.4f} -> {out}")
    return 0


def _run_strichartz(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    grid, gcfg = _build_grid(cfg, {"dim": 2, "n_per_axis": 256,
                                   "box_half_width": 2.0})
    f, dcfg = _build_density(cfg)
    default_radii = [float(2.0 ** k) for k in
                     range(int(np.log2(grid.freq_max)))]
    radii = _pop_list(cfg, "radii", default_radii)
    s = _pop(cfg, "s", mu.nominal_s)
    _reject_unknown(cfg)
    if s is None:
        raise ConfigError("s", "required when the measure has no"
                          " nominal exponent")
    if not _is_number(s):
        raise ConfigError("s", f"must be a number, got {s!r}")
    energies = strichartz_profile(f, mu, grid, radii, s)
    rows = ["r,energy"]
    for r, e in zip(radii, energies):
        rows.append(f"{float(r)!r},{float(e)!r}")
    _write_csv(out / "strichartz.csv", rows)
    _write_manifest(out, "strichartz",
                    {"measure": mcfg, "grid": gcfg, "density": dcfg,
                     "radii": [float(r) for r in radii], "s": float(s)},
                    args.seed)
    print(f"strichartz: {len(radii)} radii max energy"
          f" {float(np.max(energies)):.6g} -> {out}")
    return 0


def _run_avg(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    grid, gcfg = _build_grid(cfg, {"dim": 2, "n_per_axis": 256,
                                   "box_half_width": 2.0})
    f, dcfg = _build_density(cfg)
    t = _pop_number(cfg, "t", 0.5)
    _reject_unknown(cfg)
    field = spherical_average(f, mu, t, grid)
    save_field_binary(field, out / "field.bin")
    _write_csv(out / "slice.csv", _field_slice_rows(field))
    _write_manifest(out, "avg",
                    {"measure": mcfg, "grid": gcfg, "density": dcfg,
                     "t": float(t)},
                    args.seed)
    print(f"avg: radius {t} sup {float(np.abs(field.values).max()):.6g}"
          f" -> {out}")
    return 0


def _run_maximal(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    # radii reach 2, so the box must extend to twice that
    grid, gcfg = _build_grid(cfg, {"dim": 2, "n_per_axis": 256,
                                   "box_half_width": 4.0})
    f, dcfg = _build_density(cfg)
    t_grid_n = _pop_int(cfg, "t_grid_n", 16)
    _reject_unknown(cfg)
    field = maximal_function(f, mu, default_t_grid(t_grid_n), grid)
    save_field_binary(field, out / "field.bin")
    _write_csv(out / "slice.csv", _field_slice_rows(field))
    _write_manifest(out, "maximal",
                    {"measure": mcfg, "grid": gcfg, "density": dcfg,
                     "t_grid_n": int(t_grid_n)},
                    args.seed)
    print(f"maximal: {t_grid_n + 1} radii sup"
          f" {float(np.abs(field.values).max()):.6g} -> {out}")
    return 0


def _run_opnorm(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    nu, ncfg = _build_measure(cfg, args.seed, key="nu",
                              default={"kind": "lebesgue-box", "d": 2,
                                       "half_width": 1.0, "n_cells": 32})
    grid, gcfg = _build_grid(cfg, {"dim": 2, "n_per_axis": 256,
                                   "box_half_width": 2.0})
    t = _pop_number(cfg, "t", 0.5)
    p = _pop_number(cfg, "p", 2.0)
    family = _pop(cfg, "family", "bumps")
    _reject_unknown(cfg)
    handle = grid_operator_handle(
        lambda vals: spherical_average(vals, mu, t, grid), nu)
    estimate = opnorm_lower(handle, mu, nu, p, family, args.seed)
    _write_json(out / "opnorm.json", {
        "lower_bound": estimate.value,
        "p": estimate.p,
        "family": estimate.family,
        "iterations": estimate.iterations,
        "seed": estimate.seed,
        "t": float(t),
    })
    _write_csv(out / "witnesses.csv",
               [",".join(str(c) for c in row)
                for row in witness_csv_rows(estimate)])
    _write_manifest(out, "opnorm",
                    {"measure": mcfg, "nu": ncfg, "grid": gcfg,
                     "t": float(t), "p": float(p), "family": family},
                    args.seed)
    print(f"opnorm: lower bound {estimate.value:.6g} at p={p} -> {out}")
    return 0


def _run_growth(cfg: dict, args, out: Path) -> int:
    mu, mcfg = _build_measure(cfg, args.seed)
    grid, gcfg = _build_grid(cfg, {"dim": 2, "n_per_axis": 512,
                                   "box_half_width": 2.0})
    f, dcfg = _build_density(cfg)
    j_values = _pop_list(cfg, "j_values", [2, 3, 4, 5, 6], of_ints=True)
    _reject_unknown(cfg)
    js = np.asarray(j_values, dtype=int)
    norms = sphere_l2_profile(f, mu, grid, js)
    fit = growth_rate(js, norms)
    rows = ["j,norm"]
    for j, nrm in zip(js, norms):
        rows.append(f"{int(j)},{float(nrm)!r}")
    _write_csv(out / "growth.csv", rows)
    _write_csv(out / "fit.csv", _fit_rows(fit))
    _write_manifest(out, "growth",
                    {"measure": mcfg, "grid": gcfg, "density": dcfg,
                     "j_values": [int(j) for j in js]},
                    args.seed)
    print(f"growth: log2 slope {fit.slope:.4f} over j={js.min()}..{js.max()}"
          f" -> {out}")
    return 0


def _run_exponents(cfg: dict, args, out: Path) -> int:
    d = _pop(cfg, "d", 3)
    s_mu = _pop(cfg, "s_mu", 3.0)
    s_nu = _pop(cfg, "s_nu", 3.0)
    region = _pop(cfg, "region", None)
    _reject_unknown(cfg)
    try:
        iv = maximal_interval(d, s_mu, s_nu)
    except (ParameterError, DomainError) as e:
        raise ConfigError("s_mu", str(e))
    # an unbounded endpoint becomes null: strict JSON has no Infinity literal
    _write_json(out / "exponents.json", {
        "d": d, "s_mu": s_mu, "s_nu": s_nu,
        "lo": iv.lo if np.isfinite(iv.lo) else None,
        "hi": iv.hi if np.isfinite(iv.hi) else None,
        "lo_open": iv.lo_open, "hi_open": iv.hi_open,
        "case": iv.case_label,
    })
    materialized = {"d": d, "s_mu": s_mu, "s_nu": s_nu}
    if region is not None:
        if not isinstance(region, dict):
            raise ConfigError("region", "must be a JSON object")
        region = dict(region)
        n = _pop(region, "n", 32, "region.")
        _reject_unknown(region, "region.")
        if not (isinstance(n, int) and 2 <= n <= 512):
            raise ConfigError("region.n", f"must be an int in [2, 512], got {n}")
        rows = ["s_mu,s_nu,case,lo,hi"]
        for a in np.linspace(0.0, d, n):
            for b in np.linspace(0.0, d, n):
                cell = maximal_interval(d, float(a), float(b))
                rows.append(f"{float(a)!r},{float(b)!r},{cell.case_label},"
                            f"{cell.lo!r},{cell.hi!r}")
        _write_csv(out / "region.csv", rows)
        materialized["region"] = {"n": n}
    _write_manifest(out, "exponents", materialized, args.seed)
    print(f"exponents: case {iv.case_label} lo={iv.lo!r} hi={iv.hi!r}"
          f" -> {out}")
    return 0


_COUNTEREXAMPLE_DEFAULTS = {
    "stein": {"d": 2, "s": 1.5, "p": 3.0, "shells": 40},
    "mattila": {"d": 2, "alpha": 1.0, "beta": 0.5, "p": 4.0,
                "eps": [2.0 ** -k for k in range(12, 18)]},
    "riesz": {"d": 2, "s": 1.0, "alpha": 0.8, "levels": 12},
    "fixed-time": {"d": 3, "p": 1.5, "shells": 40},
}


def _run_counterexample(cfg: dict, args, out: Path) -> int:
    kind = _pop(cfg, "kind", "stein")
    if kind not in _COUNTEREXAMPLE_DEFAULTS:
        raise ConfigError("kind", f"unknown counterexample kind {kind!r}")
    params = dict(_COUNTEREXAMPLE_DEFAULTS[kind])
    for key in list(params):
        params[key] = _pop(cfg, key, params[key])
    _reject_unknown(cfg)
    if kind == "stein":
        rep = stein_example(params["d"], params["s"], params["p"],
                            shells=params["shells"])
    elif kind == "mattila":
        rep = mattila_example(params["d"], params["alpha"], params["beta"],
                              params["p"], params["eps"])
    elif kind == "riesz":
        rep = riesz_divergence(params["d"], params["s"], params["alpha"],
                               levels=params["levels"])
    else:
        rep = fixed_time_sharpness(params["d"], params["p"],
                                   shells=params["shells"])
    _write_csv(out / "series.csv", rep.csv_rows())
    _write_json(out / "verdict.json", rep.verdict_json())
    _write_manifest(out, "counterexample", {"kind": kind, **params}, args.seed)
    print(f"counterexample: {kind} -> {out}")
    return 0


def _run_wave(cfg: dict, args, out: Path) -> int:
    mode = _pop(cfg, "mode", "solution")
    if mode == "solution":
        mu, mcfg = _build_measure(cfg, args.seed,
                                  default={"kind": "lebesgue-box", "d": 3,
                                           "half_width": 1.5, "n_cells": 24})
        grid, gcfg = _build_grid(cfg, {"dim": 3, "n_per_axis": 64,
                                       "box_half_width": 2.0})
        f, dcfg = _build_density(cfg)
        if f is None:
            f, dcfg = _build_density({"density": {"kind": "gaussian"}})
        t = _pop_number(cfg, "t", 0.4)
        z = _pop_number(cfg, "slice_z", 0.0)
        _reject_unknown(cfg)
        u = wave_solution(f, mu, t, grid)
        u.save_binary(out / "field.bin")
        _write_csv(out / "slice.csv", u.slice_csv_rows(z))
        _write_manifest(out, "wave",
                        {"mode": mode, "measure": mcfg, "grid": gcfg,
                         "density": dcfg, "t": float(t),
                         "slice_z": float(z)},
                        args.seed)
        print(f"wave: solution at t={t} sup"
              f" {float(np.abs(u.values).max()):.6g} -> {out}")
        return 0
    if mode == "pointwise":
        mu, mcfg = _build_measure(cfg, args.seed,
                                  default={"kind": "lebesgue-box", "d": 3,
                                           "half_width": 1.5, "n_cells": 48})
        grid, gcfg = _build_grid(cfg, {"dim": 3, "n_per_axis": 128,
                                       "box_half_width": 2.0})
        f, dcfg = _build_density(cfg)
        if f is None:
            f, dcfg = _build_density({"density": {"kind": "gaussian"}})
        times = _pop_list(cfg, "times", [0.2, 0.1, 0.05])
        _reject_unknown(cfg)
        rep = pointwise_limit_fit(f, mu, grid, times=tuple(times))
        _write_csv(out / "pointwise.csv", rep.csv_rows())
        _write_json(out / "verdict.json", rep.verdict_json())
        _write_manifest(out, "wave",
                        {"mode": mode, "measure": mcfg, "grid": gcfg,
                         "density": dcfg,
                         "times": [float(t) for t in times]},
                        args.seed)
        print(f"wave: pointwise order {rep.order:.4f} -> {out}")
        return 0
    if mode == "blowup":
        refinements = _pop_list(cfg, "refinements", [64, 128, 256],
                                of_ints=True)
        t = _pop_number(cfg, "t", 1.0)
        fraction = _pop_number(cfg, "threshold_fraction", 0.95)
        _reject_unknown(cfg)
        f_fam, mu_fam, p = sharpness_family()
        rep = blowup_probe(f_fam, mu_fam, t,
                           refinements=tuple(refinements), family_p=p,
                           threshold_fraction=fraction)
        _write_csv(out / "blowup.csv", rep.csv_rows())
        _write_json(out / "verdict.json", rep.verdict_json())
        _write_manifest(out, "wave",
                        {"mode": mode,
                         "refinements": [int(n) for n in refinements],
                         "t": float(t),
                         "threshold_fraction": float(fraction)},
                        args.seed)
        print(f"wave: blowup boxdim {rep.boxdim_estimate:.4f}"
              f" (bound {rep.compare!r}) -> {out}")
        return 0
    raise ConfigError("mode", f"unknown wave mode {mode!r}")


def _run_suite(cfg: dict, args, out: Path) -> int:
    _reject_unknown(cfg)
    report = run_suite(quick=args.quick, seed=args.seed)
    for line in report.lines():
        print(line)
    _write_csv(out / "suite.csv", report.csv_rows())
    _write_manifest(out, "suite",
                    {"quick": report.quick}, args.seed)
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
        cfg = _load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, args, out)
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
