"""The benchmark's workloads: inputs built from the seed, the timed
operations, and one correctness gate per operation.

Every workload drives frostlab only through its public functions and its
CLI.  Operations are looked up on the module at call time (for example
``wave3d.blowup_probe``), so the traced run's wrappers see them.

Fixed fractal fixtures (Cantor products, lattice boxes, spheres) stay
fixed; the seed draws the random-ball atoms, the witness-choice seeds,
the frequencies the spreader is checked at, and the CLI ``--seed``.

``tiny=True`` shrinks every grid and atom count so that the smoke test can
run all workloads in seconds; its gate verdicts are not meaningful.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from frostlab import cli, measures, norms, operators, spectral, wave3d

# Tolerances the library documents, restated here so that a library change
# cannot loosen the benchmark's gates.
SPREAD_TOL = 1e-9       # spectral: spreader ~1e-9 relative to the direct sum
DUAL_ROUTE_TOL = 1e-3   # suite._DUAL_ROUTE_TOL, criterion 5
DECAY_TOL = 0.1         # criterion 6: decay exponents within 0.1 of 1 and 1/2
C3_SLOPE_FLOOR = 0.35   # criterion 3
C9_ORDER_FLOOR = 1.7    # criterion 9, small-time order
C9_BOXDIM_TOL = 0.25    # criterion 9, box dimension near 2
EXACT_TOL = 1e-12       # suite._EXACT_TOL: identities up to roundoff

CLI_TIMEOUT_S = 120


@dataclass
class Gate:
    ok: bool
    detail: str
    extras: dict


@dataclass
class Op:
    """One timed operation.

    run is the timed call.  prepare (before) and collect (after) run outside
    the timing; gate checks collect's result once per run.
    """

    name: str
    run: Callable[[], object]
    gate: Callable[[object], Gate]
    working_set: int | None  # computed bytes, see working_set_note
    working_set_note: str
    prepare: Callable[[], None] | None = None
    collect: Callable[[object], object] | None = None


@dataclass
class Context:
    workdir: Path        # work directory for CLI artifacts
    in_process: bool     # cli-batch: call frostlab.cli.main in this process
    tracer: object = None  # set during a traced pass

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)


def _complex_bytes(n: int, d: int) -> int:
    return 16 * n ** d


def _gaussian(width: float):
    return lambda pts: np.exp(
        -np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1) / (2.0 * width ** 2))


def _cantor_square(tiny: bool):
    depth = 3 if tiny else 6
    return measures.product_measure([measures.cantor_measure(0.25, depth)] * 2)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---- lattice-fields ----

def lattice_fields(seed: int, tiny: bool, ctx: Context) -> list[Op]:
    """Large fields through binning/spreading -> FFT -> radial multiplier ->
    inverse or reduce.  Every fixture is fixed; the seed does not enter."""
    refinements = (32, 64) if tiny else (64, 128, 256)
    f_fam, mu_fam, fam_p = wave3d.sharpness_family()
    cantor2 = _cantor_square(tiny)
    g_max = spectral.SpectralGrid(2, 64 if tiny else 256, 4.0)
    g_l2 = spectral.SpectralGrid(2, 128 if tiny else 1024, 2.0)
    js = np.arange(2, 5 if tiny else 8)
    g_pw = spectral.SpectralGrid(3, 32 if tiny else 128, 2.0)
    box = measures.lebesgue_box_measure(3, 1.5, 12 if tiny else 48)
    gauss = _gaussian(0.35)

    def blowup_gate(rep):
        ok = (not rep.inconclusive
              and abs(rep.boxdim_estimate - 2.0) <= C9_BOXDIM_TOL
              and abs(rep.compare - 2.0) <= EXACT_TOL)
        return Gate(ok, f"boxdim={rep.boxdim_estimate:.4f}"
                    f" inconclusive={rep.inconclusive}", {})

    def maximal_gate(field):
        # documented: refining the t-grid can only increase the output, and
        # default_t_grid(8) is nested in default_t_grid(16)
        coarse = operators.maximal_function(None, cantor2,
                                            operators.default_t_grid(8), g_max)
        ok = bool(np.all(field.values.real >= coarse.values.real))
        return Gate(ok, "M16>=M8 pointwise" if ok else "M16<M8 somewhere", {})

    def l2_gate(norms_j):
        slope = float(np.polyfit(js, np.log2(norms_j), 1)[0])
        return Gate(slope >= C3_SLOPE_FLOOR, f"log2_slope={slope:.4f}", {})

    def pointwise_gate(rep):
        return Gate(rep.order >= C9_ORDER_FLOOR, f"order={rep.order:.4f}", {})

    return [
        Op("blowup_probe",
           lambda: wave3d.blowup_probe(f_fam, mu_fam, 1.0,
                                       refinements=refinements, family_p=fam_p),
           blowup_gate, _complex_bytes(refinements[-1], 3),
           f"one complex field at {refinements[-1]}^3"),
        Op("maximal_function",
           lambda: operators.maximal_function(
               None, cantor2, operators.default_t_grid(16), g_max),
           maximal_gate, _complex_bytes(2 * g_max.n_per_axis, 2),
           f"oversampled spreading grid {2 * g_max.n_per_axis}^2"),
        Op("sphere_l2_profile",
           lambda: operators.sphere_l2_profile(None, cantor2, g_l2, js),
           l2_gate, _complex_bytes(2 * g_l2.n_per_axis, 2),
           f"oversampled spreading grid {2 * g_l2.n_per_axis}^2"),
        Op("pointwise_limit_fit",
           lambda: wave3d.pointwise_limit_fit(gauss, box, g_pw),
           pointwise_gate, _complex_bytes(g_pw.n_per_axis, 3),
           f"one complex field at {g_pw.n_per_axis}^3"),
    ]


# ---- offlattice-atoms ----

def _spread_gate(mu, grid, rng, n_freq: int, decay_target: float | None):
    """direct_fourier at lattice frequencies drawn from the seed."""
    idx = rng.integers(0, grid.n_per_axis, size=(n_freq, grid.dim))
    xi = grid.axis_freqs()[idx]

    def gate(out):
        field, fit = out if isinstance(out, tuple) else (out, None)
        direct, dt = _timed(lambda: spectral.direct_fourier(None, mu, xi))
        got = field.values[tuple(idx.T)]
        err = float(np.max(np.abs(got - direct)) / np.max(np.abs(field.values)))
        ok = err <= SPREAD_TOL
        detail = f"spread_rel_err={err:.2e}"
        if decay_target is not None:
            decay = -fit.slope
            ok = ok and abs(decay - decay_target) <= DECAY_TOL
            detail += f" decay={decay:.4f}"
        return Gate(ok, detail, {"spectral.direct_fourier_s": dt,
                                 "spectral.spread_rel_err": err})

    return gate


def offlattice_atoms(seed: int, tiny: bool, ctx: Context) -> list[Op]:
    """Off-lattice atoms through the Gaussian spreader, plus the O(n^2) pair
    scans.  The seed draws the random-ball atoms and the check frequencies."""
    rng = np.random.default_rng(seed)
    ball_seed, avg_seed, pair_seed = (int(s) for s in rng.integers(0, 2**63, 3))
    g3 = spectral.SpectralGrid(3, 64 if tiny else 128, 2.0)
    g2 = spectral.SpectralGrid(2, 128 if tiny else 1024, 2.0)
    g_ball = spectral.SpectralGrid(3, 16 if tiny else 64, 2.0)
    g_avg = g_ball
    sphere3 = measures.sphere_measure(3, 1.0, 512 if tiny else 8192)
    circle = measures.sphere_measure(2, 1.0, 256 if tiny else 4096)
    ball = measures.random_ball_measure(3, 256 if tiny else 4096, ball_seed, 1.0)
    ball_avg = measures.random_ball_measure(3, 50 if tiny else 300, avg_seed, 0.4)
    planar = measures.random_ball_measure(2, 256 if tiny else 4096, pair_seed, 1.0)
    gauss = lambda x: np.exp(-(x ** 2).sum(axis=1))  # criterion 5's ball3 data
    pair_t = 0.5
    pair_eps = [2.0 ** -k for k in range(4, 10)]

    def transform_and_fit(mu, grid):
        field = spectral.measure_fourier(None, mu, grid)
        return field, spectral.decay_fit(field)

    def dual_route_gate(field):
        slow, dt = _timed(lambda: operators.quadrature_spherical_average(
            gauss, ball_avg, 0.5, g_avg))
        gap = float(np.linalg.norm((field.values - slow.values).ravel())
                    / np.linalg.norm(slow.values.ravel()))
        return Gate(gap <= DUAL_ROUTE_TOL, f"dual_route_rel_l2={gap:.3e}",
                    {"operators.quadrature_s": dt,
                     "operators.dual_route_rel_l2": gap})

    tree = cKDTree(planar.atoms)

    def annulus_oracle():
        # weighted pair counts within t and t + eps from a k-d tree
        radii = np.array([pair_t] + [pair_t + e for e in pair_eps])
        c = tree.count_neighbors(tree, radii, weights=(planar.weights,) * 2,
                                 cumulative=True)
        return c[1:] - c[0]

    def energy_gate(rep):
        ok = bool(np.isfinite(rep.value) and rep.value > 0 and not rep.divergent)
        return Gate(ok, f"energy={rep.value:.6f} divergent={rep.divergent}", {})

    def annulus_gate(masses):
        ref = annulus_oracle()
        gap = float(np.max(np.abs(masses - ref) / ref))
        return Gate(gap <= EXACT_TOL, f"kdtree_rel_gap={gap:.2e}", {})

    def chain_gate(triples):
        # Cauchy-Schwarz against the annulus masses (total mass 1), and
        # non-decreasing in the annulus width
        pairs = annulus_oracle()
        by_width = np.argsort(pair_eps)
        ok = bool(np.all(triples >= pairs ** 2 * (1.0 - EXACT_TOL))
                  and np.all(np.diff(triples[by_width]) >= 0))
        return Gate(ok, f"min_ratio={float(np.min(triples / pairs ** 2)):.4f}", {})

    pair_ws = 16 * 256 * planar.n_atoms  # one 256-row chunk of 2-d differences
    return [
        Op("sphere3_transform_fit", lambda: transform_and_fit(sphere3, g3),
           _spread_gate(sphere3, g3, rng, 256, 1.0),
           _complex_bytes(2 * g3.n_per_axis, 3),
           f"oversampled spreading grid {2 * g3.n_per_axis}^3"),
        Op("circle_transform_fit", lambda: transform_and_fit(circle, g2),
           _spread_gate(circle, g2, rng, 256, 0.5),
           _complex_bytes(2 * g2.n_per_axis, 2),
           f"oversampled spreading grid {2 * g2.n_per_axis}^2"),
        Op("ball3_transform",
           lambda: spectral.measure_fourier(None, ball, g_ball),
           _spread_gate(ball, g_ball, rng, 256, None),
           _complex_bytes(2 * g_ball.n_per_axis, 3),
           f"oversampled spreading grid {2 * g_ball.n_per_axis}^3"),
        Op("ball3_spherical_average",
           lambda: operators.spherical_average(gauss, ball_avg, 0.5, g_avg),
           dual_route_gate, _complex_bytes(2 * g_avg.n_per_axis, 3),
           f"oversampled spreading grid {2 * g_avg.n_per_axis}^3"),
        Op("energy_integral",
           lambda: measures.energy_integral(planar, 1.0),
           energy_gate, pair_ws, "one 256-row chunk of pair differences"),
        Op("annulus_pair_profile",
           lambda: measures.annulus_pair_profile(planar, pair_t, pair_eps),
           annulus_gate, pair_ws, "one 256-row chunk of pair differences"),
        Op("chain_triple_profile",
           lambda: measures.chain_triple_profile(planar, pair_t, pair_eps),
           chain_gate, pair_ws, "one 256-row chunk of pair differences"),
    ]


# ---- witness-loop ----

def witness_loop(seed: int, tiny: bool, ctx: Context) -> list[Op]:
    """The CLI opnorm default: many small spherical averages, each followed
    by interpolation at the Lebesgue box atoms.  The seed picks witnesses."""
    rng = np.random.default_rng(seed)
    bump_seed, extremizer_seed = (int(s) for s in rng.integers(0, 2**63, 2))
    mu = _cantor_square(tiny)
    nu = measures.lebesgue_box_measure(2, 1.0, 8 if tiny else 32)
    grid = spectral.SpectralGrid(2, 64 if tiny else 256, 2.0)

    def apply(values):
        with ctx.span("norms.apply"):
            return operators.spherical_average(values, mu, 0.5, grid)

    handle = norms.grid_operator_handle(apply, nu)

    def certify_gate(est):
        again = norms.certify(est, handle, mu, nu)
        gap = abs(again - est.value) / abs(est.value)
        return Gate(gap <= EXACT_TOL, f"lower_bound={est.value:.6g}"
                    f" certify_gap={gap:.1e} witnesses={est.iterations}", {})

    ws = _complex_bytes(2 * grid.n_per_axis, 2)
    note = (f"oversampled spreading grid {2 * grid.n_per_axis}^2"
            f" (field {grid.n_per_axis}^2 = {_complex_bytes(grid.n_per_axis, 2)} B)")
    return [
        Op("opnorm_bumps_p2",
           lambda: norms.opnorm_lower(handle, mu, nu, 2.0, "bumps", bump_seed),
           certify_gate, ws, note),
        Op("opnorm_extremizers_p4",
           lambda: norms.opnorm_lower(handle, mu, nu, 4.0, "extremizers",
                                      extremizer_seed),
           certify_gate, ws, note),
    ]


# ---- cli-batch ----

def _cli_configs(tiny: bool) -> list[tuple[str, str, dict, int | None]]:
    """(invocation, subcommand, config, computed working-set bytes)."""
    n2 = 64 if tiny else 256
    ball = {"kind": "random-ball", "d": 2, "n_atoms": 256 if tiny else 4096,
            "radius": 1.0}
    grid2 = {"dim": 2, "n_per_axis": n2, "box_half_width": 2.0}
    out = [
        ("gen-measure", "gen-measure",
         {"measure": ball, "frostman": {"n_probes": 64 if tiny else 256}}, None),
        ("fourier", "fourier", {"measure": ball, "grid": grid2},
         _complex_bytes(2 * n2, 2)),
        ("strichartz", "strichartz", {"measure": ball, "grid": grid2},
         _complex_bytes(2 * n2, 2)),
        ("avg", "avg", {"grid": grid2, "t": 0.5}, _complex_bytes(2 * n2, 2)),
        ("maximal", "maximal",
         {"grid": {"dim": 2, "n_per_axis": n2, "box_half_width": 4.0},
          "t_grid_n": 16}, _complex_bytes(2 * n2, 2)),
        ("growth", "growth",
         {"grid": {"dim": 2, "n_per_axis": 128 if tiny else 512,
                   "box_half_width": 2.0}},
         _complex_bytes(2 * (128 if tiny else 512), 2)),
        ("exponents", "exponents",
         {"d": 3, "s_mu": 2.5, "s_nu": 3.0, "region": {"n": 8 if tiny else 64}},
         None),
    ]
    for kind in ("stein", "mattila", "riesz", "fixed-time"):
        cfg = {"kind": kind}
        if tiny and kind == "mattila":
            cfg["eps"] = [2.0 ** -k for k in range(6, 10)]
        out.append((f"counterexample-{kind}", "counterexample", cfg, None))
    n_sol, n_pw = (32, 32) if tiny else (64, 128)
    out.append(("wave-solution", "wave",
                {"mode": "solution",
                 "grid": {"dim": 3, "n_per_axis": n_sol, "box_half_width": 2.0}},
                _complex_bytes(n_sol, 3)))
    out.append(("wave-pointwise", "wave",
                {"mode": "pointwise",
                 "measure": {"kind": "lebesgue-box", "d": 3, "half_width": 1.5,
                             "n_cells": 12 if tiny else 48},
                 "grid": {"dim": 3, "n_per_axis": n_pw, "box_half_width": 2.0}},
                _complex_bytes(n_pw, 3)))
    return out


CLI_INVOCATIONS = tuple(name for name, *_ in _cli_configs(False))


def cli_batch(seed: int, tiny: bool, ctx: Context) -> list[Op]:
    """One fresh `python -m frostlab` process per invocation (in-process
    frostlab.cli.main during a traced run).  The seed is the CLI --seed."""
    cli_seed = seed % 2**64
    ops = []
    for name, sub, cfg, ws in _cli_configs(tiny):
        cfg_path = ctx.workdir / f"{name}.json"
        cfg_path.write_text(json.dumps({"experiment": sub, **cfg}, indent=2))
        out_dir = ctx.workdir / name
        argv = [sub, "--config", str(cfg_path), "--seed", str(cli_seed),
                "--out", str(out_dir)]
        ops.append(Op(name, _cli_runner(ctx, argv), _exit_gate, ws,
                      "one complex array on the config's largest grid"
                      if ws else "no grid",
                      prepare=_cleaner(out_dir), collect=_collector(out_dir)))
    return ops


def _cli_runner(ctx: Context, argv: list[str]):
    def run():
        if ctx.in_process:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    return cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                return e.code
        proc = subprocess.Popen([sys.executable, "-m", "frostlab", *argv],
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # wait(timeout=...) polls with sleeps of up to 50 ms, which would
        # quantize the timing; a watchdog kills a hung child instead
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            return proc.wait()
        finally:
            watchdog.cancel()
    return run


def _cleaner(out_dir: Path):
    return lambda: shutil.rmtree(out_dir, ignore_errors=True)


def _collector(out_dir: Path):
    def collect(code):
        files = {}
        if out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return {"exit": code, "files": files}
    return collect


def _exit_gate(result):
    size = sum(len(b) for b in result["files"].values())
    ok = result["exit"] == 0 and "manifest.json" in result["files"]
    return Gate(ok, f"exit={result['exit']} artifacts={len(result['files'])}",
                {"cli.artifact_bytes": size})


WORKLOADS = {
    "lattice-fields": lattice_fields,
    "offlattice-atoms": offlattice_atoms,
    "witness-loop": witness_loop,
    "cli-batch": cli_batch,
}

# Wrapped names each workload's traced pass must call; the coverage report
# flags any that is missing or was never called.
EXPECTED_CALLS = {
    "lattice-fields": (
        "frostlab.measures.cantor_measure", "frostlab.measures.product_measure",
        "frostlab.measures.lebesgue_box_measure",
        "frostlab.wave3d.lebesgue_box_measure", "frostlab.wave3d.blowup_probe",
        "frostlab.wave3d.wave_solution", "frostlab.wave3d.spherical_average",
        "frostlab.wave3d.blowup_dim_fixed_time",
        "frostlab.wave3d.pointwise_limit_fit", "frostlab.wave3d.measure_fourier",
        "frostlab.wave3d.to_space", "frostlab.operators.measure_fourier",
        "frostlab.operators.to_space", "frostlab.operators.maximal_function",
        "frostlab.operators.sphere_l2_profile", "scipy.fft.fftn",
        "scipy.fft.ifftn"),
    "offlattice-atoms": (
        "frostlab.measures.sphere_measure", "frostlab.measures.random_ball_measure",
        "frostlab.spectral.measure_fourier", "frostlab.spectral.decay_fit",
        "frostlab.operators.spherical_average", "frostlab.operators.measure_fourier",
        "frostlab.operators.to_space", "frostlab.measures.energy_integral",
        "frostlab.measures.annulus_pair_profile",
        "frostlab.measures.chain_triple_profile", "scipy.fft.fftn",
        "scipy.fft.ifftn"),
    "witness-loop": (
        "frostlab.measures.cantor_measure", "frostlab.measures.product_measure",
        "frostlab.measures.lebesgue_box_measure", "frostlab.norms.opnorm_lower",
        "frostlab.operators.spherical_average", "frostlab.operators.measure_fourier",
        "frostlab.operators.to_space", "frostlab.norms.field_at_points",
        "scipy.fft.fftn", "scipy.fft.ifftn"),
    "cli-batch": (
        "frostlab.cli.main", "frostlab.cli.random_ball_measure",
        "frostlab.cli.cantor_measure", "frostlab.cli.product_measure",
        "frostlab.cli.lebesgue_box_measure", "frostlab.cli.frostman_fit",
        "frostlab.cli.measure_fourier", "frostlab.cli.decay_fit",
        "frostlab.cli.strichartz_profile", "frostlab.spectral.measure_fourier",
        "frostlab.cli.spherical_average", "frostlab.cli.maximal_function",
        "frostlab.cli.sphere_l2_profile", "frostlab.cli.maximal_interval",
        "frostlab.cli.stein_example", "frostlab.cli.mattila_example",
        "frostlab.cli.riesz_divergence", "frostlab.cli.fixed_time_sharpness",
        "frostlab.cli.wave_solution", "frostlab.cli.pointwise_limit_fit",
        "frostlab.wave3d.spherical_average", "frostlab.wave3d.measure_fourier",
        "frostlab.wave3d.to_space", "frostlab.operators.measure_fourier",
        "frostlab.operators.to_space", "scipy.fft.fftn", "scipy.fft.ifftn"),
}
