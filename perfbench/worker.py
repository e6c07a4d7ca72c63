"""Benchmark worker: one workload as one closed-loop client in this process.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  It builds the workload's inputs (set-up), runs timed
passes over the operation list one after another, gates and hashes every
output outside the timing, and prints one JSON line.

  untraced: passes until --seconds have been measured (at least two)
  traced:   two untraced passes, then one traced pass; per-layer metrics
            and the coverage report come from the traced pass, the tracing
            overhead from it and the second untraced pass
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_checkout():
    import frostlab

    where = Path(frostlab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"worker: frostlab imported from {where}, not from this checkout")


# ---- output hashing ----

def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, (bool, int, float, str, type(None), np.generic)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


# ---- passes ----

_MAX_EXTRAS = {"spectral.spread_rel_err", "operators.dual_route_rel_l2"}


class Run:
    """Failure accounting and reference hashes across the passes of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = {}
        self.attempted = 0
        self.failures = []
        self.gates = {}
        self.extras = {}

    def one_pass(self, ctx) -> dict:
        times = {}
        for op in self.ops:
            self.attempted += 1
            if op.prepare is not None:
                op.prepare()
            try:
                with ctx.span("op", op=op.name):
                    t0 = time.perf_counter()
                    raw = op.run()
                    times[op.name] = time.perf_counter() - t0
                out = op.collect(raw) if op.collect is not None else raw
            except Exception as e:  # a failed operation is counted, not fatal
                self.failures.append(f"{op.name}: raised {e!r}")
                continue
            self._check(op, out)
            del out, raw
        return times

    def _check(self, op, out) -> None:
        try:
            h = digest(out)
        except TypeError as e:
            self.failures.append(f"{op.name}: {e}")
            return
        if op.name in self.reference:
            if h != self.reference[op.name]:
                self.failures.append(f"{op.name}: output hash differs from pass 1")
            return
        self.reference[op.name] = h
        gate = op.gate(out)
        self.gates[op.name] = {"ok": gate.ok, "detail": gate.detail}
        for key, value in gate.extras.items():
            if key in _MAX_EXTRAS:
                self.extras[key] = max(self.extras.get(key, 0.0), value)
            else:
                self.extras[key] = self.extras.get(key, 0) + value
        if not gate.ok:
            self.failures.append(f"{op.name}: gate failed ({gate.detail})")


# ---- environment record ----

def environment(ops) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    llc = _size_bytes(caches.get("L3-Unified") or caches.get("L2-Unified"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "fft_workers": 1,
        "working_set_computed": {
            op.name: {"bytes": op.working_set, "what": op.working_set_note,
                      "vs_llc": (None if not (op.working_set and llc)
                                 else round(op.working_set / llc, 4))}
            for op in ops},
        "llc_bytes": llc,
    }


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


# ---- per-layer metrics of a traced pass ----

def layer_metrics(workload, tracer, times_untraced, times_traced, extras):
    from spans import attr_sum, count, layer_self, outer_time
    from workloads import CLI_INVOCATIONS

    setup_and_pass = [s for s in tracer.spans if s.phase in ("setup", "pass")]
    sp = [s for s in tracer.spans if s.phase == "pass"]

    def op_of(s):
        while s.parent is not None:
            s = s.parent
        return s.attrs.get("op") if s.name == "op" else None

    def fourier(path):
        return lambda s: s.attrs.get("path") == path

    build = {"measures.cantor_measure", "measures.product_measure",
             "measures.lebesgue_box_measure", "measures.sphere_measure",
             "measures.random_ball_measure"}
    pairscan = {"measures.energy_integral", "measures.annulus_pair_profile",
                "measures.chain_triple_profile"}
    ffts = {s.name for s in sp if s.layer == "fft"}
    traced_wall = sum(times_traced.values())
    top = sum(s.dur - s.self_time for s in sp if s.name == "op")

    m = {
        "measures.build_s": (outer_time(setup_and_pass, build), "s"),
        "measures.pairscan_s": (outer_time(sp, pairscan), "s"),
        "measures.pairscan_calls": (count(sp, pairscan), "count"),
        "measures.frostman_s": (outer_time(sp, {"measures.frostman_fit"}), "s"),
        "spectral.transform_lattice_s": (outer_time(
            sp, {"spectral.measure_fourier"}, fourier("lattice")), "s"),
        "spectral.transform_lattice_calls": (count(
            sp, {"spectral.measure_fourier"}, fourier("lattice")), "count"),
        "spectral.transform_spread_s": (outer_time(
            sp, {"spectral.measure_fourier"}, fourier("spread")), "s"),
        "spectral.transform_spread_calls": (count(
            sp, {"spectral.measure_fourier"}, fourier("spread")), "count"),
        "spectral.spread_atoms": (attr_sum(sp, "spectral.measure_fourier",
                                           "atoms"), "count"),
        "spectral.to_space_s": (outer_time(sp, {"spectral.to_space"}), "s"),
        "spectral.to_space_calls": (count(sp, {"spectral.to_space"}), "count"),
        "spectral.fft_s": (outer_time(sp, ffts), "s"),
        "spectral.fft_calls": (count(sp, ffts), "count"),
        "spectral.fft_points": (sum(s.attrs["points"] for s in sp
                                    if s.name in ffts), "count"),
        "spectral.field_at_points_s": (outer_time(
            sp, {"spectral.field_at_points"}), "s"),
        "spectral.fit_s": (outer_time(sp, {"spectral.decay_fit"}), "s"),
        "operators.spherical_average_s": (outer_time(
            sp, {"operators.spherical_average"}), "s"),
        "operators.spherical_average_calls": (count(
            sp, {"operators.spherical_average"}), "count"),
        "operators.self_s": (layer_self(sp, "operators"), "s"),
        "operators.maximal_function_s": (outer_time(
            sp, {"operators.maximal_function"}), "s"),
        "operators.maximal_radii": (attr_sum(sp, "operators.maximal_function",
                                             "radii"), "count"),
        "operators.sphere_l2_profile_s": (outer_time(
            sp, {"operators.sphere_l2_profile"}), "s"),
        "norms.opnorm_lower_s": (outer_time(sp, {"norms.opnorm_lower"}), "s"),
        "norms.witnesses": (attr_sum(sp, "norms.opnorm_lower", "witnesses"),
                            "count"),
        "norms.apply_s": (outer_time(sp, {"norms.apply"}), "s"),
        "norms.self_s": (layer_self(sp, "norms"), "s"),
        "wave3d.blowup_probe_s": (outer_time(sp, {"wave3d.blowup_probe"}), "s"),
        "wave3d.pointwise_limit_fit_s": (outer_time(
            sp, {"wave3d.pointwise_limit_fit"}), "s"),
        "wave3d.self_s": (layer_self(sp, "wave3d"), "s"),
        "counterexamples.stein_s": (outer_time(
            sp, {"counterexamples.stein_example"}), "s"),
        "counterexamples.mattila_s": (outer_time(
            sp, {"counterexamples.mattila_example"}), "s"),
        "counterexamples.riesz_s": (outer_time(
            sp, {"counterexamples.riesz_divergence"}), "s"),
        "counterexamples.fixed_time_s": (outer_time(
            sp, {"counterexamples.fixed_time_sharpness"}), "s"),
        "exponents.self_s": (layer_self(sp, "exponents"), "s"),
        "cli.self_s": (layer_self(sp, "cli"), "s"),
        "cli.artifact_bytes": (extras.get("cli.artifact_bytes", 0), "bytes"),
        "spectral.direct_fourier_s": (
            extras.get("spectral.direct_fourier_s", 0.0), "s"),
        "spectral.spread_rel_err": (
            extras.get("spectral.spread_rel_err", 0.0), "ratio"),
        "operators.quadrature_s": (extras.get("operators.quadrature_s", 0.0), "s"),
        "operators.dual_route_rel_l2": (
            extras.get("operators.dual_route_rel_l2", 0.0), "ratio"),
        "trace.overhead_s": (traced_wall - sum(times_untraced.values()), "s"),
        "trace.uncovered_s": (traced_wall - top, "s"),
    }
    for name in CLI_INVOCATIONS:
        m[f"cli.{name}_s"] = (outer_time(
            sp, {"cli.main"}, lambda s, name=name: op_of(s) == name), "s")
    return m


def coverage(workload, tracer) -> dict:
    from workloads import EXPECTED_CALLS

    uncalled = [t for t in EXPECTED_CALLS[workload] if tracer.calls.get(t, 0) == 0]
    unknown = [t for t in EXPECTED_CALLS[workload] if t not in tracer.calls]
    return {"calls": dict(sorted(tracer.calls.items())),
            "missing": tracer.missing + unknown, "uncalled": uncalled}


def reconcile(workload, tracer) -> dict:
    """The ROADMAP baseline figures, restated from this traced pass."""
    from spans import descendants

    sp = [s for s in tracer.spans if s.phase == "pass"]
    out = {}
    if workload == "lattice-fields":
        for s in sp:
            if (s.name == "operators.spherical_average"
                    and s.attrs.get("grid") == "256^3"):
                inner = descendants(sp, s)
                out["avg_256cubed_s"] = s.dur
                out["avg_256cubed_fft_s"] = sum(c.dur for c in inner
                                                if c.layer == "fft")
                out["avg_256cubed_multiplier_s"] = s.self_time
    elif workload == "offlattice-atoms":
        for s in sp:
            if (s.name == "spectral.measure_fourier"
                    and s.attrs.get("grid") == "128^3"
                    and s.attrs.get("path") == "spread"):
                fft = sum(c.dur for c in descendants(sp, s) if c.layer == "fft")
                out["offlattice_128cubed_transform_s"] = s.dur
                out["offlattice_128cubed_spread_and_deconvolve_s"] = s.dur - fft
            if s.name == "measures.energy_integral":
                out["energy_integral_s"] = s.dur
    elif workload == "witness-loop":
        for s in sp:
            if s.name == "norms.opnorm_lower" and s.attrs.get("family") == "bumps":
                out["opnorm_bumps_p2_s"] = s.dur
    return out


def quadrature_box2_s() -> float:
    """The ROADMAP quadrature figure's fixture: criterion 5's 2-d box."""
    from frostlab import measures, operators, spectral

    mu = measures.lebesgue_box_measure(2, 0.75, 48)
    t0 = time.perf_counter()
    operators.quadrature_spherical_average(None, mu, 0.5,
                                           spectral.SpectralGrid(2, 128, 2.0))
    return time.perf_counter() - t0


# ---- main ----

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() at which run.py started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    _import_checkout()
    from spans import Tracer
    from workloads import WORKLOADS, Context

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    ctx = Context(workdir=workdir,
                  in_process=traced and args.workload == "cli-batch")
    tracer = Tracer() if traced else None
    try:
        if tracer is not None:
            tracer.install()
        ops = WORKLOADS[args.workload](args.seed, args.tiny, ctx)
        setup_s = time.monotonic() - args.spawned
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        run = Run(ops)
        result = {"setup_s": setup_s}
        if traced:
            # pass 1 gates and warms up; pass 2 is the untraced reference
            # for the tracing overhead
            tracer.phase = "untraced"
            run.one_pass(ctx)
            untraced = run.one_pass(ctx)
            tracer.phase = "pass"
            ctx.tracer = tracer
            tracer.install()
            try:
                traced_times = run.one_pass(ctx)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            passes = [untraced, traced_times]
            metrics = layer_metrics(args.workload, tracer, untraced,
                                    traced_times, run.extras)
            result["layer_metrics"] = {k: {"value": v, "unit": u}
                                       for k, (v, u) in metrics.items()}
            result["coverage"] = coverage(args.workload, tracer)
            result["reconcile"] = reconcile(args.workload, tracer)
            if args.workload == "offlattice-atoms":
                result["reconcile"]["quadrature_box2_s"] = quadrature_box2_s()
        else:
            passes = []
            start = time.monotonic()
            while (len(passes) < 2
                   or time.monotonic() - start < args.seconds):
                passes.append(run.one_pass(ctx))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" and not traced \
        else resource.RUSAGE_SELF
    result.update({
        "pass_walls": [sum(p.values()) for p in passes],
        "op_times": {op.name: [p.get(op.name) for p in passes] for op in ops},
        "attempted": run.attempted,
        "failures": run.failures,
        "gates": run.gates,
        "extras": run.extras,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "environment": environment(ops),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
