#!/usr/bin/env python3
"""frostlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs as one closed-loop
client in one fresh worker process (perfbench/worker.py) that imports
frostlab from the checkout's src/.  Workloads never run at the same time.
FFT workers stay at the library default of 1 and BLAS threads are held
at 1.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json).  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the details (per-pass times, gates, environment, coverage).  The exit
code is nonzero if any operation failed, and the run prints no result if
the checkout has no frostlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

SETUP_SAMPLES = 5    # fresh set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170  # a run must end within 180 s
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def _run_child(cmd, deadline, env):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(cmd[1:3])}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with {proc.returncode}")
    return proc.stdout


def import_seconds(deadline, env) -> float:
    """Time a fresh interpreter takes to `import frostlab`."""
    code = "import time, frostlab; print(time.monotonic())"
    t0 = time.monotonic()
    out = _run_child([sys.executable, "-c", code], deadline, env)
    return float(out.strip().splitlines()[-1]) - t0


def worker(args, deadline, env, *, setup_only=False, run_id=0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(WORKDIR / f"{args.workload}-{os.getpid()}-{run_id}")]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned", repr(time.monotonic())]
    return _last_json(_run_child(cmd, deadline, env))


def percentile_with_tail(samples, tail=10):
    """Highest percentile with at least `tail` samples beyond it, or None."""
    n = len(samples)
    if n <= tail:
        return None, None
    p = 100.0 * (n - tail) / n
    return p, sorted(samples)[n - tail - 1]


def run_workload(args, spec) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    import_seconds(deadline, env)  # untimed: leaves bytecode caches warm
    if args.trace:
        imports = [import_seconds(deadline, env) for _ in range(SETUP_SAMPLES)]
        res = worker(args, deadline, env)
        metrics = dict(res["layer_metrics"])
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
        cov = res["coverage"]
        metrics["trace.wrapped_names"] = {"value": len(cov["calls"]), "unit": "count"}
        metrics["trace.missing_names"] = {"value": len(cov["missing"]), "unit": "count"}
        metrics["trace.uncalled_names"] = {"value": len(cov["uncalled"]),
                                           "unit": "count"}
        res["import_samples_s"] = imports
        wanted = spec["per_layer"]
    else:
        # set-up samples before and after the timed worker, so that their
        # median spans the run rather than its first seconds
        if args.workload == "cli-batch":
            def setup_sample(i):
                return import_seconds(deadline, env)
            n_before = (SETUP_SAMPLES + 1) // 2
        else:
            def setup_sample(i):
                return worker(args, deadline, env, setup_only=True,
                              run_id=i)["setup_s"]
            n_before = SETUP_SAMPLES // 2
        setups = [setup_sample(i) for i in range(n_before)]
        res = worker(args, deadline, env)
        if args.workload != "cli-batch":
            setups.append(res["setup_s"])
        setups += [setup_sample(i) for i in range(len(setups), SETUP_SAMPLES)]
        walls = res["pass_walls"]
        p, p_value = percentile_with_tail(walls)
        res["setup_samples_s"] = setups
        res["wall_s_stats"] = {"median": statistics.median(walls),
                               "samples": len(walls), "tail_percentile": p,
                               "tail_percentile_value": p_value}
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        wanted = spec["end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} [{m['unit']}] not produced")
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}
    failed = len(res["failures"])
    summary = {"correct": failed == 0, "attempted": res["attempted"],
               "failed": failed, "metrics": metrics}
    return summary, res


def _print_table(rows):
    print(f"{'workload':<18} {'metric':<34} {'value':>14} {'unit':<6} samples")
    for w, name, value, unit, n in rows:
        print(f"{w:<18} {name:<34} {value:>14.6g} {unit:<6} {n}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (smoke test only)")
    args = ap.parse_args()

    if not (SRC / "frostlab" / "__init__.py").is_file():
        print(f"run.py: no frostlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            results[name] = run_workload(argparse.Namespace(**{
                **vars(args), "workload": name}), spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    for name, (summary, detail) in results.items():
        print(json.dumps({"workload": name, "detail": detail}))
        for failure in detail["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
    if args.workload == "all":
        rows = []
        for name, (summary, detail) in results.items():
            n = detail.get("wall_s_stats", {}).get("samples", 1)
            for metric, v in summary["metrics"].items():
                rows.append((name, metric, v["value"], v["unit"],
                             n if metric == "wall_s" else
                             len(detail.get("setup_samples_s", [])) if metric == "setup_s"
                             else 1))
            rows.append((name, "failed_frac", summary["failed"] / summary["attempted"],
                         "ratio", summary["attempted"]))
        _print_table(rows)
        final = {"correct": all(s["correct"] for s, _ in results.values()),
                 "attempted": sum(s["attempted"] for s, _ in results.values()),
                 "failed": sum(s["failed"] for s, _ in results.values()),
                 "metrics": {f"{w}.{k}": v for w, (s, _) in results.items()
                             for k, v in s["metrics"].items()}}
    else:
        final = results[args.workload][0]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
