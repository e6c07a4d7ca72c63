"""Acceptance battery: one test per criterion, each printing its verdict line.

Criteria 1 through 9 run in full (non-quick) mode through the shared suite
module at their pinned tolerances and wall-clock budgets; criterion 10 runs
the command-line quick battery twice in separate processes and compares the
artifact bytes.
"""

import subprocess
import sys
import time

from frostlab import suite


def _check(result, budget_s, elapsed):
    print(result.line)
    assert result.passed, result.detail
    assert elapsed < budget_s, f"criterion {result.index} took {elapsed:.1f}s"


def test_criterion_01_exponent_identities():
    t0 = time.perf_counter()
    res = suite.criterion_1()
    _check(res, 1.0, time.perf_counter() - t0)


def test_criterion_02_regime_membership():
    t0 = time.perf_counter()
    res = suite.criterion_2(seed=0)
    _check(res, 5.0, time.perf_counter() - t0)


def test_criterion_03_dyadic_norm_growth():
    t0 = time.perf_counter()
    res = suite.criterion_3()
    _check(res, 120.0, time.perf_counter() - t0)


def test_criterion_04_potential_level_ratio():
    t0 = time.perf_counter()
    res = suite.criterion_4()
    _check(res, 30.0, time.perf_counter() - t0)


def test_criterion_05_dual_route_transforms():
    t0 = time.perf_counter()
    res = suite.criterion_5(quick=False)
    _check(res, 60.0, time.perf_counter() - t0)


def test_criterion_06_spectral_identities():
    t0 = time.perf_counter()
    res = suite.criterion_6()
    _check(res, 60.0, time.perf_counter() - t0)


def test_criterion_07_annulus_mass_exponent():
    t0 = time.perf_counter()
    res = suite.criterion_7(quick=False)
    _check(res, 60.0, time.perf_counter() - t0)


def test_criterion_08_extremizer_verdicts():
    t0 = time.perf_counter()
    res = suite.criterion_8()
    _check(res, 30.0, time.perf_counter() - t0)


def test_criterion_09_wave_limit_and_blowup():
    t0 = time.perf_counter()
    res = suite.criterion_9()
    _check(res, 180.0, time.perf_counter() - t0)


def test_criterion_10_quick_battery_is_deterministic(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "frostlab", "suite", "--quick",
             "--out", str(out)],
            capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 300.0, f"quick battery took {elapsed:.1f}s"
        runs.append((proc.stdout,
                     (out / "suite.csv").read_bytes(),
                     (out / "manifest.json").read_bytes()))
    assert runs[0] == runs[1]
    print("PASS 10 quick-battery-determinism  identical stdout and artifacts")
