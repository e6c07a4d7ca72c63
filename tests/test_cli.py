"""Command-line front end: exit codes, artifact shapes, determinism."""

import json
import subprocess
import sys

import pytest

from frostlab.cli import main
from frostlab.measures import load_measure_json


def _cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---- exit codes ----

def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["nosuch"])
    assert err.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_empty_config_exits_3(tmp_path, capsys):
    rc = main(["exponents", "--config", _cfg(tmp_path, "c.json", {}),
               "--out", str(tmp_path)])
    assert rc == 3
    assert "experiment" in capsys.readouterr().err


def test_malformed_config_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["exponents", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert "not valid JSON" in capsys.readouterr().err


def test_experiment_mismatch_exits_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {"experiment": "avg"})
    rc = main(["exponents", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "experiment" in capsys.readouterr().err


def test_unknown_field_reports_dotted_path(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "gen-measure",
        "measure": {"kind": "cantor", "ratio": 0.25, "depth": 4, "bogus": 1}})
    rc = main(["gen-measure", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "measure.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, path", [
    ("avg", {"t": "x"}, "t"),
    ("avg", {"grid": {"n_per_axis": 256.0}}, "grid.n_per_axis"),
    ("growth", {"j_values": "abc"}, "j_values"),
    ("strichartz", {"radii": []}, "radii"),
])
def test_ill_typed_config_value_exits_3(tmp_path, capsys, command, doc, path):
    cfg = _cfg(tmp_path, "c.json", {"experiment": command, **doc})
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert f"frostlab: config error: {path}: " in capsys.readouterr().err


def test_invalid_measure_parameter_exits_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "gen-measure",
        "measure": {"kind": "cantor", "ratio": 0.7, "depth": 4}})
    rc = main(["gen-measure", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "measure" in capsys.readouterr().err


def test_atom_overflow_exits_4(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "gen-measure",
        "measure": {"kind": "product-cantor", "ratio": 0.25, "depth": 13,
                    "copies": 2}})
    assert main(["gen-measure", "--config", cfg,
                 "--out", str(tmp_path)]) == 4


def test_runtime_domain_error_exits_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {"experiment": "avg", "t": 1.5})
    rc = main(["avg", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "radius" in capsys.readouterr().err


def test_bad_threads_exits_3(tmp_path):
    assert main(["exponents", "--threads", "0", "--out", str(tmp_path)]) == 3


# ---- artifacts ----

def test_exponents_defaults_match_printed_case(tmp_path):
    assert main(["exponents", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "exponents.json").read_text())
    assert doc["case"] == "i"
    assert doc["lo"] == pytest.approx(1.5, abs=1e-12)
    assert doc["hi"] is None  # unbounded above when s_nu = d
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "exponents"
    assert manifest["seed"] == 0
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["versions"]) == {"python", "numpy", "scipy",
                                         "frostlab"}
    assert "time" not in (tmp_path / "manifest.json").read_text()


def test_exponents_region_raster(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "exponents", "d": 2, "s_mu": 1.95, "s_nu": 1.95,
        "region": {"n": 8}})
    assert main(["exponents", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "exponents.json").read_text())
    assert doc["case"] == "iii"
    assert doc["lo"] == pytest.approx(2.5, abs=1e-12)
    raster = (tmp_path / "region.csv").read_bytes().decode()
    lines = raster.split("\r\n")
    assert lines[0] == "s_mu,s_nu,case,lo,hi"
    assert len(lines) == 1 + 64 + 1  # trailing CRLF leaves one empty tail


def test_gen_measure_artifacts_round_trip(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "gen-measure",
        "measure": {"kind": "product-cantor", "ratio": 0.25, "depth": 4,
                    "copies": 2}})
    assert main(["gen-measure", "--config", cfg, "--out", str(tmp_path)]) == 0
    mu = load_measure_json(tmp_path / "measure.json")
    assert mu.n_atoms == 256
    blob = (tmp_path / "frostman.csv").read_bytes()
    assert blob.startswith(b"radius,max_mass,min_mass\r\n")
    assert blob.endswith(b"\r\n")
    scalars = json.loads((tmp_path / "frostman.json").read_text())
    assert 0.8 <= scalars["fitted_s"] <= 1.2
    assert (tmp_path / "measure.bin").exists()


def test_counterexample_default_artifacts(tmp_path):
    assert main(["counterexample", "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["construction"] == "radial-extremizer"
    assert verdict["lp_norm_finite"] is True
    series = (tmp_path / "series.csv").read_bytes().decode()
    assert series.split("\r\n")[0] == "series,level,partial_sum,increment"


def test_counterexample_kind_riesz(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "counterexample", "kind": "riesz", "alpha": 1.2})
    assert main(["counterexample", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["construction"] == "fractal-potential"
    assert verdict["slope"] < 0  # above the critical order the sums contract


def test_wave_solution_slice_artifact(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "wave", "mode": "solution", "t": 0.3,
        "grid": {"dim": 3, "n_per_axis": 32, "box_half_width": 2.0},
        "measure": {"kind": "lebesgue-box", "d": 3, "half_width": 1.0,
                    "n_cells": 8}})
    assert main(["wave", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "slice.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + 32 * 32 + 1
    assert (tmp_path / "field.bin").exists()


def test_opnorm_artifacts(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "opnorm",
        "measure": {"kind": "product-cantor", "ratio": 0.25, "depth": 4,
                    "copies": 2},
        "nu": {"kind": "lebesgue-box", "d": 2, "half_width": 1.0,
               "n_cells": 16},
        "grid": {"dim": 2, "n_per_axis": 64, "box_half_width": 2.0}})
    assert main(["opnorm", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "opnorm.json").read_text())
    assert doc["lower_bound"] > 0
    assert doc["family"] == "bumps"
    lines = (tmp_path / "witnesses.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "family,seed,index,ratio"
    assert len(lines) == 1 + 128 + 1


def test_growth_fit_artifacts(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "growth",
        "grid": {"dim": 2, "n_per_axis": 256, "box_half_width": 2.0},
        "j_values": [2, 3, 4]})
    assert main(["growth", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "growth.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "j,norm"
    assert len(lines) == 1 + 3 + 1
    fit = (tmp_path / "fit.csv").read_bytes().decode().split("\r\n")
    assert fit[0] == "slope,intercept,residual,x_lo,x_hi,n_points"


# ---- determinism ----

def test_identical_config_and_seed_give_identical_bytes(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {
        "experiment": "avg", "t": 0.5,
        "measure": {"kind": "product-cantor", "ratio": 0.25, "depth": 4,
                    "copies": 2},
        "grid": {"dim": 2, "n_per_axis": 64, "box_half_width": 2.0}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["avg", "--config", cfg, "--seed", "7", "--out", str(a)]) == 0
    assert main(["avg", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
    for name in ("slice.csv", "field.bin", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "frostlab", "exponents", "--out",
         str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "case i" in proc.stdout
