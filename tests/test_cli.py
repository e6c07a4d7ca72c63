"""Command-line front end: exit codes, artifact shapes, determinism."""

import csv
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from frostlab import cli, spectral
from frostlab.cli import main
from frostlab.measures import (
    cantor_measure,
    lebesgue_box_measure,
    load_measure_binary,
    product_measure,
)
from frostlab.operators import default_t_grid, maximal_function, spherical_average
from frostlab.spectral import (
    SpectralGrid,
    load_field_binary,
    measure_fourier,
)
from frostlab.wave3d import wave_solution


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
    ("gen-measure", {"measure": {"kind": "cantor", "depth": "x"}},
     "measure.depth"),
    ("gen-measure", {"frostman": {"n_probes": "x"}}, "frostman.n_probes"),
    ("counterexample", {"kind": "stein", "shells": "x"}, "shells"),
    ("counterexample", {"kind": "mattila", "eps": "abc"}, "eps"),
    ("exponents", {"d": "x"}, "d"),
    ("exponents", {"s_mu": "x"}, "s_mu"),
    ("avg", {"measure": {"kind": "sphere", "t": True}}, "measure.t"),
    ("avg", {"t": 10 ** 400}, "t"),
    ("avg", {"t": math.nan}, "t"),
    ("wave", {"t": -math.inf}, "t"),
    ("counterexample", {"p": math.inf}, "p"),
    ("counterexample", {"kind": "mattila",
                        "eps": [0.1, 0.05, math.nan, 0.0125]}, "eps"),
    # the default radii 2^k <= freq_max / 2 are empty at freq_max 1
    ("strichartz", {"grid": {"dim": 2, "n_per_axis": 8,
                             "box_half_width": 2.0}}, "grid"),
])
def test_ill_typed_config_value_exits_3(tmp_path, capsys, command, doc, path):
    cfg = _cfg(tmp_path, "c.json", {"experiment": command, **doc})
    rc = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert f"frostlab: config error: {path}: " in capsys.readouterr().err


def test_non_finite_result_exits_3_without_writing_it(tmp_path, capsys):
    # a p this large overflows the shell series to +inf, which JSON cannot
    # hold; series.csv is written before the verdict fails, and is removed
    cfg = _cfg(tmp_path, "c.json", {"experiment": "counterexample",
                                    "kind": "stein", "p": 1e6})
    (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
    rc = main(["counterexample", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "verdict.json: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "notes.txt"]


@pytest.mark.parametrize("doc, path", [
    ({"d": 1}, "d"),
    ({"d": 3, "s_nu": 5.0}, "s_nu"),
    ({"d": 2, "s_mu": -0.5}, "s_mu"),
])
def test_exponents_error_names_its_field(tmp_path, capsys, doc, path):
    cfg = _cfg(tmp_path, "c.json", {"experiment": "exponents", **doc})
    rc = main(["exponents", "--config", cfg, "--out", str(tmp_path)])
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
    # every constructor checks the atom cap, and a product its coordinates
    # too, before it allocates an array
    for measure in (
            {"kind": "product-cantor", "ratio": 0.25, "depth": 13,
             "copies": 2},
            {"kind": "random-ball", "d": 2, "n_atoms": 10 ** 12},
            {"kind": "sphere", "d": 3, "n_points": 10 ** 12},
            {"kind": "lebesgue-box", "d": 3, "n_cells": 1024},
            {"kind": "radial-power", "d": 3, "grid_n": 1024},
            # the CLI's list of factors is refused before it is built
            {"kind": "product-cantor", "ratio": 0.25, "depth": 1,
             "copies": 2 ** 18},
            # 2^25 atoms pass the atom cap, but not with 25 coordinates each
            {"kind": "product-cantor", "depth": 1, "copies": 25}):
        cfg = _cfg(tmp_path, "c.json", {"experiment": "gen-measure",
                                        "measure": measure})
        tracemalloc.start()
        try:
            rc = main(["gen-measure", "--config", cfg,
                       "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 4, measure
        assert peak < 2 ** 20, (measure, peak)


def test_oversized_series_exit_4_before_allocating(tmp_path, capsys):
    # a shell costs 16 floats, a t-grid radius one inverse transform
    for command, doc in (
            ("counterexample", {"kind": "stein", "shells": 2 ** 15}),
            ("counterexample", {"kind": "fixed-time", "shells": 2 ** 15}),
            ("maximal", {"grid": {"dim": 2, "n_per_axis": 16,
                                  "box_half_width": 4.0},
                         "t_grid_n": 2 ** 17})):
        cfg = _cfg(tmp_path, "c.json", {"experiment": command, **doc})
        tracemalloc.start()
        try:
            rc = main([command, "--config", cfg,
                       "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 4, doc
        assert "frostlab: resource limit: " in capsys.readouterr().err, doc
        assert peak < 2 ** 20, (doc, peak)


def test_runtime_domain_error_exits_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, "c.json", {"experiment": "avg", "t": 1.5})
    rc = main(["avg", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, message", [
    # atoms this far apart overflow the support diameter to inf
    ("gen-measure", {"measure": {"kind": "random-ball", "d": 3,
                                 "n_atoms": 10, "radius": 1e308}},
     "support diameter inf is not finite"),
    # a line through a single x value has no slope
    ("growth", {"j_values": [2, 2, 2]}, "every x is 2.0;"),
])
def test_degenerate_fit_input_exits_3(tmp_path, capsys, command, doc,
                                      message):
    cfg = _cfg(tmp_path, "c.json", {"experiment": command, **doc})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RankWarning included
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("frostlab: invalid parameters: ")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("n_probes", [0, -3])
def test_too_few_frostman_probes_exits_3(tmp_path, capsys, n_probes):
    cfg = _cfg(tmp_path, "c.json", {"experiment": "gen-measure",
                                    "frostman": {"n_probes": n_probes}})
    rc = main(["gen-measure", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    assert "n_probes" in capsys.readouterr().err


# FFTs run on one thread and no subcommand takes a thread count
@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_threads_is_an_fft_flag_only(tmp_path, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--threads", "2", "--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("command", sorted(set(cli._HANDLERS) - {"suite"}))
def test_quick_is_a_suite_flag_only(tmp_path, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--quick", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_opnorm_unknown_family_exits_3_before_any_measure(tmp_path, capsys,
                                                          monkeypatch):
    def no_measure(*args, **kwargs):
        raise AssertionError("a measure was built before the family was read")

    monkeypatch.setattr(cli, "_build_measure", no_measure)
    # a removed family is refused like any unknown name
    for family in ("nope", "power_iteration_p2"):
        cfg = _cfg(tmp_path, "c.json", {"experiment": "opnorm", "family": family})
        out = tmp_path / family
        assert main(["opnorm", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "frostlab: config error: family: must be one of random_atoms, bumps,"
            f" extremizers, got '{family}'\n")
        assert list(out.iterdir()) == []


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
    mu = load_measure_binary(tmp_path / "measure.bin")
    assert mu.n_atoms == 256
    assert mu.atoms.tobytes() == product_measure(
        [cantor_measure(0.25, 4)] * 2).atoms.tobytes()
    blob = (tmp_path / "frostman.csv").read_bytes()
    assert blob.startswith(b"radius,max_mass,min_mass\r\n")
    assert blob.endswith(b"\r\n")
    scalars = json.loads((tmp_path / "frostman.json").read_text())
    assert 0.8 <= scalars["fitted_s"] <= 1.2


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
    field = load_field_binary(tmp_path / "field.bin")
    assert field.rep == "space" and field.values.dtype == np.float64
    assert field.values.shape == (32, 32, 32)
    # the plane z = 0, at index n/2, read straight from the file
    plane = np.fromfile(tmp_path / "field.bin", dtype="<f8", offset=30).reshape(
        32, 32, 32)[:, :, 16]
    assert plane.tobytes() == field.values[:, :, 16].tobytes()


def test_wave_density_one_is_the_constant(tmp_path):
    grid = {"dim": 3, "n_per_axis": 32, "box_half_width": 2.0}
    runs = {}
    for name, density in (("default", None), ("one", {"kind": "one"}),
                          ("null", None)):
        doc = {"experiment": "wave", "mode": "solution", "grid": grid}
        if name != "default":
            doc["density"] = density
        out = tmp_path / name
        cfg = _cfg(tmp_path, f"{name}.json", doc)
        assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runs[name] = (load_field_binary(out / "field.bin").values.real,
                      manifest["config"]["density"])
    # an absent or null section is the 0.35-width Gaussian
    assert runs["default"][1] == runs["null"][1] == {"kind": "gaussian",
                                                    "width": 0.35}
    assert np.array_equal(runs["default"][0], runs["null"][0])
    assert runs["one"][1] == {"kind": "one"}
    mu = lebesgue_box_measure(3, 1.5, 24)
    u = wave_solution(None, mu, 0.4, SpectralGrid(**grid)).values
    assert np.array_equal(runs["one"][0], u)
    assert not np.array_equal(runs["one"][0], runs["default"][0])


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
    # the bound is the best witness's ratio, written in full precision
    ratios = [float(row[3]) for row in csv.reader(lines[1:-1])]
    assert max(ratios) == doc["lower_bound"]


@pytest.mark.parametrize("family", ["bumps", "extremizers"])
def test_opnorm_at_large_p_gives_a_positive_finite_bound(tmp_path, family):
    # at p = 700 an unscaled |v|^p underflowed to a bound of 0 (bumps) or
    # overflowed to a non-finite ratio and exit 3 (extremizers)
    cfg = _cfg(tmp_path, "c.json", {"experiment": "opnorm", "p": 700,
                                    "family": family})
    assert main(["opnorm", "--config", cfg, "--out", str(tmp_path)]) == 0
    bound = json.loads((tmp_path / "opnorm.json").read_text())["lower_bound"]
    assert 0.0 < bound < math.inf


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


# ---- the config record ----

_GRID64 = {"dim": 2, "n_per_axis": 64, "box_half_width": 2.0}
_SQUARE = {"kind": "product-cantor", "ratio": 0.25, "depth": 3, "copies": 2}
_GAUSS = {"kind": "gaussian", "width": 0.5}
_BOX3 = {"kind": "lebesgue-box", "d": 3, "half_width": 1.0, "n_cells": 6}
_GRID32_3D = {"dim": 3, "n_per_axis": 32, "box_half_width": 2.0}

# one small valid run of every subcommand but suite, with non-random
# measures, and the files each run writes besides manifest.json
SMALL_RUNS = [
    ("gen-measure", {"measure": {"kind": "cantor", "ratio": 0.3, "depth": 4},
                     "frostman": {"n_probes": 16}},
     {"measure.bin", "frostman.csv", "frostman.json"}),
    ("fourier", {"measure": _SQUARE, "grid": _GRID64, "density": _GAUSS},
     {"field.bin", "fit.csv"}),
    ("strichartz", {"measure": {"kind": "sphere", "d": 2, "t": 1.0,
                                "n_points": 64},
                    "grid": _GRID64, "radii": [1.0, 2.0], "s": 1.0},
     {"strichartz.csv"}),
    ("avg", {"measure": {"kind": "radial-power", "d": 2, "s": 1.0,
                         "grid_n": 16, "log_u": 2.0},
             "grid": _GRID64, "density": _GAUSS, "t": 0.25},
     {"field.bin"}),
    ("maximal", {"measure": _SQUARE, "t_grid_n": 3,
                 "grid": {"dim": 2, "n_per_axis": 64, "box_half_width": 4.0}},
     {"field.bin"}),
    ("opnorm", {"measure": _SQUARE, "grid": _GRID64, "t": 0.5, "p": 3.0,
                "nu": {"kind": "lebesgue-box", "d": 2, "half_width": 1.0,
                       "n_cells": 8}, "family": "bumps"},
     {"opnorm.json", "witnesses.csv"}),
    ("growth", {"measure": _SQUARE, "j_values": [2, 3, 4],
                "grid": {"dim": 2, "n_per_axis": 256, "box_half_width": 2.0}},
     {"growth.csv", "fit.csv"}),
    ("exponents", {"d": 3, "s_mu": 2.5, "s_nu": 3.0, "region": {"n": 4}},
     {"exponents.json", "region.csv"}),
    ("counterexample", {"kind": "mattila", "d": 2, "alpha": 1.0, "beta": 0.5,
                        "p": 4.0, "eps": [2.0 ** -k for k in range(6, 10)]},
     {"series.csv", "verdict.json"}),
    ("counterexample", {"kind": "stein", "shells": 12},
     {"series.csv", "verdict.json"}),
    ("wave", {"mode": "solution", "measure": _BOX3, "grid": _GRID32_3D,
              "t": 0.3}, {"field.bin"}),
    ("wave", {"mode": "pointwise", "measure": _BOX3, "grid": _GRID32_3D,
              "density": _GAUSS, "times": [0.3, 0.2, 0.1]},
     {"verdict.json"}),
    ("wave", {"mode": "blowup", "refinements": [32, 64], "t": 1.0},
     {"blowup.csv", "verdict.json"}),
]
RUN_IDS = [f"{cmd}-{doc.get('kind') or doc.get('mode') or ''}"
           for cmd, doc, _ in SMALL_RUNS]


def _run(tmp_path, name, command, doc):
    out = tmp_path / name
    cfg = _cfg(tmp_path, name + ".json", {"experiment": command, **doc})
    assert main([command, "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    return out / "manifest.json"


# the CSV columns that hold words; every other cell is a number
_TEXT_COLUMNS = {"series", "case", "family", "name", "passed", "detail"}


@pytest.mark.parametrize("command, doc, files", SMALL_RUNS, ids=RUN_IDS)
def test_manifest_config_round_trips(tmp_path, command, doc, files):
    first = _run(tmp_path, "a", command, doc)
    assert {p.name for p in first.parent.iterdir()} == files | {"manifest.json"}
    for path in first.parent.glob("*.csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), (path.name, row)
            for column, cell in zip(header, row):
                if column not in _TEXT_COLUMNS:
                    float(cell)  # a ValueError names the cell
    again = json.loads(first.read_text())["config"]
    assert _run(tmp_path, "b", command, again).read_bytes() == \
        first.read_bytes()


def _leaves(record, prefix=""):
    """(dotted path, value) of every field and section in a config record."""
    for key, value in record.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *outer, last = path.split(".")
    inner = doc
    for key in outer:
        inner = inner[key]
    inner[last] = value
    return doc


def _wrong_typed(value):
    if isinstance(value, bool) or value is None:
        return "x"
    if isinstance(value, int):
        return 1.5
    if isinstance(value, float):
        return "x"
    if isinstance(value, str):
        return 7
    return "x"  # lists and sections


@pytest.mark.parametrize("command, doc", [run[:2] for run in SMALL_RUNS],
                         ids=RUN_IDS)
def test_every_recorded_field_is_type_checked(tmp_path, capsys, command, doc):
    record = json.loads(_run(tmp_path, "a", command, doc).read_text())["config"]
    capsys.readouterr()
    for path, value in _leaves(record):
        bad = _replaced(record, path, _wrong_typed(value))
        cfg = _cfg(tmp_path, "bad.json", {"experiment": command, **bad})
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert rc == 3, (path, err)
        assert f"frostlab: config error: {path}: " in err, (path, err)


# ---- artifact layout ----

_SQUARE_MU = product_measure([cantor_measure(0.25, 3)] * 2)
_BOX3_MU = lebesgue_box_measure(3, 1.0, 6)
_GRID64_L4 = {"dim": 2, "n_per_axis": 64, "box_half_width": 4.0}
_GRID16_3D = {"dim": 3, "n_per_axis": 16, "box_half_width": 2.0}

# (command, config, the same field computed in process)
LAYOUT_RUNS = [
    ("fourier", {"measure": _SQUARE, "grid": _GRID64},
     lambda: measure_fourier(None, _SQUARE_MU, SpectralGrid(**_GRID64))),
    ("avg", {"measure": _SQUARE, "grid": _GRID64, "t": 0.5},
     lambda: spherical_average(None, _SQUARE_MU, 0.5, SpectralGrid(**_GRID64))),
    ("avg", {"measure": _BOX3, "grid": _GRID16_3D, "t": 0.5},
     lambda: spherical_average(None, _BOX3_MU, 0.5, SpectralGrid(**_GRID16_3D))),
    ("maximal", {"measure": _SQUARE, "grid": _GRID64_L4, "t_grid_n": 3},
     lambda: maximal_function(None, _SQUARE_MU, default_t_grid(3),
                              SpectralGrid(**_GRID64_L4))),
    ("wave", {"mode": "solution", "measure": _BOX3, "grid": _GRID16_3D,
              "density": {"kind": "one"}, "t": 0.3},
     lambda: wave_solution(None, _BOX3_MU, 0.3, SpectralGrid(**_GRID16_3D))),
]


@pytest.mark.parametrize("command, doc, compute", LAYOUT_RUNS,
                         ids=["fourier", "avg-2d", "avg-3d", "maximal", "wave"])
def test_field_artifacts_keep_the_field_dtype(tmp_path, command, doc, compute):
    out = _run(tmp_path, command, command, doc).parent
    field = compute()
    complex_field = command == "fourier"
    assert field.values.dtype == (np.complex128 if complex_field else np.float64)
    raw = (out / "field.bin").read_bytes()
    assert len(raw) == 30 + field.values.itemsize * field.values.size
    assert raw[:8] == b"FFLD0002" and raw[29] == int(complex_field)
    loaded = load_field_binary(out / "field.bin")
    assert loaded.values.dtype == field.values.dtype
    assert loaded.values.tobytes() == field.values.tobytes()  # signbits too


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
    for name in ("field.bin", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# the transform routes with caches: an off-lattice Cantor square goes
# through the spread plan, the maximal function and opnorm through many
# transforms of one measure.  Each row runs twice, first with cold caches,
# then with the caches the first run left
CACHE_RUNS = [
    ("avg", {"measure": _SQUARE, "grid": _GRID64, "t": 0.5,
             "density": _GAUSS}),
    ("maximal", {"measure": _SQUARE, "t_grid_n": 3,
                 "grid": {"dim": 2, "n_per_axis": 64, "box_half_width": 4.0}}),
    ("opnorm", {"measure": _SQUARE, "grid": _GRID64, "t": 0.5, "p": 3.0,
                "nu": {"kind": "lebesgue-box", "d": 2, "half_width": 1.0,
                       "n_cells": 8}, "family": "bumps"}),
    # the in-place complex inverse over two axes of a 3-d field
    ("wave", {"mode": "solution", "measure": _BOX3, "grid": _GRID32_3D,
              "t": 0.4}),
    # the shared spectrum and one inverse beside it per probe time
    ("wave", {"mode": "pointwise", "measure": _BOX3, "grid": _GRID32_3D}),
]


def _clear_caches(monkeypatch):
    monkeypatch.setattr(spectral, "_plan_cache", None)
    spectral._occurring_keys.cache_clear()
    spectral._radius_table.cache_clear()
    spectral._mode_factors.cache_clear()


def test_cold_and_warm_caches_give_the_same_bytes(tmp_path, monkeypatch):
    for i, (command, doc) in enumerate(CACHE_RUNS):
        run = f"{i}-{command}"  # a command may have several rows
        cfg = _cfg(tmp_path, run + ".json", {"experiment": command, **doc})
        outs = [tmp_path / f"{run}-{caches}" for caches in ("cold", "warm")]
        _clear_caches(monkeypatch)
        for out in outs:
            assert main([command, "--config", cfg, "--seed", "7",
                         "--out", str(out)]) == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert "manifest.json" in names
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), (command, name)

    mu = product_measure([cantor_measure(0.25, 4)] * 2)
    grid = SpectralGrid(2, 64, 2.0)
    assert spectral._lattice_indices(mu, grid) is None
    f = np.cos(np.arange(mu.n_atoms))
    _clear_caches(monkeypatch)
    cold = spherical_average(f, mu, 0.5, grid).values
    assert spectral._plan_cache is not None
    assert spectral._occurring_keys.cache_info().currsize == 1
    warm = spherical_average(f, mu, 0.5, grid).values
    assert np.array_equal(cold, warm)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "frostlab", "exponents", "--out",
         str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "case i" in proc.stdout


# ---- import hygiene ----

# scipy submodules that cost a fresh process most of its start-up; the
# library imports each inside the functions that call it
_HEAVY_SCIPY = ("scipy.fft", "scipy.sparse", "scipy.spatial", "scipy.special",
                "scipy.linalg")


def _heavy_scipy_after(code: str) -> set:
    """The _HEAVY_SCIPY modules loaded once code has run in a fresh process."""
    probe = (f"{code}\nimport sys\n"
             f"print(' '.join(m for m in {_HEAVY_SCIPY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())  # the probe's line comes last


def test_import_loads_no_scipy_submodule():
    assert _heavy_scipy_after("import frostlab") == set()


def test_exponents_and_counterexample_load_no_scipy_submodule(tmp_path):
    # counterexample runs its default kind, stein
    code = ("from frostlab.cli import main\n"
            f"assert main(['exponents', '--out', {str(tmp_path / 'e')!r}]) == 0\n"
            f"assert main(['counterexample', '--out', {str(tmp_path / 'c')!r}]) == 0")
    assert _heavy_scipy_after(code) == set()


def test_avg_loads_special_but_not_fft_or_spatial(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"experiment": "avg", "measure": _SQUARE,
                                    "grid": _GRID64})
    code = ("from frostlab.cli import main\n"
            f"assert main(['avg', '--config', {cfg!r}, '--out', "
            f"{str(tmp_path / 'a')!r}]) == 0")
    loaded = _heavy_scipy_after(code)
    assert "scipy.special" in loaded  # the 2-d sphere multiplier's j0
    assert not loaded & {"scipy.fft", "scipy.spatial", "scipy.linalg"}


def test_wave_solution_loads_no_scipy_submodule(tmp_path):
    # the default run: its box's atoms sit on grid nodes, so they are
    # binned (no spread plan), and the 3-d sphere multiplier is closed form
    code = ("from frostlab.cli import main\n"
            f"assert main(['wave', '--out', {str(tmp_path / 'w')!r}]) == 0")
    assert _heavy_scipy_after(code) == set()
