"""The public surface: what the flat namespace exports, and its knobs.

A parameter with a default is a knob.  The set below lists every one that
the flat namespace exports, so adding a knob means editing this set in the
same change that adds it.

An exported function or class has a caller in the library or the
benchmark: a CLI subcommand, a criterion, or a perfbench gate.  Oracles
that only the tests use live in tests/oracles.py.  PENDING lists the
exports that have no caller yet, each with the ROADMAP item that decides
whether it gains one or goes.
"""

import ast
import inspect
from pathlib import Path

import frostlab

DEFAULTED_PARAMETERS = {
    ("blowup_probe", "refinements"),
    ("blowup_probe", "threshold_fraction"),
    ("fixed_time_sharpness", "shells"),
    ("frostman_fit", "n_probes"),
    ("frostman_fit", "seed"),
    ("measure_from_atoms", "construction"),
    ("measure_from_atoms", "nominal_s"),
    ("measure_from_atoms", "resolution"),
    ("pointwise_limit_fit", "times"),
    ("radial_power_measure", "log_u"),
    ("random_ball_measure", "radius"),
    ("riesz_divergence", "levels"),
    ("run_suite", "quick"),
    ("run_suite", "seed"),
    ("stein_example", "shells"),
}


def test_exported_defaulted_parameters_are_the_listed_ones():
    found = set()
    for name in dir(frostlab):
        fn = getattr(frostlab, name)
        if inspect.isfunction(fn):
            found.update(
                (name, p.name)
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty)
    assert found == DEFAULTED_PARAMETERS


def test_the_flat_namespace_is_the_one_list_of_exports():
    # no module keeps a second list, an __all__ that could disagree with it
    package = Path(frostlab.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        assert not any(isinstance(node, ast.Name) and node.id == "__all__"
                       for node in ast.walk(tree)), path.name


def test_aliases_of_other_functions_are_not_exported():
    # log2_fit, Spectrum.energy and the *_profile mass functions already
    # compute each of these
    for name in ("growth_rate", "annulus_growth_fit", "annulus_pair_mass",
                 "chain_triple_mass"):
        assert not hasattr(frostlab, name), name


PENDING = {
    "sharpness_excluded": "item 9: the maximal operator's L^p bounds",
    "blowup_dim_maximal": "item 9: the maximal operator's L^p bounds",
    "fixed_time_condition": "item 9: the fixed-time average's L^p bounds",
    "convolution_l2_condition": "item 4: the L^2 bound for T_lambda",
    "dyadic_operator": "item 4: the dyadic pieces of T_lambda",
    "riesz_multiplier": "items 4 and 11: the |xi|^-alpha multiplier "
                        "and its origin cell",
    "ball_mass": "item 11: the dimension report",
    "load_field_binary": "item 12: a CLI path that reads the artifacts",
    "load_measure_binary": "item 12: a CLI path that reads the artifacts",
}


def _names_read_by_library_and_benchmark():
    package = Path(frostlab.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (package.parents[1] / "perfbench").glob("*.py")
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_or_is_pending():
    exported = {
        name for name in dir(frostlab)
        if (inspect.isfunction(getattr(frostlab, name))
            or inspect.isclass(getattr(frostlab, name)))
        and getattr(frostlab, name).__module__.startswith("frostlab.")}
    called = _names_read_by_library_and_benchmark()
    uncalled = sorted(exported - called - PENDING.keys())
    assert not uncalled, f"exported with no caller: {uncalled}"
    # an item that lands takes its names off the list
    landed = sorted(PENDING.keys() & called)
    assert not landed, f"pending but now called: {landed}"
    assert PENDING.keys() <= exported
