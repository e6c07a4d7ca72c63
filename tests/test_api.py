"""The public surface: which exported functions take a defaulted parameter.

A parameter with a default is a knob.  The set below lists every one that
the flat namespace exports, so adding a knob means editing this set in the
same change that adds it.
"""

import inspect

import frostlab

DEFAULTED_PARAMETERS = {
    ("blowup_probe", "refinements"),
    ("blowup_probe", "threshold_fraction"),
    ("default_t_grid", "n"),
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
    ("riesz_row_sum", "level_cap"),
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


def test_aliases_of_other_functions_are_not_exported():
    # log2_fit, annulus_energy_profile and the *_profile mass functions
    # already compute each of these
    for name in ("growth_rate", "annulus_growth_fit", "annulus_pair_mass",
                 "chain_triple_mass"):
        assert not hasattr(frostlab, name), name
