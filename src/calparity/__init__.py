"""Calibration-preserving cost-parity post-processing for binary classifiers.

``import calparity`` loads no submodule: each public name is imported from
the submodule that defines it the first time it is used, so a caller, the
CLI included, pays only for the modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "cost": "CostPair CostSpec Segment calibrated_line cost level_curve trivial_cost weighted_cost_spec",
        "dataset": "CsvFormatError GroupData load_csv",
        "eo": "EOSolution GroupFlip derived_rates eo_calibration_damage solve_eo",
        "impossibility": "ConstraintMatrix ExactCheck ImpossibilityBound approximate_bound build_matrix "
        "exact_impossibility_check",
        "metrics": "CalibrationReport MomentRates RatePoint analytic_rates calibration_gap generalized_fn "
        "generalized_fp linearity_residual rate_point",
        "parity": "AlreadyTrivialError FeasibilityVerdict InfeasibleError InterpolationPlan MixtureGroup "
        "compute_alpha feasibility mixture_calibration_gap mixture_cost mixture_rate_point realize_mixture",
        "scene": "PlaneScene ScenePoint build_scene",
        "synthetic": "SynthSpec synth",
        "writer": "write_csv",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Loading a submodule binds it on the package; ``cost`` must stay the function of that name."""

    def __setattr__(self, name, value):
        if not (name in _SUBMODULE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
