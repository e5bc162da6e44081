"""statorlab: modal simulation and holographic-observable synthesis
for traveling-wave ultrasonic stators."""

__version__ = "0.1.7"

import importlib

from .errors import (
    ConfigError,
    DiscretizationError,
    DomainError,
    GeometryError,
    GridMismatchError,
    NoModeError,
    NumericalError,
    SamplingError,
    StatorLabError,
    TimeStepError,
    UndefinedIndexError,
    UnwrapError,
)

# submodule -> the public names it defines; each is imported on first
# access to one of its names or to itself (PEP 562), so a CLI stage loads
# only the modules it runs
_SUBMODULE_NAMES = {
    "geometry": ("EffectivePlate", "Material", "StatorGeometry", "homogenize"),
    "modal": ("CalibrationResult", "Discretization", "ModalBasis", "Mode",
              "assemble", "calibrate", "mode_shape_eval", "solve_modes"),
    "grids": ("DisplacementField", "RasterGrid", "RingGrid", "circle_values"),
    "dynamics": ("DriveConfig", "ExternalMode", "MixedResponse",
                 "ModalTrajectory", "ProbeSeries", "calibrate_force_per_volt",
                 "field_at", "field_envelope", "lateral_mode_proxy",
                 "mixed_response", "probe", "respond", "settling_damping_ratio",
                 "snapshot_at_strobe", "steady_envelope"),
    "holography": ("FringeImage", "OpticalConfig", "PhaseMap",
                   "first_dark_fringe_amplitude", "stroboscopic",
                   "time_averaged", "unwrap_to_displacement"),
    "analysis": ("CircleSample", "FitResult", "StrobeTrack", "asymmetry_index",
                 "detect_mode_number", "fit_eq1", "track_strobe_phase"),
}
_LAZY = {name: module for module, names in _SUBMODULE_NAMES.items()
         for name in names}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_SUBMODULE_NAMES})


__all__ = ["__version__",
           *(name for name, obj in globals().items()
             if isinstance(obj, type) and issubclass(obj, StatorLabError)),
           *_LAZY]
