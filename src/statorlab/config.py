"""Run configuration: the key table, defaults, JSON loading, dotted-path
overrides and validation into the plan the commands run.

A run is fully described by one nested dict (sections per module).  The
CLI merges, in order: built-in defaults, the optional JSON config file,
then any ``--set section.key=value`` overrides.  ``KEYS`` declares every
key once, with its default and the check that turns a JSON value into the
value the plan holds; ``DEFAULT_CONFIG`` is read off it.  Validation is
one pass over that table, then the geometry, material and mesh
constructors, which own their ranges, then the checks that span keys.  It
is complete before any computation starts, so a bad config never leaves
partial output.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

from .errors import (ELECTRODE_MIN_HARMONIC, J0_FIRST_ZERO, PHASE_LAYOUTS,
                     RASTER_MIN_MARGIN, RASTER_MIN_PIXELS,
                     RING_SAMPLES_PER_HARMONIC, STROBE_DUTY_LIMIT,
                     STROBE_SPAN_LIMIT_DEG, STROBE_STEP_LIMIT_DEG,
                     STROBE_SUBSAMPLES, ConfigError, DiscretizationError,
                     GeometryError)
from .geometry import Material, StatorGeometry
from .modal import Discretization

# upper bounds on the sizes that allocate, checked before anything does:
# the mesh assembles dense (2 nodes)^2 matrices; a raster holds pixels^2
# float arrays (fringes peaks at 373 MB RSS at 2048, about 200 MB of it the
# raster grid itself); the circle arrays grow only linearly in count (fit
# at 4096 took 37 ms and no more memory than at 360), so that bound guards
# no resource now and stays as a plain limit on what a config may ask for
MAX_RADIAL_NODES = 512
MAX_PIXELS = 2048
MAX_CIRCLE_COUNT = 4096


def _is_number(value) -> bool:
    """An int or float, not a bool, that is finite as a float64.

    JSON admits NaN, Infinity and integers of any length; none of them is
    a usable config number.
    """
    # compares exactly, so an int beyond the float64 range is out of it
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _bounded(path: str, value, minimum, maximum):
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


# Each key is a (default, check) pair; check(path, value) returns the value
# the plan holds or raises ConfigError naming the key's dotted path.

def _number(default, positive=True, minimum=None, maximum=None, below=None,
            allow=()):
    """A finite number, held as a float.  A string default is a sentinel
    the key takes besides numbers, as is each string in ``allow``."""
    allow = (default, *allow) if isinstance(default, str) else allow

    def check(path, value):
        if isinstance(value, str) and value in allow:
            return value
        if not _is_number(value):
            raise ConfigError(f"{path}: expected a finite number"
                              f"{''.join(f' or {a!r}' for a in allow)}, "
                              f"got {value!r}")
        value = float(value)
        if positive and value <= 0.0:
            raise ConfigError(f"{path}: must be positive, got {value}")
        if below is not None and value >= below:
            raise ConfigError(f"{path}: must be < {below}, got {value}")
        return _bounded(path, value, minimum, maximum)
    return default, check


def _integer(default, minimum=None, maximum=None):
    def check(path, value):
        if not isinstance(value, int) or not _is_number(value):
            raise ConfigError(
                f"{path}: expected an integer in float64 range, got {value!r}")
        return _bounded(path, value, minimum, maximum)
    return default, check


def _kind(default, expected: str, accepts):
    """A value that ``accepts`` takes, held as is: a bool, a choice of
    strings or a path."""
    def check(path, value):
        if not accepts(value):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value
    return default, check


def _numbers(default, noun: str):
    def check(path, value):
        if (not isinstance(value, (list, tuple)) or not value
                or not all(map(_is_number, value))):
            raise ConfigError(f"{path}: expected a non-empty list of finite "
                              f"{noun}, got {value!r}")
        return [float(v) for v in value]
    return default, check


def _damping_overrides(path, value):
    """Harmonic -> damping ratio; each harmonic is written as ``str(int)``,
    so no two keys name one harmonic.  Material owns both ranges."""
    if not isinstance(value, dict):
        raise ConfigError(
            f"{path}: expected an object mapping harmonic -> damping ratio")
    for key in value:
        if not (isinstance(key, str) and key.removeprefix("-").isdecimal()
                and str(int(key)) == key):
            raise ConfigError(f"{path}: harmonic key {key!r} is not an "
                              "integer in plain form, such as '4'")
    ratio = _number(None, positive=False)[1]
    return {int(key): ratio(f"{path}.{key}", zeta)
            for key, zeta in value.items()} or None


KEYS = {
    "geometry": {
        "inner_radius": _number(3.75e-3),
        "outer_radius": _number(15.0e-3),
        "tooth_band_inner_radius": _number(10.0e-3),
        "fixture_radius": _number(6.0e-3),
        "total_height": _number(StatorGeometry.total_height),
        "notch_count": _integer(StatorGeometry.notch_count),
        "notch_width": _number(StatorGeometry.notch_width),
        "notch_depth": _number(StatorGeometry.notch_depth),
    },
    "material": {
        "youngs_modulus": _number(Material.youngs_modulus),
        "poisson_ratio": _number(Material.poisson_ratio, positive=False),
        "density": _number(Material.density),
        "modal_damping_ratio": _number(Material.modal_damping_ratio, positive=False),
        "damping_overrides": ({}, _damping_overrides),
    },
    "modal": {
        "n_min": _integer(1, minimum=0),
        "n_max": _integer(7, minimum=0),
        "modes_per_n": _integer(1, minimum=1),
        # 32: the coarsest mesh whose answers stay within the bounds of
        # tests/test_mesh_convergence.py against twice the mesh
        "radial_nodes": _integer(Discretization.radial_nodes, maximum=MAX_RADIAL_NODES),
        "calibrate": _kind(True, "true/false", lambda v: isinstance(v, bool)),
        "calibration_target_n": _integer(1, minimum=0),
        "calibration_target_hz": _number(3680.0),
    },
    "drive": {
        "drive_frequency": _number("resonance"),
        "peak_to_peak_voltage": _number(100.0),
        "force_per_volt": _number("auto", positive=False, minimum=0.0),
        "electrode_harmonic": _integer(4, minimum=ELECTRODE_MIN_HARMONIC),
        "phase_layout": _kind("quadrature", " or ".join(map(repr, PHASE_LAYOUTS)),
                              lambda v: v in PHASE_LAYOUTS),
        "duration": _number(8.0e-3),
        "dt": _number("auto"),
        "damping": _number("settling-target", below=1.0, allow=("material",)),
        "target_edge_amplitude": _number(100e-9),
    },
    "optics": {
        "wavelength": _number(532e-9),
        "sensitivity_factor": _number("auto"),
        "strobe_duty": _number(0.05, maximum=STROBE_DUTY_LIMIT),
        "amplitude_clip": _number(2e-6),
        "noise_sigma": _number(0.0, positive=False, minimum=0.0),
    },
    "analysis": {
        "probe_radii": _numbers([10.2e-3, 12.5e-3, 15.0e-3], "radii"),
        "probe_theta": _number(0.0, positive=False),
        "circle_radius": _number(15.0e-3),
        # no minimum: the ring check against drive.electrode_harmonic in
        # _check_harmonics refuses every count below 8 with one message
        "circle_count": _integer(360, maximum=MAX_CIRCLE_COUNT),
        "strobe_offset_deg": _number(60.0),
        "strobe_phases_deg": _numbers([0.0, 30.0, 60.0, 90.0, 120.0, 150.0],
                                      "strobe phases in degrees"),
        "settling_band": _number(0.05, maximum=0.5),
        "settling_time_target": _number(3.4e-3),
    },
    "image": {
        "pixels": _integer(256, minimum=RASTER_MIN_PIXELS, maximum=MAX_PIXELS),
        "margin": _number(1.05, minimum=RASTER_MIN_MARGIN),
    },
    "output": {
        "directory": _kind("statorlab-out", "a non-empty path",
                           lambda v: isinstance(v, str) and v != ""),
    },
    "seed": _integer(20230425, minimum=0),
}

DEFAULT_CONFIG = {
    name: ({key: default for key, (default, _) in keys.items()}
           if isinstance(keys, dict) else keys[0])
    for name, keys in KEYS.items()}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path) -> dict:
    """Parse a JSON config file into a plain dict.

    Parse failures surface as ConfigError with the file, line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object at top level")
    return data


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, sections merge key-wise."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``section.key=value`` strings; values parse as JSON literals.

    Unparseable values pass through as strings, so
    ``--set drive.phase_layout=single`` works without extra quoting.
    """
    out = copy.deepcopy(cfg)
    for item in assignments or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        *sections, leaf = key.split(".")
        for part in sections:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = value
    return out


def _check(values, keys: dict, section: str = "") -> dict:
    """Each key of ``keys`` through its check, and each section of them
    through this; names that are not keys are refused."""
    if not isinstance(values, dict):
        raise ConfigError(f"config section {section!r} missing or not an object")
    unknown = sorted(set(values) - set(keys))
    if unknown:
        where = f"key(s) in section {section!r}" if section else "config section(s)"
        raise ConfigError(f"unknown {where}: {', '.join(unknown)}")
    return {key: _check(values.get(key), spec, key) if isinstance(spec, dict)
            else spec[1](f"{section}.{key}" if section else key, values.get(key))
            for key, spec in keys.items()}


def _check_harmonics(plan: dict):
    """n_min..n_max, against the notches, and the driven harmonic in it
    and resolvable on the fit's ring."""
    n_min, n_max = plan["modal"]["n_min"], plan["modal"]["n_max"]
    if n_max < n_min:
        raise ConfigError(
            f"modal.n_max ({n_max}) must be >= modal.n_min ({n_min})")
    # the smeared plate has no N-fold cyclic symmetry: with N notches,
    # harmonic n couples to |N - n| and a pair splits when 2n is a multiple
    # of N, so every retained harmonic must keep 2n below N
    notches = plan["geometry"].notch_count
    if notches and 2 * n_max >= notches:
        raise ConfigError(
            f"modal.n_max {n_max} is too high for geometry.notch_count "
            f"{notches}: the homogenized plate needs 2 * n_max < notch_count "
            "(or notch_count 0)")
    # the driven harmonic's resonance and mode come from the solved basis
    n_d = plan["drive"]["electrode_harmonic"]
    if not n_min <= n_d <= n_max:
        raise ConfigError(
            f"drive.electrode_harmonic {n_d} lies outside the solved harmonics "
            f"modal.n_min..n_max = {n_min}..{n_max}")
    count = plan["analysis"]["circle_count"]
    if count < RING_SAMPLES_PER_HARMONIC * n_d:
        raise ConfigError(
            f"analysis.circle_count {count} is too coarse for "
            f"drive.electrode_harmonic {n_d}: detecting harmonic n needs at "
            f"least {RING_SAMPLES_PER_HARMONIC} * n = "
            f"{RING_SAMPLES_PER_HARMONIC * n_d} samples on the ring")


def _check_optics(plan: dict):
    """The sensitivity, the first dark fringe and the phase noise; holds
    "auto" as a sensitivity of None."""
    optics = plan["optics"]
    wavelength, sens = optics["wavelength"], optics["sensitivity_factor"]
    clip = optics["amplitude_clip"]
    # k = (2 pi / lambda)(cos theta_i + cos theta_o) and the geometry factor
    # is at most 2: "auto", normal illumination and view, is the largest k
    k_max = 4.0 * math.pi / wavelength
    if not math.isfinite(k_max):
        raise ConfigError(f"optics.wavelength: 4 pi / {wavelength} m "
                          "overflows the float range")
    k = k_max if sens == "auto" else sens
    if k > k_max * (1 + 1e-12):
        raise ConfigError(f"optics.sensitivity_factor: {sens} rad/m exceeds "
                          "4 pi / optics.wavelength")
    # amplitudes are clipped before J0: past the clip no fringe can render
    if J0_FIRST_ZERO / k > clip * (1 + 1e-12):
        raise ConfigError(f"optics: the first dark fringe lies at "
                          f"{J0_FIRST_ZERO / k:.6g} m, beyond "
                          f"optics.amplitude_clip {clip:g} m (set by "
                          "optics.wavelength and optics.sensitivity_factor)")
    # a phase noise of pi or more leaves no fringe order to unwrap
    if optics["noise_sigma"] >= math.pi:
        raise ConfigError(
            f"optics.noise_sigma: must be < pi rad, got {optics['noise_sigma']}")
    optics["sensitivity_factor"] = None if sens == "auto" else sens


def _check_strobes(plan: dict):
    """Enough distinct strobe phases, close enough, all in the run's span."""
    ana = plan["analysis"]
    phases, offset = ana["strobe_phases_deg"], ana["strobe_offset_deg"]
    distinct = sorted(set(phases))
    if len(distinct) < 3:
        raise ConfigError(
            "analysis.strobe_phases_deg: need at least 3 distinct strobe "
            f"phases, got {phases!r}")
    if max(b - a for a, b in zip(distinct, distinct[1:])) >= STROBE_STEP_LIMIT_DEG:
        raise ConfigError(
            "analysis.strobe_phases_deg: consecutive strobe phases must be "
            f"less than {STROBE_STEP_LIMIT_DEG:g} deg apart, got {phases!r}")
    # fringes strobes at 0 and the offset, fit at each phase and phase +
    # offset; each strobe averages instants out to half its window past it
    half = (1.0 - 1.0 / STROBE_SUBSAMPLES) * 180.0
    last = max(0.0, max(phases)) + offset + half * plan["optics"]["strobe_duty"]
    if last > STROBE_SPAN_LIMIT_DEG:
        raise ConfigError(
            "analysis.strobe_offset_deg: the last strobe instant, max(0, max("
            f"strobe_phases_deg)) + strobe_offset_deg + {half:g} deg x "
            f"optics.strobe_duty = {last:g} deg, lies past the "
            f"{STROBE_SPAN_LIMIT_DEG:g} deg of the run's last two drive cycles")


def _check_radii(plan: dict):
    """Every sampling radius lies on the moving plate: (clamp, rim]."""
    rim, clamp = plan["geometry"].outer_radius, plan["geometry"].fixture_radius
    ana = plan["analysis"]
    for key, radii in (("probe_radii", ana["probe_radii"]),
                       ("circle_radius", [ana["circle_radius"]])):
        for r in radii:
            if r > rim * (1 + 1e-12):
                raise ConfigError(
                    f"analysis.{key}: {r} lies outside the stator "
                    f"(geometry.outer_radius {rim})")
            if r <= clamp:
                raise ConfigError(
                    f"analysis.{key}: {r} lies inside the clamp, where the "
                    f"plate does not move (geometry.fixture_radius {clamp})")


def validate_config(cfg: dict) -> dict:
    """The plan the commands run; raises ConfigError on any problem,
    inconsistent geometry, material or mesh included, so commands never
    start computing from a bad config.

    Every key goes through its check in ``KEYS``; the geometry, material
    and mesh are then built, and the checks that span keys run.
    """
    plan = _check(cfg, KEYS)
    try:
        plan["geometry"] = StatorGeometry(**plan["geometry"])
        plan["material"] = Material(**plan["material"])
        modal = plan["modal"]
        modal["discretization"] = Discretization(modal.pop("radial_nodes"))
    except (GeometryError, DiscretizationError) as exc:
        raise ConfigError(str(exc)) from None
    out = plan["output_dir"] = plan.pop("output")["directory"]
    # refused here, not by the first write after the whole solve
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(
            f"output.directory: {out!r} exists and is not a directory")
    for cross_check in (_check_harmonics, _check_optics, _check_strobes,
                        _check_radii):
        cross_check(plan)
    return plan
