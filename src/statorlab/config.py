"""Run configuration: defaults, JSON loading, dotted-path overrides and
validated builders for the domain objects.

A run is fully described by one nested dict (sections per module).  The
CLI merges, in order: built-in defaults, the optional JSON config file,
then any ``--set section.key=value`` overrides.  Validation is complete
before any computation starts, so a bad config never leaves partial
output.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import (J0_FIRST_ZERO, STROBE_DUTY_LIMIT, STROBE_SPAN_LIMIT_DEG,
                     STROBE_STEP_LIMIT_DEG, ConfigError, DiscretizationError,
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

DEFAULT_CONFIG = {
    "geometry": {
        "inner_radius": 3.75e-3,
        "outer_radius": 15.0e-3,
        "tooth_band_inner_radius": 10.0e-3,
        "fixture_radius": 6.0e-3,
        "total_height": StatorGeometry.total_height,
        "notch_count": StatorGeometry.notch_count,
        "notch_width": StatorGeometry.notch_width,
        "notch_depth": StatorGeometry.notch_depth,
    },
    "material": {
        "youngs_modulus": Material.youngs_modulus,
        "poisson_ratio": Material.poisson_ratio,
        "density": Material.density,
        "modal_damping_ratio": Material.modal_damping_ratio,
        "damping_overrides": {},
    },
    "modal": {
        "n_min": 1,
        "n_max": 7,
        "modes_per_n": 1,
        # 32: the coarsest mesh whose answers stay within the bounds of
        # tests/test_mesh_convergence.py against twice the mesh
        "radial_nodes": Discretization.radial_nodes,
        "calibrate": True,
        "calibration_target_n": 1,
        "calibration_target_hz": 3680.0,
    },
    "drive": {
        "drive_frequency": "resonance",
        "peak_to_peak_voltage": 100.0,
        "force_per_volt": "auto",
        "electrode_harmonic": 4,
        "phase_layout": "quadrature",
        "duration": 8.0e-3,
        "dt": "auto",
        "damping": "settling-target",
        "target_edge_amplitude": 100e-9,
    },
    "optics": {
        "wavelength": 532e-9,
        "sensitivity_factor": "auto",
        "strobe_duty": 0.05,
        "amplitude_clip": 2e-6,
        "noise_sigma": 0.0,
    },
    "analysis": {
        "probe_radii": [10.2e-3, 12.5e-3, 15.0e-3],
        "probe_theta": 0.0,
        "circle_radius": 15.0e-3,
        "circle_count": 360,
        "strobe_offset_deg": 60.0,
        "strobe_phases_deg": [0.0, 30.0, 60.0, 90.0, 120.0, 150.0],
        "settling_band": 0.05,
        "settling_time_target": 3.4e-3,
    },
    "image": {
        "pixels": 256,
        "margin": 1.05,
    },
    "output": {
        "directory": "statorlab-out",
    },
    "seed": 20230425,
}


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
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


def _section(cfg: dict, name: str) -> dict:
    """The section ``name``, checked against the keys of its defaults."""
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} missing or not an object")
    unknown = sorted(set(sec) - set(DEFAULT_CONFIG[name]))
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {', '.join(unknown)}")
    return sec


def _is_number(value) -> bool:
    """An int or float, not a bool, that is finite as a float64.

    JSON admits NaN, Infinity and integers of any length; none of them is
    a usable config number.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:          # an int beyond the float64 range
        return False


def _num(name: str, sec: dict, key: str, positive=True, minimum=None,
         maximum=None, allow=()):
    value = sec.get(key)
    if isinstance(value, str) and value in allow:
        return value
    if not _is_number(value):
        raise ConfigError(f"{name}.{key}: expected a finite number, got {value!r}")
    value = float(value)
    if positive and value <= 0.0:
        raise ConfigError(f"{name}.{key}: must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}.{key}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name}.{key}: must be <= {maximum}, got {value}")
    return value


def _int(name: str, sec: dict, key: str, minimum=None, maximum=None):
    value = sec.get(key)
    if not isinstance(value, int) or not _is_number(value):
        raise ConfigError(
            f"{name}.{key}: expected an integer in float64 range, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}.{key}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name}.{key}: must be <= {maximum}, got {value}")
    return value


def build_geometry(cfg: dict) -> StatorGeometry:
    sec = _section(cfg, "geometry")
    kwargs = {}
    for key in DEFAULT_CONFIG["geometry"]:
        if key == "notch_count":
            kwargs[key] = _int("geometry", sec, key, minimum=0)
        else:
            kwargs[key] = _num("geometry", sec, key)
    return StatorGeometry(**kwargs)


def build_material(cfg: dict) -> Material:
    sec = _section(cfg, "material")
    overrides_raw = sec.get("damping_overrides") or {}
    if not isinstance(overrides_raw, dict):
        raise ConfigError("material.damping_overrides: expected an object "
                          "mapping harmonic -> damping ratio")
    overrides = {}
    for key, value in overrides_raw.items():
        try:
            harmonic = int(key)
        except (TypeError, ValueError):
            raise ConfigError(
                f"material.damping_overrides: harmonic key {key!r} is not "
                "an integer") from None
        overrides[harmonic] = _num("material.damping_overrides",
                                   overrides_raw, key, positive=False)
    # Material owns the ranges of the ratios
    return Material(
        youngs_modulus=_num("material", sec, "youngs_modulus"),
        poisson_ratio=_num("material", sec, "poisson_ratio", positive=False),
        density=_num("material", sec, "density"),
        modal_damping_ratio=_num("material", sec, "modal_damping_ratio",
                                 positive=False),
        damping_overrides=overrides or None,
    )


def build_modal_plan(cfg: dict) -> dict:
    sec = _section(cfg, "modal")
    plan = {
        "n_min": _int("modal", sec, "n_min", minimum=0),
        "n_max": _int("modal", sec, "n_max", minimum=0),
        "modes_per_n": _int("modal", sec, "modes_per_n", minimum=1),
        "discretization": Discretization(
            radial_nodes=_int("modal", sec, "radial_nodes",
                              maximum=MAX_RADIAL_NODES)),
        "calibrate": sec.get("calibrate"),
        "calibration_target_n": _int("modal", sec, "calibration_target_n",
                                     minimum=0),
        "calibration_target_hz": _num("modal", sec, "calibration_target_hz"),
    }
    if not isinstance(plan["calibrate"], bool):
        raise ConfigError(
            f"modal.calibrate: expected true/false, got {plan['calibrate']!r}")
    if plan["n_max"] < plan["n_min"]:
        raise ConfigError(
            f"modal.n_max ({plan['n_max']}) must be >= modal.n_min "
            f"({plan['n_min']})")
    return plan


def build_drive_plan(cfg: dict) -> dict:
    sec = _section(cfg, "drive")
    layout = sec.get("phase_layout")
    if layout not in ("quadrature", "single"):
        raise ConfigError(
            f"drive.phase_layout: expected 'quadrature' or 'single', got "
            f"{layout!r}")
    damping = sec.get("damping")
    if damping not in ("settling-target", "material"):
        if not _is_number(damping) or not 0.0 < damping < 1.0:
            raise ConfigError(
                "drive.damping: expected 'settling-target', 'material' or a "
                f"ratio in (0, 1), got {damping!r}")
        damping = float(damping)
    return {
        "drive_frequency": _num("drive", sec, "drive_frequency",
                                allow=("resonance",)),
        "peak_to_peak_voltage": _num("drive", sec, "peak_to_peak_voltage"),
        "force_per_volt": _num("drive", sec, "force_per_volt",
                               positive=False, minimum=0.0, allow=("auto",)),
        "electrode_harmonic": _int("drive", sec, "electrode_harmonic",
                                   minimum=1),
        "phase_layout": layout,
        "duration": _num("drive", sec, "duration"),
        "dt": _num("drive", sec, "dt", allow=("auto",)),
        "damping": damping,
        "target_edge_amplitude": _num("drive", sec, "target_edge_amplitude"),
    }


def build_optics_plan(cfg: dict) -> dict:
    sec = _section(cfg, "optics")
    wavelength = _num("optics", sec, "wavelength")
    sens = _num("optics", sec, "sensitivity_factor", allow=("auto",))
    clip = _num("optics", sec, "amplitude_clip")
    noise = _num("optics", sec, "noise_sigma", positive=False, minimum=0.0)
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
                          f"optics.amplitude_clip {clip:g} m")
    # a phase noise of pi or more leaves no fringe order to unwrap
    if noise >= math.pi:
        raise ConfigError(f"optics.noise_sigma: must be < pi rad, got {noise}")
    return {
        "wavelength": wavelength,
        "sensitivity_factor": None if sens == "auto" else sens,
        "strobe_duty": _num("optics", sec, "strobe_duty", maximum=STROBE_DUTY_LIMIT),
        "amplitude_clip": clip,
        "noise_sigma": noise,
    }


def build_analysis_plan(cfg: dict) -> dict:
    sec = _section(cfg, "analysis")
    radii = sec.get("probe_radii")
    if (not isinstance(radii, (list, tuple)) or not radii
            or not all(_is_number(r) and r > 0 for r in radii)):
        raise ConfigError(
            "analysis.probe_radii: expected a non-empty list of positive "
            f"radii, got {radii!r}")
    phases = sec.get("strobe_phases_deg")
    if (not isinstance(phases, (list, tuple)) or len(phases) < 1
            or not all(_is_number(p) for p in phases)):
        raise ConfigError(
            "analysis.strobe_phases_deg: expected a list of finite strobe "
            f"phases in degrees, got {phases!r}")
    distinct = sorted(set(phases))
    if len(distinct) < 3:
        raise ConfigError(
            "analysis.strobe_phases_deg: need at least 3 distinct strobe "
            f"phases, got {phases!r}")
    widest = max(b - a for a, b in zip(distinct, distinct[1:]))
    if widest >= STROBE_STEP_LIMIT_DEG:
        raise ConfigError(
            "analysis.strobe_phases_deg: consecutive strobe phases must be "
            f"less than {STROBE_STEP_LIMIT_DEG:g} deg apart, got {phases!r}")
    offset = _num("analysis", sec, "strobe_offset_deg")
    # fringes strobes at 0 and the offset, fit at each phase and phase + offset
    last = max(0.0, max(phases)) + offset
    if last > STROBE_SPAN_LIMIT_DEG:
        raise ConfigError(
            "analysis.strobe_offset_deg: the last strobe, max(0, max("
            f"strobe_phases_deg)) + strobe_offset_deg = {last:g} deg, lies "
            f"past the {STROBE_SPAN_LIMIT_DEG:g} deg of the run's last two "
            "drive cycles")
    theta = sec.get("probe_theta")
    if not _is_number(theta):
        raise ConfigError(
            f"analysis.probe_theta: expected a finite number, got {theta!r}")
    return {
        "probe_radii": [float(r) for r in radii],
        "probe_theta": float(theta),
        "circle_radius": _num("analysis", sec, "circle_radius"),
        "circle_count": _int("analysis", sec, "circle_count", minimum=8,
                             maximum=MAX_CIRCLE_COUNT),
        "strobe_offset_deg": offset,
        "strobe_phases_deg": [float(p) for p in phases],
        "settling_band": _num("analysis", sec, "settling_band", maximum=0.5),
        "settling_time_target": _num("analysis", sec, "settling_time_target"),
    }


def build_image_plan(cfg: dict) -> dict:
    sec = _section(cfg, "image")
    return {
        "pixels": _int("image", sec, "pixels", minimum=16, maximum=MAX_PIXELS),
        "margin": _num("image", sec, "margin", minimum=1.0),
    }


def build_seed(cfg: dict) -> int:
    seed = cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")
    return seed


def build_output_dir(cfg: dict) -> str:
    sec = _section(cfg, "output")
    directory = sec.get("directory")
    if not isinstance(directory, str) or not directory:
        raise ConfigError(
            f"output.directory: expected a non-empty path, got {directory!r}")
    return directory


def validate_config(cfg: dict) -> dict:
    """Build every typed object/plan up front; raises ConfigError on any
    problem, inconsistent geometry, material or mesh included, so commands
    never start computing from a bad config."""
    unknown = sorted(set(cfg) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    try:
        geometry = build_geometry(cfg)
        material = build_material(cfg)
        modal = build_modal_plan(cfg)
    except (GeometryError, DiscretizationError) as exc:
        raise ConfigError(str(exc)) from None
    plan = {
        "geometry": geometry,
        "material": material,
        "modal": modal,
        "drive": build_drive_plan(cfg),
        "optics": build_optics_plan(cfg),
        "analysis": build_analysis_plan(cfg),
        "image": build_image_plan(cfg),
        "output_dir": build_output_dir(cfg),
        "seed": build_seed(cfg),
    }
    # the smeared plate has no N-fold cyclic symmetry: with N notches,
    # harmonic n couples to |N - n| and a pair splits when 2n is a multiple
    # of N, so every retained harmonic must keep 2n below N
    notches, n_max = geometry.notch_count, plan["modal"]["n_max"]
    if notches and 2 * n_max >= notches:
        raise ConfigError(
            f"modal.n_max {n_max} is too high for geometry.notch_count "
            f"{notches}: the homogenized plate needs 2 * n_max < notch_count "
            "(or notch_count 0)")
    # the driven harmonic's resonance and mode come from the solved basis
    n_d, n_min = plan["drive"]["electrode_harmonic"], plan["modal"]["n_min"]
    if not n_min <= n_d <= n_max:
        raise ConfigError(
            f"drive.electrode_harmonic {n_d} lies outside the solved harmonics "
            f"modal.n_min..n_max = {n_min}..{n_max}")
    # every sampling radius lies on the moving plate: (clamp, rim]
    rim, clamp = geometry.outer_radius, geometry.fixture_radius
    ana = plan["analysis"]
    for key, radii in (("probe_radii", ana["probe_radii"]),
                       ("circle_radius", [ana["circle_radius"]])):
        for r in radii:
            if r > rim * (1 + 1e-12):
                raise ConfigError(
                    f"analysis.{key}: {r} lies outside the stator "
                    f"(outer radius {rim})")
            if r <= clamp:
                raise ConfigError(
                    f"analysis.{key}: {r} lies inside the clamp, where the "
                    f"plate does not move (geometry.fixture_radius {clamp})")
    return plan
