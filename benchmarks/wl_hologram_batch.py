"""hologram_batch: synthetic bench exposures on one solved basis.

Set-up solves the default calibrated basis and builds the raster grids
once.  Each op drives one harmonic at its own resonance, renders
the time-averaged fringes, takes a strobe pair, unwraps it on a circle and
fits it, all in this process and without writing files.  Rendering,
holography and the fit dominate; ``modal`` only evaluates shapes.  Every
block of nine ops covers each (raster size, duration) pair once in seeded
order, trading raster work against time-history work.  The check compares
the fit with a closed-form simulation of the driven modes.
"""

from __future__ import annotations

import dataclasses
import math
import random
import resource

import numpy as np

from checks import CheckFailed
from statorlab import (analysis, config, dynamics, geometry, grids,
                       holography, modal)

PIXELS = (128, 256, 384)
DURATIONS = (4e-3, 8e-3, 16e-3)
STROBE_PHASES = tuple(range(0, 180, 30))
STROBE_OFFSETS = (15, 30, 60)
HARMONICS = tuple(range(1, 8))
CIRCLE_RADIUS = 14e-3
CIRCLE_COUNT = 360
RIM_AMPLITUDE = 100e-9
AMPLITUDE_TOLERANCE = 0.01
IN_PROCESS = True
TRACE_UNITS_PER_SECOND = 2.5


def units(seed):
    rng = random.Random(seed)
    op_id = 0
    while True:
        block = [(px, dur) for px in PIXELS for dur in DURATIONS]
        rng.shuffle(block)
        for pixels, duration in block:
            yield [{
                "id": op_id, "kind": f"px{pixels}",
                "pixels": pixels, "duration": duration,
                "harmonic": rng.choice(HARMONICS),
                "strobe_deg": rng.choice(STROBE_PHASES),
                "offset_deg": rng.choice(STROBE_OFFSETS),
            }]
            op_id += 1


def setup(workdir):
    plan = config.validate_config(config.default_config())
    geom = plan["geometry"]
    solve = plan["modal"]
    plate = geometry.homogenize(geom, plan["material"])
    calibrated = modal.calibrate(
        plate, target=(solve["calibration_target_n"],
                       solve["calibration_target_hz"]),
        disc=solve["discretization"])
    basis = modal.solve_modes(calibrated.plate, n_max=solve["n_max"],
                              n_min=solve["n_min"], modes_per_n=1,
                              disc=solve["discretization"])
    rasters = {px: grids.RasterGrid(inner_radius=geom.inner_radius,
                                    outer_radius=geom.outer_radius, pixels=px,
                                    margin=plan["image"]["margin"])
               for px in PIXELS}
    optics = plan["optics"]
    return {
        "basis": basis,
        "rim": geom.outer_radius,
        "settling": plan["analysis"],
        "rasters": rasters,
        "optics": holography.OpticalConfig(
            wavelength=optics["wavelength"],
            sensitivity_factor=optics["sensitivity_factor"],
            strobe_duty=optics["strobe_duty"],
            amplitude_clip=optics["amplitude_clip"]),
    }


def execute(ctx, op, tracer):
    n = op["harmonic"]
    freq = ctx["basis"].frequency_for(n)
    zeta = dynamics.settling_damping_ratio(
        ctx["settling"]["settling_time_target"], freq,
        band=ctx["settling"]["settling_band"])
    basis = ctx["basis"].with_damping(zeta)
    drive = dynamics.DriveConfig(drive_frequency=freq, electrode_harmonic=n)
    gain = dynamics.calibrate_force_per_volt(
        basis, drive, target_amplitude=RIM_AMPLITUDE, radius=ctx["rim"])
    drive = dataclasses.replace(drive, force_per_volt=gain)
    traj = dynamics.respond(basis, drive, duration=op["duration"])

    grid, optics = ctx["rasters"][op["pixels"]], ctx["optics"]
    envelope = dynamics.field_envelope(basis, traj, grid)
    fringes = holography.time_averaged(envelope, optics)
    a_deg, b_deg = op["strobe_deg"], op["strobe_deg"] + op["offset_deg"]
    snap_a = dynamics.snapshot_at_strobe(basis, traj, grid, a_deg)
    snap_b = dynamics.snapshot_at_strobe(basis, traj, grid, b_deg)
    pmap = holography.stroboscopic(snap_a, snap_b, optics,
                                   strobe_phases=(a_deg, b_deg))
    diff = holography.unwrap_to_displacement(
        pmap, optics, radius=CIRCLE_RADIUS, count=CIRCLE_COUNT)
    sample = analysis.CircleSample.from_field(diff, source="hologram")
    detected = analysis.detect_mode_number(sample)
    fit = analysis.fit_eq1(sample, detected)
    return {"basis": basis, "traj": traj, "fringes": fringes,
            "detected": detected, "fit": fit}


def check(ctx, op, result):
    if result["detected"] != op["harmonic"]:
        raise CheckFailed(f"detected n={result['detected']}, driven "
                          f"n={op['harmonic']}")
    direct = direct_amplitude(ctx, op, result["traj"].times[-1])
    error = abs(result["fit"].A - direct) / direct
    if not error <= AMPLITUDE_TOLERANCE:
        raise CheckFailed(f"hologram fit amplitude {result['fit'].A:.6e} m is "
                          f"{error:.2e} from the direct {direct:.6e} m")


def direct_amplitude(ctx, op, t_end):
    """Amplitude of the driven harmonic in the strobe difference on the
    14 mm circle, from the closed-form response of each driven mode.

    Each mode is a damped oscillator started from rest and forced at the
    drive frequency, with the damping ratio that settles at the configured
    time and the gain that gives 100 nm at the rim in steady state; the
    quadrature electrode forces the sin mode 90 degrees behind the cos mode.
    Nothing of the op's own dynamics, holography or fit is used, only its
    trajectory end time, which fixes the strobe instants.  Harmonics 1-3
    are still settling at 4-8 ms, so the transient is part of the reference.
    """
    n, basis = op["harmonic"], ctx["basis"]
    freq = basis.frequency_for(n)
    w, period = 2.0 * math.pi * freq, 1.0 / freq
    if not abs(t_end - op["duration"]) <= period / 2:
        raise CheckFailed(f"trajectory ends at {t_end} s, asked for "
                          f"{op['duration']} s")
    settling = ctx["settling"]
    zeta = (math.log(1.0 / settling["settling_band"])
            / (settling["settling_time_target"] * w))
    (cos_mode,), (sin_mode,) = basis.select(n, "cos"), basis.select(n, "sin")

    def den(mode):
        return mode.omega ** 2 - w ** 2 + 2.0j * zeta * mode.omega * w

    force = (RIM_AMPLITUDE * abs(den(cos_mode))
             / abs(float(cos_mode.radial(ctx["rim"]))))
    forcing = ((cos_mode, force),
               (sin_mode, -1.0j * force * sin_mode.radial_moment()
                / cos_mode.radial_moment()))
    times = t_end - 2.0 * period + np.array(
        [op["strobe_deg"], op["strobe_deg"] + op["offset_deg"]]) / 360.0 * period
    theta = np.linspace(0.0, 2.0 * math.pi, CIRCLE_COUNT, endpoint=False)
    values = np.zeros(CIRCLE_COUNT)
    for mode, phasor in forcing:
        steady = phasor / den(mode)
        alpha = zeta * mode.omega
        wd = mode.omega * math.sqrt(1.0 - zeta * zeta)
        c, s = -steady.real, (w * steady.imag - alpha * steady.real) / wd
        x = ((steady * np.exp(1.0j * w * times)).real + np.exp(-alpha * times)
             * (c * np.cos(wd * times) + s * np.sin(wd * times)))
        values += ((x[1] - x[0]) * float(mode.radial(CIRCLE_RADIUS))
                   * mode.angular(theta))
    design = np.column_stack([np.sin(n * theta), np.cos(n * theta),
                              np.ones(CIRCLE_COUNT)])
    a, b, _ = np.linalg.lstsq(design, values, rcond=None)[0]
    return math.hypot(a, b)


def peak_rss_kb(ctx):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
