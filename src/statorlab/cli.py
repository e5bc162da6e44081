"""Command-line front end.

Subcommands mirror the pipeline stages:

* ``modes``    solve (and optionally calibrate) the eigenbasis, dump tables
* ``respond``  drive the stator, export probe histories and settling report
* ``fringes``  render time-averaged and stroboscopic images
* ``fit``      run the circle-sampling fit pipeline across strobe phases
* ``report``   compare computed frequencies against the embedded reference

Every stage solves the basis the same way; ``respond``, ``fringes`` and
``fit`` then share one driven-run setup (drive resolution and the modal
trajectory) that finishes before any file is written.  Each stage imports
the layers past the modal one (dynamics, grids, holography, analysis,
reference) inside the functions that call them, so a stage run in a fresh
interpreter loads only the modules it uses.

Exit codes: 0 success, 2 configuration error (inconsistent geometry or
material included), 3 numerical/domain error.  The output directory
comes from the config, overridable by ``--out`` or the ``STATORLAB_OUT``
environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__, ioutil
from .config import (apply_overrides, default_config, deep_merge, load_config,
                     validate_config)
from .errors import ConfigError, StatorLabError
from .geometry import homogenize
from .modal import calibrate, format_radial_profiles, solve_modes


def _merge_config(args) -> dict:
    cfg = default_config()
    if args.config:
        cfg = deep_merge(cfg, load_config(args.config))
    cfg = apply_overrides(cfg, args.set or [])
    out = args.out or os.environ.get("STATORLAB_OUT")
    if out:
        cfg.setdefault("output", {})["directory"] = out
    return cfg


def _solve_basis(plan):
    plate = homogenize(plan["geometry"], plan["material"])
    modal = plan["modal"]
    if modal["calibrate"]:
        plate = calibrate(
            plate, target=(modal["calibration_target_n"],
                           modal["calibration_target_hz"]),
            disc=modal["discretization"]).plate
    return solve_modes(plate, n_max=modal["n_max"], n_min=modal["n_min"],
                       modes_per_n=modal["modes_per_n"],
                       disc=modal["discretization"])


def _driven_run(plan):
    """Solve the basis, fill the 'resonance'/'auto'/'settling-target'
    placeholders from it and drive it; returns (basis, drive, trajectory)."""
    from .dynamics import (DriveConfig, calibrate_force_per_volt, respond,
                           settling_damping_ratio)
    basis = _solve_basis(plan)
    spec = plan["drive"]
    n_d = spec["electrode_harmonic"]
    freq = spec["drive_frequency"]
    if freq == "resonance":
        freq = basis.frequency_for(n_d)
    damping = spec["damping"]
    if damping == "settling-target":
        target = plan["analysis"]["settling_time_target"]
        damping = settling_damping_ratio(target, freq,
                                         band=plan["analysis"]["settling_band"])
        if damping >= 1.0:
            raise ConfigError(
                f"analysis.settling_time_target: settling in {target:g} s at the "
                f"{freq:.3f} Hz drive needs damping ratio {damping:.6g}, not below 1")
    if damping != "material":
        basis = basis.with_damping(damping)
    drive = DriveConfig(
        drive_frequency=freq,
        peak_to_peak_voltage=spec["peak_to_peak_voltage"],
        electrode_harmonic=n_d,
        phase_layout=spec["phase_layout"])
    fpv = spec["force_per_volt"]
    if fpv == "auto":
        fpv = calibrate_force_per_volt(
            basis, drive, target_amplitude=spec["target_edge_amplitude"],
            radius=plan["geometry"].outer_radius)
    drive = replace(drive, force_per_volt=fpv)
    traj = respond(basis, drive, duration=spec["duration"],
                   dt=None if spec["dt"] == "auto" else spec["dt"])
    return basis, drive, traj


def _outpath(plan, name: str) -> str:
    return os.path.join(plan["output_dir"], name)


def _write_and_print(plan, name: str, text: str) -> None:
    ioutil.atomic_write_text(_outpath(plan, name), text)
    print(text, end="")


def _strobe_pair(basis, traj, grid, optics, a_deg, b_deg, rng, band):
    """Stroboscopic phase map between the strobe instants a_deg and b_deg,
    each averaged over the strobe window ``optics.strobe_duty``.

    Warns when a driven mode's transient |C| e^{-alpha t} at the earlier
    instant is above ``band`` of its steady amplitude |Q|: the strobes
    then see a state that has not settled.
    """
    from . import holography
    from .dynamics import snapshot_at_strobe
    a = snapshot_at_strobe(basis, traj, grid, a_deg, optics.strobe_duty)
    b = snapshot_at_strobe(basis, traj, grid, b_deg, optics.strobe_duty)
    left = traj.transient_fraction(min(a.time, b.time))
    if left > band:
        warnings.warn(
            f"transient still {left:.1%} of the steady amplitude at the "
            f"strobe instant (settling band {band:.1%}); the run has not "
            "settled", RuntimeWarning, stacklevel=2)
    return holography.stroboscopic(a, b, optics, strobe_phases=(a_deg, b_deg),
                                   rng=rng)


def cmd_modes(plan) -> int:
    basis = _solve_basis(plan)
    rows = [(m.n, m.orientation, m.family, m.frequency) for m in basis]
    ioutil.write_csv(_outpath(plan, "modes.csv"),
                     ("n", "orientation", "family", "frequency_hz"), zip(*rows))
    ioutil.atomic_write_text(_outpath(plan, "radial_profiles.txt"),
                             format_radial_profiles(basis))
    print(f"wrote {len(rows)} modes to {_outpath(plan, 'modes.csv')}")
    for m in basis:
        if m.orientation == "cos":
            print(f"  n={m.n} family={m.family}: {m.frequency:.2f} Hz")
    return 0


def cmd_respond(plan) -> int:
    from .dynamics import probe
    basis, drive, traj = _driven_run(plan)
    ana = plan["analysis"]
    points = [(r, ana["probe_theta"]) for r in ana["probe_radii"]]
    series = probe(basis, traj, points, band=ana["settling_band"])

    # one block of rows per point; every point shares the trajectory's times
    ioutil.write_csv(_outpath(plan, "probes.csv"),
                     ("time_s", "point_id", "displacement_m"),
                     (ioutil.format_cells(traj.times) * len(series),
                      np.repeat(np.arange(len(series)), traj.times.size),
                      np.concatenate([s.displacement for s in series])))

    zeta = basis.damping_for(drive.electrode_harmonic)
    lines = [
        "probe settling report",
        f"drive: {drive.drive_frequency:.3f} Hz, {drive.peak_to_peak_voltage:g} "
        f"Vpp, harmonic n={drive.electrode_harmonic}, {drive.phase_layout}",
        f"damping ratio in effect: {zeta:.6f}",
        f"settling band: +-{100 * ana['settling_band']:g}% of steady amplitude",
        "",
    ]
    for pid, s in enumerate(series):
        settle = ("not settled within run"
                  if not np.isfinite(s.settling_time)
                  else f"{s.settling_time * 1e3:.3f} ms")
        lines.append(
            f"point {pid} (r={s.point[0] * 1e3:.2f} mm, theta={s.point[1]:.3f} "
            f"rad): steady {s.steady_amplitude * 1e9:.2f} nm, settling {settle}")
    _write_and_print(plan, "settling.txt", "\n".join(lines) + "\n")
    return 0


def cmd_fringes(plan) -> int:
    from . import holography
    from .dynamics import steady_envelope
    from .grids import RasterGrid
    basis, drive, traj = _driven_run(plan)
    optics = holography.OpticalConfig(**plan["optics"])
    grid = RasterGrid(plan["geometry"].inner_radius,
                      plan["geometry"].outer_radius, **plan["image"])

    # stroboscopic pair at the configured offset for the driven harmonic,
    # rendered before the first write so a failing strobe leaves no files
    offset = plan["analysis"]["strobe_offset_deg"]
    pmap = _strobe_pair(basis, traj, grid, optics, 0.0, offset,
                        np.random.default_rng(plan["seed"]),
                        plan["analysis"]["settling_band"])

    # one time-averaged image per harmonic, each driven at its own resonance
    written = []
    for n in basis.harmonics():
        if n < 1:
            continue
        drive_n = replace(drive, drive_frequency=basis.frequency_for(n),
                          electrode_harmonic=n)
        env = steady_envelope(basis, drive_n, grid)
        img = holography.time_averaged(env, optics)
        name = f"timeavg_md{n}.pgm"
        ioutil.write_pgm(_outpath(plan, name), img.intensity, grid.mask)
        written.append(name)

    stem = f"strobe_md{drive.electrode_harmonic}_{0:g}d_{offset:g}d"
    ioutil.write_pgm(_outpath(plan, stem + ".pgm"),
                     ioutil.phase_to_unit(pmap.phase), grid.mask)
    ioutil.write_field_f32(_outpath(plan, stem + ".f32"), pmap.phase,
                           dict(grid.describe(), strobe_a_deg=pmap.strobe_phase_a,
                                strobe_b_deg=pmap.strobe_phase_b))
    written += [stem + ".pgm", stem + ".f32"]
    print(f"wrote {', '.join(written)} to {plan['output_dir']}")
    return 0


def cmd_fit(plan) -> int:
    from . import analysis, holography
    from .grids import RingGrid
    basis, drive, traj = _driven_run(plan)
    optics = holography.OpticalConfig(**plan["optics"])
    ana = plan["analysis"]
    ring = RingGrid(radius=ana["circle_radius"], count=ana["circle_count"])
    rng = np.random.default_rng(plan["seed"])

    offset = ana["strobe_offset_deg"]
    fits = []
    for s_deg in ana["strobe_phases_deg"]:
        pmap = _strobe_pair(basis, traj, ring, optics, s_deg, s_deg + offset,
                            rng, ana["settling_band"])
        diff = holography.unwrap_to_displacement(pmap, optics)
        sample = analysis.CircleSample.from_field(diff, source="hologram")
        n = analysis.detect_mode_number(sample)
        fit = analysis.fit_eq1(sample, n)
        fits.append((s_deg, fit))
    # both may refuse the fits, so they run before the first write
    track = analysis.track_strobe_phase(fits)
    asym = analysis.asymmetry_index(fits)
    ioutil.write_csv(_outpath(plan, "fit.csv"),
                     ("strobe_phase_deg", "n", "A_m", "phi_rad", "delta_m",
                      "residual_m"),
                     zip(*[(s, f.n, f.A, f.phi, f.delta, f.rms_residual)
                           for s, f in fits]))
    lines = [
        "strobe-phase fit summary",
        f"circle radius: {ana['circle_radius'] * 1e3:.2f} mm "
        f"({ana['circle_count']} samples)",
        f"detected harmonic: n={track.n}",
        f"classification: {track.classification}",
        f"rotation rate: {track.rotation_rate:+.4f} spatial deg per strobe deg",
        f"standing-wave ratio: {track.standing_wave_ratio:.4f}",
        f"amplitude CV: {track.amplitude_cv:.4%}",
        f"asymmetry index: {asym:.3e}",
    ]
    _write_and_print(plan, "fit_summary.txt", "\n".join(lines) + "\n")
    return 0


def cmd_report(plan) -> int:
    from . import reference
    basis = _solve_basis(plan)
    solved = basis.harmonics()
    computed = [basis.frequency_for(n) if n in solved else None
                for n in range(1, 8)]
    _write_and_print(plan, "report.txt", reference.build_report(computed))
    return 0


COMMANDS = {
    "modes": cmd_modes,
    "respond": cmd_respond,
    "fringes": cmd_fringes,
    "fit": cmd_fit,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statorlab",
        description="Modal simulation and holographic-observable synthesis "
                    "for traveling-wave ultrasonic stators.")
    parser.add_argument("--version", action="version",
                        version=f"statorlab {__version__}")
    parser.add_argument("--config", help="JSON config file merged over defaults")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry by dotted path, e.g. "
                             "--set drive.peak_to_peak_voltage=200")
    parser.add_argument("--out", help="output directory (overrides config and "
                                      "STATORLAB_OUT)")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="pipeline stage to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](validate_config(_merge_config(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StatorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
