"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line through the ``criterion_log``
fixture (collected again in the terminal summary), then asserts on it.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from oracle_fd import oracle_frequency
from statorlab import reference
from statorlab.analysis import (CircleSample, detect_mode_number, fit_eq1)
from statorlab.dynamics import (DriveConfig, ExternalMode,
                                calibrate_force_per_volt, field_envelope,
                                lateral_mode_proxy, mixed_response, probe,
                                respond, settling_damping_ratio,
                                snapshot_at_strobe)
from statorlab.grids import DisplacementField, RasterGrid, RingGrid
from statorlab.holography import (OpticalConfig, first_dark_fringe_amplitude,
                                  stroboscopic, time_averaged,
                                  unwrap_to_displacement)
from statorlab.modal import ModalBasis, Mode, assemble, solve_modes

RIM = 15.0e-3


def _wrap(x):
    return float(np.angle(np.exp(1j * x)))


@pytest.fixture(scope="module")
def optics():
    return OpticalConfig()


@pytest.fixture(scope="module")
def driven(basis):
    """Damped basis + rim-calibrated quadrature drive at the n=4 resonance."""
    f4 = basis.frequency_for(4)
    zeta = settling_damping_ratio(3.4e-3, f4, band=0.05)
    damped = basis.with_damping(zeta)
    drive = DriveConfig(drive_frequency=f4, electrode_harmonic=4)
    fpv = calibrate_force_per_volt(damped, drive, target_amplitude=100e-9,
                                   radius=RIM)
    drive = dataclasses.replace(drive, force_per_volt=fpv)
    # long enough that the transient is gone to machine precision at the
    # strobe-snapshot times near the end
    traj = respond(damped, drive, duration=30e-3)
    return damped, drive, traj


def _difference_fit(damped, traj, ring, optics, s0, s1):
    """Strobe pair -> interference phase -> displacement -> sinusoid fit."""
    a = snapshot_at_strobe(damped, traj, ring, s0)
    b = snapshot_at_strobe(damped, traj, ring, s1)
    pmap = stroboscopic(a, b, optics, strobe_phases=(s0, s1))
    sample = CircleSample.from_field(unwrap_to_displacement(pmap, optics),
                                     source="hologram")
    return fit_eq1(sample, detect_mode_number(sample))


def test_criterion_01_eigensolver_vs_fd_oracle(uniform_plate, criterion_log):
    t0 = time.perf_counter()
    fem = solve_modes(uniform_plate, n_max=4, n_min=0)
    devs = []
    for n in range(5):
        ref = oracle_frequency(uniform_plate, n)
        devs.append(abs(fem.frequency_for(n) - ref) / ref)
    elapsed = time.perf_counter() - t0
    worst = max(devs)
    ok = worst < 0.01 and elapsed < 10.0
    assert criterion_log(1, "eigensolver matches dense FD oracle", ok,
                         f"max dev {worst:.2e} over n=0..4, {elapsed:.2f} s")


def test_criterion_02_degeneracy_and_orthogonality(calibrated_plate,
                                                   criterion_log):
    dense = solve_modes(calibrated_plate, n_max=7, n_min=0, modes_per_n=2)
    pair_gap = 0.0
    for n in range(1, 8):
        for family in (0, 1):
            fc = dense.select(n, "cos", family)[0].frequency
            fs = dense.select(n, "sin", family)[0].frequency
            pair_gap = max(pair_gap, abs(fc - fs) / fc)

    def dofs(mode):
        w = np.empty(2 * (mode.radial_nodes.size - 1))
        w[0::2] = mode.radial_values[1:]
        w[1::2] = mode.radial_slopes[1:]
        return w

    ortho = 0.0
    for n in range(0, 8):
        _, Mc = assemble(calibrated_plate, n)
        vecs = [dofs(m) for m in dense.select(n, "cos")]
        gram = np.array([[vi @ Mc @ vj for vj in vecs] for vi in vecs])
        ortho = max(ortho, float(np.max(np.abs(gram - np.eye(len(vecs))))))

    ok = pair_gap <= 1e-9 and ortho < 1e-8
    assert criterion_log(2, "degenerate pairs and mass-orthogonality", ok,
                         f"pair gap {pair_gap:.1e}, ortho residual {ortho:.1e}")


def test_criterion_03_calibration_and_ordering(basis, criterion_log):
    freqs = [basis.frequency_for(n) for n in range(1, 8)]
    rel = abs(freqs[0] - 3680.0) / 3680.0
    ascending = all(a < b for a, b in zip(freqs, freqs[1:]))
    worst_dev = 0.0
    for label, f_hz, ref_khz in zip(reference.MODE_LABELS, freqs,
                                    reference.SIMULATION_KHZ):
        dev = reference.deviation_percent(f_hz / 1e3, ref_khz)
        worst_dev = max(worst_dev, dev)
        print(f"    {label}: {f_hz / 1e3:8.3f} kHz  vs embedded "
              f"{ref_khz:6.2f} kHz  ({dev:+.2f}% reported, not gated)")
    ok = rel <= 1e-4 and ascending
    assert criterion_log(3, "single-knob calibration and ascending ladder", ok,
                         f"f(n=1) off by {rel:.2e}, ascending={ascending}, "
                         f"worst reported dev {worst_dev:.1f}%")


def test_criterion_04_settling_time(basis, criterion_log):
    f4 = basis.frequency_for(4)
    zeta = settling_damping_ratio(3.4e-3, f4, band=0.05)
    damped = basis.with_damping(zeta)
    drive = DriveConfig(drive_frequency=f4, electrode_harmonic=4)
    t0 = time.perf_counter()
    traj = respond(damped, drive, duration=8e-3)
    series = probe(damped, traj, [(RIM, 0.0)], band=0.05)[0]
    elapsed = time.perf_counter() - t0
    err = abs(series.settling_time - 3.4e-3) / 3.4e-3
    ok = err <= 0.10 and elapsed < 5.0
    assert criterion_log(4, "95% envelope settling at 3.4 ms", ok,
                         f"settled {series.settling_time * 1e3:.3f} ms "
                         f"({err:.1%} off), {elapsed:.2f} s")


def test_criterion_05_radial_amplitude_ordering(driven, criterion_log):
    damped, _, traj = driven
    radii = (10.2e-3, 12.5e-3, RIM)
    series = probe(damped, traj, [(r, 0.0) for r in radii])
    amps = [s.steady_amplitude for s in series]
    ascending = amps[0] < amps[1] < amps[2]
    ratios = [a / amps[2] for a in amps]
    dev_inner = abs(ratios[0] / 0.30 - 1.0)
    dev_mid = abs(ratios[1] / 0.60 - 1.0)
    ok = ascending and dev_inner <= 0.30 and dev_mid <= 0.30
    assert criterion_log(5, "inner/middle/edge amplitude ordering", ok,
                         f"ratios {100 * ratios[0]:.1f}:{100 * ratios[1]:.1f}"
                         f":100 vs 30:60:100")


def test_criterion_06_traveling_wave_identity(driven, optics, criterion_log):
    damped, drive, traj = driven
    ring = RingGrid(radius=RIM, count=360)
    env = field_envelope(damped, traj, ring).values
    flatness = float(env.max() / env.min())

    # two snapshots an eighth of a drive cycle apart; the crest must
    # advance by (omega dt)/n = 45/4 spatial degrees
    fit0 = fit_eq1(CircleSample.from_field(
        snapshot_at_strobe(damped, traj, ring, 0.0)), 4)
    fit45 = fit_eq1(CircleSample.from_field(
        snapshot_at_strobe(damped, traj, ring, 45.0)), 4)
    advance = -math.degrees(_wrap(fit45.phi - fit0.phi)) / 4
    expected = 45.0 / 4
    err = abs(advance - expected)
    ok = flatness < 1.01 and err < 0.5
    assert criterion_log(6, "uniform envelope and crest rotation rate", ok,
                         f"max/min {flatness:.6f}, crest advance "
                         f"{advance:.4f} deg vs {expected} deg")


def test_criterion_07_holography_round_trip(driven, optics, criterion_log):
    damped, _, traj = driven
    ring = RingGrid(radius=RIM, count=360)
    fit = _difference_fit(damped, traj, ring, optics, 0.0, 60.0)
    # a 60 deg electrical offset turns a traveling wave of amplitude A
    # into a difference pattern of amplitude 2 A sin(30 deg) = A
    a_rim = float(field_envelope(damped, traj, ring).values.max())
    rel = abs(fit.A - a_rim) / a_rim

    # first dark time-averaged fringe, twice: closed form and a scan
    closed = first_dark_fringe_amplitude(optics)
    amps = np.linspace(0.0, 200e-9, 4001)
    scan = time_averaged(
        DisplacementField(RingGrid(radius=RIM, count=amps.size), amps),
        optics).intensity
    i = int(np.argmin(scan))
    h = amps[1] - amps[0]
    denom = scan[i + 1] - 2 * scan[i] + scan[i - 1]
    scanned = amps[i] - 0.5 * h * (scan[i + 1] - scan[i - 1]) / denom

    ok = (rel <= 1e-3 and fit.n == 4
          and abs(closed - 101.8e-9) <= 0.5e-9
          and abs(scanned - 101.8e-9) <= 0.5e-9)
    assert criterion_log(7, "hologram round trip and first dark fringe", ok,
                         f"amplitude rel err {rel:.1e}; dark fringe "
                         f"{closed * 1e9:.2f} nm closed form / "
                         f"{scanned * 1e9:.2f} nm scanned")


def test_criterion_08_strobe_phase_arithmetic(driven, basis, optics,
                                              criterion_log):
    damped, _, traj = driven
    ring = RingGrid(radius=RIM, count=360)
    f1 = _difference_fit(damped, traj, ring, optics, 0.0, 60.0)
    f2 = _difference_fit(damped, traj, ring, optics, 60.0, 120.0)
    shift4 = abs(math.degrees(_wrap(f2.phi - f1.phi))) / 4

    f5 = basis.frequency_for(5)
    drive5 = DriveConfig(drive_frequency=f5, electrode_harmonic=5)
    fpv5 = calibrate_force_per_volt(damped, drive5, 100e-9, RIM)
    drive5 = dataclasses.replace(drive5, force_per_volt=fpv5)
    traj5 = respond(damped, drive5, duration=12e-3)
    g1 = _difference_fit(damped, traj5, ring, optics, 0.0, 15.0)
    g2 = _difference_fit(damped, traj5, ring, optics, 15.0, 30.0)
    shift5 = abs(math.degrees(_wrap(g2.phi - g1.phi))) / 5

    ok = (abs(shift4 - 15.0) <= 0.1 and f1.n == f2.n == 4
          and abs(shift5 - 3.0) <= 0.1 and g1.n == g2.n == 5)
    assert criterion_log(8, "strobe offset to spatial shift arithmetic", ok,
                         f"n=4/60deg -> {shift4:.3f} deg, "
                         f"n=5/15deg -> {shift5:.3f} deg")


def test_criterion_09_fit_exactness_and_equivariance(criterion_log):
    theta = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(25):
        A = 10.0 ** rng.uniform(-9, -6)
        n = int(rng.integers(1, 8))
        phi = rng.uniform(-np.pi, np.pi)
        delta = A * rng.uniform(-1, 1)
        fit = fit_eq1(CircleSample(radius=RIM, theta=theta,
                                   values=A * np.sin(n * theta + phi) + delta),
                      n)
        worst = max(worst, abs(fit.A - A) / A, abs(_wrap(fit.phi - phi)),
                    abs(fit.delta - delta) / A)

    vals = 7e-8 * np.sin(4 * theta + 0.3) + 2e-8
    base = fit_eq1(CircleSample(radius=RIM, theta=theta, values=vals), 4)
    shift = 25
    rolled = fit_eq1(CircleSample(radius=RIM, theta=theta,
                                  values=np.roll(vals, -shift)), 4)
    rot_defect = abs(_wrap(rolled.phi - base.phi - 4 * shift * 2 * np.pi / 360))
    scaled = fit_eq1(CircleSample(radius=RIM, theta=theta, values=3.5 * vals), 4)
    scale_defect = max(abs(scaled.A - 3.5 * base.A) / (3.5 * base.A),
                       abs(scaled.phi - base.phi))

    ok = worst < 1e-12 and rot_defect < 1e-12 and scale_defect < 1e-12
    assert criterion_log(9, "noiseless fit exactness and equivariance", ok,
                         f"round trip {worst:.1e}, rotation {rot_defect:.1e}, "
                         f"scale {scale_defect:.1e}")


def test_criterion_10_mixed_mode_response(basis, criterion_log):
    md6 = basis.select(6, "cos")[0]
    flexural = Mode(n=6, orientation="cos", frequency=41154.0,
                    radial_nodes=md6.radial_nodes,
                    radial_values=md6.radial_values,
                    radial_slopes=md6.radial_slopes)
    demo = ModalBasis((flexural,), basis.discretization, "mixed-demo",
                      default_damping=0.02)
    external = ExternalMode(frequency=42757.0, damping_ratio=0.02,
                            shape=lateral_mode_proxy(3.75e-3, RIM, lobes=6))
    drive = DriveConfig(drive_frequency=42124.0, electrode_harmonic=6)
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=RIM, pixels=128)
    mix = mixed_response(demo, external, drive, grid)

    ratio = (max(mix.modal_weight, mix.external_weight)
             / min(mix.modal_weight, mix.external_weight))
    # the weights must be the plain Lorentzian magnitudes, checked inline
    w = 2 * math.pi * 42124.0
    expect = []
    for f0 in (41154.0, 42757.0):
        w0 = 2 * math.pi * f0
        expect.append(1.0 / math.hypot(w0 * w0 - w * w, 2 * 0.02 * w0 * w))
    formula_ok = (mix.modal_weight == pytest.approx(expect[0], rel=1e-12)
                  and mix.external_weight == pytest.approx(expect[1], rel=1e-12))

    mask = grid.mask
    pure_m = np.zeros(grid.shape)
    pure_m[mask] = flexural.radial(grid.r[mask]) * flexural.angular(grid.theta[mask])
    pure_e = np.zeros(grid.shape)
    pure_e[mask] = external.shape(grid.r[mask], grid.theta[mask])
    corr_m = float(np.corrcoef(mix.field.values[mask], pure_m[mask])[0, 1])
    corr_e = float(np.corrcoef(mix.field.values[mask], pure_e[mask])[0, 1])

    ok = (ratio < 4.0 and formula_ok
          and abs(corr_m) < 0.95 and abs(corr_e) < 0.95)
    assert criterion_log(10, "between-resonance drive mixes two patterns", ok,
                         f"weight ratio {ratio:.3f}, correlations "
                         f"{corr_m:.3f}/{corr_e:.3f} vs pure patterns")


def test_criterion_11_seeded_determinism(tmp_path, criterion_log):
    overrides = ["--set", "modal.n_max=5", "--set", "drive.duration=0.004",
                 "--set", "optics.noise_sigma=0.02",
                 "--set", "image.pixels=64",
                 "--set", "analysis.circle_count=180",
                 "--set", "analysis.strobe_phases_deg=[0,60,120]"]
    for run in ("one", "two"):
        out = tmp_path / run
        for command in ("fringes", "fit"):
            res = subprocess.run(
                [sys.executable, "-m", "statorlab.cli", command,
                 "--out", str(out), *overrides],
                capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
    a = sorted(p.name for p in (tmp_path / "one").iterdir())
    b = sorted(p.name for p in (tmp_path / "two").iterdir())
    same_names = a == b and len(a) >= 8
    identical = all((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes() for name in a)
    ok = same_names and identical
    assert criterion_log(11, "fixed seed reproduces outputs byte for byte", ok,
                         f"{len(a)} files compared across two fresh runs")
