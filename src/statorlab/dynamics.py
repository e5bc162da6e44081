"""Damped modal response under two-phase electrode drive.

Each retained mode is a unit-mass damped oscillator

    q''_k + 2 zeta_k w0_k q'_k + w0_k^2 q_k = f_k(t)

forced only when its circumferential harmonic matches the electrode
harmonic (angular orthogonality kills every other projection).  The state
is carried as a complex analytic amplitude

    q_k(t) = Q_k e^{i w t} + C_k e^{(-alpha_k + i wd_k) t}

whose real part is the physical displacement and whose magnitude is the
instantaneous envelope.  A trajectory records this closed form, Q and C
per mode, and its samples; every instant in the span is evaluated from
Q and C, so there is no time stepping, no step-size stability limit, and
linearity in the drive voltage is bit-exact.  Only ``probe`` reads the
samples.  A trajectory is a plain record and holds no cache;
``state_at`` evaluates one instant or an array of them in one
expression, so a strobe window's instants are read in one call.

Only driven modes cost anything: ``respond`` starts every mode at rest
and evaluates only the driven rows, those with Q != 0 (from rest C is
zero exactly when Q is); a probe reads only those rows, and a field
render contracts over the modes whose state is non-zero (its live
modes).  Probes and renders alike contract the real and imaginary parts
of the state with real shape tables.  Every render takes its table from
the grid (``grid.shapes``), which keeps the last one it built: renders on
one grid with the same live modes, such as its envelope and its strobe
snapshots, evaluate the shapes once, whichever trajectory they read.
The angular patterns cos(n theta) and sin(n theta) are the real and
imaginary parts of e^{i n theta}, powered by ``modal.angular_patterns``
with no trig call; probes, grids and ``Mode.angular`` share that one
routine, so a sample's shape has the same bits whichever of them
evaluates it.
``respond`` evaluates each distinct decay exponent once: the two modes of
a cos/sin pair share theirs.
Every render yields the masked samples of the grid, which the field
stores as they are, so no render forms a raster.  An envelope is
rendered from the steady phasors Q: it contracts their real and
imaginary parts with the real shape table and takes the magnitude on the
masked samples, so no complex table is formed.  ``field_envelope`` reads
Q from a trajectory, ``steady_envelope`` straight from the drive, with no
trajectory sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ELECTRODE_MIN_HARMONIC, PHASE_LAYOUTS, STROBE_DUTY_LIMIT,
                     STROBE_SPAN_LIMIT_DEG, STROBE_SUBSAMPLES, DomainError,
                     NumericalError, TimeStepError)
from .grids import DisplacementField
from .modal import (ModalBasis, Mode, angular_patterns, radial_shapes,
                    unit_phasors)

ENVELOPE_BOUND_SLACK = 1e-9
# modes x samples of one trajectory: 2^22 complex128 values are 67 MB
MAX_TRAJECTORY_VALUES = 2 ** 22


@dataclass(frozen=True)
class DriveConfig:
    """Electrode drive: frequency, voltage, forcing gain and phase layout."""

    drive_frequency: float
    peak_to_peak_voltage: float = 100.0
    force_per_volt: float = 1.0
    electrode_harmonic: int = 4
    phase_layout: str = "quadrature"    # "quadrature" | "single"

    def __post_init__(self):
        if self.drive_frequency <= 0.0:
            raise DomainError(
                f"drive_frequency must be positive, got {self.drive_frequency}")
        if self.peak_to_peak_voltage <= 0.0:
            raise DomainError(
                f"peak_to_peak_voltage must be positive, got "
                f"{self.peak_to_peak_voltage}")
        if self.force_per_volt < 0.0:
            raise DomainError(
                f"force_per_volt must be >= 0, got {self.force_per_volt}")
        if (self.electrode_harmonic < ELECTRODE_MIN_HARMONIC
                or int(self.electrode_harmonic) != self.electrode_harmonic):
            raise DomainError(
                f"electrode_harmonic must be an integer >= "
                f"{ELECTRODE_MIN_HARMONIC}, got {self.electrode_harmonic}")
        if self.phase_layout not in PHASE_LAYOUTS:
            raise DomainError(
                f"phase_layout must be {' or '.join(map(repr, PHASE_LAYOUTS))}, "
                f"got {self.phase_layout!r}")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.drive_frequency

    @property
    def period(self) -> float:
        return 1.0 / self.drive_frequency

    def modal_force(self, mode: Mode) -> complex:
        """Complex forcing phasor F with f(t) = Re[F e^{i w t}] for ``mode``.

        The electrode sectors force cos(n_d theta) (and, in quadrature
        layout, sin(n_d theta) with a 90 deg temporal lag), so only modes
        with n == electrode_harmonic pick up a projection.  The scalar is
        force_per_volt x (Vpp/2) x pi x Int W(r) r dr.
        """
        if mode.n != self.electrode_harmonic:
            return 0.0 + 0.0j
        amp = (self.force_per_volt * 0.5 * self.peak_to_peak_voltage
               * math.pi * mode.radial_moment())
        if mode.orientation == "cos":
            return amp + 0.0j
        if self.phase_layout == "single":
            return 0.0 + 0.0j
        return -1.0j * amp      # Re[-iF e^{iwt}] = F sin(wt)


def _mode_constants(basis: ModalBasis, drive: DriveConfig):
    """Per-mode (alpha, wd, Q, C) with from-rest initial data."""
    w = drive.omega
    w0 = np.array([m.omega for m in basis])
    zeta = np.array([basis.damping_for(m.n) for m in basis])
    alpha = zeta * w0
    wd = w0 * np.sqrt(1.0 - zeta * zeta)
    F = np.array([drive.modal_force(m) for m in basis], dtype=complex)
    den = w0 * w0 - w * w + 2.0j * zeta * w0 * w
    forced = F != 0.0
    if np.any(forced & (np.abs(den) == 0.0)):
        raise NumericalError(
            "undamped mode driven exactly at resonance has no steady state")
    # an overflowing drive is refused below, in one error, not warned about
    with np.errstate(all="ignore"):
        Q = np.where(np.abs(den) > 0.0, F / np.where(den == 0.0, 1.0, den), 0.0)
        # transient chosen so the physical state starts at rest:
        # Re[q(0)] = 0 and Re[q'(0)] = 0
        C = -Q.real + 1.0j * ((-w * Q.imag + alpha * Q.real) / wd)
    if not np.isfinite(np.stack([F, Q, C])).all():
        raise NumericalError(f"force_per_volt {drive.force_per_volt:g} "
                             "overflows the modal force or response")
    return alpha, wd, Q, C


@dataclass(frozen=True)
class ModalTrajectory:
    """The closed form Q e^{i w t} + C e^{(-alpha + i wd) t} per mode and
    its samples, which only ``probe`` reads: a plain record, holding no
    cache, so ``dataclasses.replace`` gives an equal one."""

    times: np.ndarray            # s, uniform, starting at 0
    q: np.ndarray                # complex, shape (n_modes, n_times)
    steady: np.ndarray           # complex steady-state phasor Q per mode
    transient: np.ndarray        # complex transient amplitude C per mode
    drive: DriveConfig
    alpha: np.ndarray = field(repr=False)
    wd: np.ndarray = field(repr=False)

    def state_at(self, t) -> np.ndarray:
        """Complex modal state at a time, or an array of times, inside the
        span (exact): shape (modes,), or (..., modes) for an array."""
        t = np.asarray(t, dtype=float)[..., None]
        lo, hi = self.times[0], self.times[-1]
        # a NaN instant fails both comparisons, so it is refused too
        outside = t[~((lo <= t) & (t <= hi * (1 + 1e-12)))]
        if outside.size:
            raise DomainError(
                f"time {outside[0]} outside trajectory span [{lo}, {hi}]")
        return (self.steady * np.exp(1.0j * self.drive.omega * t)
                + self.transient * np.exp((-self.alpha + 1.0j * self.wd) * t))

    def transient_fraction(self, t: float) -> float:
        """Largest transient left at ``t`` relative to the steady state.

        The maximum of |C_k| e^{-alpha_k t} / |Q_k| over the driven modes
        (Q_k != 0); 0 when no mode is driven.
        """
        driven = self.steady != 0.0
        left = (np.abs(self.transient[driven])
                * np.exp(-self.alpha[driven] * t))
        return float(np.max(left / np.abs(self.steady[driven]), initial=0.0))


def respond(basis: ModalBasis, drive: DriveConfig, duration: float,
            dt: float | None = None) -> ModalTrajectory:
    """Sample every retained mode from rest through ``duration`` seconds.

    The closed form Q e^{i w t} + C e^{(-alpha + i wd) t} is evaluated at
    every sample in one array expression, so accuracy is independent of
    dt; dt only sets the output sampling.  The classic-FEM accuracy guard
    dt <= 1/(20 f_max) is still enforced so downstream envelope and crest
    measurements stay well sampled.

    The decay e^{(-alpha + i wd) t} is evaluated once per distinct
    exponent: a cos/sin pair shares it.
    """
    if len(basis) == 0:
        raise DomainError("modal basis is empty")
    f_max = float(max(m.frequency for m in basis))
    bound = 1.0 / (20.0 * f_max)
    if dt is None:
        # 40 samples per drive cycle, tightened when a retained mode is
        # faster than twice the drive
        dt = min(1.0 / (40.0 * drive.drive_frequency), bound)
    if dt <= 0.0:
        raise TimeStepError(f"dt must be positive, got {dt}")
    if dt > bound:
        raise TimeStepError(
            f"dt = {dt:.3e} s exceeds the sampling bound 1/(20 f_max) = "
            f"{bound:.3e} s for the fastest retained mode ({f_max:.1f} Hz)")
    if duration < 5.0 * dt:
        raise TimeStepError(
            f"duration {duration:.3e} s must cover at least 5 steps of "
            f"dt = {dt:.3e} s")

    # a float, so that a ratio past the float range reads inf, not an error
    samples = np.rint(duration / dt) + 1
    if len(basis) * samples > MAX_TRAJECTORY_VALUES:
        raise TimeStepError(
            f"duration {duration:.3e} s at dt = {dt:.3e} s gives {samples:.0f} "
            f"samples of {len(basis)} modes, above the "
            f"{MAX_TRAJECTORY_VALUES} values a trajectory may hold; shorten "
            "the duration or raise dt")

    alpha, wd, Q, C = _mode_constants(basis, drive)
    times = dt * np.arange(int(samples))
    E = np.exp(1.0j * drive.omega * times)
    # undriven modes at rest stay exactly zero
    live = Q != 0.0
    exponents, row = np.unique(-alpha[live] + 1.0j * wd[live],
                               return_inverse=True)
    q_live = (Q[live, None] * E + C[live, None]
              * np.exp(np.outer(exponents, times))[row])

    # |q| <= |Q| + |C| e^{-alpha t}: any excursion past that is a bug (the
    # zero rows of dead modes cannot exceed it), and an overflowed sample
    # (inf or nan) fails the comparison too
    cap = np.abs(Q[live]) + np.abs(C[live])
    peak = np.abs(q_live).max(axis=1)
    if not np.all(np.isfinite(peak)
                  & (peak <= cap * (1.0 + ENVELOPE_BOUND_SLACK) + 1e-300)):
        raise NumericalError("modal amplitude is non-finite or exceeded its "
                             "analytic bound")
    q = np.zeros((len(basis), times.size), dtype=complex)
    q[live] = q_live
    return ModalTrajectory(times=times, q=q, steady=Q, transient=C,
                           drive=drive, alpha=alpha, wd=wd)


def settling_damping_ratio(t_settle: float, drive_frequency: float,
                           band: float = 0.05) -> float:
    """Damping ratio whose envelope settles into ``band`` at ``t_settle``.

    Closed form zeta = ln(1/band) / (t_settle * 2 pi f).  The engineering
    rule of thumb t ~= 4/(zeta w) is the band = 0.02 case (ln 50 = 3.91);
    the default band matches the +-5 percent criterion used by probe
    settling measurement, so simulated settling lands on ``t_settle``.
    """
    if t_settle <= 0.0 or drive_frequency <= 0.0:
        raise DomainError("t_settle and drive_frequency must be positive")
    if not 0.0 < band < 1.0:
        raise DomainError(f"band must be in (0, 1), got {band}")
    try:
        return math.log(1.0 / band) / (t_settle * 2.0 * math.pi * drive_frequency)
    except ZeroDivisionError:
        raise DomainError(
            f"t_settle {t_settle} s times drive_frequency {drive_frequency} Hz "
            "underflows to zero") from None


def _driven_mode(basis: ModalBasis, drive: DriveConfig) -> Mode:
    """The lowest cos mode of the driven harmonic."""
    found = basis.select(drive.electrode_harmonic, "cos")
    if not found:
        raise DomainError(
            f"harmonic n={drive.electrode_harmonic} not present in basis")
    return found[0]


def calibrate_force_per_volt(basis: ModalBasis, drive: DriveConfig,
                             target_amplitude: float, radius: float) -> float:
    """Forcing gain that yields ``target_amplitude`` at ``radius``.

    Uses the steady-state magnitude of the driven harmonic's lowest family
    at the drive frequency (not necessarily resonance), with the
    traveling-wave envelope W(r) |Q|.
    """
    if target_amplitude <= 0.0:
        raise DomainError(f"target amplitude must be positive, got {target_amplitude}")
    mode = _driven_mode(basis, drive)
    shape = float(mode.radial(radius))
    moment = mode.radial_moment()
    if abs(shape) < 1e-30 or abs(moment) < 1e-30:
        raise DomainError(
            f"mode shape vanishes at r={radius}; pick another calibration radius")
    w, w0 = drive.omega, mode.omega
    zeta = basis.damping_for(mode.n)
    den = math.hypot(w0 * w0 - w * w, 2.0 * zeta * w0 * w)
    needed_force = target_amplitude / abs(shape) * den
    try:
        return needed_force / (0.5 * drive.peak_to_peak_voltage * math.pi * moment)
    except ZeroDivisionError:
        raise DomainError(
            f"peak-to-peak voltage {drive.peak_to_peak_voltage} V underflows "
            "the drive force to zero") from None


def _render(basis: ModalBasis, grid, state: np.ndarray) -> np.ndarray:
    """sum_k state_k Phi_k at the masked samples of the grid, or its
    magnitude for a complex ``state``.

    Only modes with a non-zero state are evaluated, through the table the
    grid holds for them (with none live, an empty table gives zeros).  A
    complex state contracts its real and imaginary parts with the real
    shape table and takes the magnitude, so the table stays real.
    """
    live = np.flatnonzero(state)
    shapes = grid.shapes([basis.modes[k] for k in live])
    if np.iscomplexobj(state):
        re, im = np.stack([state[live].real, state[live].imag]) @ shapes
        return np.hypot(re, im, out=re)
    return state[live] @ shapes


def field_at(basis: ModalBasis, trajectory: ModalTrajectory, t: float,
             grid) -> DisplacementField:
    """Instantaneous displacement field: sum_k Re[q_k(t)] Phi_k at the
    masked samples of ``grid``."""
    samples = _render(basis, grid, trajectory.state_at(t).real)
    return DisplacementField(grid, samples, time=t)


def field_envelope(basis: ModalBasis, trajectory: ModalTrajectory,
                   grid) -> DisplacementField:
    """Steady-state vibration envelope |sum_k Q_k Phi_k| per sample, from
    the trajectory's steady phasors, stamped with its end time."""
    return DisplacementField(
        grid, _render(basis, grid, trajectory.steady),
        time=trajectory.times[-1])


def steady_envelope(basis: ModalBasis, drive: DriveConfig,
                    grid) -> DisplacementField:
    """Steady-state vibration envelope |sum_k Q_k Phi_k| under ``drive``.

    Equal, sample for sample, to ``field_envelope`` of any trajectory
    ``respond`` gives for the same basis and drive, without sampling one.
    """
    state = _mode_constants(basis, drive)[2]
    return DisplacementField(grid, _render(basis, grid, state))


def snapshot_at_strobe(basis: ModalBasis, trajectory: ModalTrajectory,
                       grid, strobe_deg: float, duty: float = 0.0
                       ) -> DisplacementField:
    """Displacement snapshot at a strobe phase of the drive cycle.

    The strobe fires ``strobe_deg`` electrical degrees into the last two
    drive cycles before the trajectory end, ``STROBE_SPAN_LIMIT_DEG`` wide
    (steady state by then for any sensible run length).  ``duty`` > 0
    averages 8 evenly spaced instants across the open window, modeling a
    finite strobe exposure, read in one ``state_at`` call; the default is
    the instantaneous (duty -> 0) model.  A window whose first instant
    precedes the run's start is refused, naming the config keys that set
    it.
    """
    if not 0.0 <= duty <= STROBE_DUTY_LIMIT:
        raise DomainError(
            f"strobe duty must be in [0, {STROBE_DUTY_LIMIT:g}], got {duty}")
    T = trajectory.drive.period
    t = (trajectory.times[-1] - (STROBE_SPAN_LIMIT_DEG / 360.0) * T
         + (strobe_deg / 360.0) * T)
    # the field is linear in the state: average the window's states and
    # render once; a closed window (duty 0) averages the single instant t,
    # and instants[0] is the window's first
    offsets = ((np.arange(STROBE_SUBSAMPLES) + 0.5) / STROBE_SUBSAMPLES - 0.5
               if duty else np.zeros(1))
    instants = t + offsets * duty * T
    if instants[0] < trajectory.times[0]:
        raise DomainError(
            f"the strobe window at {strobe_deg:g} deg opens at "
            f"{instants[0]:.6g} s, before the run starts: drive.duration is "
            "too short for analysis.strobe_phases_deg and optics.strobe_duty")
    state = np.mean(trajectory.state_at(instants).real, axis=0)
    return DisplacementField(grid, _render(basis, grid, state), time=t)


@dataclass(frozen=True)
class ProbeSeries:
    """Time history of one surface point plus its settling summary."""

    point: tuple                 # (r, theta)
    times: np.ndarray
    displacement: np.ndarray     # m
    envelope: np.ndarray         # m
    steady_amplitude: float      # m
    settling_time: float         # s, inf if never settled in the run


def probe(basis: ModalBasis, trajectory: ModalTrajectory, points,
          band: float = 0.05) -> list:
    """Sample the response at fixed (r, theta) points.

    Only the rows whose Q or C is non-zero are evaluated, the driven rows
    ``respond`` fills: their shapes at every point form one table,
    contracted with the real and imaginary parts of the state.  Settling
    time per point is the first instant after which the envelope stays
    within ``band`` (default +-5 percent) of the steady amplitude.
    """
    points = [(r, th) for r, th in points]
    r, theta = np.array(points, dtype=float).reshape(-1, 2).T
    rim = max(m.outer_radius for m in basis)
    outside = r[~((0.0 <= r) & (r <= rim * (1 + 1e-12)))]
    if outside.size:
        raise DomainError(f"probe point r={outside[0]} outside the stator "
                          f"(rim {rim:.6g} m)")
    live = (trajectory.steady != 0.0) | (trajectory.transient != 0.0)
    modes = [m for m, on in zip(basis, live) if on]
    shapes = radial_shapes(modes, r)
    angular_patterns(modes, unit_phasors(theta), shapes)
    q, steady = trajectory.q[live], trajectory.steady[live]
    disp = shapes.T @ q.real
    # np.abs of the complex series, not np.hypot: their last bits differ,
    # and the settling times read them
    env = np.abs(disp + 1j * (shapes.T @ q.imag))
    amp = np.hypot(shapes.T @ steady.real, shapes.T @ steady.imag).tolist()
    times = trajectory.times
    return [ProbeSeries(p, times, d, e, a, _settling_time(times, e, a, band))
            for p, d, e, a in zip(points, disp, env, amp)]


def _settling_time(times: np.ndarray, envelope: np.ndarray,
                   steady: float, band: float) -> float:
    if steady < 1e-18:
        return 0.0
    outside = np.abs(envelope - steady) > band * steady
    if outside[-1]:
        return math.inf
    if not outside.any():
        return 0.0
    i = int(np.nonzero(outside)[0][-1])      # last excursion
    # linear crossing between samples i and i+1
    e0 = abs(envelope[i] - steady) - band * steady
    e1 = abs(envelope[i + 1] - steady) - band * steady
    frac = e0 / (e0 - e1) if e0 != e1 else 1.0
    return float(times[i] + frac * (times[i + 1] - times[i]))


@dataclass(frozen=True)
class ExternalMode:
    """A resonance outside the out-of-plane basis (e.g. a lateral mode).

    ``shape`` renders the pattern for comparison images only; the
    ``lateral_mode_proxy`` shape is explicitly non-physical (no in-plane
    mechanics are solved).
    """

    frequency: float
    shape: object                        # callable (r, theta) -> value
    damping_ratio: float = 0.02

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise DomainError(f"frequency must be positive, got {self.frequency}")
        if not 0.0 < self.damping_ratio < 1.0:
            raise DomainError(
                f"damping_ratio must be in (0, 1), got {self.damping_ratio}")
        if self.shape is None:
            raise DomainError("ExternalMode needs a shape callable; "
                              "see lateral_mode_proxy()")


def lateral_mode_proxy(inner_radius: float, outer_radius: float,
                       lobes: int = 6):
    """Out-of-plane rendering stand-in for an in-plane (lateral) mode.

    A radial ramp times cos(lobes theta + pi/2): it reproduces the lobe
    count and the quarter-lobe angular offset against the flexural cosine
    family, nothing more.  Intended only for mixed-pattern comparisons.
    """
    span = outer_radius - inner_radius
    if span <= 0.0:
        raise DomainError("outer_radius must exceed inner_radius")

    def shape(r, theta):
        ramp = np.clip((np.asarray(r, dtype=float) - inner_radius) / span,
                       0.0, 1.0)
        return ramp * np.cos(lobes * np.asarray(theta, dtype=float) + np.pi / 2)

    return shape


def lorentzian_weight(resonance_hz: float, zeta: float, drive_hz: float) -> float:
    """Steady-state magnitude gain 1/sqrt((w0^2-w^2)^2 + (2 zeta w0 w)^2)."""
    w0 = 2.0 * math.pi * resonance_hz
    w = 2.0 * math.pi * drive_hz
    return 1.0 / math.hypot(w0 * w0 - w * w, 2.0 * zeta * w0 * w)


@dataclass(frozen=True)
class MixedResponse:
    """Weighted two-resonance superposition snapshot."""

    field: DisplacementField
    modal_weight: float
    external_weight: float


def mixed_response(basis: ModalBasis, external: ExternalMode,
                   drive: DriveConfig, grid) -> MixedResponse:
    """Superpose the driven flexural mode and an external resonance.

    Each pattern is normalized to unit peak, then blended with the two
    Lorentzian magnitudes at the drive frequency (weights normalized to
    sum 1 so the output stays an O(1) comparison pattern, not meters).
    """
    mode = _driven_mode(basis, drive)
    w_m = lorentzian_weight(mode.frequency, basis.damping_for(mode.n),
                            drive.drive_frequency)
    w_e = lorentzian_weight(external.frequency, external.damping_ratio,
                            drive.drive_frequency)
    pats = (grid.shapes((mode,))[0], np.array(
        external.shape(grid.r[grid.mask], grid.theta[grid.mask]), dtype=float))
    peaks = [np.max(np.abs(p)) for p in pats]
    if any(peak < 1e-300 for peak in peaks):
        raise NumericalError("degenerate (all-zero) pattern in mixed response")
    # into new arrays: the grid's table is read-only
    pat_m, pat_e = (p / peak for p, peak in zip(pats, peaks))
    total = w_m + w_e
    samples = (w_m * pat_m + w_e * pat_e) / total
    return MixedResponse(field=DisplacementField(grid, samples),
                         modal_weight=w_m, external_weight=w_e)
