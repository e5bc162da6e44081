"""Quantitative pipeline: circle sampling, mode identification,
sinusoid fitting and strobe-phase tracking.

A ``CircleSample`` holds uniform angles over the whole circle (spacing
times count is 2 pi), so the harmonic detection is one ``rfft``.  The
central fit is f(theta) = A sin(n theta + phi) + delta, linear in its
reparametrization a sin(n theta) + b cos(n theta) + delta.  Over the
whole uniform circle, and with at least 2n + 2 samples (so bin n is
neither bin 0 nor the Nyquist bin), sin(n theta), cos(n theta) and 1 are
orthogonal: the least-squares fit is read from one ``rfft`` of the
sample, and its residual and covariance have closed forms.

A strobe-phase sweep is classified by three constants: a traveling wave
has an amplitude CV below ``CV_THRESHOLD`` and a phase slope within
``SLOPE_TOLERANCE`` of one; a standing wave has phases within
``PHASE_TOLERANCE_DEG`` of their mod-pi mean.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (RING_SAMPLES_PER_HARMONIC, STROBE_STEP_LIMIT_DEG,
                     DomainError, NoModeError, SamplingError,
                     UndefinedIndexError)
from .grids import DisplacementField, circle_values

AMPLITUDE_FLOOR = 1e-15     # m; below this a fitted sinusoid has no phase
CV_THRESHOLD = 0.05         # traveling: amplitude std / mean below this
SLOPE_TOLERANCE = 0.10      # traveling: | |d phi / d strobe| - 1 | at most this
PHASE_TOLERANCE_DEG = 5.0   # standing: phase spread around mod-pi mean, deg


@dataclass(frozen=True)
class CircleSample:
    """Values sampled at uniform angles around one circle."""

    radius: float
    theta: np.ndarray
    values: np.ndarray
    source: str = "simulation"      # "simulation" | "hologram"

    def __post_init__(self):
        # stored as float64 arrays, so a list sample fits like its array
        for name in ("theta", "values"):
            given = np.asarray(getattr(self, name))
            if np.iscomplexobj(given):
                raise DomainError(f"complex {name}; a circle sample is real")
            object.__setattr__(self, name, np.asarray(given, dtype=np.float64))
        th = self.theta
        if th.ndim != 1 or th.size < 4:
            raise SamplingError(f"need at least 4 angular samples, got {th.size}")
        if np.any(np.diff(th) <= 0.0):
            raise SamplingError("theta samples must be strictly increasing")
        if th[0] < 0.0 or th[-1] >= 2.0 * math.pi:
            raise SamplingError("theta samples must lie in [0, 2 pi)")
        spacing = np.diff(th)
        if np.ptp(spacing) > 1e-9 * spacing.mean():
            raise SamplingError("theta samples must be uniform")
        if abs(spacing.mean() * th.size - 2.0 * math.pi) > 1e-9 * 2.0 * math.pi:
            raise SamplingError("theta samples must cover the whole circle")
        if self.values.shape != th.shape:
            raise SamplingError("values and theta shapes differ")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("non-finite sample values")

    @property
    def count(self) -> int:
        return self.theta.size

    @classmethod
    def from_field(cls, fld: DisplacementField, source: str = "simulation"
                   ) -> "CircleSample":
        """The circle of a ring field; a raster must be unwrapped first."""
        theta, vals = circle_values(fld)
        return cls(radius=float(fld.grid.radius), theta=theta, values=vals,
                   source=source)


def detect_mode_number(sample: CircleSample) -> int:
    """Dominant circumferential harmonic of the centered sample.

    Candidates run up to count // ``RING_SAMPLES_PER_HARMONIC`` (eight
    samples per lobe pair keeps the projection honest); exact ties resolve
    to the lower harmonic because the scan ascends.  Over the whole uniform
    circle the projection onto e^{-i k theta} is the DFT bin k up to a unit
    phase factor, so one ``rfft`` gives every candidate's magnitude.
    """
    n_max = sample.count // RING_SAMPLES_PER_HARMONIC
    if n_max < 1:
        raise SamplingError(
            f"{sample.count} samples cannot resolve any harmonic "
            f"(need at least {RING_SAMPLES_PER_HARMONIC})")
    centered = sample.values - sample.values.mean()
    rms = float(np.sqrt(np.mean(centered ** 2)))
    if rms < 1e-300:
        raise NoModeError("sample is constant; no harmonic content")
    coeff = np.abs(np.fft.rfft(centered)[1:n_max + 1]) * (2.0 / sample.count)
    best = int(np.argmax(coeff))
    if coeff[best] < 1e-9 * rms:
        raise NoModeError(
            f"all harmonic coefficients below the noise floor "
            f"({coeff[best]:.3e} vs rms {rms:.3e})")
    return best + 1


@dataclass(frozen=True)
class FitResult:
    """Parameters of f = A sin(n theta + phi) + delta plus fit quality.

    ``covariance`` holds the diagonal variances in (A, n, phi, delta)
    order; n is fixed by the caller so its entry is identically zero.
    """

    A: float
    n: int
    phi: float
    delta: float
    rms_residual: float
    covariance: tuple

    def __post_init__(self):
        if self.A < 0.0:
            raise DomainError("amplitude convention requires A >= 0")
        if not -math.pi < self.phi <= math.pi:
            raise DomainError("phi must be normalized to (-pi, pi]")


def fit_eq1(sample: CircleSample, n: int) -> FitResult:
    """Least-squares sinusoid fit at a known harmonic, from one ``rfft``.

    With F the rfft of the N values and theta_0 the first angle,
    c = (2/N) F[n] e^{-i n theta_0} = b - i a and delta = F[0] / N, so
    A = sqrt(a^2+b^2) and phi = atan2(b, a).  The residual is the power
    in every bin but 0 and +-n (Parseval; rfft bins 1 .. ceil(N/2)-1
    stand for their mirror bins too), summed rather than subtracted from
    the total so it does not cancel.  With sigma^2 = N rms^2 / (N - 3),
    var delta = sigma^2 / N and var a = var b = var A = 2 sigma^2 / N.
    When A falls below the amplitude floor the phase is reported as 0 by
    convention.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"harmonic n must be an integer >= 1, got {n}")
    need = max(4, 2 * n + 2)
    count = sample.count
    if count < need:
        raise SamplingError(
            f"{count} samples under-resolve n={n} "
            f"(need at least {need})")
    F = np.fft.rfft(sample.values)
    c = F[n] * (2.0 / count) * cmath.exp(-1j * n * sample.theta[0])
    a, b, d = -c.imag, c.real, float(F[0].real) / count
    power = np.abs(F) ** 2
    power[0] = power[n] = 0.0
    mirrored = (count + 1) // 2
    sumsq = 2.0 * float(power[1:mirrored].sum()) + float(power[mirrored:].sum())
    rms_residual = math.sqrt(sumsq) / count
    A = math.hypot(a, b)
    phi = math.atan2(b, a)
    if phi <= -math.pi:
        phi = math.pi

    var_d = rms_residual ** 2 / (count - 3)
    var_A = 2.0 * var_d
    floor = max(AMPLITUDE_FLOOR, 1e-12 * max(abs(d), rms_residual))
    if A < floor:
        phi = 0.0
        var_phi = 0.0
    else:
        var_phi = var_A / A ** 2
    return FitResult(A=A, n=int(n), phi=phi, delta=d,
                     rms_residual=rms_residual,
                     covariance=(var_A, 0.0, var_phi, var_d))


@dataclass(frozen=True)
class StrobeTrack:
    """Traveling/standing classification across strobe phases."""

    classification: str          # "traveling" | "standing" | "mixed"
    rotation_rate: float         # spatial deg per strobe deg, signed
    standing_wave_ratio: float   # max A / min A over strobe phases
    n: int
    amplitude_cv: float
    phase_spread_deg: float      # deviation of phi around its mod-pi mean


def _mod_pi_spread(phi: np.ndarray) -> float:
    """Largest deviation (deg) of the phases from their mod-pi mean."""
    mean_dir = 0.5 * np.angle(np.mean(np.exp(2.0j * phi)))
    dev = np.angle(np.exp(2.0j * (phi - mean_dir))) / 2.0
    return float(np.degrees(np.max(np.abs(dev))))


def track_strobe_phase(fits) -> StrobeTrack:
    """Classify a strobe-phase sweep of sinusoid fits.

    Traveling: amplitude steady (CV below ``CV_THRESHOLD``) and phase
    advancing one electrical radian per strobe radian within
    ``SLOPE_TOLERANCE`` (spatial rate = slope/n; the sign just encodes the
    travel direction).  Standing: phase locked modulo pi flips (within
    ``PHASE_TOLERANCE_DEG``) and squared amplitude tracing a sinusoid in
    twice the strobe phase.  Anything else is mixed.
    """
    fits = sorted(fits, key=lambda item: item[0])
    distinct = sorted({deg for deg, _ in fits})
    if len(distinct) < 3:
        raise SamplingError(
            f"need at least 3 distinct strobe phases, got {len(distinct)}")
    widest = float(np.max(np.diff(distinct)))
    if widest >= STROBE_STEP_LIMIT_DEG:
        raise SamplingError(
            f"consecutive strobe phases {widest:g} deg apart; the phase "
            f"unwrap needs steps below {STROBE_STEP_LIMIT_DEG:g} deg")
    ns = {f.n for _, f in fits}
    if len(ns) != 1:
        raise DomainError(f"fits mix harmonics {sorted(ns)}")
    n = ns.pop()
    s = np.radians([deg for deg, _ in fits])
    A = np.array([f.A for _, f in fits])
    phi = np.unwrap([f.phi for _, f in fits])

    mean_A = float(A.mean())
    cv = float(A.std() / mean_A) if mean_A > 0.0 else math.inf
    slope = float(np.polyfit(s, phi, 1)[0])
    rate = slope / n
    swr = float(A.max() / A.min()) if A.min() > 0.0 else math.inf

    spread = _mod_pi_spread(np.asarray(phi))
    # squared amplitude of a standing sweep is sinusoidal at 2 s
    Y = np.column_stack([np.ones_like(s), np.cos(2 * s), np.sin(2 * s)])
    fitted = Y @ np.linalg.lstsq(Y, A ** 2, rcond=None)[0]
    a2_scale = float(np.sqrt(np.mean((A ** 2) ** 2)))
    a2_miss = (float(np.sqrt(np.mean((A ** 2 - fitted) ** 2))) / a2_scale
               if a2_scale > 0.0 else 0.0)

    if cv < CV_THRESHOLD and abs(abs(slope) - 1.0) <= SLOPE_TOLERANCE:
        kind = "traveling"
    elif spread <= PHASE_TOLERANCE_DEG and a2_miss < 0.1:
        kind = "standing"
    else:
        kind = "mixed"
    return StrobeTrack(classification=kind, rotation_rate=rate,
                       standing_wave_ratio=swr, n=n, amplitude_cv=cv,
                       phase_spread_deg=spread)


def asymmetry_index(fits) -> float:
    """Worst residual-to-amplitude ratio across strobe phases.

    Zero for a pure single-harmonic pattern; grows with any foreign
    harmonic content (e.g. a manufacturing-defect admixture).
    """
    items = list(fits)
    if len(items) < 2:
        raise SamplingError(f"need at least 2 strobe phases, got {len(items)}")
    ratios = []
    for _, f in items:
        if f.A < AMPLITUDE_FLOOR:
            raise UndefinedIndexError(
                f"fitted amplitude {f.A:.3e} m below {AMPLITUDE_FLOOR:g} m; "
                "residual ratio is undefined")
        ratios.append(f.rms_residual / f.A)
    return float(max(ratios))
