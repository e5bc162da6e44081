"""Synthetic holographic observables.

Two instrument models, both per-pixel maps of dynamics fields:

* time-averaged exposure of a vibrating surface: intensity follows
  J0(k a)^2 where a is the local vibration amplitude and k the
  interferometric sensitivity (4 pi / lambda for normal illumination and
  observation), so nodal lines render brightest;
* stroboscopic double exposure: the wrapped phase of k times the
  displacement difference between two strobe instants of the drive cycle.

Both work on the masked samples only, mostly in place, and keep the
result as masked samples: a ``FringeImage`` or ``PhaseMap`` stores one
value per masked sample, in ``r[mask]`` order, and forms a raster
(``intensity``, ``phase``, zeros off the mask) only when a caller reads
one, such as a file writer or the raster unwrap's bilinear stencil.
Phase noise is still drawn over the whole raster and then masked, so a
seeded generator gives the same map.

J0 is computed in numpy by ``_j0``.  Below x = 50 it sums a degree-5
Taylor series about the nearest node of a table with spacing 1/128.  The
table holds J0 and J1 at each node, from the midpoint trapezoid rule on
(1/pi) int_0^pi cos(x sin t) dt and its J1 analogue, which converges
exponentially for periodic integrands (Trefethen & Weideman, SIAM Review
56, 2014).  The higher Taylor coefficients follow from the Bessel
equation.  From x = 50 up it uses Hankel's asymptotic expansion, five
terms in each of P and Q.  Both ranges agree with Cephes' j0 (the one
``scipy.special`` ships) to about 1e-15.

Unwrapping is deliberately one-dimensional along closed circles (the
downstream pipeline samples circles anyway); no 2-D unwrap is attempted.
A ring map unwraps as it is.  A raster map is first sampled along one
circle of the annulus, bilinearly from the four pixels around each
sample; this module is the only one that samples a raster off its pixels.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import J0_FIRST_ZERO, STROBE_DUTY_LIMIT, DomainError, UnwrapError
from .grids import (DisplacementField, MaskedRecord, RasterGrid, RingGrid,
                    require_same_grid)


@dataclass(frozen=True)
class OpticalConfig:
    """Laser wavelength, interferometric sensitivity and strobe settings."""

    wavelength: float = 532e-9
    sensitivity_factor: float | None = None   # rad/m, defaults to 4 pi / lambda
    strobe_duty: float = 0.05
    amplitude_clip: float = 2e-6               # m, guards the J0 argument
    noise_sigma: float = 0.0                   # rad, additive phase noise

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength}")
        if self.sensitivity_factor is None:
            object.__setattr__(self, "sensitivity_factor",
                               4.0 * math.pi / self.wavelength)
        # 4 pi / lambda is inf for a subnormal wavelength
        if not 0.0 < self.sensitivity_factor < math.inf:
            raise DomainError(
                "sensitivity_factor must be positive and finite, got "
                f"{self.sensitivity_factor}")
        if not 0.0 < self.strobe_duty <= STROBE_DUTY_LIMIT:
            raise DomainError(f"strobe_duty must be in (0, {STROBE_DUTY_LIMIT:g}], "
                              f"got {self.strobe_duty}")
        if self.amplitude_clip <= 0.0:
            raise DomainError(
                f"amplitude_clip must be positive, got {self.amplitude_clip}")
        if self.noise_sigma < 0.0:
            raise DomainError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class FringeImage(MaskedRecord):
    """Time-averaged fringe intensity in [0, 1] at the masked samples."""

    def __post_init__(self):
        super().__post_init__()
        s = self.samples
        # written so that a NaN fails it too
        if s.size and not (s.min() >= 0.0 and s.max() <= 1.0):
            raise DomainError("fringe intensity outside [0, 1] or not finite")

    intensity = property(MaskedRecord._raster)


@dataclass(frozen=True)
class PhaseMap(MaskedRecord):
    """Wrapped stroboscopic phase in (-pi, pi] at the masked samples, with
    its strobe instants."""

    strobe_phase_a: float      # degrees of the electrical cycle
    strobe_phase_b: float

    def __post_init__(self):
        super().__post_init__()
        s = self.samples
        # written so that a NaN (noise draws that overflowed) fails it too
        if s.size and not (s.min() > -math.pi and s.max() <= math.pi):
            raise DomainError("wrapped phase outside (-pi, pi] or not finite")

    phase = property(MaskedRecord._raster)


def wrap_phase(x):
    """Map radians into the principal interval (-pi, pi]."""
    return _wrap_in_place(np.array(x, dtype=float))[()]


def _wrap_in_place(w: np.ndarray) -> np.ndarray:
    """``wrap_phase`` of a float array, computed in its own storage."""
    w -= np.pi
    # np.mod(w, -2 pi) is w itself for -2 pi < w < 0, so only the samples
    # outside that range (few, for a phase map) pay for the slow np.mod
    outside = (w <= -2.0 * np.pi) | (w >= 0.0)
    w[outside] = np.mod(w[outside], -2.0 * np.pi)
    w += np.pi
    # np.mod rounds to -2 pi for the float just above an odd multiple of pi
    w[w == -np.pi] = np.pi
    return w


_J0_NODES = 128          # Taylor table nodes per unit of x
_J0_DEGREE = 5
_J0_SPLIT = 50.0         # Taylor table below, Hankel expansion from here up
_J0_BLOCK = 512          # table nodes evaluated at once
# Hankel's P and Q for order 0 in powers of 1/x^2 (Abramowitz & Stegun 9.2.9-10)
_J0_P = (1.0, -9 / 128, 3675 / 32768, -2401245 / 4194304,
         13043905875 / 2147483648)
_J0_Q = (-1 / 8, 75 / 1024, -59535 / 262144, 57972915 / 33554432,
         -418854310875 / 17179869184)


@functools.cache
def _j0_table() -> np.ndarray:
    """Taylor coefficients of J0 about x_j = j / _J0_NODES, j = 0 .. the
    split, in powers of u = 128 (x - x_j); shape (_J0_DEGREE + 1, nodes)."""
    x = np.arange(round(_J0_SPLIT * _J0_NODES) + 1) / _J0_NODES
    # 32 midpoints on [0, pi/2] are the 64-point rule on the symmetric [0, pi]
    s = np.sin((np.arange(32) + 0.5) * (math.pi / 64))
    c = np.empty((_J0_DEGREE + 1, x.size))
    # in blocks of nodes, so no (nodes, 32) array is held; each node's mean
    # and dot product are the same whatever block it falls in
    for start in range(0, x.size, _J0_BLOCK):
        part = slice(start, start + _J0_BLOCK)
        xs = np.multiply.outer(x[part], s)
        c[0, part] = np.cos(xs).mean(axis=1)         # J0
        c[1, part] = -(np.sin(xs) @ s) / 32          # J0' = -J1
    # x y'' + y' + x y = 0 differentiated k times, in Taylor coefficients:
    # x (k+1)(k+2) c[k+2] = -((k+1)^2 c[k+1] + x c[k] + c[k-1])
    xp, before = x[1:], 0.0
    for k in range(_J0_DEGREE - 1):
        c[k + 2, 1:] = -((k + 1) ** 2 * c[k + 1, 1:] + xp * c[k, 1:]
                         + before) / (xp * (k + 1) * (k + 2))
        before = c[k, 1:]
    c[:, 0] = (1.0, 0.0, -1 / 4, 0.0, 1 / 64, 0.0)   # the series at 0
    c /= float(_J0_NODES) ** np.arange(_J0_DEGREE + 1)[:, None]
    c.setflags(write=False)                      # shared by every caller
    return c


def _j0_far(x: np.ndarray) -> np.ndarray:
    t = 1.0 / (x * x)
    p = q = 0.0
    for a, b in zip(reversed(_J0_P), reversed(_J0_Q)):
        p = p * t + a
        q = q * t + b
    # x - pi/4 rounded in double, as Cephes forms it: at x = 1e6 that
    # rounding moves J0 by about 4e-14, and the two stay in step
    chi = x - math.pi / 4
    return (p * np.cos(chi) - q / x * np.sin(chi)) * (
        math.sqrt(2 / math.pi) / np.sqrt(x))


def _j0(x) -> np.ndarray:
    """Bessel J0 of an array of finite x >= 0 (``J0(0) == 1.0`` exactly)."""
    x = np.asarray(x, dtype=float)
    xs = np.minimum(x, _J0_SPLIT)
    xs *= _J0_NODES
    j = (xs + 0.5).astype(np.intp)               # nearest table node
    u = np.subtract(xs, j, out=xs)               # exact, |u| <= 1/2
    c = _j0_table()
    out = np.take(c[_J0_DEGREE], j)
    term = np.empty_like(out)
    for k in range(_J0_DEGREE - 1, -1, -1):
        out *= u
        # j is in range; "clip" lets take write to term unbuffered
        out += np.take(c[k], j, out=term, mode="clip")
    far = x >= _J0_SPLIT
    if far.any():
        out[far] = _j0_far(x[far])
    return out


def time_averaged(amplitude_field: DisplacementField,
                  optics: OpticalConfig) -> FringeImage:
    """Render the J0^2 fringe image of a vibration-envelope field.

    Zero amplitude maps to intensity 1.0 (the bright nodal lines).  The
    amplitude enters through |a|, so a sign flip of the field changes
    nothing.  Amplitudes beyond ``optics.amplitude_clip`` are clipped with
    a warning instead of erroring.
    """
    a = np.abs(amplitude_field.samples, dtype=float)
    if np.any(a > optics.amplitude_clip):
        warnings.warn(
            f"amplitudes above {optics.amplitude_clip:g} m clipped in "
            "time-averaged rendering", RuntimeWarning, stacklevel=2)
        np.minimum(a, optics.amplitude_clip, out=a)
    a *= optics.sensitivity_factor
    fringe = _j0(a)
    return FringeImage(amplitude_field.grid, np.square(fringe, out=fringe))


def first_dark_fringe_amplitude(optics: OpticalConfig) -> float:
    """Vibration amplitude of the innermost dark time-averaged fringe.

    The first zero of J0 divided by the sensitivity factor; 101.8 nm for
    532 nm in the default reflection geometry.
    """
    return J0_FIRST_ZERO / optics.sensitivity_factor


def stroboscopic(field_a: DisplacementField, field_b: DisplacementField,
                 optics: OpticalConfig, strobe_phases=(0.0, 0.0),
                 rng: np.random.Generator | None = None) -> PhaseMap:
    """Wrapped phase of the displacement difference between two strobes.

    Swapping the two fields negates the phase (mod 2 pi).  With
    ``optics.noise_sigma`` > 0 an additive Gaussian phase noise is drawn
    from ``rng`` before wrapping (pass a seeded generator for
    reproducibility; required when the noise model is on).
    """
    require_same_grid(field_a.grid, field_b.grid, "stroboscopic")
    mask = field_a.grid.mask
    raw = np.subtract(field_b.samples, field_a.samples, dtype=float)
    raw *= optics.sensitivity_factor
    if optics.noise_sigma > 0.0:
        if rng is None:
            raise DomainError(
                "noise_sigma > 0 needs an explicit seeded rng for "
                "reproducible output")
        # drawn over the whole raster, so the seeded stream stays the same
        raw += rng.normal(0.0, optics.noise_sigma, size=mask.shape)[mask]
    return PhaseMap(field_a.grid, _wrap_in_place(raw),
                    strobe_phase_a=float(strobe_phases[0]),
                    strobe_phase_b=float(strobe_phases[1]))


def _unwrap_closed(phases: np.ndarray, where: str) -> np.ndarray:
    """Cumulative 1-D unwrap around a closed uniform circle.

    The wrapped sample-to-sample differences must sum to zero winding
    around the loop (a single-valued displacement field guarantees it);
    a nonzero winding means the sampling is too coarse or the data are
    inconsistent, and is reported rather than silently absorbed.
    """
    diffs = wrap_phase(np.diff(phases, append=phases[:1]))
    winding = diffs.sum() / (2.0 * math.pi)
    if abs(winding - round(winding)) > 1e-6:
        raise UnwrapError(
            f"non-integer winding {winding:.3e} on {where}; wrapped input "
            "is not self-consistent")
    if round(winding) != 0:
        raise UnwrapError(
            f"closure failure on {where}: winding number {int(round(winding))} "
            "(sampling too coarse for the phase gradient)")
    u = np.empty_like(phases)
    u[0] = phases[0]
    u[1:] = phases[0] + np.cumsum(diffs[:-1])
    # the 2 pi branch of the whole circle is unobservable; take the one
    # with the smallest mean magnitude (pistonless convention)
    u -= 2.0 * math.pi * round(float(u.mean()) / (2.0 * math.pi))
    return u


def _bilinear_stencil(grid: RasterGrid, r, theta):
    """Bilinear stencil of a raster at polar points.

    Returns ``(rows, cols, fr, fc)``: ``values[rows, cols]`` stacks the
    four corner pixels of each point on a new leading axis, in the order
    (r0, c0), (r0, c0 + 1), (r0 + 1, c0), (r0 + 1, c0 + 1), and ``fr``,
    ``fc`` are the point's fractional offsets from its (r0, c0) corner.
    """
    x = r * np.cos(theta)
    y = r * np.sin(theta)
    half = grid.extent
    step = 2.0 * half / grid.pixels
    # fractional pixel indices; rows count downward from +y
    col = (x + half) / step - 0.5
    row = (half - y) / step - 0.5
    c0 = np.clip(np.floor(col).astype(int), 0, grid.pixels - 2)
    r0 = np.clip(np.floor(row).astype(int), 0, grid.pixels - 2)
    fc = np.clip(col - c0, 0.0, 1.0)
    fr = np.clip(row - r0, 0.0, 1.0)
    rows = np.stack([r0, r0, r0 + 1, r0 + 1])
    cols = np.stack([c0, c0 + 1, c0, c0 + 1])
    return rows, cols, fr, fc


def _bilinear_blend(corners: np.ndarray, fr, fc) -> np.ndarray:
    """Interpolate stacked corner values with the stencil's offsets."""
    v00, v01, v10, v11 = corners
    return ((1 - fr) * ((1 - fc) * v00 + fc * v01)
            + fr * ((1 - fc) * v10 + fc * v11))


def _raster_ring(grid: RasterGrid, radius: float | None,
                 count: int | None) -> RingGrid:
    """The ring of ``count`` (default 360) uniform angles at ``radius``
    along which a raster is sampled; the radius must lie in the annulus."""
    if radius is None:
        raise DomainError("raster grids need an explicit circle radius")
    if not grid.inner_radius <= radius <= grid.outer_radius:
        raise DomainError(
            f"circle radius {radius} outside annulus "
            f"[{grid.inner_radius}, {grid.outer_radius}]")
    return RingGrid(radius=radius, count=360 if count is None else count)


def unwrap_to_displacement(pmap: PhaseMap, optics: OpticalConfig,
                           radius: float | None = None,
                           count: int | None = None) -> DisplacementField:
    """Displacement difference along a closed circle of the phase map.

    Ring-grid maps unwrap in place; a ``radius`` or ``count`` given with
    one must be the ring's own.  Raster maps need a ``radius`` and are
    sampled at ``count`` (default 360) uniform angles as interpolated
    phasors (interpolating cos/sin rather than the wrapped angle keeps
    branch cuts out of the interpolation); the phasor is formed only at
    the pixels the bilinear stencil reads.  Returns the difference field
    in meters on a ring grid.
    """
    grid = pmap.grid
    if isinstance(grid, RingGrid):
        if radius is not None and not np.isclose(radius, grid.radius,
                                                 rtol=1e-9, atol=0.0):
            raise DomainError(
                f"ring grid holds radius {grid.radius}, asked for {radius}")
        if count is not None and count != grid.count:
            raise DomainError(
                f"ring grid holds {grid.count} samples, asked for {count}")
        ring, sampled = grid, pmap.samples
    elif isinstance(grid, RasterGrid):
        ring = _raster_ring(grid, radius, count)
        rows, cols, fr, fc = _bilinear_stencil(grid, ring.r, ring.theta)
        # the one raster an exposure forms: off-mask corners read 0
        corners = pmap.phase[rows, cols]
        coss = _bilinear_blend(np.cos(corners), fr, fc)
        sins = _bilinear_blend(np.sin(corners), fr, fc)
        sampled = np.arctan2(sins, coss)
        sampled[sampled <= -math.pi] = math.pi
    else:
        raise DomainError(f"unsupported grid kind {type(grid).__name__}")
    u = _unwrap_closed(sampled, f"ring r={ring.radius:.6g} m")
    return DisplacementField(ring, u / optics.sensitivity_factor)
