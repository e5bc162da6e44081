"""Sampling grids and displacement fields.

Both grid flavors inherit one sample surface from ``_Samples`` and fill
it in one routine.  It stores the per-sample ``mask``; ``radii``, the
distinct radii of the masked samples in ascending order (from
``np.unique``); ``radius_index``, each masked sample's position in it, so
``radii[radius_index]`` is ``r[mask]`` and a function of the radius alone
is evaluated once per distinct radius; and ``unit``, e^{i theta} at each
masked sample, from ``np.cos`` and ``np.sin`` of ``theta[mask]``, from
which ``modal`` forms every angular pattern cos(n theta), sin(n theta) by
complex powering.  The full-sample ``r`` and ``theta`` are not stored:
each is a property that recomputes the grid's expression on every read.
None of these arrays take part in equality, hashing or ``describe()``;
two grids are the same grid when their defining fields are equal, which
is the test ``require_same_grid`` applies and the key a trajectory's
shape tables use.  Each flavor also has ``shape`` and a ``describe()``
metadata dict:

* ``RasterGrid``: a square camera-style image in Cartesian pixel layout,
  with polar coordinates per pixel and an annulus validity mask.  This is what the fringe images render on.
* ``RingGrid``: a single circle of uniform angular samples at a fixed
  radius.  The quantitative pipeline (strobe difference, unwrap, fit)
  runs on rings, where circular sampling is exact rather than
  interpolated.

A ``DisplacementField`` pairs one grid with per-sample out-of-plane
displacement in meters; samples where ``grid.mask`` is False carry no
physical meaning and stay flagged rather than silently zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (RASTER_MIN_MARGIN, RASTER_MIN_PIXELS, RING_MIN_COUNT,
                     DomainError, GridMismatchError)
from .modal import unit_phasors


@dataclass(frozen=True)
class _Samples:
    """The sample surface both grids fill: the per-sample ``mask``, the
    distinct masked radii with each masked sample's index into them, and
    e^{i theta} at each masked sample.  None of it takes part in equality,
    hashing or ``repr``."""

    mask: np.ndarray = field(init=False, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    radius_index: np.ndarray = field(init=False, repr=False, compare=False)
    unit: np.ndarray = field(init=False, repr=False, compare=False)

    def _fill(self, r: np.ndarray, mask: np.ndarray):
        radii, radius_index = np.unique(r[mask], return_inverse=True)
        for name, value in (("mask", mask), ("radii", radii),
                            ("radius_index", radius_index),
                            ("unit", unit_phasors(self.theta[mask]))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RasterGrid(_Samples):
    """Square pixel grid covering the stator annulus plus a margin."""

    inner_radius: float
    outer_radius: float
    pixels: int = 256
    margin: float = 1.05

    def __post_init__(self):
        if not 0.0 <= self.inner_radius < self.outer_radius:
            raise DomainError(
                f"need 0 <= inner_radius < outer_radius, got "
                f"{self.inner_radius} and {self.outer_radius}")
        if self.pixels < RASTER_MIN_PIXELS:
            raise DomainError(
                f"pixels must be >= {RASTER_MIN_PIXELS}, got {self.pixels}")
        if self.margin < RASTER_MIN_MARGIN:
            raise DomainError(
                f"margin must be >= {RASTER_MIN_MARGIN:g}, got {self.margin}")
        r = self.r
        self._fill(r, (r >= self.inner_radius) & (r <= self.outer_radius))

    def _axes(self):
        """Pixel-center x (a row) and y (a column) in meters."""
        half = self.extent
        # pixel centers, row 0 at +y so exported images keep math orientation
        axis = (np.arange(self.pixels) + 0.5) / self.pixels * 2.0 * half - half
        return axis[None, :], axis[::-1, None]

    @property
    def r(self) -> np.ndarray:
        """Radius of every pixel center, recomputed on each read."""
        return np.hypot(*self._axes())

    @property
    def theta(self) -> np.ndarray:
        """Angle in [0, 2 pi) of every pixel center, recomputed on each read."""
        x, y = self._axes()
        theta = np.arctan2(y, x)
        return np.mod(theta, 2.0 * np.pi, out=theta)

    @property
    def shape(self):
        return (self.pixels, self.pixels)

    @property
    def extent(self) -> float:
        """Half-width of the imaged square in meters."""
        return self.margin * self.outer_radius

    def describe(self) -> dict:
        return {"kind": "raster", "pixels": self.pixels,
                "extent_m": self.extent,
                "inner_radius_m": self.inner_radius,
                "outer_radius_m": self.outer_radius}


@dataclass(frozen=True)
class RingGrid(_Samples):
    """Uniform angular samples along one circle of the annulus."""

    radius: float
    count: int = 360

    def __post_init__(self):
        if self.radius <= 0.0:
            raise DomainError(f"ring radius must be positive, got {self.radius}")
        if self.count < RING_MIN_COUNT:
            raise DomainError(f"ring sample count must be >= {RING_MIN_COUNT}, "
                              f"got {self.count}")
        self._fill(self.r, np.ones(self.count, dtype=bool))

    @property
    def r(self) -> np.ndarray:
        return np.full(self.count, self.radius)

    @property
    def theta(self) -> np.ndarray:
        """The uniform sample angles, recomputed on each read."""
        return 2.0 * np.pi * np.arange(self.count) / self.count

    @property
    def shape(self):
        return (self.count,)

    def describe(self) -> dict:
        return {"kind": "ring", "count": self.count, "radius_m": self.radius}


def require_same_grid(a, b, context: str):
    if a != b:
        raise GridMismatchError(f"{context}: grids differ ({a!r} vs {b!r})")


@dataclass(frozen=True)
class DisplacementField:
    """Out-of-plane displacement snapshot on a grid, in meters."""

    grid: object
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid "
                f"{self.grid.shape}")
        if not np.all(np.isfinite(self.values[self.grid.mask])):
            raise DomainError("non-finite displacement on valid samples")

    def peak(self) -> float:
        return float(np.max(np.abs(self.values[self.grid.mask])))

    def scaled(self, factor: float) -> "DisplacementField":
        return DisplacementField(self.grid, self.values * factor, self.time)


def _bilinear_stencil(grid: RasterGrid, r, theta):
    """Bilinear stencil of a raster at polar points.

    Returns ``(rows, cols, fr, fc)``: ``values[rows, cols]`` stacks the
    four corner pixels of each point on a new leading axis, in the order
    (r0, c0), (r0, c0 + 1), (r0 + 1, c0), (r0 + 1, c0 + 1), and ``fr``,
    ``fc`` are the point's fractional offsets from its (r0, c0) corner.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
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


def bilinear_sample(grid: RasterGrid, values: np.ndarray,
                    r, theta) -> np.ndarray:
    """Sample a raster array at polar points via bilinear interpolation."""
    rows, cols, fr, fc = _bilinear_stencil(grid, r, theta)
    return _bilinear_blend(values[rows, cols], fr, fc)


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
    return RingGrid(radius=radius, count=count or 360)


def circle_values(fld: DisplacementField, radius: float | None = None,
                  count: int | None = None):
    """Extract (theta, values) along a circle of the field.

    On a ring grid this is the stored data verbatim (radius optional and
    checked); on a raster it bilinearly interpolates ``count`` uniform
    angles, which smooths pixel quantization.
    """
    grid = fld.grid
    if isinstance(grid, RingGrid):
        if radius is not None and not np.isclose(radius, grid.radius,
                                                 rtol=1e-9, atol=0.0):
            raise DomainError(
                f"ring grid holds radius {grid.radius}, asked for {radius}")
        return grid.theta, fld.values.copy()
    ring = _raster_ring(grid, radius, count)
    return ring.theta, bilinear_sample(grid, fld.values, ring.r, ring.theta)
