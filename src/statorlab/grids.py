"""Sampling grids and displacement fields.

Both grid flavors inherit one sample surface from ``_Samples`` and fill
it in one routine.  It stores the per-sample ``mask``; ``radii``, the
distinct radii of the masked samples in ascending order (from
``np.unique``); ``radius_index``, each masked sample's position in it, so
``radii[radius_index]`` is ``r[mask]``; and ``unit``, e^{i theta} at each
masked sample, from ``np.cos`` and ``np.sin`` of ``theta[mask]``.  Only
this module reads them: ``shapes`` builds the table of mode shapes on the
masked samples from them, W(r) once per distinct radius gathered to the
samples, times cos(n theta) or sin(n theta) powered from ``unit`` by
``modal.angular_patterns``.  A grid holds the one table it last built,
read-only, and hands it back while it is asked for the same modes.  The
full-sample ``r`` and ``theta`` are not stored: each is a property that
recomputes the grid's expression on every read.  None of these arrays
take part in equality or hashing; two grids are the same grid when their
defining fields are equal, which is the test ``require_same_grid``
applies.  Each flavor also has ``shape``:

* ``RasterGrid``: a square camera-style image in Cartesian pixel layout,
  with polar coordinates per pixel and an annulus validity mask.  This is
  what the fringe images render on; its ``describe()`` metadata dict
  heads the strobe phase dump.
* ``RingGrid``: a single circle of uniform angular samples at a fixed
  radius.  The quantitative pipeline (strobe difference, unwrap, fit)
  runs on rings, where circular sampling is exact rather than
  interpolated.

A ``DisplacementField`` pairs one grid with the out-of-plane
displacement in meters at its masked samples: a 1-D ``samples`` array in
``r[mask]`` order, so for a ring the ring itself.  Samples where
``grid.mask`` is False carry no physical meaning and are not stored.  A
raster of the grid's shape, zeros off the mask, is formed only when a
caller reads it (``values``), by the grid's ``raster`` routine, which
``holography``'s fringe images and phase maps share; each read forms a
new array.  ``MaskedRecord``, the base of the field and of both
holography records, refuses samples of any other shape.
``circle_values`` reads a ring field's circle; a raster field is sampled
along a circle only by ``holography.unwrap_to_displacement``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (RASTER_MIN_MARGIN, RASTER_MIN_PIXELS, RING_MIN_COUNT,
                     DomainError, GridMismatchError)
from .modal import angular_patterns, radial_shapes, unit_phasors


@dataclass(frozen=True)
class _Samples:
    """The sample surface both grids fill: the per-sample ``mask``, the
    distinct masked radii with each masked sample's index into them,
    e^{i theta} at each masked sample, and the last shape table built from
    them.  None of it takes part in equality, hashing or ``repr``."""

    mask: np.ndarray = field(init=False, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    radius_index: np.ndarray = field(init=False, repr=False, compare=False)
    unit: np.ndarray = field(init=False, repr=False, compare=False)
    # None, or (modes, their read-only shapes); holding the modes keeps
    # the ids ``shapes`` compares from being reused
    _table: tuple | None = field(init=False, repr=False, compare=False)

    def _fill(self, r: np.ndarray, mask: np.ndarray):
        radii, radius_index = np.unique(r[mask], return_inverse=True)
        for name, value in (("mask", mask), ("radii", radii),
                            ("radius_index", radius_index),
                            ("unit", unit_phasors(self.theta[mask])),
                            ("_table", None)):
            object.__setattr__(self, name, value)

    def shapes(self, modes) -> np.ndarray:
        """The shapes of ``modes`` on the masked samples, one row per mode,
        read-only.

        W(r) is evaluated once per distinct radius and gathered to the
        samples; each row is then multiplied by its mode's angular pattern,
        powered from ``unit``.  Every value equals ``W(r) * angular(theta)``
        evaluated sample by sample.  The grid keeps the last table: a call
        with the same modes, each the same object, returns it, and a call
        with other modes drops it before building theirs.
        """
        if self._table is None or [*map(id, self._table[0])] != [*map(id, modes)]:
            object.__setattr__(self, "_table", None)
            table = np.take(radial_shapes(modes, self.radii),
                            self.radius_index, axis=1)
            angular_patterns(modes, self.unit, table)
            table.flags.writeable = False
            object.__setattr__(self, "_table", (tuple(modes), table))
        return self._table[1]

    def raster(self, samples: np.ndarray) -> np.ndarray:
        """A new float array of the grid's shape holding ``samples`` (one
        per masked sample, in ``r[mask]`` order) on the mask and zeros off
        it; every call forms a fresh raster."""
        out = np.zeros(self.shape)
        out[self.mask] = samples
        return out


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


def require_same_grid(a, b, context: str):
    if a != b:
        raise GridMismatchError(f"{context}: grids differ ({a!r} vs {b!r})")


@dataclass(frozen=True)
class MaskedRecord:
    """A record of one value per masked sample of ``grid``, in ``r[mask]``
    order: the 1-D ``samples``, refused at any other shape.  Each
    subclass checks its values and names the raster ``_raster`` reads."""

    grid: object
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.grid.unit.shape:
            raise GridMismatchError(
                f"{type(self).__name__} samples of shape {self.samples.shape} "
                f"do not match the {self.grid.unit.size} masked samples")

    def _raster(self) -> np.ndarray:
        """The record as a raster of the grid's shape, zeros off the mask;
        a new array on each read."""
        return self.grid.raster(self.samples)


@dataclass(frozen=True)
class DisplacementField(MaskedRecord):
    """Out-of-plane displacement snapshot on a grid, in meters, at its
    masked samples."""

    time: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("non-finite displacement on valid samples")

    values = property(MaskedRecord._raster)

    def scaled(self, factor: float) -> "DisplacementField":
        return DisplacementField(self.grid, self.samples * factor, self.time)


def circle_values(fld: DisplacementField):
    """The (theta, values) of a ring field: its stored data verbatim.

    A raster has no circle of its own; unwrap it onto a ring first
    (``holography.unwrap_to_displacement`` samples a raster's circle).
    """
    grid = fld.grid
    if not isinstance(grid, RingGrid):
        raise DomainError(
            f"circle values need a ring field, got a {type(grid).__name__}; "
            "unwrap it onto a ring first")
    return grid.theta, fld.samples.copy()
