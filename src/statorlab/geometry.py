"""Stator geometry, material data and homogenization of the notched tooth band.

The stator is an annular plastic plate.  Its outer band carries teeth
separated by milled notches; for modal analysis the discrete teeth are
smeared ("homogenized") into an annulus with fill-factor-weighted bending
stiffness and areal mass.  The circumferential mode numbers of interest
(1..7) are far below the tooth count (22), so smearing preserves the modal
physics.

All lengths are meters, all frequencies Hz (SI throughout).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GeometryError

# Teeth fully inside the clamped center would be meaningless; keep a tiny
# tolerance for float round-off in user configs.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class StatorGeometry:
    """Annular stator with a notched tooth band on its outer rim.

    Parameters
    ----------
    inner_radius : float
        Radius of the central bore [m].
    outer_radius : float
        Outer rim radius [m].
    tooth_band_inner_radius : float
        Inner radius of the annulus carrying teeth [m].
    fixture_radius : float
        Outer edge of the clamped center region [m]; the plate is held
        fixed for ``r <= fixture_radius``.
    total_height : float
        Full stator height including the tooth layer [m]; below
        ``outer_radius``, since the model is a plate.
    notch_count : int
        Number of milled notches (0 reproduces the un-notched flat design).
    notch_width : float
        Circumferential width of one notch [m].
    notch_depth : float
        Depth of the notch cut, i.e. the tooth layer height [m].

    Notes
    -----
    Homogenization uses only count/width/depth, never angular notch
    positions, so every derived quantity is invariant under relabeling
    of notch locations.
    """

    inner_radius: float
    outer_radius: float
    tooth_band_inner_radius: float
    fixture_radius: float
    total_height: float = 5.02e-3
    notch_count: int = 22
    notch_width: float = 1.59e-3
    notch_depth: float = 1.0e-3

    def __post_init__(self):
        if not (0.0 < self.inner_radius < self.fixture_radius
                < self.tooth_band_inner_radius < self.outer_radius):
            raise GeometryError(
                "radii must satisfy 0 < inner_radius < fixture_radius < "
                f"tooth_band_inner_radius < outer_radius, got inner={self.inner_radius}, "
                f"fixture={self.fixture_radius}, band={self.tooth_band_inner_radius}, "
                f"outer={self.outer_radius}")
        if not 0.0 < self.notch_depth < self.total_height:
            raise GeometryError(
                f"notch_depth must lie in (0, total_height), got {self.notch_depth}")
        if self.total_height >= self.outer_radius:
            raise GeometryError(
                f"total_height {self.total_height} must be below outer_radius "
                f"{self.outer_radius}: a plate is thinner than its radius")
        if self.notch_count < 0 or int(self.notch_count) != self.notch_count:
            raise GeometryError(f"notch_count must be a non-negative integer, got {self.notch_count}")
        if self.notch_width <= 0.0:
            raise GeometryError(f"notch_width must be positive, got {self.notch_width}")
        circumference = 2.0 * np.pi * self.tooth_band_inner_radius
        if self.notch_count * self.notch_width >= circumference:
            raise GeometryError(
                f"{self.notch_count} notches of width {self.notch_width} m do not fit on "
                f"the tooth band circumference ({circumference:.6g} m): notch_count * "
                "notch_width must stay below 2 pi tooth_band_inner_radius")

    @property
    def base_thickness(self) -> float:
        """Thickness of the continuous base plate below the notches [m]."""
        return self.total_height - self.notch_depth

    @property
    def tooth_band_centroid_radius(self) -> float:
        """Mid radius of the tooth band [m]."""
        return 0.5 * (self.tooth_band_inner_radius + self.outer_radius)

    @property
    def tooth_height(self) -> float:
        """Height of the tooth layer above the base plate [m]."""
        return self.total_height - self.base_thickness


@dataclass(frozen=True)
class Material:
    """Isotropic plate material with viscous modal damping.

    ``modal_damping_ratio`` is the default per-mode viscous ratio; single
    modes can be overridden by circumferential harmonic via
    ``damping_overrides`` (e.g. ``{4: 0.0064}``).  ``solve_modes`` carries
    both into the basis, whose ``damping_for`` looks them up.
    """

    youngs_modulus: float = 3.2e9      # Ultem-type engineering plastic
    poisson_ratio: float = 0.36
    density: float = 1270.0
    modal_damping_ratio: float = 0.02
    damping_overrides: dict | None = None

    def __post_init__(self):
        if self.youngs_modulus <= 0.0:
            raise GeometryError(f"youngs_modulus must be positive, got {self.youngs_modulus}")
        if self.density <= 0.0:
            raise GeometryError(f"density must be positive, got {self.density}")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise GeometryError(f"poisson_ratio must lie in [0, 0.5), got {self.poisson_ratio}")
        if not 0.0 < self.modal_damping_ratio < 1.0:
            raise GeometryError(
                f"modal_damping_ratio must lie in (0, 1), got {self.modal_damping_ratio}")
        if self.damping_overrides:
            for n, z in self.damping_overrides.items():
                if n < 0:
                    raise GeometryError(f"damping override harmonic must be >= 0, got {n}")
                if not 0.0 < z < 1.0:
                    raise GeometryError(f"damping override for n={n} must lie in (0, 1), got {z}")

    def bending_stiffness(self, thickness: float) -> float:
        """Plate bending stiffness E t^3 / (12 (1 - nu^2)) [N m]."""
        try:
            return self.youngs_modulus * thickness**3 / (12.0 * (1.0 - self.poisson_ratio**2))
        except OverflowError:
            raise GeometryError(
                f"plate thickness {thickness} m overflows the bending stiffness") from None


@dataclass(frozen=True)
class EffectivePlate:
    """Piecewise-constant radial profile of an equivalent annular plate.

    ``breakpoints`` has K+1 ascending radii; region ``i`` spans
    ``[breakpoints[i], breakpoints[i+1])`` with bending stiffness
    ``D_regions[i]`` [N m] and areal mass ``mu_regions[i]`` [kg/m^2].
    """

    breakpoints: tuple
    D_regions: tuple
    mu_regions: tuple
    poisson_ratio: float
    fill_factor: float
    fixture_radius: float
    material: Material | None = None
    stiffness_scale: float = 1.0    # cumulative calibration factor on D

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0.0):
            raise GeometryError("breakpoints must be ascending with at least two entries")
        if len(self.D_regions) != bp.size - 1 or len(self.mu_regions) != bp.size - 1:
            raise GeometryError("need one (D, mu) pair per region between breakpoints")
        if any(d <= 0.0 for d in self.D_regions) or any(m <= 0.0 for m in self.mu_regions):
            raise GeometryError("D(r) and mu(r) must be positive everywhere")
        if not 0.0 < self.fill_factor <= 1.0:
            raise GeometryError(f"fill_factor must lie in (0, 1], got {self.fill_factor}")
        if not bp[0] <= self.fixture_radius < bp[-1]:
            raise GeometryError("fixture_radius must lie inside the plate annulus")

    @property
    def outer_radius(self) -> float:
        return self.breakpoints[-1]

    def _region_index(self, r: np.ndarray) -> np.ndarray:
        bp = np.asarray(self.breakpoints)
        rel = _REL_TOL * bp[-1]
        if np.any(np.asarray(r) < bp[0] - rel) or np.any(np.asarray(r) > bp[-1] + rel):
            raise DomainError(
                f"radius outside plate annulus [{bp[0]:.6g}, {bp[-1]:.6g}] m")
        idx = np.searchsorted(bp, r, side="right") - 1
        return np.clip(idx, 0, len(self.D_regions) - 1)

    def D(self, r):
        """Bending stiffness profile D(r) [N m] (includes calibration scale)."""
        r = np.asarray(r, dtype=float)
        return np.asarray(self.D_regions)[self._region_index(r)] * self.stiffness_scale

    def mu(self, r):
        """Areal mass profile mu(r) [kg/m^2]."""
        r = np.asarray(r, dtype=float)
        return np.asarray(self.mu_regions)[self._region_index(r)]

    def scaled(self, factor: float) -> "EffectivePlate":
        """Return a copy with D(r) multiplied by ``factor`` everywhere."""
        if factor <= 0.0:
            raise DomainError(f"stiffness scale factor must be positive, got {factor}")
        return replace(self, stiffness_scale=self.stiffness_scale * factor)

    def provenance_hash(self) -> str:
        """Stable hex digest of the plate's defining numbers."""
        payload = repr((tuple(self.breakpoints), tuple(self.D_regions),
                        tuple(self.mu_regions), self.poisson_ratio,
                        self.fill_factor, self.fixture_radius,
                        self.stiffness_scale)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def fill_factor(geom: StatorGeometry) -> float:
    """Fraction of the tooth band circumference occupied by teeth.

    Computed at the band centroid radius:
    ``1 - notch_count * notch_width / (2 pi r_centroid)``.
    """
    circumference = 2.0 * np.pi * geom.tooth_band_centroid_radius
    return 1.0 - geom.notch_count * geom.notch_width / circumference


def homogenize(geom: StatorGeometry, mat: Material) -> EffectivePlate:
    """Smear the notched tooth band into an equivalent annular plate.

    The web (``inner_radius <= r < tooth_band_inner_radius``) is a plain
    plate of ``base_thickness``.  In the tooth band the areal mass is the
    base plus the fill-factor-weighted tooth layer, and the bending
    stiffness is the fill-factor blend of the full-height and base-only
    plate stiffness.

    Raises
    ------
    GeometryError
        If the notches overlap (fill factor would be <= 0).
    """
    ff = fill_factor(geom)
    if ff <= 0.0:
        raise GeometryError(
            f"notches overlap: fill factor {ff:.4g} <= 0 for {geom.notch_count} notches "
            f"of width {geom.notch_width} m")

    t_base = geom.base_thickness
    t_full = geom.total_height
    d_web = mat.bending_stiffness(t_base)
    d_band = (1.0 - ff) * mat.bending_stiffness(t_base) + ff * mat.bending_stiffness(t_full)
    mu_web = mat.density * t_base
    mu_band = mat.density * (t_base + ff * geom.tooth_height)

    return EffectivePlate(
        breakpoints=(geom.inner_radius, geom.tooth_band_inner_radius, geom.outer_radius),
        D_regions=(d_web, d_band),
        mu_regions=(mu_web, mu_band),
        poisson_ratio=mat.poisson_ratio,
        fill_factor=ff,
        fixture_radius=geom.fixture_radius,
        material=mat,
    )
