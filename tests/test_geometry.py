import numpy as np
import pytest

from statorlab.errors import DomainError, GeometryError
from statorlab.geometry import (EffectivePlate, Material, StatorGeometry,
                                fill_factor, homogenize)
from statorlab.modal import Discretization, ModalBasis


def test_default_geometry_fills_base_thickness(geometry):
    assert geometry.base_thickness == pytest.approx(4.02e-3)
    assert geometry.tooth_height == pytest.approx(1.0e-3)
    assert geometry.tooth_band_centroid_radius == pytest.approx(12.5e-3)


@pytest.mark.parametrize("kwargs", [
    dict(inner_radius=7e-3),                 # bore outside the fixture
    dict(fixture_radius=11e-3),              # clamp inside the tooth band
    dict(tooth_band_inner_radius=16e-3),     # band starts past the rim
    dict(inner_radius=-1e-3),
    dict(notch_depth=6e-3),                  # deeper than the stator
    dict(notch_depth=0.0),
    dict(notch_width=-1e-3),
    dict(notch_count=-1),
])
def test_bad_geometry_rejected(kwargs):
    base = dict(inner_radius=3.75e-3, outer_radius=15e-3,
                tooth_band_inner_radius=10e-3, fixture_radius=6e-3)
    base.update(kwargs)
    with pytest.raises(GeometryError):
        StatorGeometry(**base)


def test_notches_must_fit_on_circumference():
    with pytest.raises(GeometryError):
        StatorGeometry(inner_radius=3.75e-3, outer_radius=15e-3,
                       tooth_band_inner_radius=10e-3, fixture_radius=6e-3,
                       notch_count=22, notch_width=3e-3)


def test_fill_factor_value(geometry):
    expected = 1.0 - 22 * 1.59e-3 / (2 * np.pi * 12.5e-3)
    assert fill_factor(geometry) == pytest.approx(expected, rel=1e-12)
    assert 0.55 < fill_factor(geometry) < 0.56


def test_fill_factor_unnotched_is_one():
    g = StatorGeometry(inner_radius=3.75e-3, outer_radius=15e-3,
                       tooth_band_inner_radius=10e-3, fixture_radius=6e-3,
                       notch_count=0)
    assert fill_factor(g) == pytest.approx(1.0)


def test_material_validation():
    with pytest.raises(GeometryError):
        Material(poisson_ratio=0.5)
    with pytest.raises(GeometryError):
        Material(youngs_modulus=0.0)
    with pytest.raises(GeometryError):
        Material(modal_damping_ratio=1.0)
    with pytest.raises(GeometryError):
        Material(damping_overrides={4: 1.5})
    with pytest.raises(GeometryError, match="harmonic must be >= 0, got -2"):
        Material(damping_overrides={-2: 0.01})


def test_damping_override_lookup():
    m = Material(modal_damping_ratio=0.02, damping_overrides={4: 0.0064})
    assert m.damping_overrides == {4: 0.0064}
    basis = ModalBasis((), Discretization(), "lookup", m.modal_damping_ratio,
                       m.damping_overrides)
    assert basis.damping_for(4) == pytest.approx(0.0064)
    assert basis.damping_for(3) == pytest.approx(0.02)


def test_bending_stiffness_cubic_in_thickness(material):
    d1 = material.bending_stiffness(1e-3)
    d2 = material.bending_stiffness(2e-3)
    assert d2 / d1 == pytest.approx(8.0, rel=1e-12)


def test_homogenize_regions(geometry, material, plate):
    """The tooth band must be both stiffer and heavier than the web."""
    ff = fill_factor(geometry)
    d_web = material.bending_stiffness(geometry.base_thickness)
    d_band = ((1 - ff) * d_web
              + ff * material.bending_stiffness(geometry.total_height))
    assert plate.D(8e-3) == pytest.approx(d_web, rel=1e-12)
    assert plate.D(12e-3) == pytest.approx(d_band, rel=1e-12)
    assert plate.D(12e-3) > plate.D(8e-3)
    mu_web = material.density * geometry.base_thickness
    mu_band = material.density * (geometry.base_thickness
                                  + ff * geometry.tooth_height)
    assert plate.mu(8e-3) == pytest.approx(mu_web, rel=1e-12)
    assert plate.mu(12e-3) == pytest.approx(mu_band, rel=1e-12)
    assert plate.fill_factor == pytest.approx(ff)


def test_plate_profile_rejects_outside_radius(plate):
    with pytest.raises(DomainError):
        plate.D(20e-3)
    with pytest.raises(DomainError):
        plate.mu(1e-3)


def test_plate_scaling(plate):
    scaled = plate.scaled(4.0)
    assert scaled.D(12e-3) == pytest.approx(4.0 * plate.D(12e-3), rel=1e-12)
    assert scaled.mu(12e-3) == pytest.approx(plate.mu(12e-3))
    assert scaled.stiffness_scale == pytest.approx(4.0)
    with pytest.raises(DomainError):
        plate.scaled(-1.0)


def test_provenance_hash_tracks_inputs(plate):
    assert plate.provenance_hash() == plate.provenance_hash()
    assert plate.scaled(2.0).provenance_hash() != plate.provenance_hash()


def test_effective_plate_validation():
    with pytest.raises(GeometryError):
        EffectivePlate(breakpoints=(1e-3,), D_regions=(), mu_regions=(),
                       poisson_ratio=0.3, fill_factor=1.0, fixture_radius=1e-3)
    with pytest.raises(GeometryError):
        EffectivePlate(breakpoints=(1e-3, 2e-3), D_regions=(-1.0,),
                       mu_regions=(1.0,), poisson_ratio=0.3,
                       fill_factor=1.0, fixture_radius=1e-3)
    with pytest.raises(GeometryError):
        # fixture outside the annulus
        EffectivePlate(breakpoints=(1e-3, 2e-3), D_regions=(1.0,),
                       mu_regions=(1.0,), poisson_ratio=0.3,
                       fill_factor=1.0, fixture_radius=5e-3)
