import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from statorlab.errors import DomainError, GridMismatchError
from statorlab.grids import (DisplacementField, RasterGrid, RingGrid,
                             circle_values, require_same_grid)
from statorlab import holography, ioutil
from statorlab.holography import OpticalConfig, PhaseMap, unwrap_to_displacement


def _sample_raster(grid, values, radius=None, count=None):
    """Bilinear samples of a raster array along the circle that
    ``unwrap_to_displacement`` reads: (theta, values)."""
    ring = holography._raster_ring(grid, radius, count)
    rows, cols, fr, fc = holography._bilinear_stencil(grid, ring.r, ring.theta)
    return ring.theta, holography._bilinear_blend(values[rows, cols], fr, fc)


def test_raster_grid_geometry():
    grid = RasterGrid(inner_radius=4e-3, outer_radius=10e-3, pixels=64,
                      margin=1.05)
    assert grid.shape == (64, 64)
    assert grid.extent == pytest.approx(10.5e-3)
    assert np.all(grid.r[grid.mask] >= 4e-3)
    assert np.all(grid.r[grid.mask] <= 10e-3)
    assert grid.theta.min() >= 0.0 and grid.theta.max() < 2 * np.pi
    # row 0 sits at +y in math orientation
    top = grid.theta[0, 32]
    assert abs(top - np.pi / 2) < 0.1


def test_raster_grid_validation():
    with pytest.raises(DomainError):
        RasterGrid(inner_radius=5e-3, outer_radius=4e-3)
    with pytest.raises(DomainError):
        RasterGrid(inner_radius=1e-3, outer_radius=4e-3, pixels=8)
    with pytest.raises(DomainError):
        RasterGrid(inner_radius=1e-3, outer_radius=4e-3, margin=0.9)


def test_ring_grid_basics():
    ring = RingGrid(radius=12e-3, count=90)
    assert ring.shape == (90,)
    assert ring.theta[0] == 0.0
    assert np.allclose(np.diff(ring.theta), 2 * np.pi / 90)
    assert ring.mask.all()
    with pytest.raises(DomainError):
        RingGrid(radius=-1e-3)
    with pytest.raises(DomainError):
        RingGrid(radius=1e-3, count=4)


@pytest.mark.parametrize("margin", [1.0, 1.05])
@pytest.mark.parametrize("pixels", [16, 64, 256, 384])
def test_raster_distinct_radii(pixels, margin):
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3,
                      pixels=pixels, margin=margin)
    masked = grid.r[grid.mask]
    assert grid.radius_index.shape == masked.shape
    assert np.array_equal(grid.radii[grid.radius_index], masked)
    assert np.all(np.diff(grid.radii) > 0.0)
    # the radius tables are derived data: describe, == and hash ignore them
    assert grid.describe() == {"kind": "raster", "pixels": pixels,
                               "extent_m": margin * 15e-3,
                               "inner_radius_m": 3.75e-3,
                               "outer_radius_m": 15e-3}
    again = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3,
                       pixels=pixels, margin=margin)
    assert grid == again and hash(grid) == hash(again)
    assert hash(grid) == hash((3.75e-3, 15e-3, pixels, margin))
    assert grid != RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3,
                              pixels=pixels + 1, margin=margin)


@pytest.mark.parametrize("pixels", [64, 129])
def test_raster_r_and_theta_recompute_the_pixel_expressions(pixels):
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=pixels)
    half = grid.extent
    axis = (np.arange(pixels) + 0.5) / pixels * 2.0 * half - half
    x, y = axis[None, :], axis[::-1, None]
    assert np.array_equal(grid.r, np.hypot(x, y))
    assert np.array_equal(grid.theta, np.mod(np.arctan2(y, x), 2.0 * np.pi))


def test_ring_r_and_theta_recompute_the_uniform_angles():
    ring = RingGrid(radius=12e-3, count=90)
    assert np.array_equal(ring.r, np.full(90, 12e-3))
    assert np.array_equal(ring.theta, 2.0 * np.pi * np.arange(90) / 90)


@pytest.mark.parametrize("grid", [
    RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=96),
    RingGrid(radius=12e-3, count=90)], ids=["raster", "ring"])
def test_unit_is_cos_and_sin_of_the_masked_angles(grid):
    theta = grid.theta[grid.mask]
    assert grid.unit.dtype == np.complex128
    assert np.array_equal(grid.unit.real, np.cos(theta))
    assert np.array_equal(grid.unit.imag, np.sin(theta))


def test_raster_stores_less_than_full_r_and_theta():
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=128)
    # the masked unit phasors take the place of the two full float rasters
    assert grid.unit.nbytes < grid.r.nbytes + grid.theta.nbytes


def test_ring_distinct_radii():
    ring = RingGrid(radius=12e-3, count=90)
    assert np.array_equal(ring.radii, [12e-3])
    assert ring.radius_index.shape == (90,)
    assert not ring.radius_index.any()
    assert np.array_equal(ring.radii[ring.radius_index], ring.r[ring.mask])
    again = RingGrid(radius=12e-3, count=90)
    assert ring == again and hash(ring) == hash(again)
    assert hash(ring) == hash((12e-3, 90))
    assert ring != RingGrid(radius=12e-3, count=91)


def test_require_same_grid():
    a = RingGrid(radius=12e-3, count=90)
    b = RingGrid(radius=12e-3, count=91)
    require_same_grid(a, RingGrid(radius=12e-3, count=90), "test")
    with pytest.raises(GridMismatchError, match="test"):
        require_same_grid(a, b, "test")
    with pytest.raises(GridMismatchError):
        require_same_grid(a, RasterGrid(1e-3, 13e-3), "test")


@pytest.mark.parametrize("a,b", [
    (RasterGrid(1e-3, 13e-3), RingGrid(radius=12e-3, count=90)),
    (RingGrid(radius=12e-3, count=90), RasterGrid(1e-3, 13e-3)),
    (RasterGrid(1e-3, 13e-3, pixels=64), RasterGrid(1e-3, 13e-3, pixels=65)),
    (RasterGrid(1e-3, 13e-3), RasterGrid(1e-3, 13e-3, margin=1.1)),
], ids=["raster-ring", "ring-raster", "pixels", "margin"])
def test_require_same_grid_compares_descriptions(a, b):
    require_same_grid(a, dataclasses.replace(a), "rebuilt")
    with pytest.raises(GridMismatchError, match="grids differ"):
        require_same_grid(a, b, "test")


@pytest.mark.parametrize("radius,fragment", [
    (None, "raster grids need an explicit circle radius"),
    (20e-3, "outside annulus"),
    (2e-3, "outside annulus"),
])
def test_raster_circle_errors_shared_by_sampling_and_unwrap(radius, fragment):
    grid = RasterGrid(inner_radius=4e-3, outer_radius=14e-3, pixels=64)
    pmap = PhaseMap(grid, np.zeros(grid.shape), 0.0, 60.0)
    with pytest.raises(DomainError, match=fragment):
        _sample_raster(grid, pmap.phase, radius=radius)
    with pytest.raises(DomainError, match=fragment):
        unwrap_to_displacement(pmap, OpticalConfig(), radius=radius)
    # the raster's own field has no circle to read without the unwrap
    fld = DisplacementField(grid, np.zeros(grid.shape))
    with pytest.raises(DomainError, match="unwrap it onto a ring first"):
        circle_values(fld)


def test_displacement_field_validation():
    ring = RingGrid(radius=12e-3, count=16)
    with pytest.raises(GridMismatchError):
        DisplacementField(ring, np.zeros(17))
    with pytest.raises(DomainError):
        DisplacementField(ring, np.full(16, np.nan))
    # non-finite values outside the mask are tolerated
    grid = RasterGrid(inner_radius=4e-3, outer_radius=10e-3, pixels=32)
    values = np.zeros(grid.shape)
    values[~grid.mask] = np.nan
    fld = DisplacementField(grid, values)
    assert np.max(np.abs(fld.values[grid.mask])) == 0.0


def test_field_scaling():
    ring = RingGrid(radius=12e-3, count=16)
    fld = DisplacementField(ring, np.ones(16), time=1.0)
    doubled = fld.scaled(2.0)
    assert np.max(np.abs(doubled.values)) == pytest.approx(2.0)
    assert doubled.time == 1.0


def test_bilinear_sample_exact_on_linear_fields():
    grid = RasterGrid(inner_radius=4e-3, outer_radius=10e-3, pixels=128)
    x = grid.r * np.cos(grid.theta)
    y = grid.r * np.sin(grid.theta)
    values = 2.0 * x + 3.0 * y + 0.5
    theta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
    r = np.full(50, 7e-3)
    rows, cols, fr, fc = holography._bilinear_stencil(grid, r, theta)
    sampled = holography._bilinear_blend(values[rows, cols], fr, fc)
    truth = 2.0 * r * np.cos(theta) + 3.0 * r * np.sin(theta) + 0.5
    assert np.max(np.abs(sampled - truth)) < 1e-12


def test_circle_values_ring_verbatim():
    ring = RingGrid(radius=12e-3, count=32)
    data = np.arange(32.0)
    fld = DisplacementField(ring, data)
    theta, vals = circle_values(fld)
    assert np.array_equal(vals, data)
    assert np.array_equal(theta, ring.theta)


def test_circle_values_raster_interpolates():
    # a raster's circle values are interpolated by the unwrap's sampler
    grid = RasterGrid(inner_radius=4e-3, outer_radius=14e-3, pixels=256)
    values = np.zeros(grid.shape)
    values[grid.mask] = np.cos(3 * grid.theta[grid.mask])
    theta, vals = _sample_raster(grid, values, radius=10e-3, count=180)
    assert theta.size == 180
    assert np.max(np.abs(vals - np.cos(3 * theta))) < 5e-3
    with pytest.raises(DomainError, match="explicit circle radius"):
        _sample_raster(grid, values)
    with pytest.raises(DomainError, match="outside annulus"):
        _sample_raster(grid, values, radius=20e-3)


def test_csv_bytes_exact(tmp_path):
    path = tmp_path / "t.csv"
    ioutil.write_csv(path, ("a", "b"), [(1.5, 0.1), ("x", "y")])
    data = path.read_bytes()
    assert data == b"a,b\r\n1.5,x\r\n0.1,y\r\n"
    # repr keeps full float precision
    ioutil.write_csv(path, ("v",), [(0.1 + 0.2,)])
    assert b"0.30000000000000004" in path.read_bytes()


def test_pgm_header_and_payload(tmp_path):
    path = tmp_path / "t.pgm"
    intensity = np.array([[0.0, 1.0], [0.5, 0.25]])
    mask = np.array([[True, True], [True, False]])
    ioutil.write_pgm(path, intensity, mask)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    payload = data[len(b"P5\n2 2\n255\n"):]
    assert payload == bytes([0, 255, 128, 0])    # masked pixel forced to 0
    # an image is a raster: a line of samples is refused, nothing written
    line = tmp_path / "line.pgm"
    with pytest.raises(DomainError, match="2-D array, got 1-D"):
        ioutil.write_pgm(line, np.linspace(0, 1, 8), np.ones(8, dtype=bool))
    assert not line.exists()


def test_quantize_endpoints():
    vals = np.array([0.0, 1.0, 0.999, 2.0, -1.0])
    mask = np.ones(5, dtype=bool)
    q = ioutil.quantize_intensity(vals, mask)
    assert list(q) == [0, 255, 255, 255, 0]      # clipped into [0, 1] first


def test_phase_to_unit_range():
    ph = np.array([-np.pi + 1e-9, 0.0, np.pi])
    u = ioutil.phase_to_unit(ph)
    assert u[0] == pytest.approx(0.0, abs=1e-9)
    assert u[1] == pytest.approx(0.5)
    assert u[2] == pytest.approx(1.0)


def test_field_f32_round_trip(tmp_path):
    path = tmp_path / "f.f32"
    values = np.linspace(-1, 1, 12).reshape(3, 4)
    ioutil.write_field_f32(path, values, {"kind": "ring", "radius_m": 0.015})
    # read back by the header's own rules: ASCII "key value" lines after
    # the magic line, then the row-major float32 payload
    head, _, payload = path.read_bytes().partition(b"end-header\n")
    magic, *lines = head.decode("ascii").splitlines()
    meta = dict(line.split(" ", 1) for line in lines)
    assert magic == ioutil.FIELD_MAGIC
    assert meta["shape"] == "3x4"
    back = np.frombuffer(payload, dtype="<f4").reshape(3, 4)
    assert np.allclose(back, values, atol=1e-7)   # float32 storage
    assert meta["kind"] == "ring"
    assert meta["radius_m"] == "0.015"
    assert meta["dtype"] == "<f4"


def test_atomic_write_creates_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.txt"
    ioutil.atomic_write_text(path, "hello")
    assert path.read_text() == "hello"
    assert not path.with_name("out.txt.tmp").exists()


def test_writers_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    columns = ([i * 0.1 for i in range(5)], [f"p{i}" for i in range(5)])
    ioutil.write_csv(a, ("x", "id"), columns)
    ioutil.write_csv(b, ("x", "id"), columns)
    assert a.read_bytes() == b.read_bytes()


def test_atomic_write_concurrent_writers(tmp_path):
    # each writer needs its own temp file: with a shared one, a rename by
    # one writer pulls the file from under another writer's rename
    path = tmp_path / "shared.bin"
    payloads = [bytes([i]) * 100_000 for i in range(4)]
    errors = []

    def writer(payload):
        try:
            for _ in range(30):
                ioutil.atomic_write_bytes(path, payload)
        except Exception as exc:        # recorded, asserted below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_bytes() in payloads
    assert os.listdir(tmp_path) == ["shared.bin"]


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"x")
    ioutil.atomic_write_bytes(tmp_path / "atomic.txt", b"x")
    assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode
