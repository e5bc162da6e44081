import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0, jn_zeros

from statorlab import holography
from statorlab.errors import DomainError, GridMismatchError, UnwrapError
from statorlab.grids import DisplacementField, RasterGrid, RingGrid
from statorlab.holography import (FringeImage, OpticalConfig, PhaseMap,
                                  first_dark_fringe_amplitude, stroboscopic,
                                  time_averaged, unwrap_to_displacement,
                                  wrap_phase)


@pytest.fixture(scope="module")
def optics():
    return OpticalConfig()


def test_default_sensitivity(optics):
    assert optics.sensitivity_factor == pytest.approx(4 * np.pi / 532e-9,
                                                      rel=1e-12)


def test_optical_config_validation():
    with pytest.raises(DomainError):
        OpticalConfig(wavelength=0.0)
    with pytest.raises(DomainError):
        OpticalConfig(strobe_duty=0.0)
    with pytest.raises(DomainError):
        OpticalConfig(strobe_duty=0.3)
    with pytest.raises(DomainError):
        OpticalConfig(noise_sigma=-0.1)
    with pytest.raises(DomainError):
        OpticalConfig(amplitude_clip=0.0)


@pytest.mark.parametrize("x,expected", [
    (0.0, 0.0),
    (np.pi, np.pi),
    (-np.pi, np.pi),           # principal interval is half open at -pi
    (3 * np.pi, np.pi),
    (2 * np.pi, 0.0),
    (-0.1, -0.1),
    (np.nextafter(np.pi, 4), np.pi),   # np.mod rounds this one to -2 pi
])
def test_wrap_phase_table(x, expected):
    assert wrap_phase(x) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(np.nextafter(np.pi, np.inf))
@example(np.nextafter(np.pi, -np.inf))
@example(np.nextafter(-np.pi, np.inf))
@example(np.nextafter(-np.pi, -np.inf))
@example(np.nextafter(3 * np.pi, np.inf))
@example(np.nextafter(-399 * np.pi, -np.inf))
def test_wrap_phase_lands_in_the_principal_interval(x):
    w = wrap_phase(x)
    assert -np.pi < w <= np.pi


def test_wrap_phase_periodicity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, 200)
    for k in (-2, 1, 5):
        assert np.allclose(wrap_phase(x + 2 * np.pi * k), wrap_phase(x),
                           atol=1e-9)
    out = wrap_phase(rng.uniform(-50, 50, 1000))
    assert np.all(out > -np.pi) and np.all(out <= np.pi)


def test_time_averaged_matches_exposure_integral(optics):
    """J0^2 against a brute-force average of the exposure phasor."""
    amps = np.array([0.0, 30e-9, 101.8e-9, 150e-9] * 4)
    ring = RingGrid(radius=10e-3, count=amps.size)
    img = time_averaged(DisplacementField(ring, amps), optics)
    k = optics.sensitivity_factor
    t = np.linspace(0, 2 * np.pi, 20001)
    for a, intensity in zip(amps, img.intensity):
        brute = abs(np.trapezoid(np.exp(1j * k * a * np.sin(t)), t)
                    / (2 * np.pi)) ** 2
        assert intensity == pytest.approx(brute, abs=1e-6)
    # nodal lines are the bright ones
    assert img.intensity[0] == pytest.approx(1.0)


def test_time_averaged_sign_blind(optics):
    ring = RingGrid(radius=10e-3, count=16)
    a = np.full(16, 50e-9)
    up = time_averaged(DisplacementField(ring, a), optics)
    down = time_averaged(DisplacementField(ring, -a), optics)
    assert np.array_equal(up.intensity, down.intensity)


def test_time_averaged_clips_with_warning(optics):
    ring = RingGrid(radius=10e-3, count=16)
    big = np.full(16, 5e-6)
    with pytest.warns(RuntimeWarning, match="clipped"):
        img = time_averaged(DisplacementField(ring, big), optics)
    assert np.all(img.intensity == holography._j0(
        np.full(16, optics.sensitivity_factor * optics.amplitude_clip)) ** 2)


# scipy.special.j0 is the reference; _j0 switches from its Taylor table
# to the Hankel expansion at x = 50
J0_TOL = 2e-15


@pytest.mark.parametrize("x", [
    np.linspace(0.0, 60.0, 600_001),
    np.geomspace(1e-12, 1e6, 200_001),
    np.array([np.nextafter(50.0, -np.inf), 50.0, np.nextafter(50.0, np.inf)]),
], ids=["dense-0-60", "geometric-to-1e6", "split"])
def test_j0_matches_scipy(x):
    assert np.max(np.abs(holography._j0(x) - j0(x))) <= J0_TOL


def test_j0_at_zero_is_one():
    assert holography._j0(np.zeros(1))[0] == 1.0


def test_time_averaged_far_range_matches_scipy():
    # a clip of 1 um at k = 1e10 rad/m lets the argument reach 1e4
    optics = OpticalConfig(sensitivity_factor=1e10, amplitude_clip=1e-6)
    amps = np.linspace(0.0, 1e-6, 4001)
    ring = RingGrid(radius=10e-3, count=amps.size)
    img = time_averaged(DisplacementField(ring, amps), optics)
    assert np.max(np.abs(img.intensity - j0(1e10 * amps) ** 2)) <= J0_TOL


def test_time_averaged_masks_invalid_pixels(optics):
    grid = RasterGrid(inner_radius=4e-3, outer_radius=10e-3, pixels=32)
    still = np.zeros(grid.shape)[grid.mask]
    img = time_averaged(DisplacementField(grid, still), optics)
    assert np.all(img.intensity[~grid.mask] == 0.0)
    assert np.all(img.intensity[grid.mask] == 1.0)


def test_first_dark_fringe_value(optics):
    a = first_dark_fringe_amplitude(optics)
    assert a == pytest.approx(101.8e-9, abs=0.5e-9)
    # doubling the wavelength doubles the dark-fringe amplitude
    red = OpticalConfig(wavelength=1064e-9)
    assert first_dark_fringe_amplitude(red) == pytest.approx(2 * a, rel=1e-12)
    # the embedded first zero of J0 is scipy's, bit for bit
    assert a == float(jn_zeros(0, 1)[0]) / optics.sensitivity_factor


def test_stroboscopic_antisymmetry(optics):
    ring = RingGrid(radius=12e-3, count=64)
    rng = np.random.default_rng(11)
    a = DisplacementField(ring, 40e-9 * rng.standard_normal(64))
    b = DisplacementField(ring, 40e-9 * rng.standard_normal(64))
    ab = stroboscopic(a, b, optics)
    ba = stroboscopic(b, a, optics)
    assert np.allclose(ba.phase, wrap_phase(-ab.phase), atol=1e-12)


def test_stroboscopic_grid_and_noise_rules(optics):
    ring = RingGrid(radius=12e-3, count=64)
    other = RingGrid(radius=12e-3, count=65)
    a = DisplacementField(ring, np.zeros(64))
    with pytest.raises(GridMismatchError):
        stroboscopic(a, DisplacementField(other, np.zeros(65)), optics)
    noisy = OpticalConfig(noise_sigma=0.05)
    with pytest.raises(DomainError, match="rng"):
        stroboscopic(a, a, noisy)
    pm1 = stroboscopic(a, a, noisy, rng=np.random.default_rng(5))
    pm2 = stroboscopic(a, a, noisy, rng=np.random.default_rng(5))
    assert np.array_equal(pm1.phase, pm2.phase)


def test_unwrap_recovers_smooth_bump(optics):
    # about 2 rad of peak phase, no wraps anywhere
    ring = RingGrid(radius=12e-3, count=180)
    k = optics.sensitivity_factor
    disp = (2.0 / k) * np.exp(np.cos(ring.theta) - 1.0)
    zero = DisplacementField(ring, np.zeros(180))
    pm = stroboscopic(zero, DisplacementField(ring, disp), optics)
    out = unwrap_to_displacement(pm, optics)
    assert np.max(np.abs(out.values - disp)) < 1e-12 * np.max(np.abs(disp))


def test_unwrap_crosses_branch_cuts(optics):
    # 3 rad of amplitude wraps the phase several times around the circle
    ring = RingGrid(radius=12e-3, count=360)
    k = optics.sensitivity_factor
    disp = (3.0 / k) * np.sin(4 * ring.theta + 0.2)
    zero = DisplacementField(ring, np.zeros(360))
    pm = stroboscopic(zero, DisplacementField(ring, disp), optics)
    assert np.min(np.diff(np.sign(pm.phase))) < 0   # really wrapped
    out = unwrap_to_displacement(pm, optics)
    assert np.max(np.abs(out.values - disp)) < 1e-12 * np.max(np.abs(disp))


def test_unwrap_zero_field(optics):
    ring = RingGrid(radius=12e-3, count=64)
    zero = DisplacementField(ring, np.zeros(64))
    pm = stroboscopic(zero, zero, optics)
    out = unwrap_to_displacement(pm, optics)
    assert np.all(out.values == 0.0)


def test_unwrap_rejects_nonzero_winding(optics):
    ring = RingGrid(radius=12e-3, count=90)
    # one full turn of phase around the loop cannot come from a
    # single-valued displacement difference
    pm = PhaseMap(ring, wrap_phase(ring.theta), 0.0, 60.0)
    with pytest.raises(UnwrapError, match="winding"):
        unwrap_to_displacement(pm, optics)


def test_unwrap_raster_route(optics):
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=256)
    k = optics.sensitivity_factor
    amp = 2.0 / k
    values = np.zeros(grid.shape)
    m = grid.mask
    values[m] = amp * np.sin(4 * grid.theta[m]) * (grid.r[m] / 15e-3)
    zero = DisplacementField(grid, np.zeros(grid.shape)[m])
    pm = stroboscopic(zero, DisplacementField(grid, values[m]), optics)
    out = unwrap_to_displacement(pm, optics, radius=12e-3)
    assert isinstance(out.grid, RingGrid)
    truth = amp * (12e-3 / 15e-3) * np.sin(4 * out.grid.theta)
    assert np.max(np.abs(out.values - truth)) < 1e-3 * amp
    with pytest.raises(DomainError, match="radius"):
        unwrap_to_displacement(pm, optics)
    with pytest.raises(DomainError):
        unwrap_to_displacement(pm, optics, radius=20e-3)


@pytest.mark.parametrize("count", [360, 97])
def test_unwrap_raster_equals_full_map_phasors(optics, count):
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=128)
    amp = 3.0 / optics.sensitivity_factor
    values = np.zeros(grid.shape)
    m = grid.mask
    values[m] = amp * np.sin(4 * grid.theta[m] + 0.3) * (grid.r[m] / 15e-3)
    zero = DisplacementField(grid, np.zeros(grid.shape)[m])
    noisy = OpticalConfig(noise_sigma=0.05)
    pm = stroboscopic(zero, DisplacementField(grid, values[m]), noisy,
                      rng=np.random.default_rng(3))
    got = unwrap_to_displacement(pm, noisy, radius=12e-3, count=count)
    # the cos/sin of the whole phase map, sampled, then the angle
    ring = RingGrid(radius=12e-3, count=count)
    rows, cols, fr, fc = holography._bilinear_stencil(grid, ring.r, ring.theta)
    coss = holography._bilinear_blend(np.cos(pm.phase)[rows, cols], fr, fc)
    sins = holography._bilinear_blend(np.sin(pm.phase)[rows, cols], fr, fc)
    sampled = np.arctan2(sins, coss)
    sampled[sampled <= -np.pi] = np.pi
    expected = holography._unwrap_closed(sampled, "reference")
    assert np.array_equal(got.values, expected / noisy.sensitivity_factor)


@pytest.mark.parametrize("count", [0, 7])
def test_raster_unwrap_refuses_too_few_samples(optics, count):
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=64)
    pm = PhaseMap(grid, np.zeros(grid.shape)[grid.mask], 0.0, 60.0)
    with pytest.raises(DomainError, match=f"must be >= 8, got {count}"):
        unwrap_to_displacement(pm, optics, radius=12e-3, count=count)
    # only a count left out takes the default
    assert unwrap_to_displacement(pm, optics, radius=12e-3).grid.count == 360


def test_ring_unwrap_refuses_another_circle(optics):
    ring = RingGrid(radius=15e-3, count=90)
    pm = PhaseMap(ring, np.zeros(90), 0.0, 60.0)
    for radius, count, fragment in ((10e-3, 12, "radius"),
                                    (10e-3, None, "radius"),
                                    (15e-3 * (1 + 1e-8), None, "radius"),
                                    (None, 12, "90 samples, asked for 12")):
        with pytest.raises(DomainError, match=fragment):
            unwrap_to_displacement(pm, optics, radius=radius, count=count)
    # the ring's own circle, to rounding, is the ring
    out = unwrap_to_displacement(pm, optics, radius=15e-3 * (1 + 1e-12),
                                 count=90)
    assert out.grid is ring


def test_phase_map_validation():
    ring = RingGrid(radius=12e-3, count=16)
    with pytest.raises(DomainError):
        PhaseMap(ring, np.full(16, 4.0), 0.0, 60.0)


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
def test_fringe_image_refuses_a_sample_outside_the_unit_range(bad):
    ring = RingGrid(radius=12e-3, count=16)
    samples = np.full(16, 0.5)
    samples[3] = bad
    with pytest.raises(DomainError, match="outside"):
        FringeImage(ring, samples)
    # the end points are in range
    FringeImage(ring, np.linspace(0.0, 1.0, 16))


@pytest.mark.parametrize("record,raster", [
    (DisplacementField, "values"),
    (FringeImage, "intensity"),
    (lambda grid, s: PhaseMap(grid, s, 0.0, 60.0), "phase"),
], ids=["field", "fringes", "phase"])
def test_records_hold_one_sample_per_masked_pixel(record, raster):
    grid = RasterGrid(inner_radius=4e-3, outer_radius=10e-3, pixels=32)
    image = np.zeros(grid.shape)
    image[grid.mask] = np.linspace(0.1, 0.9, np.count_nonzero(grid.mask))
    rec = record(grid, image[grid.mask])
    # each read forms a new raster with the samples on the mask, 0 off it
    first = getattr(rec, raster)
    assert np.array_equal(first, image)
    assert first is not getattr(rec, raster)
    for wrong in (image, image[grid.mask][1:]):
        with pytest.raises(GridMismatchError, match="masked samples"):
            record(grid, wrong)


@pytest.mark.parametrize("block", [1000, 10 ** 6])
def test_j0_table_in_blocks_equals_one_built_in_one_shot(monkeypatch, block):
    table = holography._j0_table()
    # 10**6 nodes exceed the table: one block, the whole (nodes, 32) array
    monkeypatch.setattr(holography, "_J0_BLOCK", block)
    assert np.array_equal(holography._j0_table.__wrapped__(), table)
