"""The exposure path against the formulations it replaced.

``_mode_shapes_on_ref``, ``_render_ref``, ``_j0_ref``,
``_time_averaged_ref``, ``_wrap_phase_ref``, ``_stroboscopic_ref`` and
``_detect_mode_number_ref`` are the renders, holograms and harmonic
detection as they were before the exposure worked on real masked arrays:
the envelope contracted a complex state with the shape table cast to
complex and took ``np.abs`` of a complex raster, ``time_averaged`` and
``stroboscopic`` did their arithmetic over the full raster, and
``detect_mode_number`` projected onto a (count/8) x count complex matrix.

``time_averaged`` and ``stroboscopic`` must match them bit for bit (the
seeded phase noise included), the steady envelope within 2 ulps of its
peak, and detection must pick the same harmonic on any uniform full
circle.  ``wrap_phase`` matches its old formula everywhere except where
that formula returned -pi, outside the principal interval.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statorlab import dynamics, holography
from statorlab.analysis import CircleSample, detect_mode_number
from statorlab.dynamics import (DriveConfig, respond, snapshot_at_strobe,
                                steady_envelope)
from statorlab.errors import SamplingError
from statorlab.grids import DisplacementField, RasterGrid, RingGrid
from statorlab.holography import (OpticalConfig, stroboscopic, time_averaged,
                                  wrap_phase)
from statorlab.modal import radial_shapes

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None,
                    database=None)


def _mode_shapes_on_ref(modes, grid):
    shapes = radial_shapes(modes, grid.radii)[:, grid.radius_index]
    theta = grid.theta[grid.mask]
    for row, m in zip(shapes, modes):
        row *= m.angular(theta)
    return shapes


def _render_ref(basis, grid, state):
    values = np.zeros(grid.shape, dtype=state.dtype)
    live = np.flatnonzero(state)
    if live.size:
        modes = tuple(basis.modes[k] for k in live)
        values[grid.mask] = state[live] @ _mode_shapes_on_ref(modes, grid)
    return values


def _j0_ref(x):
    x = np.asarray(x, dtype=float)
    xs = np.minimum(x, holography._J0_SPLIT) * holography._J0_NODES
    j = (xs + 0.5).astype(np.intp)
    u = xs - j
    c = holography._j0_table()
    out = np.take(c[holography._J0_DEGREE], j)
    for k in range(holography._J0_DEGREE - 1, -1, -1):
        out *= u
        out += np.take(c[k], j)
    far = x >= holography._J0_SPLIT
    out[far] = holography._j0_far(x[far])
    return out


def _time_averaged_ref(amplitude_field, optics):
    a = np.abs(amplitude_field.values)
    mask = amplitude_field.grid.mask
    if np.any(a[mask] > optics.amplitude_clip):
        warnings.warn(
            f"amplitudes above {optics.amplitude_clip:g} m clipped in "
            "time-averaged rendering", RuntimeWarning, stacklevel=2)
        a = np.minimum(a, optics.amplitude_clip)
    intensity = np.zeros(amplitude_field.values.shape)
    intensity[mask] = _j0_ref(optics.sensitivity_factor * a[mask]) ** 2
    return intensity


def _wrap_phase_ref(x):
    return np.mod(np.asarray(x, dtype=float) - np.pi, -2.0 * np.pi) + np.pi


def _stroboscopic_ref(field_a, field_b, optics, rng=None):
    raw = optics.sensitivity_factor * (field_b.values - field_a.values)
    if optics.noise_sigma > 0.0:
        raw = raw + rng.normal(0.0, optics.noise_sigma, size=raw.shape)
    phase = np.zeros(raw.shape)
    mask = field_a.grid.mask
    phase[mask] = _wrap_phase_ref(raw[mask])
    return phase


def _detect_mode_number_ref(sample):
    n_max = sample.count // 8
    centered = sample.values - sample.values.mean()
    k = np.arange(1, n_max + 1)
    coeff = np.abs(np.exp(-1.0j * np.outer(k, sample.theta)) @ centered) * (2.0 / sample.count)
    return int(k[int(np.argmax(coeff))])


def _raster(geometry, pixels):
    return RasterGrid(inner_radius=geometry.inner_radius,
                      outer_radius=geometry.outer_radius, pixels=pixels)


@pytest.fixture(scope="module")
def drive(basis):
    return DriveConfig(drive_frequency=basis.frequency_for(4),
                       electrode_harmonic=4, force_per_volt=1.0)


@pytest.fixture(scope="module")
def traj(basis, drive):
    return respond(basis, drive, duration=4e-3)


def test_steady_envelope_384px_within_2_ulps_of_reference(basis, drive,
                                                          geometry):
    grid = _raster(geometry, 384)
    got = steady_envelope(basis, drive, grid).values
    state = dynamics._mode_constants(basis, drive)[2]
    ref = np.abs(_render_ref(basis, grid, state))
    assert got.dtype == np.float64
    assert np.all(got[~grid.mask] == 0.0)
    assert np.max(np.abs(got - ref)) <= 2 * np.spacing(np.max(ref))


def test_time_averaged_bit_equal_to_reference(basis, traj, geometry):
    grid = _raster(geometry, 128)
    envelope = dynamics.field_envelope(basis, traj, grid)
    rng = np.random.default_rng(11)
    # non-zero values off the mask must be ignored, as they were
    off = envelope.values + np.where(grid.mask, 0.0,
                                     rng.uniform(-1.0, 1.0, grid.shape))
    ring = RingGrid(radius=12e-3, count=512)
    spread = rng.uniform(-3e-6, 3e-6, ring.count)      # both J0 ranges
    cases = [
        (envelope, OpticalConfig()),
        (DisplacementField(grid, off), OpticalConfig()),
        (DisplacementField(ring, spread), OpticalConfig(amplitude_clip=3e-6)),
    ]
    for fld, optics in cases:
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got = time_averaged(fld, optics)
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            ref = _time_averaged_ref(fld, optics)
        assert np.array_equal(got.intensity, ref)
        assert ([str(w.message) for w in ours]
                == [str(w.message) for w in theirs])


def test_time_averaged_above_the_clip_warns_and_matches(basis, traj,
                                                       geometry):
    grid = _raster(geometry, 128)
    loud = dynamics.field_envelope(basis, traj, grid).scaled(1e3)
    optics = OpticalConfig()
    assert np.max(np.abs(loud.values[grid.mask])) > optics.amplitude_clip
    with pytest.warns(RuntimeWarning, match="clipped") as ours:
        got = time_averaged(loud, optics)
    with pytest.warns(RuntimeWarning, match="clipped") as theirs:
        ref = _time_averaged_ref(loud, optics)
    assert np.array_equal(got.intensity, ref)
    assert str(ours[0].message) == str(theirs[0].message)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.05, 2.0])
def test_stroboscopic_bit_equal_to_reference(basis, traj, geometry,
                                             noise_sigma):
    grid = _raster(geometry, 128)
    a = snapshot_at_strobe(basis, traj, grid, 30.0)
    b = snapshot_at_strobe(basis, traj, grid, 120.0)
    optics = OpticalConfig(noise_sigma=noise_sigma)
    got = stroboscopic(a, b, optics, strobe_phases=(30.0, 120.0),
                       rng=np.random.default_rng(123456789))
    ref = _stroboscopic_ref(a, b, optics,
                            rng=np.random.default_rng(123456789))
    assert np.array_equal(got.phase, ref)
    assert (got.strobe_phase_a, got.strobe_phase_b) == (30.0, 120.0)


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(np.nextafter(np.pi, 4.0))
@example(np.nextafter(-np.pi, -4.0))
@example(np.nextafter(3.0 * np.pi, np.inf))
@example(-np.pi)
@example(0.0)
def test_wrap_phase_equals_the_old_formula_inside_the_interval(x):
    got, ref = wrap_phase(x), _wrap_phase_ref(x)
    assert got == ref or (ref == -np.pi and got == np.pi)


@st.composite
def circles(draw):
    count = draw(st.integers(min_value=16, max_value=720))
    n = draw(st.integers(min_value=1, max_value=min(7, count // 8)))
    spacing = 2.0 * math.pi / count
    offset = draw(st.floats(min_value=0.0, max_value=0.999)) * spacing
    theta = offset + spacing * np.arange(count)
    phase = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    leak = draw(st.floats(min_value=0.0, max_value=0.9))
    sigma = draw(st.floats(min_value=0.0, max_value=0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = (np.sin(n * theta + phase)
              + leak * np.cos((n + 1) * theta - 2.0 * phase)
              + sigma * rng.standard_normal(count) + 0.7)
    return CircleSample(radius=1e-2, theta=theta, values=values)


@PROPERTY
@given(circles())
def test_detect_matches_the_projection_on_full_circles(sample):
    assert detect_mode_number(sample) == _detect_mode_number_ref(sample)


def test_uniform_half_circle_refused():
    half = np.linspace(0.0, math.pi, 180, endpoint=False)
    with pytest.raises(SamplingError, match="whole circle"):
        CircleSample(radius=1e-2, theta=half, values=np.sin(4 * half))
