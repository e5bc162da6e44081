"""Properties of the closed-circle unwrap and the sinusoid fit.

* Wrapping a closed ring field whose every step (the one from the last
  sample back to the first included) is under pi, and whose mean lies
  within pi of zero, then unwrapping it gives the field back.
* ``fit_eq1`` is equivariant: rolling the samples by ``shift`` steps moves
  ``phi`` by ``n * shift * dtheta`` (mod 2 pi), and ``c * v + o`` scales
  ``A`` by ``|c|``, maps ``delta`` to ``c * delta + o`` and turns ``phi``
  by pi when ``c < 0``.
* Without phase noise, swapping the two strobe fields negates the wrapped
  stroboscopic phase wherever it lies inside (-pi, pi).
* A traveling wave seen at strobe phases whose sorted gaps are all under
  180 degrees classifies as traveling, in either direction.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statorlab.analysis import (CircleSample, FitResult, fit_eq1,
                                track_strobe_phase)
from statorlab.grids import DisplacementField, RingGrid
from statorlab.holography import (OpticalConfig, _unwrap_closed, stroboscopic,
                                  wrap_phase)

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None,
                    database=None)


@st.composite
def ring_fields(draw):
    count = draw(st.integers(min_value=4, max_value=256))
    half = draw(st.floats(min_value=0.01, max_value=0.45 * math.pi))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # uniform steps, or every step at the limit with a random sign
    if draw(st.booleans()):
        steps = rng.uniform(-half, half, count)
    else:
        steps = half * rng.choice([-1.0, 1.0], count)
    # zero-sum steps close the ring; each stays within 2 * half < pi
    steps -= steps.mean()
    u = np.concatenate([[0.0], np.cumsum(steps[:-1])])
    mean = draw(st.floats(min_value=-0.99 * math.pi, max_value=0.99 * math.pi))
    return u - u.mean() + mean


@PROPERTY
@given(ring_fields())
def test_unwrap_inverts_wrap_on_closed_rings(u):
    got = _unwrap_closed(wrap_phase(u), "ring")
    assert np.max(np.abs(got - u)) <= 1e-12 * max(1.0, np.max(np.abs(u)))


def _sample(values):
    theta = 2.0 * math.pi * np.arange(values.size) / values.size
    return CircleSample(radius=1e-2, theta=theta, values=values)


def _angle(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@st.composite
def fit_cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    count = draw(st.integers(min_value=2 * n + 2, max_value=96))
    A = draw(st.floats(min_value=1e-3, max_value=1e3))
    phi = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    delta = draw(st.floats(min_value=-10.0, max_value=10.0)) * A
    # anything else on the circle, up to a tenth of the amplitude
    rest = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        -0.1, 0.1, count)
    theta = 2.0 * math.pi * np.arange(count) / count
    values = A * (np.sin(n * theta + phi) + rest) + delta
    return n, values


@PROPERTY
@given(fit_cases(), st.integers(min_value=0, max_value=95))
def test_fit_rotation_equivariance(case, shift):
    n, values = case
    shift %= values.size
    base = fit_eq1(_sample(values), n)
    rolled = fit_eq1(_sample(np.roll(values, -shift)), n)
    turn = n * shift * 2.0 * math.pi / values.size
    scale = max(base.A, abs(base.delta))
    assert abs(_angle(rolled.phi - base.phi - turn)) <= 1e-9 * scale / base.A
    assert math.isclose(rolled.A, base.A, rel_tol=1e-9, abs_tol=1e-12 * scale)
    assert math.isclose(rolled.delta, base.delta, rel_tol=1e-9, abs_tol=1e-12 * scale)


@PROPERTY
@given(fit_cases(),
       st.floats(min_value=1e-6, max_value=1e6),
       st.booleans(),
       st.floats(min_value=-10.0, max_value=10.0))
def test_fit_scale_and_offset_equivariance(case, c, negative, offset):
    n, values = case
    c = -c if negative else c
    base = fit_eq1(_sample(values), n)
    o = offset * abs(c) * base.A
    moved = fit_eq1(_sample(c * values + o), n)
    scale = abs(c) * max(base.A, abs(base.delta)) + abs(o)
    assert math.isclose(moved.A, abs(c) * base.A, rel_tol=1e-9, abs_tol=1e-12 * scale)
    assert math.isclose(moved.delta, c * base.delta + o, rel_tol=1e-9,
                        abs_tol=1e-12 * scale)
    turn = math.pi if c < 0 else 0.0
    assert abs(_angle(moved.phi - base.phi - turn)) <= 1e-9 * scale / moved.A


@st.composite
def strobe_pairs(draw):
    count = draw(st.integers(min_value=8, max_value=256))
    # up to a micrometre: the phase difference wraps many times over
    scale = draw(st.floats(min_value=1e-10, max_value=1e-6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ring = RingGrid(radius=12e-3, count=count)
    return (DisplacementField(ring, scale * rng.standard_normal(count)),
            DisplacementField(ring, scale * rng.standard_normal(count)))


@PROPERTY
@given(strobe_pairs())
def test_swapped_strobes_negate_the_wrapped_phase(fields):
    a, b = fields
    optics = OpticalConfig(noise_sigma=0.0)
    ab = stroboscopic(a, b, optics).phase
    ba = stroboscopic(b, a, optics).phase
    # wrap_phase rounds x - pi and x + pi; the two calls may round apart
    tol = 4.0 * np.finfo(float).eps * (
        optics.sensitivity_factor * np.abs(b.values - a.values) + math.pi)
    inside = np.abs(ab) < math.pi - tol
    assert np.all(np.abs(ba + ab)[inside] <= tol[inside])


@st.composite
def traveling_sweeps(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    direction = draw(st.sampled_from([-1.0, 1.0]))
    A = draw(st.floats(min_value=1e-9, max_value=1e-6))
    phi0 = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    start = draw(st.floats(min_value=-360.0, max_value=360.0))
    gaps = draw(st.lists(st.floats(min_value=1.0, max_value=179.9),
                         min_size=2, max_size=8))
    strobes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    fits = []
    for deg in strobes:
        # the fitted phase of a traveling wave turns with the strobe phase
        phi = float(wrap_phase(phi0 + direction * math.radians(deg)))
        fits.append((float(deg), FitResult(A=A, n=n, phi=phi, delta=0.0,
                                           rms_residual=0.0)))
    return draw(st.permutations(fits))


@PROPERTY
@given(traveling_sweeps())
def test_gaps_under_180_degrees_track_a_traveling_wave(fits):
    assert track_strobe_phase(fits).classification == "traveling"
