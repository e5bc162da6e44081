import math

import numpy as np
import pytest

from statorlab.analysis import (CircleSample, FitResult, asymmetry_index,
                                detect_mode_number, fit_eq1,
                                track_strobe_phase)
from statorlab.errors import (DomainError, NoModeError, SamplingError,
                              UndefinedIndexError)
from statorlab.grids import DisplacementField, RasterGrid, RingGrid

THETA = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)


def _sample(values, radius=15e-3, theta=THETA):
    return CircleSample(radius=radius, theta=theta, values=values)


def _wrap(x):
    return np.angle(np.exp(1j * np.asarray(x)))


def test_circle_sample_validation():
    with pytest.raises(SamplingError, match="at least 4"):
        _sample(np.zeros(3), theta=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(SamplingError, match="increasing"):
        _sample(np.zeros(4), theta=np.array([0.0, 2.0, 1.0, 3.0]))
    with pytest.raises(SamplingError, match=r"\[0, 2 pi\)"):
        _sample(np.zeros(4), theta=np.array([0.0, 2.0, 4.0, 6.5]))
    with pytest.raises(SamplingError, match="uniform"):
        _sample(np.zeros(4), theta=np.array([0.0, 1.0, 2.5, 3.0]))
    with pytest.raises(SamplingError, match="shapes"):
        _sample(np.zeros(5))
    bad = np.zeros(360)
    bad[7] = np.nan
    with pytest.raises(DomainError, match="finite"):
        _sample(bad)
    with pytest.raises(DomainError, match="complex values"):
        _sample(np.sin(3 * THETA) + 1e-3j)
    # a list sample is stored as a float64 array and fits like its array
    values = np.sin(3 * THETA + 0.3) + 0.1
    listed = _sample(values.tolist(), theta=THETA.tolist())
    assert listed.theta.dtype == listed.values.dtype == np.float64
    assert listed.count == 360 and detect_mode_number(listed) == 3
    assert fit_eq1(listed, 3) == fit_eq1(_sample(values), 3)


def test_from_field_ring_and_raster():
    ring = RingGrid(radius=12e-3, count=90)
    vals = np.cos(3 * ring.theta)
    s = CircleSample.from_field(DisplacementField(ring, vals))
    assert s.radius == 12e-3 and s.count == 90
    assert np.array_equal(s.values, vals)

    assert s.source == "simulation"
    assert CircleSample.from_field(DisplacementField(ring, vals),
                                   source="hologram").source == "hologram"

    # a raster is sampled along a circle only by the unwrap
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=128)
    field = np.zeros(grid.shape)
    field[grid.mask] = np.cos(3 * grid.theta[grid.mask])
    with pytest.raises(DomainError, match="unwrap it onto a ring first"):
        CircleSample.from_field(DisplacementField(grid, field))


@pytest.mark.parametrize("n", range(1, 8))
def test_detect_pure_harmonics(n):
    assert detect_mode_number(_sample(np.sin(n * THETA + 0.3))) == n


def test_detect_prefers_the_larger_coefficient():
    assert detect_mode_number(
        _sample(np.cos(2 * THETA) + 0.999 * np.cos(3 * THETA))) == 2
    assert detect_mode_number(
        _sample(0.999 * np.cos(2 * THETA) + np.cos(3 * THETA))) == 3


def test_detect_rejects_featureless_samples():
    with pytest.raises(NoModeError, match="constant"):
        detect_mode_number(_sample(np.full(360, 2.5)))
    # content entirely above the candidate band (360 // 8 = 45)
    with pytest.raises(NoModeError, match="noise floor"):
        detect_mode_number(_sample(np.cos(50 * THETA)))
    with pytest.raises(SamplingError, match="at least 8"):
        detect_mode_number(_sample(
            np.ones(6), theta=np.linspace(0, 2 * np.pi, 6, endpoint=False)))


def test_detect_under_noise():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vals = np.sin(4 * THETA + 0.7) + 0.05 * rng.standard_normal(360)
        hits += detect_mode_number(_sample(vals)) == 4
    assert hits >= 99


def test_fit_round_trip_is_exact():
    rng = np.random.default_rng(42)
    for _ in range(20):
        A = 10.0 ** rng.uniform(-9, -6)
        n = int(rng.integers(1, 8))
        phi = rng.uniform(-np.pi, np.pi)
        delta = A * rng.uniform(-1, 1)
        fit = fit_eq1(_sample(A * np.sin(n * THETA + phi) + delta), n)
        assert fit.A == pytest.approx(A, rel=1e-12)
        assert abs(_wrap(fit.phi - phi)) < 1e-12
        assert fit.delta == pytest.approx(delta, abs=1e-12 * A)
        assert fit.rms_residual < 1e-12 * A
        assert all(v < 1e-20 for v in fit.covariance)


def test_fit_input_guards():
    with pytest.raises(DomainError, match="n must be"):
        fit_eq1(_sample(np.sin(THETA)), 0)
    short = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    with pytest.raises(SamplingError, match="under-resolve"):
        fit_eq1(_sample(np.zeros(9), theta=short), 4)


def test_fit_zero_amplitude_phase_convention():
    fit = fit_eq1(_sample(np.full(360, 3.0e-9)), 4)
    assert fit.A < 1e-15
    assert fit.phi == 0.0
    assert fit.delta == pytest.approx(3.0e-9, rel=1e-12)


def test_fit_result_validation():
    with pytest.raises(DomainError, match="A >= 0"):
        FitResult(A=-1.0, n=4, phi=0.0, delta=0.0, rms_residual=0.0,
                  covariance=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="normalized"):
        FitResult(A=1.0, n=4, phi=4.0, delta=0.0, rms_residual=0.0,
                  covariance=(0.0, 0.0, 0.0, 0.0))


def test_fit_variance_tracks_noise_level():
    rng = np.random.default_rng(7)
    theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    sigma = 0.01
    vals = np.sin(4 * theta + 0.5) + sigma * rng.standard_normal(720)
    fit = fit_eq1(_sample(vals, theta=theta), 4)
    var_A, _, var_phi, var_delta = fit.covariance
    # orthogonal design: Var(delta) = sigma^2 / N, Var(A) ~ 2 sigma^2 / N
    assert var_delta == pytest.approx(sigma ** 2 / 720, rel=1.0)
    assert var_A == pytest.approx(2 * sigma ** 2 / 720, rel=1.0)
    assert var_phi > 0.0


def test_fit_rotation_equivariance():
    n, phi0 = 4, 0.3
    vals = np.sin(n * THETA + phi0) + 0.2
    base = fit_eq1(_sample(vals), n)
    for shift in (1, 13, 90):
        rolled = fit_eq1(_sample(np.roll(vals, -shift)), n)
        dtheta = shift * (2 * np.pi / 360)
        assert abs(_wrap(rolled.phi - base.phi - n * dtheta)) < 1e-12
        assert rolled.A == pytest.approx(base.A, rel=1e-12)


def test_fit_scale_equivariance():
    vals = np.sin(5 * THETA - 1.1) + 0.4
    base = fit_eq1(_sample(vals), 5)
    scaled = fit_eq1(_sample(1.75e-7 * vals), 5)
    assert scaled.A == pytest.approx(1.75e-7 * base.A, rel=1e-14)
    assert scaled.delta == pytest.approx(1.75e-7 * base.delta, rel=1e-14)
    assert scaled.phi == pytest.approx(base.phi, abs=1e-14)


def _fit_at(A, phi, n=4):
    return FitResult(A=A, n=n, phi=float(_wrap(phi)), delta=0.0,
                     rms_residual=0.0, covariance=(0.0, 0.0, 0.0, 0.0))


def test_track_traveling():
    degs = [0.0, 30.0, 60.0, 90.0, 120.0, 150.0]
    fits = [(d, _fit_at(1.0, 0.4 - math.radians(d))) for d in degs]
    track = track_strobe_phase(fits)
    assert track.classification == "traveling"
    assert track.rotation_rate == pytest.approx(-0.25, abs=1e-9)
    assert track.standing_wave_ratio == pytest.approx(1.0, abs=1e-12)
    assert track.amplitude_cv < 1e-12
    assert track.n == 4


def test_track_standing():
    degs = [0.0, 30.0, 60.0, 120.0, 150.0]   # skip the amplitude null
    fits = []
    for d in degs:
        c = math.cos(math.radians(d))
        fits.append((d, _fit_at(abs(c), 0.4 if c > 0 else 0.4 + math.pi)))
    track = track_strobe_phase(fits)
    assert track.classification == "standing"
    assert track.phase_spread_deg < 1e-6
    assert track.standing_wave_ratio == pytest.approx(2.0, rel=1e-12)


def test_track_mixed():
    degs = [0.0, 30.0, 60.0, 90.0, 120.0, 150.0]
    fits = [(d, _fit_at(1.0 + 0.3 * math.cos(math.radians(d)),
                        -0.5 * math.radians(d))) for d in degs]
    assert track_strobe_phase(fits).classification == "mixed"


def test_track_input_guards():
    fits = [(0.0, _fit_at(1.0, 0.0)), (60.0, _fit_at(1.0, 0.0))]
    with pytest.raises(SamplingError, match="at least 3"):
        track_strobe_phase(fits)
    # repeated strobe phases do not count twice
    with pytest.raises(SamplingError, match="at least 3"):
        track_strobe_phase(fits + [(60.0, _fit_at(1.0, 0.0))])
    # a step of half a cycle or more between strobes aliases in the unwrap
    with pytest.raises(SamplingError, match="180 deg apart"):
        track_strobe_phase(fits + [(240.0, _fit_at(1.0, 0.0))])
    fits.append((120.0, _fit_at(1.0, 0.0, n=3)))
    with pytest.raises(DomainError, match="mix harmonics"):
        track_strobe_phase(fits)


def test_asymmetry_index_contrast():
    pure = np.sin(4 * THETA + 0.3)
    tainted = pure + 0.10 * np.sin(5 * THETA + 0.4)
    fits_pure = [(d, fit_eq1(_sample(pure), 4)) for d in (0.0, 60.0)]
    fits_bad = [(d, fit_eq1(_sample(tainted), 4)) for d in (0.0, 60.0)]
    assert asymmetry_index(fits_pure) < 1e-12
    # a 10% foreign harmonic leaves rms/A = 0.1/sqrt(2)
    assert asymmetry_index(fits_bad) == pytest.approx(0.0707, abs=0.02)


def test_asymmetry_index_guards():
    flat = fit_eq1(_sample(np.zeros(360)), 4)
    with pytest.raises(UndefinedIndexError, match="undefined"):
        asymmetry_index([(0.0, flat), (60.0, flat)])
    with pytest.raises(SamplingError, match="at least 2"):
        asymmetry_index([(0.0, _fit_at(1.0, 0.0))])
