"""``probe`` against the formulation it replaced.

``_probe_ref`` is the probe as it was before it read only the driven
rows: one point at a time, every mode's shape at the point, contracted
with the complex state in one complex product.  ``probe`` must match it
bit for bit at theta = 0 (the default probe line, in both phase layouts),
within 1e-16 of the peak off that line, and give zeros for a trajectory
with no live row.

When every row is live the two sum 14 products in different orders, and
no real contraction reproduces the complex one's: the reference itself,
evaluated at three points in one product instead of one at a time, moves
by up to 4 ulps of the peak (30 seeded all-live trajectories).  That case
is held to 8 machine epsilons of the peak.
"""

import numpy as np
import pytest

from statorlab.dynamics import DriveConfig, _settling_time, probe, respond
from statorlab.errors import DomainError
from statorlab.modal import radial_shapes

POINTS_RADII = (10.2e-3, 12.5e-3, 15.0e-3)


def _probe_ref(basis, trajectory, points, band=0.05):
    """(displacement, envelope, steady amplitude, settling time) per point."""
    results = []
    for (r, th) in points:
        shapes = (radial_shapes(basis.modes, r)
                  * np.array([m.angular(th) for m in basis]))
        u = shapes @ trajectory.q
        steady = abs(complex(shapes @ trajectory.steady))
        env = np.abs(u)
        results.append((u.real, env, steady,
                        _settling_time(trajectory.times, env, steady, band)))
    return results


def _drive(basis, layout="quadrature", force_per_volt=1.0):
    return DriveConfig(drive_frequency=basis.frequency_for(4),
                       force_per_volt=force_per_volt, electrode_harmonic=4,
                       phase_layout=layout)


def _worst(basis, traj, points):
    """Largest deviation from the reference over each series, relative to
    that series' peak, and whether every settling time is equal."""
    worst, settled = 0.0, True
    for s, (disp, env, steady, settle) in zip(probe(basis, traj, points),
                                              _probe_ref(basis, traj, points)):
        for got, want in ((s.displacement, disp), (s.envelope, env),
                          (s.steady_amplitude, steady)):
            peak = np.max(np.abs(want))
            worst = max(worst, np.max(np.abs(got - want)) / peak)
        settled &= s.settling_time == settle
    return worst, settled


@pytest.mark.parametrize("layout", ["quadrature", "single"])
def test_probe_equals_reference_bit_for_bit_at_theta_zero(basis, layout):
    traj = respond(basis, _drive(basis, layout), duration=8e-3)
    points = [(r, 0.0) for r in POINTS_RADII]
    for s, (disp, env, steady, settle) in zip(probe(basis, traj, points),
                                              _probe_ref(basis, traj, points)):
        assert np.array_equal(s.displacement, disp)
        assert np.array_equal(s.envelope, env)
        assert s.steady_amplitude == steady
        assert s.settling_time == settle


def test_probe_matches_reference_off_axis(basis):
    traj = respond(basis, _drive(basis), duration=8e-3)
    worst, settled = _worst(basis, traj, [(r, 2.3) for r in POINTS_RADII])
    assert worst <= 1e-16 and settled


def test_probe_matches_reference_with_every_row_live(basis, trajectory_from):
    rng = np.random.default_rng(11)
    start = (rng.standard_normal(len(basis))
             + 1j * rng.standard_normal(len(basis))) * 1e-8
    traj = trajectory_from(basis, _drive(basis), 2e-3, start)
    assert traj.q.any(axis=1).all()
    worst, settled = _worst(basis, traj, [(r, 2.3) for r in POINTS_RADII])
    assert worst <= 8 * np.finfo(float).eps and settled


def test_probe_without_a_live_row_is_zero(basis):
    traj = respond(basis, _drive(basis, force_per_volt=0.0), duration=1e-3)
    assert not traj.q.any()
    points = [(r, 2.3) for r in POINTS_RADII]
    for s, (disp, env, steady, settle) in zip(probe(basis, traj, points),
                                              _probe_ref(basis, traj, points)):
        assert not s.displacement.any() and not s.envelope.any()
        assert s.steady_amplitude == steady == 0.0
        assert s.settling_time == settle == 0.0


def test_probe_takes_any_iterable_of_points(basis):
    traj = respond(basis, _drive(basis), duration=2e-3)
    points = [(r, 0.5) for r in POINTS_RADII]
    listed = probe(basis, traj, points)
    generated = probe(basis, traj, ((r, th) for r, th in points))
    assert [s.point for s in generated] == points
    for a, b in zip(listed, generated):
        assert np.array_equal(a.displacement, b.displacement)
    assert probe(basis, traj, []) == []
    with pytest.raises(DomainError, match="r=0.02 outside the stator"):
        probe(basis, traj, [(15e-3, 0.0), (20e-3, 0.0)])
