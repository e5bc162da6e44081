import dataclasses

import numpy as np
import pytest

from statorlab import dynamics
from statorlab.dynamics import (DriveConfig, ExternalMode, _mode_constants,
                                calibrate_force_per_volt, field_at,
                                field_envelope, lateral_mode_proxy,
                                lorentzian_weight, mixed_response, probe,
                                respond, settling_damping_ratio,
                                snapshot_at_strobe, steady_envelope)
from statorlab.errors import DomainError, NumericalError, TimeStepError
from statorlab.grids import RasterGrid, RingGrid
from statorlab.modal import radial_shapes, solve_modes


@pytest.fixture(scope="module")
def drive(basis):
    f4 = basis.frequency_for(4)
    return DriveConfig(drive_frequency=f4, peak_to_peak_voltage=100.0,
                       force_per_volt=1.0, electrode_harmonic=4,
                       phase_layout="quadrature")


@pytest.fixture(scope="module")
def traj(basis, drive):
    return respond(basis, drive, duration=8e-3)


def test_drive_config_validation():
    with pytest.raises(DomainError):
        DriveConfig(drive_frequency=0.0)
    with pytest.raises(DomainError):
        DriveConfig(drive_frequency=1e4, peak_to_peak_voltage=-1.0)
    with pytest.raises(DomainError):
        DriveConfig(drive_frequency=1e4, force_per_volt=-0.1)
    with pytest.raises(DomainError):
        DriveConfig(drive_frequency=1e4, electrode_harmonic=0)
    with pytest.raises(DomainError):
        DriveConfig(drive_frequency=1e4, phase_layout="triple")


def test_modal_force_selectivity(basis, drive):
    for mode in basis:
        F = drive.modal_force(mode)
        if mode.n != 4:
            assert F == 0.0
        elif mode.orientation == "cos":
            assert F.real > 0.0 and F.imag == 0.0
        else:
            # quadrature partner lags 90 degrees: pure -i phasor
            assert F.imag < 0.0 and F.real == 0.0
    single = DriveConfig(drive_frequency=drive.drive_frequency,
                         force_per_volt=1.0, electrode_harmonic=4,
                         phase_layout="single")
    sin4 = basis.select(4, "sin")[0]
    assert single.modal_force(sin4) == 0.0
    assert single.modal_force(basis.select(4, "cos")[0]).real > 0.0


def test_starts_from_rest(traj):
    assert np.all(traj.q.real[:, 0] == 0.0)
    # q'(0) = i w Q + (-alpha + i wd) C, with C = q(0) - Q
    C = traj.q[:, 0] - traj.steady
    v0 = (1.0j * traj.drive.omega * traj.steady
          + (-traj.alpha + 1.0j * traj.wd) * C).real
    scale = traj.drive.omega * np.abs(traj.steady).max()
    assert np.all(np.abs(v0) < 1e-12 * scale)


def test_matches_closed_form_solution(basis, drive, traj):
    """Independent textbook solution of the driven damped oscillator.

    Derived from scratch here (real particular + homogeneous parts with
    from-rest constants) rather than reusing the propagator algebra.
    """
    w = drive.omega
    t = traj.times
    for orientation in ("cos", "sin"):
        k = next(i for i, m in enumerate(basis)
                 if m.n == 4 and m.orientation == orientation)
        mode = basis[k]
        w0 = mode.omega
        zeta = basis.damping_for(4)
        alpha = zeta * w0
        wd = w0 * np.sqrt(1 - zeta ** 2)
        F = drive.force_per_volt * 0.5 * drive.peak_to_peak_voltage \
            * np.pi * mode.radial_moment()
        delta = (w0 ** 2 - w ** 2) ** 2 + (2 * zeta * w0 * w) ** 2
        if orientation == "cos":        # forcing F cos(w t)
            xc = F * (w0 ** 2 - w ** 2) / delta
            xs = F * 2 * zeta * w0 * w / delta
        else:                           # forcing F sin(w t)
            xc = -F * 2 * zeta * w0 * w / delta
            xs = F * (w0 ** 2 - w ** 2) / delta
        bc = -xc
        bs = (alpha * bc - xs * w) / wd
        x = (xc * np.cos(w * t) + xs * np.sin(w * t)
             + np.exp(-alpha * t) * (bc * np.cos(wd * t)
                                     + bs * np.sin(wd * t)))
        amp = np.hypot(xc, xs)
        assert np.max(np.abs(traj.q[k].real - x)) < 1e-10 * amp


def test_voltage_linearity_bit_exact(basis, drive):
    import dataclasses
    loud = dataclasses.replace(drive, peak_to_peak_voltage=200.0)
    q1 = respond(basis, drive, duration=2e-3).q
    q2 = respond(basis, loud, duration=2e-3).q
    assert np.array_equal(q2, 2.0 * q1)


def test_free_decay_is_exact_exponential(basis, drive):
    # what is left of each driven row after its steady term is the free
    # decay C e^{(-alpha + i wd) t}
    traj = respond(basis, drive, duration=1e-3)
    driven = traj.steady != 0.0
    steady = traj.steady[driven, None] * np.exp(1j * drive.omega * traj.times)
    env = np.abs(traj.q[driven] - steady)
    assert np.all(np.diff(env, axis=1) < 0.0)
    ratio = env[:, 1:] / env[:, :-1]
    expected = np.exp(-traj.alpha[driven]
                      * (traj.times[1] - traj.times[0]))[:, None]
    assert np.allclose(ratio, expected, rtol=1e-12, atol=0)


def _stepped(basis, drive, times, initial=None):
    """Reference: the exact one-step recurrence on the transient part.

    Each step multiplies (state - steady phasor) by exp((-alpha + i wd) dt),
    the sampled form of the same oscillator solution.
    """
    alpha, wd, Q, C = _mode_constants(basis, drive)
    E = np.exp(1j * drive.omega * times)
    prop = np.exp((-alpha + 1j * wd) * (times[1] - times[0]))
    q = np.empty((len(basis), times.size), dtype=complex)
    q[:, 0] = Q + C if initial is None else initial
    for i in range(times.size - 1):
        q[:, i + 1] = (q[:, i] - Q * E[i]) * prop + Q * E[i + 1]
    return q


@pytest.mark.parametrize("duration", [4e-3, 8e-3, 16e-3])
@pytest.mark.parametrize("n", [1, 4, 7])
def test_closed_form_matches_step_recurrence(basis, n, duration):
    drive = DriveConfig(drive_frequency=basis.frequency_for(n),
                        electrode_harmonic=n)
    traj = respond(basis, drive, duration=duration)
    ref = _stepped(basis, drive, traj.times)
    assert np.max(np.abs(traj.q - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_closed_form_from_initial_state_matches_step_recurrence(
        basis, drive, trajectory_from):
    rng = np.random.default_rng(11)
    start = 1e-9 * (rng.standard_normal(len(basis))
                    + 1j * rng.standard_normal(len(basis)))
    traj = trajectory_from(basis, drive, 4e-3, start)
    ref = _stepped(basis, drive, traj.times, initial=start)
    assert np.max(np.abs(traj.q - ref)) <= 1e-13 * np.max(np.abs(ref))
    # state_at continues the same closed form from the first sample
    states = np.stack([traj.state_at(t) for t in traj.times[::40]], axis=1)
    assert np.max(np.abs(states - ref[:, ::40])) <= 1e-13 * np.max(np.abs(ref))


def test_time_step_guards(basis, drive):
    f_max = max(m.frequency for m in basis)
    bound = 1.0 / (20.0 * f_max)
    with pytest.raises(TimeStepError, match="sampling bound"):
        respond(basis, drive, duration=1e-3, dt=2.0 * bound)
    with pytest.raises(TimeStepError):
        respond(basis, drive, duration=1e-3, dt=-1e-6)
    with pytest.raises(TimeStepError, match="at least 5 steps"):
        respond(basis, drive, duration=2.0 * bound, dt=bound)
    traj = respond(basis, drive, duration=1e-3)
    assert traj.times[1] - traj.times[0] == pytest.approx(
        min(1.0 / (40.0 * drive.drive_frequency), bound), rel=1e-12)


def test_trajectory_size_bound(basis, drive, monkeypatch):
    dt = 1e-6
    # a trajectory at the bound is answered, one sample more is refused
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_VALUES", len(basis) * 101)
    assert respond(basis, drive, duration=100 * dt, dt=dt).q.shape == (
        len(basis), 101)
    with pytest.raises(TimeStepError, match="duration 1.010e-04 s at dt = "):
        respond(basis, drive, duration=101 * dt, dt=dt)
    monkeypatch.undo()
    # a duration / dt past the float range is too many samples, not a crash
    with pytest.raises(TimeStepError, match="gives inf samples"):
        respond(basis, drive, duration=1e-3, dt=5e-324)


def test_state_at_interpolates_exactly(traj):
    i = traj.times.size // 2
    assert np.allclose(traj.state_at(traj.times[i]), traj.q[:, i],
                       rtol=1e-12, atol=0)
    # halfway between samples the propagator is still exact; check the
    # driven mode against the steady phasor plus decayed transient
    half = 0.5 * (traj.times[1] - traj.times[0])
    t_half = traj.times[i] + half
    state = traj.state_at(t_half)
    w = traj.drive.omega
    steady = traj.steady * np.exp(1j * w * t_half)
    trans = (traj.q[:, i] - traj.steady * np.exp(1j * w * traj.times[i])) \
        * np.exp((-traj.alpha + 1j * traj.wd) * half)
    assert np.allclose(state, steady + trans, rtol=1e-12, atol=0)
    with pytest.raises(DomainError):
        traj.state_at(traj.times[-1] + 1.0)


def test_steady_state_amplitude_formula(basis, drive, traj):
    k = next(i for i, m in enumerate(basis)
             if m.n == 4 and m.orientation == "cos")
    mode = basis[k]
    F = abs(drive.modal_force(mode))
    w, w0 = drive.omega, mode.omega
    zeta = basis.damping_for(4)
    expect = F / np.hypot(w0 ** 2 - w ** 2, 2 * zeta * w0 * w)
    assert np.abs(traj.steady[k]) == pytest.approx(expect, rel=1e-12)


def test_resonant_gain_is_inverse_two_zeta():
    w0 = 2 * np.pi * 1e4
    gain = lorentzian_weight(1e4, 0.02, 1e4) * w0 ** 2
    assert gain == pytest.approx(1.0 / (2 * 0.02), rel=1e-12)


def test_settling_damping_ratio_closed_form():
    z = settling_damping_ratio(3.4e-3, 1e4)
    assert z == pytest.approx(np.log(20.0) / (3.4e-3 * 2 * np.pi * 1e4),
                              rel=1e-12)
    # the 2 percent band reproduces the t ~ 4/(zeta w) rule of thumb
    z2 = settling_damping_ratio(1.0, 1.0, band=0.02)
    assert z2 == pytest.approx(np.log(50.0) / (2 * np.pi), rel=1e-12)
    with pytest.raises(DomainError):
        settling_damping_ratio(-1.0, 1e4)
    with pytest.raises(DomainError):
        settling_damping_ratio(1e-3, 1e4, band=1.5)


def test_probe_settling_and_bounds(basis, traj):
    band = 0.05
    series = probe(basis, traj, [(15e-3, 0.0), (10.2e-3, 1.0)], band=band)
    for s in series:
        assert s.envelope.shape == s.times.shape
        assert np.isfinite(s.settling_time)
        # envelope must sit inside the band at the reported settling time
        i = np.searchsorted(s.times, s.settling_time)
        tail = np.abs(s.envelope[i + 1:] - s.steady_amplitude)
        assert np.all(tail <= band * s.steady_amplitude * (1 + 1e-9))
    with pytest.raises(DomainError):
        probe(basis, traj, [(20e-3, 0.0)])


def test_probe_unforced_point_settles_immediately(basis):
    drive = DriveConfig(drive_frequency=basis.frequency_for(4),
                        force_per_volt=0.0, electrode_harmonic=4)
    traj = respond(basis, drive, duration=1e-3)
    s = probe(basis, traj, [(15e-3, 0.0)])[0]
    assert s.steady_amplitude == 0.0
    assert s.settling_time == 0.0


def test_traveling_envelope_uniform_on_circle(basis, traj):
    ring = RingGrid(radius=15e-3, count=256)
    env = field_envelope(basis, traj, ring)
    k = next(i for i, m in enumerate(basis)
             if m.n == 4 and m.orientation == "cos")
    expect = abs(basis[k].radial(15e-3)) * abs(traj.steady[k])
    assert np.allclose(env.values, expect, rtol=1e-12)


def test_snapshot_at_strobe(basis, traj):
    ring = RingGrid(radius=15e-3, count=64)
    snap = snapshot_at_strobe(basis, traj, ring, 90.0)
    T = traj.drive.period
    t_expect = traj.times[-1] - 2 * T + 0.25 * T
    direct = field_at(basis, traj, t_expect, ring)
    assert np.array_equal(snap.values, direct.values)
    # a finite exposure window averages the sine down
    blurred = snapshot_at_strobe(basis, traj, ring, 90.0, duty=0.2)
    assert np.max(np.abs(blurred.values)) < np.max(np.abs(snap.values))
    with pytest.raises(DomainError):
        snapshot_at_strobe(basis, traj, ring, 0.0, duty=0.5)


def test_finite_strobe_equals_mean_of_instant_renders(basis, traj):
    ring = RingGrid(radius=15e-3, count=64)
    snap = snapshot_at_strobe(basis, traj, ring, 90.0, duty=0.2)
    T = traj.drive.period
    t = traj.times[-1] - 2 * T + 0.25 * T
    offsets = (np.arange(8) + 0.5) / 8 - 0.5
    mean = np.mean([field_at(basis, traj, t + f * 0.2 * T, ring).values
                    for f in offsets], axis=0)
    assert snap.time == t
    assert np.max(np.abs(snap.values - mean)) <= 1e-14 * np.max(np.abs(mean))


def _full_render(basis, grid, state):
    """Reference: contract the state with the shape of every basis mode."""
    mask = grid.mask
    shapes = np.stack([m.radial(grid.r[mask]) * m.angular(grid.theta[mask])
                       for m in basis])
    values = np.zeros(grid.shape, dtype=state.dtype)
    values[mask] = state @ shapes
    return values


def _renders_and_references(basis, traj, grid):
    """(rendered, full-basis reference) for the steady envelope, the
    magnitude of the complex state at a given t (rendered through the
    trajectory's table), an instantaneous and a finite-duty strobe."""
    T = traj.drive.period
    t_mid = 0.5 * traj.times[-1]
    t_strobe = traj.times[-1] - 2 * T + 0.25 * T
    offsets = (np.arange(8) + 0.5) / 8 - 0.5
    window = np.mean([traj.state_at(t_strobe + f * 0.2 * T).real
                      for f in offsets], axis=0)
    return [
        (field_envelope(basis, traj, grid).values,
         np.abs(_full_render(basis, grid, traj.steady))),
        (dynamics._render(basis, grid, traj.state_at(t_mid), traj),
         np.abs(_full_render(basis, grid, traj.state_at(t_mid)))),
        (snapshot_at_strobe(basis, traj, grid, 90.0).values,
         _full_render(basis, grid, traj.state_at(t_strobe).real)),
        (snapshot_at_strobe(basis, traj, grid, 90.0, duty=0.2).values,
         _full_render(basis, grid, window)),
    ]


GRIDS = [RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=64),
         RingGrid(radius=14e-3, count=90)]


@pytest.mark.parametrize("grid", GRIDS, ids=["raster", "ring"])
@pytest.mark.parametrize("case", ["driven", "pair_defect", "every_mode_live"])
def test_live_mode_render_matches_full_basis(basis, drive, split_pair,
                                             trajectory_from, grid, case):
    if case == "pair_defect":
        basis = split_pair(basis, 4, 0.01)
    if case == "every_mode_live":
        rng = np.random.default_rng(5)
        start = 1e-9 * (rng.standard_normal(len(basis))
                        + 1j * rng.standard_normal(len(basis)))
        traj = trajectory_from(basis, drive, 4e-3, start)
    else:
        traj = respond(basis, drive, duration=4e-3)
    live = np.flatnonzero(np.any(traj.q != 0.0, axis=1))
    assert live.size == (len(basis) if case == "every_mode_live" else 2)
    for got, ref in _renders_and_references(basis, traj, grid):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_undriven_rows_are_exact_zeros(basis, drive, traj):
    driven = np.array([m.n == 4 for m in basis])
    assert np.all(traj.q[~driven] == 0.0)
    assert np.all(np.abs(traj.q[driven, 1:]) > 0.0)
    # with no live mode at all, renders are zero and evaluate no shape
    rest = respond(basis, dataclasses.replace(drive, force_per_volt=0.0),
                   duration=4e-3)
    ring = GRIDS[1]
    assert not rest.q.any()
    assert not field_envelope(basis, rest, ring).values.any()
    assert not snapshot_at_strobe(basis, rest, ring, 30.0).values.any()
    assert rest._shape_tables == {}


@pytest.mark.parametrize("grid", [
    RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=64),
    RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=256),
    RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=384),
    RingGrid(radius=14e-3, count=90)], ids=["64px", "256px", "384px", "ring"])
def test_shapes_per_distinct_radius_equal_per_sample_formula(basis, grid):
    mask = grid.mask
    r, theta = grid.r[mask], grid.theta[mask]
    for modes in (tuple(basis.select(4)), tuple(basis.modes)):
        per_sample = radial_shapes(modes, r) * np.stack(
            [m.angular(theta) for m in modes])
        assert np.array_equal(dynamics._mode_shapes_on(modes, grid),
                              per_sample)


def test_envelope_bound_guard_catches_a_growing_transient(basis, drive,
                                                          monkeypatch):
    constants = dynamics._mode_constants

    def growing(*args):
        alpha, wd, Q, C = constants(*args)
        return -alpha, wd, Q, C

    monkeypatch.setattr(dynamics, "_mode_constants", growing)
    with pytest.raises(NumericalError, match="exceeded its analytic bound"):
        respond(basis, drive, duration=4e-3)


# finite constants near the float limit overflow the samples to inf and
# nan, which an ordered comparison with the bound alone would let through
def test_envelope_bound_guard_catches_non_finite_samples(basis, drive,
                                                         monkeypatch):
    constants = dynamics._mode_constants

    def huge(*args):
        alpha, wd, Q, C = constants(*args)
        big = np.where(Q != 0.0, 1.7e308 * (1 + 1j), 0.0)
        return alpha, wd, big, big

    monkeypatch.setattr(dynamics, "_mode_constants", huge)
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="non-finite or exceeded its analytic bound"):
        respond(basis, drive, duration=4e-3)


# a gain near the float limit overflows the modal force or response: both
# consumers of the steady phasors refuse it, without a floating-point warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_drive_is_refused_before_sampling(basis, drive):
    loud = dataclasses.replace(drive, force_per_volt=1e307)
    match = r"force_per_volt 1e\+307 overflows the modal force or response"
    with pytest.raises(NumericalError, match=match):
        respond(basis, loud, duration=4e-3)
    with pytest.raises(NumericalError, match=match):
        steady_envelope(basis, loud, GRIDS[1])


def test_shapes_evaluated_once_per_trajectory_and_grid(basis, drive,
                                                       monkeypatch):
    calls = []
    evaluate = dynamics._mode_shapes_on

    def counted(modes, grid):
        calls.append(len(modes))
        return evaluate(modes, grid)

    monkeypatch.setattr(dynamics, "_mode_shapes_on", counted)
    traj = respond(basis, drive, duration=4e-3)
    raster, ring = GRIDS
    first = field_envelope(basis, traj, raster).values
    snapshot_at_strobe(basis, traj, raster, 0.0)
    snapshot_at_strobe(basis, traj, raster, 60.0, duty=0.2)
    again = field_envelope(basis, traj, raster).values
    assert np.array_equal(first, again)
    assert calls == [2]          # the two driven modes, once
    field_envelope(basis, traj, ring)
    assert calls == [2, 2]
    # an equal grid built anew hits the same table
    field_envelope(basis, traj, RingGrid(radius=14e-3, count=90))
    assert calls == [2, 2]


def test_alternating_live_sets_share_one_table(basis, drive, trajectory_from,
                                               monkeypatch):
    calls = []
    evaluate = dynamics._mode_shapes_on

    def counted(modes, grid):
        calls.append(len(modes))
        return evaluate(modes, grid)

    monkeypatch.setattr(dynamics, "_mode_shapes_on", counted)
    rng = np.random.default_rng(11)
    initial = 1e-9 * (rng.standard_normal(len(basis))
                      + 1j * rng.standard_normal(len(basis)))
    # the steady envelope has the 2 driven modes live, a strobe all 14
    traj = trajectory_from(basis, drive, 4e-3, initial)
    ring = GRIDS[1]
    renders = [lambda t: field_envelope(basis, t, ring),
               lambda t: snapshot_at_strobe(basis, t, ring, 30.0)] * 2
    got = [render(traj).values for render in renders]
    assert calls == [2, 14]
    # a copy of the trajectory starts with no table, so each render builds
    # one for exactly its own modes
    for render, values in zip(renders, got):
        assert np.array_equal(values, render(dataclasses.replace(traj)).values)
    assert calls == [2, 14, 2, 14, 2, 14]


def test_strobe_then_envelope_build_one_table_each(basis, drive,
                                                   trajectory_from,
                                                   monkeypatch):
    calls = []
    evaluate = dynamics._mode_shapes_on

    def counted(modes, grid):
        calls.append(len(modes))
        return evaluate(modes, grid)

    monkeypatch.setattr(dynamics, "_mode_shapes_on", counted)
    rng = np.random.default_rng(11)
    initial = 1e-9 * (rng.standard_normal(len(basis))
                      + 1j * rng.standard_normal(len(basis)))
    # the strobe has all 14 modes live, then the steady envelope the 2
    # driven ones: each live set gets its own table on the grid
    traj = trajectory_from(basis, drive, 4e-3, initial)
    raster = GRIDS[0]
    strobe = snapshot_at_strobe(basis, traj, raster, 30.0)
    envelope = field_envelope(basis, traj, raster)
    assert calls == [14, 2]
    assert np.array_equal(snapshot_at_strobe(basis, traj, raster, 30.0).values,
                          strobe.values)
    assert np.array_equal(field_envelope(basis, traj, raster).values,
                          envelope.values)
    assert calls == [14, 2]
    # both equal renders from shapes evaluated afresh, without a table
    assert np.array_equal(
        strobe.values,
        dynamics._render(basis, raster, traj.state_at(strobe.time).real))
    assert np.array_equal(envelope.values,
                          np.abs(dynamics._render(basis, raster, traj.steady)))
    assert calls == [14, 2, 14, 2]


def test_shape_table_belongs_to_one_trajectory_and_basis(basis, drive):
    traj = respond(basis, drive, duration=4e-3)
    grid = GRIDS[1]
    first = field_envelope(basis, traj, grid).values
    scaled = dataclasses.replace(traj, q=2.0 * traj.q, steady=2.0 * traj.steady)
    assert scaled._shape_tables == {}
    assert scaled._shape_tables is not traj._shape_tables
    assert np.array_equal(field_envelope(basis, scaled, grid).values,
                          2.0 * first)
    # another basis of the same size rendered with this trajectory never
    # reads the table built for the first basis: with every profile
    # sign-flipped, its strobe snapshot is the first basis's, negated
    flipped = dataclasses.replace(basis, modes=tuple(
        dataclasses.replace(m, radial_values=-m.radial_values,
                            radial_slopes=-m.radial_slopes) for m in basis))
    snap = snapshot_at_strobe(basis, traj, grid, 90.0).values
    assert np.any(snap != 0.0)
    assert np.array_equal(snapshot_at_strobe(flipped, traj, grid, 90.0).values,
                          -snap)


@pytest.fixture(scope="module")
def two_family_basis(calibrated_plate):
    return solve_modes(calibrated_plate, n_max=5, n_min=1, modes_per_n=2)


@pytest.mark.parametrize("grid", GRIDS, ids=["raster", "ring"])
@pytest.mark.parametrize("layout", ["quadrature", "single"])
@pytest.mark.parametrize("case", ["resonance", "off_resonance", "pair_defect",
                                  "two_families"])
def test_steady_envelope_equals_trajectory_envelope(basis, two_family_basis,
                                                    split_pair, grid, layout,
                                                    case):
    if case == "pair_defect":
        basis = split_pair(basis, 4, 0.01)
    if case == "two_families":
        basis = two_family_basis
    detune = 1.13 if case == "off_resonance" else 1.0
    drive = DriveConfig(drive_frequency=detune * basis.frequency_for(4),
                        electrode_harmonic=4, phase_layout=layout)
    want = field_envelope(basis, respond(basis, drive, duration=2e-3), grid)
    got = steady_envelope(basis, drive, grid)
    assert np.array_equal(got.values, want.values)
    assert got.grid is grid


@pytest.mark.parametrize("t", [0.0, 1e-3, 4e-3, 8e-3])
def test_transient_fraction_is_the_strobe_check(basis, traj, t):
    driven = traj.steady != 0.0
    Q = traj.steady[driven]
    transient = (np.abs(traj.q[driven, 0] - Q)
                 * np.exp(-traj.alpha[driven] * t))
    assert traj.transient_fraction(t) == float(
        np.max(transient / np.abs(Q), initial=0.0))


def test_transient_fraction_without_a_driven_mode(basis, drive):
    idle = respond(basis, dataclasses.replace(drive, force_per_volt=0.0),
                   duration=1e-3)
    assert idle.transient_fraction(0.0) == 0.0


def test_snapshot_needs_two_cycles(basis, drive):
    short = respond(basis, drive, duration=1.2 * drive.period)
    ring = RingGrid(radius=15e-3, count=64)
    with pytest.raises(DomainError, match="two drive cycles"):
        snapshot_at_strobe(basis, short, ring, 0.0)


def test_calibrate_force_per_volt_round_trip(basis, drive):
    fpv = calibrate_force_per_volt(basis, drive, target_amplitude=100e-9,
                                   radius=15e-3)
    import dataclasses
    tuned = dataclasses.replace(drive, force_per_volt=fpv)
    traj = respond(basis, tuned, duration=1e-3)
    s = probe(basis, traj, [(15e-3, 0.0)])[0]
    assert s.steady_amplitude == pytest.approx(100e-9, rel=1e-12)
    with pytest.raises(DomainError):
        calibrate_force_per_volt(basis, drive, target_amplitude=-1.0,
                                 radius=15e-3)


def test_external_mode_and_proxy():
    shape = lateral_mode_proxy(3.75e-3, 15e-3, lobes=6)
    assert shape(3.75e-3, 0.0) == pytest.approx(0.0)
    theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    vals = shape(15e-3, theta)
    assert np.max(np.abs(vals)) == pytest.approx(1.0, rel=1e-9)
    # six lobe pairs and the quarter-lobe offset against cos(6 theta)
    assert np.allclose(vals, np.cos(6 * theta + np.pi / 2), atol=1e-12)
    with pytest.raises(DomainError):
        ExternalMode(frequency=4.2e4, shape=None)
    with pytest.raises(DomainError):
        ExternalMode(frequency=-1.0, shape=shape)


def test_mixed_response_blend(basis):
    ext = ExternalMode(frequency=42757.0, damping_ratio=0.02,
                       shape=lateral_mode_proxy(3.75e-3, 15e-3))
    drive = DriveConfig(drive_frequency=42124.0, force_per_volt=1.0,
                        electrode_harmonic=6)
    ring = RingGrid(radius=15e-3, count=128)
    mix = mixed_response(basis, ext, drive, ring)
    assert mix.modal_weight > 0.0 and mix.external_weight > 0.0
    # unit-peak patterns with normalized weights keep the blend order one
    assert np.max(np.abs(mix.field.values)) <= 1.0 + 1e-12
    missing = DriveConfig(drive_frequency=42124.0, force_per_volt=1.0,
                          electrode_harmonic=9)
    with pytest.raises(DomainError):
        mixed_response(basis, ext, missing, ring)
