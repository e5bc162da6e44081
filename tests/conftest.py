import dataclasses

import numpy as np
import pytest

from statorlab import dynamics
from statorlab.geometry import (EffectivePlate, Material, StatorGeometry,
                                homogenize)
from statorlab.modal import calibrate, solve_modes

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_log():
    def log(num, title, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {title} ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok
    return log


@pytest.fixture(scope="session")
def geometry():
    return StatorGeometry(inner_radius=3.75e-3, outer_radius=15.0e-3,
                          tooth_band_inner_radius=10.0e-3,
                          fixture_radius=6.0e-3)


@pytest.fixture(scope="session")
def material():
    return Material()


@pytest.fixture(scope="session")
def plate(geometry, material):
    return homogenize(geometry, material)


@pytest.fixture(scope="session")
def uniform_plate(geometry, material):
    # constant-profile plate at the base thickness, same clamp and rim
    d0 = material.bending_stiffness(geometry.base_thickness)
    mu0 = material.density * geometry.base_thickness
    return EffectivePlate(breakpoints=(geometry.inner_radius,
                                       geometry.outer_radius),
                          D_regions=(d0,), mu_regions=(mu0,),
                          poisson_ratio=material.poisson_ratio,
                          fill_factor=1.0,
                          fixture_radius=geometry.fixture_radius)


@pytest.fixture(scope="session")
def calibrated_plate(plate):
    return calibrate(plate, target=(1, 3680.0)).plate


@pytest.fixture(scope="session")
def basis(calibrated_plate):
    # the flexural ladder every pipeline test drives (lowest family, n 1..7)
    return solve_modes(calibrated_plate, n_max=7, n_min=1)


@pytest.fixture(scope="session")
def split_pair():
    """``split_pair(basis, n, split)``: ``basis`` with the sine partner of
    harmonic ``n`` (lowest family) raised by the relative frequency
    ``split``, a degenerate pair split apart as a manufacturing defect
    splits it.  The shapes stay as solved."""
    def split_pair(basis, n, split):
        return dataclasses.replace(basis, modes=tuple(
            dataclasses.replace(m, frequency=m.frequency * (1.0 + split))
            if (m.n, m.orientation, m.family) == (n, "sin", 0) else m
            for m in basis))
    return split_pair


@pytest.fixture(scope="session")
def trajectory_from():
    """``trajectory_from(basis, drive, duration, state0)``: the
    ``ModalTrajectory`` of ``basis`` under ``drive`` that starts from the
    complex modal state ``state0``, on the samples ``respond`` takes:
    q = Q e^{i w t} + C e^{(-alpha + i wd) t} row by row, with
    C = state0 - Q.  ``respond`` starts from rest and lights only the
    driven rows; this lights any row."""
    def trajectory_from(basis, drive, duration, state0):
        alpha, wd, Q, _ = dynamics._mode_constants(basis, drive)
        times = dynamics.respond(basis, drive, duration=duration).times
        C = np.asarray(state0, dtype=complex) - Q
        q = (Q[:, None] * np.exp(1.0j * drive.omega * times)
             + C[:, None] * np.exp(np.outer(-alpha + 1.0j * wd, times)))
        return dynamics.ModalTrajectory(times=times, q=q, steady=Q,
                                        transient=C, drive=drive,
                                        alpha=alpha, wd=wd)
    return trajectory_from
