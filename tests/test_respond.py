"""``respond`` against its closed form, row by row.

``respond`` evaluates the decay e^{(-alpha + i wd) t} once per distinct
exponent, so a cos/sin pair shares one; every row must still equal the
closed form Q e^{i w t} + C e^{(-alpha + i wd) t} evaluated for that row
alone, bit for bit.  A row is live exactly when its Q is non-zero.
"""

import numpy as np
import pytest

from statorlab import dynamics
from statorlab.dynamics import DriveConfig, respond


@pytest.fixture(scope="module")
def drive(basis):
    return DriveConfig(drive_frequency=basis.frequency_for(4),
                       electrode_harmonic=4)


def _per_row(basis, drive, traj):
    alpha, wd, Q, C = dynamics._mode_constants(basis, drive)
    E = np.exp(1.0j * drive.omega * traj.times)
    q = np.zeros_like(traj.q)
    for k in np.flatnonzero(Q != 0.0):
        row = [k]
        q[k] = (Q[row, None] * E + C[row, None] * np.exp(
            np.outer(-alpha[row] + 1.0j * wd[row], traj.times)))[0]
    return q


@pytest.mark.parametrize("case", ["driven", "pair_defect", "every_mode_live"])
def test_each_row_is_its_own_closed_form(basis, drive, split_pair,
                                         monkeypatch, case):
    if case == "pair_defect":
        basis = split_pair(basis, 4, 0.01)
    if case == "every_mode_live":
        # no drive reaches every harmonic: give every mode its own Q and C
        constants = dynamics._mode_constants
        rng = np.random.default_rng(11)
        Q, C = 1e-9 * (rng.standard_normal((2, len(basis)))
                       + 1j * rng.standard_normal((2, len(basis))))

        def every_mode(*args):
            return (*constants(*args)[:2], Q, C)

        monkeypatch.setattr(dynamics, "_mode_constants", every_mode)
    traj = respond(basis, drive, duration=16e-3)
    live = np.flatnonzero(traj.q.any(axis=1))
    assert live.size == (len(basis) if case == "every_mode_live" else 2)
    if case == "pair_defect":
        # the split pair decays at two distinct exponents
        s = -traj.alpha[live] + 1.0j * traj.wd[live]
        assert s[0] != s[1]
    assert np.array_equal(traj.q, _per_row(basis, drive, traj))
