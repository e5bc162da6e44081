"""``respond`` against its closed form, row by row.

``respond`` evaluates the decay e^{(-alpha + i wd) t} once per distinct
exponent, so a cos/sin pair shares one; every row must still equal the
closed form Q e^{i w t} + C e^{(-alpha + i wd) t} evaluated for that row
alone, bit for bit.  An ``initial`` state must hold one complex value per
basis mode.
"""

import numpy as np
import pytest

from statorlab import dynamics
from statorlab.dynamics import DriveConfig, respond
from statorlab.errors import DomainError


@pytest.fixture(scope="module")
def drive(basis):
    return DriveConfig(drive_frequency=basis.frequency_for(4),
                       electrode_harmonic=4)


def _per_row(basis, drive, traj, initial=None):
    alpha, wd, Q, C = dynamics._mode_constants(basis, drive)
    if initial is not None:
        C = initial - Q
    E = np.exp(1.0j * drive.omega * traj.times)
    q = np.zeros_like(traj.q)
    for k in np.flatnonzero((Q != 0.0) | (C != 0.0)):
        row = [k]
        q[k] = (Q[row, None] * E + C[row, None] * np.exp(
            np.outer(-alpha[row] + 1.0j * wd[row], traj.times)))[0]
    return q


@pytest.mark.parametrize("case", ["driven", "pair_defect", "every_mode_live"])
def test_each_row_is_its_own_closed_form(basis, drive, split_pair, case):
    initial = None
    if case == "pair_defect":
        basis = split_pair(basis, 4, 0.01)
    if case == "every_mode_live":
        rng = np.random.default_rng(11)
        initial = 1e-9 * (rng.standard_normal(len(basis))
                          + 1j * rng.standard_normal(len(basis)))
    traj = respond(basis, drive, duration=16e-3, initial=initial)
    live = np.flatnonzero(traj.q.any(axis=1))
    assert live.size == (len(basis) if initial is not None else 2)
    if case == "pair_defect":
        # the split pair decays at two distinct exponents
        s = -traj.alpha[live] + 1.0j * traj.wd[live]
        assert s[0] != s[1]
    assert np.array_equal(traj.q, _per_row(basis, drive, traj, initial))


@pytest.mark.parametrize("initial", [np.zeros(3, dtype=complex),
                                     np.zeros((14, 2), dtype=complex),
                                     1e-9 + 0.0j],
                         ids=["length_3", "14x2", "scalar"])
def test_initial_state_needs_one_value_per_mode(basis, drive, initial):
    assert len(basis) == 14
    with pytest.raises(DomainError, match="one complex value per basis mode"):
        respond(basis, drive, duration=4e-3, initial=initial)
