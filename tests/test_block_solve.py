"""One eigen solve per harmonic block, and the memory that block may take.

``solve_modes`` solves the harmonics of one ``modal._harmonic_matrices``
block together: one stacked subspace iteration, one stacked first residual
and the polish pair by pair.  A harmonic solved in a block must get the bits
it gets solved alone.  The block is bounded by bytes
(``modal._STACK_BYTES``), so the solve's traced peak stays near that of the
harmonic-by-harmonic solve it replaced.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from statorlab.errors import NumericalError
from statorlab.geometry import homogenize
from statorlab.modal import Discretization, solve_modes


def _bits(modes):
    return [(m.n, m.family, m.orientation, np.float64(m.frequency).tobytes(),
             m.radial_values.tobytes(), m.radial_slopes.tobytes()) for m in modes]


# n = 1..7 at 32 nodes is one block, at 64 nodes 4 + 3, at 80 nodes
# 2 + 2 + 2 + 1 (tests/test_assembly_terms.py checks the split)
@pytest.mark.parametrize("modes_per_n", [1, 2])
@pytest.mark.parametrize("radial_nodes", [32, 48, 64, 80])
def test_block_solve_bit_identical_to_one_harmonic_solves(calibrated_plate,
                                                          radial_nodes, modes_per_n):
    disc = Discretization(radial_nodes=radial_nodes)
    basis = solve_modes(calibrated_plate, n_max=7, n_min=1,
                        modes_per_n=modes_per_n, disc=disc)
    assert len(basis) == 2 * 7 * modes_per_n
    for n in range(1, 8):
        alone = solve_modes(calibrated_plate, n_max=n, n_min=n,
                            modes_per_n=modes_per_n, disc=disc)
        assert _bits(alone) == _bits(m for m in basis if m.n == n), f"n={n}"


def _peak(solve):
    """Traced peak of ``solve()`` above what was traced when it started; a
    refusal ends the solve as it ends an op."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        try:
            solve()
        except NumericalError:
            pass
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


MB = 1e6
# the same three solves harmonic by harmonic, with the stiffness of up to 8
# harmonics formed in one pass, peaked at 2.63 MB (80 nodes), 4.85 MB
# (128 nodes, refused at n = 1) and 1.49 MB (32 nodes, refused at n = 111).
# Each bound is that peak plus 1.25 MB: a block holds about three 0.5 MiB
# stacks at once (K, the equilibrated K and its inverse), and the 16
# harmonics of a 32-node block form their stiffness terms next to the last
# block's K (measured 2.19, 3.54 and 2.55 MB).  One stack of every
# harmonic peaks at 5.27, 13.1 and 20.6 MB
PEAK_BOUNDS = {"80 nodes": 3.88 * MB, "128 nodes": 6.10 * MB,
               "32 nodes, n = 0..200": 2.74 * MB}


def test_block_solve_peak_memory(calibrated_plate, geometry, material):
    flat = homogenize(dataclasses.replace(geometry, notch_count=0), material)
    solves = {
        "80 nodes": lambda: solve_modes(calibrated_plate, n_max=7, n_min=0,
                                        disc=Discretization(radial_nodes=80)),
        # n = 0 is refused at 128 nodes, and solved in a block of its own
        "128 nodes": lambda: solve_modes(calibrated_plate, n_max=7, n_min=1,
                                         disc=Discretization(radial_nodes=128)),
        # the case tests/test_config_cli.py runs through the CLI
        "32 nodes, n = 0..200": lambda: solve_modes(flat, n_max=200, n_min=0),
    }
    peaks = {}
    for name, solve in solves.items():
        _peak(solve)                 # once first, so caches are built
        peaks[name] = _peak(solve)
    assert all(peaks[name] <= bound for name, bound in PEAK_BOUNDS.items()), peaks


def test_singular_block_names_its_lowest_harmonic(geometry, material):
    # a 1e160 m rim overflows the matrices, so no harmonic of the block
    # n = 3..6 has an inverse: the block's solve fails under n = 3
    plate = homogenize(dataclasses.replace(geometry, outer_radius=1e160), material)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError, match=r"^eigensolver failed to converge "
                           r"\(harmonic n=3, radial_nodes=32\)$"):
            solve_modes(plate, n_max=6, n_min=3)
