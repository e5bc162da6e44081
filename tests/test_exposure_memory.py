"""Peak memory of one 384 px exposure.

The steady envelope, its time-averaged fringes, a strobe pair and their
stroboscopic phase map hold 7.5 MB when done: the (2, P) shape table of
the two driven modes (P = 98,500 masked pixels) and five 384 x 384 float
rasters (1.2 MB each).  Each step's peak above what was traced when it
started, and the peak of the whole exposure, are bounded 20 percent above
their measured values, so a complex copy of the shape table (3.2 MB) or a
full-raster temporary at a step's peak goes over.
"""

import tracemalloc

import pytest

from statorlab import dynamics
from statorlab.grids import RasterGrid
from statorlab.holography import OpticalConfig, stroboscopic, time_averaged

MB = 1e6
# measured: 4.33, 4.04, 2.07, 2.07, 2.76 and 9.06 MB
STEP_BOUNDS = {"envelope": 5.2 * MB, "time_averaged": 4.85 * MB,
               "strobe a": 2.5 * MB, "strobe b": 2.5 * MB,
               "stroboscopic": 3.3 * MB}
EXPOSURE_BOUND = 10.9 * MB


@pytest.fixture(scope="module")
def drive(basis):
    return dynamics.DriveConfig(drive_frequency=basis.frequency_for(4),
                                electrode_harmonic=4)


def _expose(basis, traj, grid, optics, peaks):
    """Render the exposure, keeping every result alive as an op does."""
    held = []

    def step(name, render, *args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        held.append(render(*args, **kwargs))
        peaks[name] = tracemalloc.get_traced_memory()[1] - start
        return held[-1]

    envelope = step("envelope", dynamics.field_envelope, basis, traj, grid)
    step("time_averaged", time_averaged, envelope, optics)
    a = step("strobe a", dynamics.snapshot_at_strobe, basis, traj, grid, 0.0)
    b = step("strobe b", dynamics.snapshot_at_strobe, basis, traj, grid, 60.0)
    step("stroboscopic", stroboscopic, a, b, optics, strobe_phases=(0.0, 60.0))


def test_exposure_peak_memory_384px(basis, drive, geometry):
    grid = RasterGrid(inner_radius=geometry.inner_radius,
                      outer_radius=geometry.outer_radius, pixels=384)
    optics = OpticalConfig()
    peaks = {}
    tracemalloc.start()
    try:
        # once first, so module-level caches (the J0 table) are built
        _expose(basis, dynamics.respond(basis, drive, duration=4e-3), grid,
                optics, peaks)
        traj = dynamics.respond(basis, drive, duration=4e-3)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _expose(basis, traj, grid, optics, peaks)
        exposure = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    over = {name: f"{peak / MB:.2f} MB" for name, peak in peaks.items()
            if peak > STEP_BOUNDS[name]}
    assert not over
    assert exposure <= EXPOSURE_BOUND, f"{exposure / MB:.2f} MB"
