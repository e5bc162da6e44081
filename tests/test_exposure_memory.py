"""Peak memory and raster count of one 384 px exposure.

The steady envelope, its time-averaged fringes, a strobe pair and their
stroboscopic phase map hold 5.5 MB when done: the (2, P) shape table of
the two driven modes (P = 98,500 masked pixels) and five records of P
float samples (0.79 MB each).  Each step's peak above what was traced
when it started, and the peak of the whole exposure, are bounded 20
percent above their measured values, so a complex copy of the shape table
(3.2 MB) or a 384 x 384 float raster (1.2 MB) at a step's peak goes over.

The only raster an exposure forms through to its fit is the phase map
the raster unwrap's bilinear stencil reads.
"""

import tracemalloc

import pytest

from statorlab import analysis, dynamics, grids
from statorlab.grids import RasterGrid
from statorlab.holography import (OpticalConfig, stroboscopic, time_averaged,
                                  unwrap_to_displacement)

MB = 1e6
# measured: 3.25, 4.04, 0.89, 0.89, 1.08 and 6.60 MB
STEP_BOUNDS = {"envelope": 3.9 * MB, "time_averaged": 4.85 * MB,
               "strobe a": 1.07 * MB, "strobe b": 1.07 * MB,
               "stroboscopic": 1.3 * MB}
EXPOSURE_BOUND = 7.92 * MB


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
    # the exposure renders on a grid that holds no shape table yet, as
    # each hologram op's new modes find their grid
    warm, grid = (RasterGrid(inner_radius=geometry.inner_radius,
                             outer_radius=geometry.outer_radius, pixels=384)
                  for _ in range(2))
    optics = OpticalConfig()
    peaks = {}
    tracemalloc.start()
    try:
        # once first, so module-level caches (the J0 table) are built
        _expose(basis, dynamics.respond(basis, drive, duration=4e-3), warm,
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


def test_raster_exposure_forms_at_most_one_raster(basis, drive, geometry,
                                                  monkeypatch):
    grid = RasterGrid(inner_radius=geometry.inner_radius,
                      outer_radius=geometry.outer_radius, pixels=128)
    optics = OpticalConfig()
    traj = dynamics.respond(basis, drive, duration=4e-3)
    formed = []
    raster = grids._Samples.raster

    def counted(self, samples):
        formed.append(self.shape)
        return raster(self, samples)

    monkeypatch.setattr(grids._Samples, "raster", counted)
    envelope = dynamics.field_envelope(basis, traj, grid)
    time_averaged(envelope, optics)
    a = dynamics.snapshot_at_strobe(basis, traj, grid, 0.0)
    b = dynamics.snapshot_at_strobe(basis, traj, grid, 60.0)
    pmap = stroboscopic(a, b, optics, strobe_phases=(0.0, 60.0))
    diff = unwrap_to_displacement(pmap, optics, radius=12e-3)
    sample = analysis.CircleSample.from_field(diff, source="hologram")
    fit = analysis.fit_eq1(sample, analysis.detect_mode_number(sample))
    assert fit.n == 4
    assert len(formed) <= 1 and set(formed) <= {grid.shape}
