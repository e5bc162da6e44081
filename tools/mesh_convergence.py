"""How far the default config's answers move when the radial mesh doubles.

For each mesh in ``MESHES`` the default config is solved at that mesh and
at twice it, along the path the CLI takes (calibration, drive resolution,
force calibration), and two numbers are printed:

* the largest relative frequency change, max |f(m) - f(2m)| / f(2m) over
  every mode of the basis;
* the largest envelope change, max |env(m) - env(2m)| / max env(2m) over
  the steady envelopes ``fringes`` renders for n = n_min..n_max (each
  driven at its own resonance) on the default raster.

A mesh whose solve the eigen gate refuses prints the refusal instead: the
gate refuses the default config at 128 nodes, so 64 has no finer rung to
compare with.

Usage: ``python tools/mesh_convergence.py`` with ``statorlab`` importable
(installed or on ``PYTHONPATH``).  ``tests/test_mesh_convergence.py``
imports ``convergence`` and holds the default mesh to its bounds.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from statorlab.cli import _driven_run
from statorlab.config import apply_overrides, default_config, validate_config
from statorlab.dynamics import steady_envelope
from statorlab.errors import NumericalError
from statorlab.grids import RasterGrid

MESHES = (16, 32, 64)


def _answers(radial_nodes: int):
    """(frequencies, {n: steady envelope values}) of the default config at
    ``radial_nodes``."""
    plan = validate_config(apply_overrides(
        default_config(), [f"modal.radial_nodes={radial_nodes}"]))
    basis, drive, _ = _driven_run(plan)
    grid = RasterGrid(inner_radius=plan["geometry"].inner_radius,
                      outer_radius=plan["geometry"].outer_radius,
                      pixels=plan["image"]["pixels"],
                      margin=plan["image"]["margin"])
    envelopes = {}
    for n in basis.harmonics():
        if n >= 1:
            drive_n = replace(drive, drive_frequency=basis.frequency_for(n),
                              electrode_harmonic=n)
            envelopes[n] = steady_envelope(basis, drive_n, grid).samples
    return basis.frequencies, envelopes


def convergence(radial_nodes: int) -> tuple:
    """(max |df/f|, max |d envelope| / max envelope) of ``radial_nodes``
    against ``2 * radial_nodes``."""
    f, env = _answers(radial_nodes)
    f2, env2 = _answers(2 * radial_nodes)
    df = float(np.max(np.abs(f - f2) / f2))
    de = max(float(np.max(np.abs(env[n] - env2[n])) / np.max(env2[n]))
             for n in env2)
    return df, de


def main() -> int:
    for mesh in MESHES:
        try:
            df, de = convergence(mesh)
        except NumericalError as exc:
            print(f"mesh {mesh:>3} vs {2 * mesh:>3}: refused: {exc}")
            continue
        print(f"mesh {mesh:>3} vs {2 * mesh:>3}: max |df/f| {df:.3e}  "
              f"max |d envelope|/max {de:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
