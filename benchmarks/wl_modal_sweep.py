"""modal_sweep: homogenize, calibrate and solve seeded stator designs.

Each op homogenizes a design, calibrates f(n=1) to 3680 Hz, solves
n = 1..7 and formats the radial-profile table, all in this process.
Assembly, the eigen solve and its polish do nearly all the work; dynamics,
holography and ioutil stay idle.  Every block of twelve ops covers each
(mesh, modes_per_n) pair once in seeded order, so every run does the same
mix of mesh sizes.  Meshes of 80 nodes and more trip the eigen-residual
gate (NumericalError); those ops count as refused, not failed.
"""

from __future__ import annotations

import random
import resource

from checks import CheckFailed
from statorlab import geometry, modal

MESHES = (32, 48, 64, 80, 96, 128)
MODES_PER_N = (1, 2)
FIXTURE_RADII = (5e-3, 6e-3, 7e-3)
NOTCH_COUNTS = (18, 22, 26)
NOTCH_DEPTHS = (0.6e-3, 1.0e-3, 1.4e-3)
YOUNGS_MODULI = (2.8e9, 3.2e9, 3.6e9)
TARGET_HZ = 3680.0
N_MAX = 7
IN_PROCESS = True
TRACE_UNITS_PER_SECOND = 2.0


def units(seed):
    rng = random.Random(seed)
    op_id = 0
    while True:
        block = [(mesh, per_n) for mesh in MESHES for per_n in MODES_PER_N]
        rng.shuffle(block)
        for mesh, per_n in block:
            yield [{
                "id": op_id, "kind": f"mesh{mesh}",
                "radial_nodes": mesh, "modes_per_n": per_n,
                "fixture_radius": rng.choice(FIXTURE_RADII),
                "notch_count": rng.choice(NOTCH_COUNTS),
                "notch_depth": rng.choice(NOTCH_DEPTHS),
                "youngs_modulus": rng.choice(YOUNGS_MODULI),
            }]
            op_id += 1


def setup(workdir):
    return {}


def execute(ctx, op, tracer):
    geom = geometry.StatorGeometry(
        inner_radius=3.75e-3, outer_radius=15.0e-3,
        tooth_band_inner_radius=10.0e-3, fixture_radius=op["fixture_radius"],
        notch_count=op["notch_count"], notch_depth=op["notch_depth"])
    material = geometry.Material(youngs_modulus=op["youngs_modulus"])
    plate = geometry.homogenize(geom, material)
    disc = modal.Discretization(radial_nodes=op["radial_nodes"])
    calibrated = modal.calibrate(plate, target=(1, TARGET_HZ), disc=disc)
    basis = modal.solve_modes(calibrated.plate, n_max=N_MAX, n_min=1,
                              modes_per_n=op["modes_per_n"], disc=disc)
    return basis, modal.format_radial_profiles(basis)


def check(ctx, op, result):
    basis, table = result
    per_n = op["modes_per_n"]
    if len(basis) != 2 * N_MAX * per_n:
        raise CheckFailed(f"{len(basis)} modes, expected {2 * N_MAX * per_n}")
    f1 = basis.frequency_for(1)
    if abs(f1 / TARGET_HZ - 1.0) > 1e-4:
        raise CheckFailed(f"calibrated f(n=1) = {f1} Hz, target {TARGET_HZ}")
    ladder = [basis.frequency_for(n) for n in range(1, N_MAX + 1)]
    if any(lo >= hi for lo, hi in zip(ladder, ladder[1:])):
        raise CheckFailed(f"Md1..Md{N_MAX} not strictly ascending: {ladder}")
    for n in range(1, N_MAX + 1):
        for family in range(per_n):
            cos = basis.select(n, "cos", family)
            sin = basis.select(n, "sin", family)
            if len(cos) != 1 or len(sin) != 1:
                raise CheckFailed(f"n={n} family {family}: pair incomplete")
            if abs(cos[0].frequency - sin[0].frequency) > 1e-12 * cos[0].frequency:
                raise CheckFailed(f"n={n} family {family}: cos/sin frequencies "
                                  f"differ ({cos[0].frequency}, {sin[0].frequency})")
    if table.count("\nmode n=") != len(basis):
        raise CheckFailed("radial-profile table does not list every mode")


def peak_rss_kb(ctx):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
