"""Which ``modal_sweep`` cases the eigen-residual gate refuses.

Runs every design of ``benchmarks/wl_modal_sweep.py`` (read-only: the
design lists and ``execute`` are imported from it) at each mesh in
``MESHES`` and each ``modes_per_n`` of the workload, and classifies each
case as ``ok`` or ``refused`` (``NumericalError``, with its message).

Usage: ``python tools/refusal_set.py`` with ``statorlab`` importable
(installed or on ``PYTHONPATH``).  Prints the refusals per mesh and a
sha256 over the (case, status, refusal message) lines, so two trees refuse
the same set exactly when both lines match.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import wl_modal_sweep as sweep  # noqa: E402
from statorlab.errors import NumericalError  # noqa: E402

# the workload's meshes plus 72 and 88, either side of the gate's onset
MESHES = (32, 48, 64, 72, 80, 88, 96, 128)


def cases():
    """One op dict per (mesh, modes_per_n, design), in a fixed order."""
    designs = itertools.product(sweep.FIXTURE_RADII, sweep.NOTCH_COUNTS,
                                sweep.NOTCH_DEPTHS, sweep.YOUNGS_MODULI)
    for k, (mesh, per_n, (fixture, count, depth, youngs)) in enumerate(
            itertools.product(MESHES, sweep.MODES_PER_N, designs)):
        yield {"id": k, "kind": f"mesh{mesh}", "radial_nodes": mesh,
               "modes_per_n": per_n, "fixture_radius": fixture,
               "notch_count": count, "notch_depth": depth,
               "youngs_modulus": youngs}


def status(op) -> tuple:
    """``("ok", "")`` or ``("refused", message)`` for one case."""
    try:
        sweep.execute(None, op, None)
    except NumericalError as exc:
        return "refused", str(exc)
    return "ok", ""


def main() -> int:
    digest = hashlib.sha256()
    total, refused = {}, {}
    for op in cases():
        state, message = status(op)
        case = ",".join(f"{key}={op[key]!r}" for key in sorted(op) if key != "id")
        digest.update(f"{case}|{state}|{message}\n".encode())
        mesh = op["radial_nodes"]
        total[mesh] = total.get(mesh, 0) + 1
        refused[mesh] = refused.get(mesh, 0) + (state == "refused")
    for mesh in MESHES:
        print(f"mesh {mesh:>3}: {refused[mesh]:>3} of {total[mesh]} refused")
    print(f"cases {sum(total.values())}  refused {sum(refused.values())}  "
          f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
