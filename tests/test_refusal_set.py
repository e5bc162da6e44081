import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "refusal_set.py"
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture(scope="module")
def refusal_set():
    # the tool puts benchmarks/ on sys.path to import the workload module;
    # undo that so no other test sees the benchmark's modules
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("refusal_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = path
    for name in set(sys.modules) - modules:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCHMARKS:
            del sys.modules[name]


def test_cases_cover_every_design_mesh_and_modes_per_n(refusal_set):
    cases = list(refusal_set.cases())
    sweep = refusal_set.sweep
    designs = {(c["fixture_radius"], c["notch_count"], c["notch_depth"],
                c["youngs_modulus"]) for c in cases}
    assert len(designs) == (len(sweep.FIXTURE_RADII) * len(sweep.NOTCH_COUNTS)
                            * len(sweep.NOTCH_DEPTHS) * len(sweep.YOUNGS_MODULI)) == 81
    per_mesh = Counter(c["radial_nodes"] for c in cases)
    assert set(sweep.MESHES) | {72, 88} == set(per_mesh)
    assert set(per_mesh.values()) == {81 * len(sweep.MODES_PER_N)}
    assert len({tuple(sorted(c.items())) for c in cases}) == len(cases) == 1296


def test_status_answers_a_coarse_mesh_and_refuses_a_fine_one(refusal_set):
    cases = list(refusal_set.cases())
    coarse = next(c for c in cases if c["radial_nodes"] == 32)
    fine = next(c for c in cases if c["radial_nodes"] == 128)
    assert refusal_set.status(coarse) == ("ok", "")
    state, message = refusal_set.status(fine)
    assert state == "refused" and "above tolerance" in message
