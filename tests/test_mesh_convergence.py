"""The default mesh is the coarsest rung of 16/32/64 radial nodes whose
answers on the default config hold still when the mesh doubles."""

import importlib.util
from pathlib import Path

import pytest

from statorlab.modal import Discretization

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mesh_convergence.py"
# max |df/f| and max |d envelope| / max envelope against twice the mesh;
# 32 against 64 measures 1.46e-7 and 1.80e-6, 16 against 32 2.2e-6 and 2.3e-5
FREQUENCY_TOL = 5e-7
ENVELOPE_TOL = 5e-6


@pytest.fixture(scope="module")
def convergence():
    spec = importlib.util.spec_from_file_location("mesh_convergence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.convergence


def test_default_mesh_converges_against_twice_the_mesh(convergence):
    df, de = convergence(Discretization.radial_nodes)
    assert df <= FREQUENCY_TOL
    assert de <= ENVELOPE_TOL


def test_half_the_default_mesh_does_not(convergence):
    df, de = convergence(Discretization.radial_nodes // 2)
    assert df > FREQUENCY_TOL or de > ENVELOPE_TOL
