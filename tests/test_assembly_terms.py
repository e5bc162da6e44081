"""The harmonic-independent assembly terms are built once and shared.

``solve_modes`` assembles every harmonic in one ``modal._harmonic_matrices``
pass, which forms the terms that do not depend on n once.  Each harmonic of
that pass must give the matrices a fresh ``_assemble_full`` gives bit for
bit (signed zeros included), and the two-write scatter must place the
element blocks exactly as ``np.add.at`` did.
"""

import dataclasses

import numpy as np
import pytest

from statorlab import modal
from statorlab.geometry import homogenize
from statorlab.modal import (Discretization, _assemble_full, _harmonic_matrices,
                             _scatter, solve_modes)


def _bits(a):
    return a.view(np.uint64)


def _dofs(elements):
    """Global DOFs of each element's (W, W') at both ends: (4, element)."""
    return np.arange(4)[:, None] + 2 * np.arange(elements)


def _scatter_add_at(blocks, dofs):
    """The scatter ``_assemble_full`` used before: one ``np.add.at``."""
    ndof = 2 * (dofs.shape[1] + 1)
    A = np.zeros((ndof, ndof))
    np.add.at(A, (dofs[:, None], dofs), blocks)
    return A


@pytest.mark.parametrize("radial_nodes", [32, 64, 80, 128])
@pytest.mark.parametrize("fixture_radius", [None, 5e-3, 7e-3])
def test_shared_terms_bit_identical_to_fresh_assembly(plate, geometry, material,
                                                      fixture_radius, radial_nodes):
    if fixture_radius is not None:
        plate = homogenize(dataclasses.replace(geometry, fixture_radius=fixture_radius),
                           material)
    disc = Discretization(radial_nodes=radial_nodes)
    one_pass = _harmonic_matrices(plate, disc, range(8))
    for n, (K, M, nodes) in zip(range(8), one_pass):
        K_ref, M_ref, nodes_ref = _assemble_full(plate, n, disc)
        assert np.array_equal(_bits(nodes), _bits(nodes_ref))
        assert np.array_equal(_bits(K), _bits(K_ref)), f"K differs at n={n}"
        assert np.array_equal(_bits(M), _bits(M_ref)), f"M differs at n={n}"
    assert next(one_pass, None) is None


@pytest.mark.parametrize("radial_nodes", [8, 9, 64, 129])
def test_scatter_bit_identical_to_add_at(radial_nodes):
    # an odd and an even element count, random blocks with signed zeros
    dofs = _dofs(radial_nodes - 1)
    blocks = np.random.default_rng(radial_nodes).standard_normal(
        (4, 4, radial_nodes - 1))
    blocks[0, 0, ::3] = -0.0
    assert np.array_equal(_bits(_scatter(blocks, dofs)),
                          _bits(_scatter_add_at(blocks, dofs)))


def test_solve_modes_builds_the_terms_once(plate, monkeypatch):
    meshes = []
    active_mesh = modal._active_mesh

    def counted(*args, **kwargs):
        meshes.append(args)
        return active_mesh(*args, **kwargs)

    monkeypatch.setattr(modal, "_active_mesh", counted)
    basis = solve_modes(plate, n_max=7, n_min=0, modes_per_n=2,
                        disc=Discretization(radial_nodes=32))
    assert sorted(basis.harmonics()) == list(range(8))
    assert len(meshes) == 1
