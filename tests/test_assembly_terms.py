"""The harmonic-independent assembly terms are built once and shared.

``solve_modes`` builds ``modal._element_terms`` once per call and hands
them to ``_assemble_full`` for every harmonic.  Shared terms must give the
matrices a fresh assembly gives bit for bit (signed zeros included), and
the two-write scatter must place the element blocks exactly as
``np.add.at`` did.
"""

import dataclasses

import numpy as np
import pytest

from statorlab import modal
from statorlab.geometry import homogenize
from statorlab.modal import (Discretization, _assemble_full, _element_terms,
                             _scatter, solve_modes)


def _bits(a):
    return a.view(np.uint64)


def _scatter_add_at(blocks, nodes):
    """The scatter ``_assemble_full`` used before: one ``np.add.at``."""
    ndof = 2 * nodes.size
    dofs = np.arange(4)[:, None] + 2 * np.arange(nodes.size - 1)   # (4, element)
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
    terms = _element_terms(plate, disc)
    for n in range(8):
        K, M, nodes = _assemble_full(plate, n, disc, terms)
        K_ref, M_ref, nodes_ref = _assemble_full(plate, n, disc)
        assert np.array_equal(_bits(nodes), _bits(nodes_ref))
        assert np.array_equal(_bits(K), _bits(K_ref)), f"K differs at n={n}"
        assert np.array_equal(_bits(M), _bits(M_ref)), f"M differs at n={n}"


@pytest.mark.parametrize("radial_nodes", [8, 9, 64, 129])
def test_scatter_bit_identical_to_add_at(plate, radial_nodes):
    # an odd and an even element count, random blocks with signed zeros
    terms = _element_terms(plate, Discretization(radial_nodes=radial_nodes))
    blocks = np.random.default_rng(radial_nodes).standard_normal(
        (4, 4, terms.nodes.size - 1))
    blocks[0, 0, ::3] = -0.0
    assert np.array_equal(_bits(_scatter(blocks, terms)),
                          _bits(_scatter_add_at(blocks, terms.nodes)))


def test_solve_modes_builds_the_terms_once(plate, monkeypatch):
    built = []
    element_terms = modal._element_terms

    def counted(*args, **kwargs):
        built.append(args)
        return element_terms(*args, **kwargs)

    monkeypatch.setattr(modal, "_element_terms", counted)
    basis = solve_modes(plate, n_max=7, n_min=0, modes_per_n=2,
                        disc=Discretization(radial_nodes=32))
    assert sorted(basis.harmonics()) == list(range(8))
    assert len(built) == 1
