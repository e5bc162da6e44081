"""The harmonic-independent assembly terms are built once and shared.

``solve_modes`` assembles every harmonic in one ``modal._harmonic_matrices``
pass, which forms the terms that do not depend on n once and scatters the
stiffness matrices of a block of harmonics of one weight onto one
(harmonic, dof, dof) stack, as many harmonics as fit in
``modal._STACK_BYTES``.  Each harmonic
of that pass must give the matrices a fresh ``_assemble_full`` gives, and
the matrices of the one-harmonic loop it replaced (``_loop_matrices``), bit
for bit (signed zeros included); the two-write scatter must place the
element blocks exactly as ``np.add.at`` did, on a stack as on one matrix.
"""

import dataclasses

import numpy as np
import pytest

from statorlab import modal
from statorlab.geometry import homogenize
from statorlab.modal import (_QUAD_W, _QUAD_XI, Discretization, _active_mesh,
                             _assemble_full, _harmonic_matrices, _hermite,
                             _scatter, harmonic_weight, solve_modes)


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


def _loop_matrices(plate, disc, harmonics):
    """(K, M, nodes) per harmonic from the one-harmonic-at-a-time loop that
    ``_harmonic_matrices`` ran before it stacked the harmonics; the loop
    body is kept as it was."""
    nodes = _active_mesh(plate, disc)
    h = np.diff(nodes)[:, None]
    r = nodes[:-1, None] + _QUAD_XI * h
    N, dN, d2N = _hermite(np.broadcast_to(_QUAD_XI, r.shape), h)
    r2 = np.float_power(r, 2)
    dN_r = dN / r
    d2N_dN_r = d2N + dN_r
    twist = dN_r - N / r2
    stiff_weight = (_QUAD_W * h * r) * plate.D(r)
    mass = (_QUAD_W * h * r * plate.mu(r)) * (N[:, None] * N)
    Me = sum(mass[..., q] for q in range(_QUAD_XI.size))
    dofs = _dofs(nodes.size - 1)
    nu = plate.poisson_ratio
    for n in harmonics:
        cn = harmonic_weight(n)
        n2N_r2 = (n * n) * N / r2
        lap = d2N_dN_r - n2N_r2
        curv_t = dN_r - n2N_r2
        stiff = stiff_weight * (
            lap[:, None] * lap
            - (1.0 - nu) * (d2N[:, None] * curv_t + curv_t[:, None] * d2N)
            + 2.0 * (1.0 - nu) * n * n * (twist[:, None] * twist))
        Ke = sum(stiff[..., q] for q in range(_QUAD_XI.size))
        yield _scatter(cn * Ke, dofs), _scatter(cn * Me, dofs), nodes


def _per_harmonic(blocks):
    """(n, K, M, nodes) per harmonic from ``_harmonic_matrices``' blocks."""
    for block, K, M, nodes in blocks:
        assert K.shape[0] == len(block)
        for j, n in enumerate(block):
            yield n, K[j], M, nodes


def _assert_loop_bits(plate, disc, harmonics):
    stacked = _per_harmonic(_harmonic_matrices(plate, disc, harmonics))
    loop = _loop_matrices(plate, disc, harmonics)
    for n, (m, K, M, nodes), (K_ref, M_ref, nodes_ref) in zip(harmonics, stacked, loop):
        assert m == n
        assert np.array_equal(_bits(nodes), _bits(nodes_ref))
        assert np.array_equal(_bits(K), _bits(K_ref)), f"K differs at n={n}"
        assert np.array_equal(_bits(M), _bits(M_ref)), f"M differs at n={n}"
    assert next(stacked, None) is None


# one 16-node (harmonic, dof, dof) matrix takes 8 * 32 * 32 bytes
@pytest.mark.parametrize("per_block", [1, 3, None])
def test_harmonics_past_one_block_bit_identical_to_the_loop(geometry, material,
                                                            monkeypatch, per_block):
    # an un-notched plate accepts any n_max: n = 0..159 spans several
    # blocks, at the module's bound and at two smaller ones
    if per_block is not None:
        monkeypatch.setattr(modal, "_STACK_BYTES", per_block * 8 * 32 * 32 + 100)
    plate = homogenize(dataclasses.replace(geometry, notch_count=0), material)
    disc = Discretization(radial_nodes=16)
    harmonics = range(160)
    sizes = [len(b) for b, _, _, _ in _harmonic_matrices(plate, disc, harmonics)]
    per_block = per_block or modal._STACK_BYTES // (8 * 32 * 32)
    # n = 0 alone, then n = 1..159 in full blocks and a last one
    assert sizes[0] == 1 and len(sizes) > 2 and set(sizes[1:-1]) == {per_block}
    _assert_loop_bits(plate, disc, harmonics)


@pytest.mark.parametrize("radial_nodes,per_block",
                         [(32, 7), (48, 7), (64, 4), (80, 2), (96, 1), (128, 1)])
def test_blocks_are_bounded_by_bytes(plate, radial_nodes, per_block):
    # n = 1..7 as modal_sweep solves it: each K stack within _STACK_BYTES
    blocks = list(_harmonic_matrices(plate, Discretization(radial_nodes=radial_nodes),
                                     range(1, 8)))
    assert [len(b) for b, _, _, _ in blocks] == [
        min(per_block, 7 - start) for start in range(0, 7, per_block)]
    assert all(K.nbytes <= modal._STACK_BYTES for _, K, _, _ in blocks)


def test_mass_matrix_scattered_once_per_weight(plate):
    # at 32 nodes a block holds 16 harmonics of one weight; n = 0 is alone
    blocks = list(_harmonic_matrices(plate, Discretization(), range(40)))
    assert [b for b, _, _, _ in blocks] == [
        (0,), tuple(range(1, 17)), tuple(range(17, 33)), tuple(range(33, 40))]
    # 2 pi for n = 0, pi for every n >= 1: one 2-D array each, shared by
    # every block of that weight
    masses = [M for _, _, M, _ in blocks]
    assert all(M.ndim == 2 for M in masses)
    assert all(M is masses[1] for M in masses[1:])
    assert masses[0] is not masses[1]
    assert np.array_equal(masses[0], 2.0 * masses[1])


@pytest.mark.parametrize("radial_nodes", [32, 64, 80, 128])
@pytest.mark.parametrize("fixture_radius", [None, 5e-3, 7e-3])
def test_shared_terms_bit_identical_to_fresh_assembly(plate, geometry, material,
                                                      fixture_radius, radial_nodes):
    if fixture_radius is not None:
        plate = homogenize(dataclasses.replace(geometry, fixture_radius=fixture_radius),
                           material)
    disc = Discretization(radial_nodes=radial_nodes)
    one_pass = _per_harmonic(_harmonic_matrices(plate, disc, range(8)))
    for n, (m, K, M, nodes) in zip(range(8), one_pass):
        assert m == n
        K_ref, M_ref, nodes_ref = _assemble_full(plate, n, disc)
        assert np.array_equal(_bits(nodes), _bits(nodes_ref))
        assert np.array_equal(_bits(K), _bits(K_ref)), f"K differs at n={n}"
        assert np.array_equal(_bits(M), _bits(M_ref)), f"M differs at n={n}"
    assert next(one_pass, None) is None
    _assert_loop_bits(plate, disc, range(8))


@pytest.mark.parametrize("radial_nodes", [8, 9, 64, 129])
def test_scatter_bit_identical_to_add_at(radial_nodes):
    # an odd and an even element count, random blocks with signed zeros
    dofs = _dofs(radial_nodes - 1)
    blocks = np.random.default_rng(radial_nodes).standard_normal(
        (4, 4, radial_nodes - 1))
    blocks[0, 0, ::3] = -0.0
    assert np.array_equal(_bits(_scatter(blocks, dofs)),
                          _bits(_scatter_add_at(blocks, dofs)))
    # on a leading axis, each matrix of the stack is its own scatter
    stack = np.stack([blocks, -blocks, 2.0 * blocks])
    scattered = _scatter(stack, dofs)
    assert scattered.shape == (3, 2 * radial_nodes, 2 * radial_nodes)
    for A, b in zip(scattered, stack):
        assert np.array_equal(_bits(A), _bits(_scatter_add_at(b, dofs)))


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
