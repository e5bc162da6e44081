"""The band-limited extended-precision products and the profile dump.

The polish forms ``K w`` and ``M w`` from the 7 diagonals of the Hermite
matrices.  That is only exact if the assembled matrices have nothing off
the band, and only bit-identical to the dense long-double product if the
diagonals are added in the dense product's (ascending column) order.
"""

import dataclasses

import numpy as np
import pytest

from statorlab.modal import (_HALF_BANDWIDTH, Discretization, ModalBasis,
                             _assemble_full, _band, _band_matvec,
                             _extended_residual, eig_residual,
                             format_radial_profiles, solve_modes)

MESHES = (32, 64, 80, 128)


def _matrices(plate):
    """K and M before the clamp, for every mesh and n = 0..7."""
    for nodes in MESHES:
        for n in range(8):
            K, M, _ = _assemble_full(plate, n, Discretization(radial_nodes=nodes))
            yield f"{nodes}-{n}", K, M


def _descending(band, w):
    """The band product with the diagonals added in the wrong order."""
    out = np.zeros_like(w)
    hb = len(band) // 2
    for d, diag in reversed(list(enumerate(band, start=-hb))):
        if d < 0:
            out[-d:] += diag * w[:d]
        else:
            out[:w.size - d] += diag * w[d:]
    return out


def test_hermite_matrices_are_banded(calibrated_plate):
    for case, K, M in _matrices(calibrated_plate):
        i, j = np.indices(K.shape)
        off = np.abs(i - j) > _HALF_BANDWIDTH
        for A in (K, M):
            assert not A[off].any(), case
            # the band is full: every diagonal up to the half-bandwidth is used
            assert np.diagonal(A, _HALF_BANDWIDTH).any(), case


def test_band_product_is_the_dense_product(calibrated_plate):
    rng = np.random.default_rng(2024)
    order_matters = 0
    for case, K, M in _matrices(calibrated_plate):
        for A in (K[2:, 2:], M[2:, 2:]):
            band = _band(A, _HALF_BANDWIDTH)
            ws = rng.standard_normal((4, A.shape[0])).astype(np.longdouble)
            dense = A.astype(np.longdouble)
            for w in ws:
                assert np.array_equal(_band_matvec(band, w), dense @ w), case
            # the test can tell the summation order apart
            order_matters += any(not np.array_equal(_descending(band, w), dense @ w)
                                 for w in ws)
    assert order_matters == 2 * len(MESHES) * 8


def test_stacked_residual_is_each_pairs_own(calibrated_plate):
    # (family, harmonic, dof) vectors against (harmonic, diagonal) bands and
    # one shared mass band, as solve_modes evaluates a block's pairs
    disc = Discretization(radial_nodes=64)
    K = np.stack([_assemble_full(calibrated_plate, n, disc)[0] for n in range(1, 5)])
    K, M = K[:, 2:, 2:], _assemble_full(calibrated_plate, 1, disc)[1][2:, 2:]
    rng = np.random.default_rng(11)
    w = rng.standard_normal((2, 4, K.shape[-1]))
    lam = rng.uniform(1e8, 1e10, (2, 4))
    Kb, Mb = _band(K, _HALF_BANDWIDTH), _band(M, _HALF_BANDWIDTH)
    resid, wl, Kw, Mw = _extended_residual(Kb, Mb, lam, w)
    for k, j in np.ndindex(lam.shape):
        one = _extended_residual(_band(K[j], _HALF_BANDWIDTH), Mb, lam[k, j], w[k, j])
        assert isinstance(one[0], float) and resid[k][j] == one[0], (k, j)
        # long double values (tobytes() would compare the padding bytes)
        for got, ref in zip((wl, Kw, Mw), one[1:]):
            assert np.array_equal(got[k, j], ref), (k, j)


def test_eig_residual_of_a_dense_pair():
    # eig_residual takes every diagonal, so it is exact for matrices that
    # are not banded at all
    rng = np.random.default_rng(7)
    for size in (1, 5, 40):
        B, C = rng.standard_normal((2, size, size))
        K = B @ B.T + size * np.eye(size)
        M = C @ C.T + np.eye(size)
        w = rng.standard_normal(size)
        lam = float(rng.uniform(0.1, 10.0))
        Kw = K.astype(np.longdouble) @ w.astype(np.longdouble)
        Mw = M.astype(np.longdouble) @ w.astype(np.longdouble)
        ref = float(np.linalg.norm(Kw - np.longdouble(lam) * Mw) / np.linalg.norm(Kw))
        assert eig_residual(K, M, lam, w) == ref


def _profiles_ref(basis):
    """The dump formatted mode by mode, every profile from scratch."""
    lines = [f"# statorlab radial profiles, provenance {basis.provenance}",
             f"# modes {len(basis)}  radial_nodes {basis.discretization.radial_nodes}"]
    for m in basis:
        lines.append(f"mode n={m.n} orientation={m.orientation} family={m.family} "
                     f"frequency_hz={m.frequency!r} "
                     "boundary=clamped-at-fixture/free-at-edges")
        lines.append("r_m W dW_dr")
        for r, v, s in zip(m.radial_nodes.tolist(), m.radial_values.tolist(),
                           m.radial_slopes.tolist()):
            lines.append(f"{r!r} {v!r} {s!r}")
        lines.append("")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("nodes", [32, 64])
def test_profiles_match_a_per_mode_formatter(calibrated_plate, split_pair,
                                             nodes):
    disc = Discretization(radial_nodes=nodes)
    # n = 0 modes are single; the n = 2 pair shares its profile but not its
    # frequency once split
    basis = solve_modes(calibrated_plate, n_max=3, modes_per_n=2, disc=disc)
    basis = split_pair(basis, 2, 0.01)
    # the n = 3 sine partner with its own profile on the shared mesh, and a
    # mode on a second mesh
    modes = [dataclasses.replace(m, radial_values=-m.radial_values,
                                 radial_slopes=-m.radial_slopes)
             if (m.n, m.orientation, m.family) == (3, "sin", 0) else m
             for m in basis]
    other = solve_modes(calibrated_plate, n_max=1, n_min=1,
                        disc=Discretization(radial_nodes=nodes + 8))
    modes = sorted(modes + list(other), key=lambda m: (m.frequency, m.n, m.orientation))
    mixed = ModalBasis(tuple(modes), disc, basis.provenance)
    for b in (basis, mixed):
        text = format_radial_profiles(b)
        assert text == _profiles_ref(b)
        assert "np." not in text
