"""The numpy subspace iteration against scipy's subset ``eigh``.

``modal._lowest_eigenpairs`` hands ``solve_modes`` the lowest pairs of the
equilibrated pencil; scipy's ``eigh(..., subset_by_index=...)`` is kept
here, and only here, as the dense reference.
"""

import numpy as np
import pytest
from scipy.linalg import eigh

from statorlab.modal import (_HALF_BANDWIDTH, Discretization, _assemble_full,
                             _band, _extended_residual, _lowest_eigenpairs,
                             _polish_eigenpair, _start_block, solve_modes)


def _polish(K, M, lam, w):
    """``_polish_eigenpair`` of one pair, handed its bands and first
    residual as ``solve_modes`` hands them over."""
    Kb, Mb = _band(K, _HALF_BANDWIDTH), _band(M, _HALF_BANDWIDTH)
    return _polish_eigenpair(K, M, Kb, Mb, lam, w, _extended_residual(Kb, Mb, lam, w))


def _reference_frequencies(plate, disc, modes_per_n):
    """{(n, family): Hz} from scipy's subset eigh, polished as solve_modes does."""
    out = {}
    for n in range(8):
        K, M, nodes = _assemble_full(plate, n, disc)
        Kc, Mc = K[2:, 2:], M[2:, 2:]
        s = np.ones(Kc.shape[0])
        s[1::2] = float(np.mean(np.diff(nodes)))
        S = np.outer(s, s)
        evals, evecs = eigh(Kc * S, Mc * S, subset_by_index=(0, modes_per_n - 1))
        for k in range(modes_per_n):
            w = s * evecs[:, k]
            _, lam, _ = _polish(Kc, Mc, evals[k], w / np.sqrt(w @ Mc @ w))
            out[n, k] = np.sqrt(lam) / (2.0 * np.pi)
    return out


@pytest.mark.parametrize("modes_per_n", [1, 2])
@pytest.mark.parametrize("radial_nodes", [32, 64, 80])
def test_polished_frequencies_match_scipy(calibrated_plate, radial_nodes, modes_per_n):
    disc = Discretization(radial_nodes=radial_nodes)
    basis = solve_modes(calibrated_plate, n_max=7, n_min=0,
                        modes_per_n=modes_per_n, disc=disc)
    ref = _reference_frequencies(calibrated_plate, disc, modes_per_n)
    got = {(m.n, m.family): m.frequency for m in basis if m.orientation == "cos"}
    assert got.keys() == ref.keys() and len(got) == 8 * modes_per_n
    for key, f in ref.items():
        assert got[key] == pytest.approx(f, rel=1e-8), key


def _random_pencil(size, seed):
    """A B-orthonormal eigenbasis X with known eigenvalues, A = B X diag X^T B.

    Three low eigenvalues (1, 1.5, 2) and the rest in [50, 500]: for k <= 3
    wanted pairs the convergence ratio lam_k / lam_(k+3) is at most 0.04,
    inside the plate's measured 0.074, and cond(A) stays near 500, so
    float64 resolves the low three to ~1e-13.
    """
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((size, size))
    B = G @ G.T / size + np.eye(size)
    lam = np.concatenate([[1.0, 1.5, 2.0],
                          np.sort(rng.uniform(50.0, 500.0, size - 3))])
    Q = np.linalg.qr(rng.standard_normal((size, size)))[0]
    X = np.linalg.solve(np.linalg.cholesky(B).T, Q)      # X^T B X = I
    BX = B @ X
    A = BX @ np.diag(lam) @ BX.T
    return 0.5 * (A + A.T), B


@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_pencil_lowest_eigenvalues(seed, k):
    A, B = _random_pencil(40, seed)
    vals, vecs = _lowest_eigenpairs(A, B, k)
    ref = eigh(A, B, eigvals_only=True, subset_by_index=(0, k - 1))
    assert vals.shape == (k,) and vecs.shape == (40, k)
    assert np.max(np.abs(vals / ref - 1.0)) <= 1e-12
    # B-orthonormal Ritz vectors with small residuals
    assert np.allclose(vecs.T @ B @ vecs, np.eye(k), rtol=0, atol=1e-12)
    resid = A @ vecs - B @ vecs * vals
    assert np.max(np.abs(resid)) <= 1e-10 * np.abs(A).max()


@pytest.mark.parametrize("shape", [(2, 3), (60, 3), (60, 4), (254, 4)])
def test_start_block_is_the_fixed_seed_draw_read_only(shape):
    Y = _start_block(*shape)
    assert np.array_equal(Y, np.random.default_rng(0).standard_normal(shape))
    assert not Y.flags.writeable
    with pytest.raises(ValueError):
        Y[0, 0] = 1.0
    # drawn once per shape, then shared
    assert _start_block(*shape) is Y


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_pencils_bit_identical_to_one_pencil_calls(k):
    # a stack of A against one broadcast B (a harmonic block), and a stack
    # of both; each slice must get the bits of its own 2-D call
    pencils = [_random_pencil(40, seed) for seed in (3, 17, 2024, 7919)]
    A = np.stack([a for a, _ in pencils])
    B = np.stack([b for _, b in pencils])
    for B_stack in (B[0], B):
        vals, vecs = _lowest_eigenpairs(A, B_stack, k)
        assert vals.shape == (4, k) and vecs.shape == (4, 40, k)
        for j in range(4):
            ref_vals, ref_vecs = _lowest_eigenpairs(A[j], B_stack[j] if B_stack.ndim == 3
                                                    else B_stack, k)
            assert vals[j].tobytes() == ref_vals.tobytes(), j
            assert vecs[j].tobytes() == ref_vecs.tobytes(), j
