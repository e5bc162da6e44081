"""The eigenpair polish against the implementation it replaced.

``_eig_residual_ref`` and ``_polish_eigenpair_ref`` are the polish as it
was before ``modal._extended_residual`` shared one long-double evaluation
per iterate: they evaluate ``K w`` and ``M w`` three times per iterate.
The shared evaluation must give the same residual, eigenvalue and vector
bit for bit, and the gate must refuse exactly the pairs the reference
refuses, quoting the reference residual.  Both take their correction from
the same dense ``np.linalg.solve``.  A solver pair whose reference residual
is already under ``0.5 * EIG_RESIDUAL_TOL``, the reference loop's own
stopping threshold, is returned by the polish as it came, with that
residual; the reference accepts it too, since its best residual is no
larger.
"""

import numpy as np
import pytest

from statorlab import modal
from statorlab.errors import NumericalError
from statorlab.modal import (_HALF_BANDWIDTH, EIG_RESIDUAL_TOL, Discretization,
                             _assemble_full, _band, _extended_residual,
                             _lowest_eigenpairs, _polish_eigenpair, solve_modes)


def _polish(K, M, lam, w):
    """``_polish_eigenpair`` of one pair, handed its bands and first
    residual as ``solve_modes`` hands them over."""
    Kb, Mb = _band(K, _HALF_BANDWIDTH), _band(M, _HALF_BANDWIDTH)
    return _polish_eigenpair(K, M, Kb, Mb, lam, w, _extended_residual(Kb, Mb, lam, w))


def _eig_residual_ref(K: np.ndarray, M: np.ndarray, lam: float, w: np.ndarray) -> float:
    """||K w - lam M w|| / ||K w|| evaluated in extended precision.

    Plain float64 evaluation of ``K @ w`` rounds at ~eps*||K||*||w||, which
    for the lowest modes of a stiff plate swamps the true residual; the
    80-bit accumulation keeps the measurement out of the gate.
    """
    Kl = K.astype(np.longdouble)
    wl = w.astype(np.longdouble)
    Kw = Kl @ wl
    r = Kw - np.longdouble(lam) * (M.astype(np.longdouble) @ wl)
    return float(np.linalg.norm(r) / np.linalg.norm(Kw))


def _polish_eigenpair_ref(K: np.ndarray, M: np.ndarray, lam: float, w: np.ndarray):
    """Refine an eigenpair against the extended-precision residual.

    A float64 eigensolver's backward error is relative to ||K||, far above
    ||K w|| for the lowest modes of a stiff plate.  Each pass recomputes the
    Rayleigh quotient and residual in 80-bit arithmetic and applies a
    float64 correction solve with a slightly offset shift (K - 0.99 lam M
    is nearly singular on purpose: that makes it an inverse-iteration step).
    """
    Kl = K.astype(np.longdouble)
    Ml = M.astype(np.longdouble)
    best = (_eig_residual_ref(K, M, lam, w), lam, w)
    for _ in range(3):
        wl = w.astype(np.longdouble)
        lam = float((wl @ (Kl @ wl)) / (wl @ (Ml @ wl)))
        r = (Kl @ wl - np.longdouble(lam) * (Ml @ wl)).astype(float)
        try:
            d = np.linalg.solve(K - 0.99 * lam * M, r)
        except np.linalg.LinAlgError:
            break
        w = w - d
        w = w / np.sqrt(w @ M @ w)
        score = _eig_residual_ref(K, M, lam, w)
        if score < best[0]:
            best = (score, lam, w)
        if score < 0.5 * EIG_RESIDUAL_TOL:
            break
    return best[1], best[2]


def _solver_pairs(plate, n, disc, modes_per_n):
    """(K, M, lam, w) per family as ``solve_modes`` hands them to the polish."""
    K, M, nodes = _assemble_full(plate, n, disc)
    Kc, Mc = K[2:, 2:], M[2:, 2:]
    s = np.ones(Kc.shape[0])
    s[1::2] = float(np.mean(np.diff(nodes)))
    S = np.outer(s, s)
    evals, evecs = _lowest_eigenpairs(Kc * S, Mc * S, modes_per_n)
    for k in range(evals.size):
        w = s * evecs[:, k]
        yield Kc, Mc, evals[k], w / np.sqrt(w @ Mc @ w)


@pytest.mark.parametrize("radial_nodes,refused", [(32, 0), (64, 0), (80, 0), (88, 1)])
def test_polish_bit_identical_to_reference(calibrated_plate, radial_nodes, refused):
    disc = Discretization(radial_nodes=radial_nodes)
    over = []
    for n in range(8):
        for K, M, lam, w in _solver_pairs(calibrated_plate, n, disc, 2):
            resid, lam_new, w_new = _polish(K, M, lam, w)
            first = _eig_residual_ref(K, M, lam, w)
            if first < 0.5 * EIG_RESIDUAL_TOL:
                # already passing: returned untouched, no correction solve
                assert resid == first, f"n={n}"
                assert lam_new == lam, f"n={n}"
                assert np.array_equal(w_new.view(np.uint64), w.view(np.uint64)), f"n={n}"
            else:
                lam_ref, w_ref = _polish_eigenpair_ref(K, M, lam, w)
                assert lam_new == lam_ref, f"n={n}"
                assert np.array_equal(w_new, w_ref), f"n={n}"
                assert resid == _eig_residual_ref(K, M, lam_ref, w_ref), f"n={n}"
            over.append(resid > EIG_RESIDUAL_TOL)
    assert len(over) == 16 and sum(over) == refused


def test_refusal_quotes_reference_residual(calibrated_plate):
    disc = Discretization(radial_nodes=88)
    # solve_modes refuses the first pair over the gate, in solve order
    first = next(resid for n in range(8)
                 for K, M, lam, w in _solver_pairs(calibrated_plate, n, disc, 2)
                 if (resid := _eig_residual_ref(K, M, *_polish_eigenpair_ref(K, M, lam, w)))
                 > EIG_RESIDUAL_TOL)
    with pytest.raises(NumericalError, match=f"residual {first:.3e} above tolerance"):
        solve_modes(calibrated_plate, n_max=7, n_min=0, modes_per_n=2, disc=disc)


def _reference_corrections(plate, disc, monkeypatch):
    """Correction solves the reference takes on the pairs it must polish.

    Those are the solver pairs whose first residual is at or above
    ``0.5 * EIG_RESIDUAL_TOL``; the others need none.
    """
    taken = {"solve": 0}
    correction = np.linalg.solve

    def counted(*args, **kwargs):
        taken["solve"] += 1
        return correction(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", counted)
        for n in range(8):
            for K, M, lam, w in _solver_pairs(plate, n, disc, 2):
                if _eig_residual_ref(K, M, lam, w) >= 0.5 * EIG_RESIDUAL_TOL:
                    _polish_eigenpair_ref(K, M, lam, w)
    return taken["solve"]


def test_gate_reads_the_polish_residual(calibrated_plate, monkeypatch):
    # one extended-precision evaluation per iterate and no second residual
    # for the gate: the solver's pairs of a harmonic block share one
    # evaluation, and each correction solve takes one more; the subspace
    # iteration itself calls no np.linalg.solve, and a pair that already
    # passes takes no correction solve
    expected = _reference_corrections(calibrated_plate, Discretization(), monkeypatch)
    calls = {"extended": 0, "solve": 0, "block": 0}
    extended, correction = modal._extended_residual, np.linalg.solve
    eigenpairs = modal._lowest_eigenpairs

    def count(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_modes called eig_residual")

    monkeypatch.setattr(modal, "_extended_residual", count("extended", extended))
    monkeypatch.setattr(np.linalg, "solve", count("solve", correction))
    monkeypatch.setattr(modal, "eig_residual", forbidden)
    monkeypatch.setattr(modal, "_lowest_eigenpairs", count("block", eigenpairs))
    basis = solve_modes(calibrated_plate, n_max=7, n_min=0, modes_per_n=2)
    pairs = 8 * 2                    # n = 0..7, two radial families each
    assert len({(m.n, m.family) for m in basis}) == pairs
    assert calls["solve"] == expected
    assert calls["solve"] < pairs
    # the default 32-node mesh takes n = 0 alone and n = 1..7 in one block
    assert calls["block"] == 2
    assert calls["extended"] == calls["block"] + calls["solve"]
