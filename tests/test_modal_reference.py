"""The modal layer against the implementations it replaced.

``_assemble_full_loop`` is the element-by-element assembly that
``modal._assemble_full`` must reproduce bit for bit: the eigen-residual
gate at 80 nodes sits on the last bit, so any rounding change moves which
meshes are refused.  scipy's ``CubicHermiteSpline`` is the reference for
the mode-shape evaluator.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import statorlab
from statorlab.geometry import homogenize
from statorlab.modal import (Discretization, _active_mesh, _assemble_full,
                             harmonic_weight, radial_shapes)


def _hermite_element(xi, h):
    """Cubic Hermite shape functions on one element, derivatives wrt r."""
    xi2, xi3 = xi * xi, xi * xi * xi
    N = np.stack([1.0 - 3.0 * xi2 + 2.0 * xi3,
                  h * (xi - 2.0 * xi2 + xi3),
                  3.0 * xi2 - 2.0 * xi3,
                  h * (xi3 - xi2)])
    dN = np.stack([(6.0 * xi2 - 6.0 * xi) / h,
                   1.0 - 4.0 * xi + 3.0 * xi2,
                   (6.0 * xi - 6.0 * xi2) / h,
                   3.0 * xi2 - 2.0 * xi])
    d2N = np.stack([(12.0 * xi - 6.0) / h**2,
                    (6.0 * xi - 4.0) / h,
                    (6.0 - 12.0 * xi) / h**2,
                    (6.0 * xi - 2.0) / h])
    return N, dN, d2N


def _assemble_full_loop(plate, n, disc):
    """Reference assembly: one element and one Gauss point at a time."""
    nodes = _active_mesh(plate, disc)
    ndof = 2 * nodes.size
    K = np.zeros((ndof, ndof))
    M = np.zeros((ndof, ndof))
    xi_q, w_q = np.polynomial.legendre.leggauss(disc.quadrature_order)
    xi_q = 0.5 * (xi_q + 1.0)
    w_q = 0.5 * w_q
    nu = plate.poisson_ratio
    cn = harmonic_weight(n)

    for e in range(nodes.size - 1):
        r1, r2 = nodes[e], nodes[e + 1]
        h = r2 - r1
        N, dN, d2N = _hermite_element(xi_q, h)
        r = r1 + xi_q * h
        D = plate.D(0.5 * (r1 + r2)) * np.ones_like(r)
        mu = plate.mu(0.5 * (r1 + r2)) * np.ones_like(r)
        Ke = np.zeros((4, 4))
        Me = np.zeros((4, 4))
        for q in range(xi_q.size):
            rq = r[q]
            lap = d2N[:, q] + dN[:, q] / rq - (n * n) * N[:, q] / rq**2
            curv_r = d2N[:, q]
            curv_t = dN[:, q] / rq - (n * n) * N[:, q] / rq**2
            twist = dN[:, q] / rq - N[:, q] / rq**2
            Ke += (w_q[q] * h * rq * D[q]) * (
                np.outer(lap, lap)
                - (1.0 - nu) * (np.outer(curv_r, curv_t) + np.outer(curv_t, curv_r))
                + 2.0 * (1.0 - nu) * n * n * np.outer(twist, twist))
            Me += (w_q[q] * h * rq * mu[q]) * np.outer(N[:, q], N[:, q])
        sl = slice(2 * e, 2 * e + 4)
        K[sl, sl] += cn * Ke
        M[sl, sl] += cn * Me

    return K, M, nodes


@pytest.mark.parametrize("radial_nodes", [32, 64, 80, 128])
@pytest.mark.parametrize("fixture_radius", [None, 5e-3, 7e-3])
def test_assembly_bit_identical_to_element_loop(plate, geometry, material,
                                                fixture_radius, radial_nodes):
    if fixture_radius is not None:
        plate = homogenize(dataclasses.replace(geometry, fixture_radius=fixture_radius),
                           material)
    disc = Discretization(radial_nodes=radial_nodes)
    for n in range(8):
        K, M, nodes = _assemble_full(plate, n, disc)
        K_ref, M_ref, nodes_ref = _assemble_full_loop(plate, n, disc)
        assert np.array_equal(nodes, nodes_ref)
        assert np.array_equal(K, K_ref), f"K differs at n={n}"
        assert np.array_equal(M, M_ref), f"M differs at n={n}"


@pytest.mark.parametrize("n,orientation",
                         [(n, o) for n in range(1, 8) for o in ("cos", "sin")])
def test_shapes_match_cubic_hermite_spline(basis, n, orientation):
    mode = basis.select(n, orientation)[0]
    nodes = mode.radial_nodes
    spline = CubicHermiteSpline(nodes, mode.radial_values, mode.radial_slopes)
    # dense radii from the center (clamped) to the exact rim, plus the nodes
    r = np.concatenate([np.linspace(0.0, mode.outer_radius, 4001), nodes])
    expected = np.where(r < nodes[0], 0.0, spline(np.clip(r, nodes[0], None)))
    peak = np.abs(mode.radial_values).max()

    W = mode.radial(r)
    assert np.all(W[r < nodes[0]] == 0.0)
    assert mode.radial(mode.outer_radius) == mode.radial_values[-1]
    assert np.max(np.abs(W - expected)) <= 1e-14 * peak
    # the basis-wide evaluator returns exactly the per-mode profile
    k = [m is mode for m in basis].index(True)
    assert np.array_equal(radial_shapes(basis.modes, r)[k], W)

    xi, w = np.polynomial.legendre.leggauss(3)
    moment = sum(h * np.sum(0.5 * w * spline(r1 + 0.5 * (xi + 1.0) * h)
                            * (r1 + 0.5 * (xi + 1.0) * h))
                 for r1, h in zip(nodes[:-1], np.diff(nodes)))
    assert mode.radial_moment() == pytest.approx(moment, rel=1e-14)


def test_cli_import_leaves_out_scipy_interpolate():
    src = str(Path(statorlab.__file__).resolve().parents[1])
    code = "import sys, statorlab.cli; print('scipy.interpolate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
