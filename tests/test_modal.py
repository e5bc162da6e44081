import dataclasses

import numpy as np
import pytest

from oracle_fd import oracle_frequency
from statorlab.errors import DiscretizationError, DomainError, NumericalError
from statorlab import modal
from statorlab.geometry import Material, homogenize
from statorlab.grids import RasterGrid
from statorlab.modal import (EIG_RESIDUAL_TOL, Discretization, ModalBasis,
                             Mode, assemble, calibrate, eig_residual,
                             format_radial_profiles, harmonic_weight,
                             mode_shape_eval, solve_modes)


def _dofs(mode):
    """Free DOF vector (clamp node dropped) as assembled by the solver."""
    w = np.empty(2 * (mode.radial_nodes.size - 1))
    w[0::2] = mode.radial_values[1:]
    w[1::2] = mode.radial_slopes[1:]
    return w


def test_harmonic_weight():
    assert harmonic_weight(0) == pytest.approx(2 * np.pi)
    assert harmonic_weight(1) == pytest.approx(np.pi)
    assert harmonic_weight(7) == pytest.approx(np.pi)


def test_discretization_validation():
    with pytest.raises(DiscretizationError):
        Discretization(radial_nodes=4)


def test_assemble_matrices_symmetric_definite(plate):
    K, M = assemble(plate, 4)
    assert np.allclose(K, K.T, rtol=0, atol=1e-9 * np.abs(K).max())
    assert np.allclose(M, M.T, rtol=0, atol=1e-12 * np.abs(M).max())
    m_eigs = np.linalg.eigvalsh(M)
    assert m_eigs.min() > 0.0
    k_eigs = np.linalg.eigvalsh(K)
    assert k_eigs.min() > -1e-10 * k_eigs.max()


def test_assemble_rejects_bad_harmonic(plate):
    with pytest.raises(DomainError):
        assemble(plate, -1)


def test_pairs_share_frequency_exactly(basis):
    for n in range(1, 8):
        cos_f = basis.select(n, "cos")[0].frequency
        sin_f = basis.select(n, "sin")[0].frequency
        assert cos_f == sin_f       # one radial solve feeds both partners


def test_basis_sorted_ascending(basis):
    freqs = basis.frequencies
    assert np.all(np.diff(freqs) >= 0.0)


def test_modes_mass_normalized(calibrated_plate, basis):
    for n in (1, 4, 7):
        mode = basis.select(n, "cos")[0]
        K, M = assemble(calibrated_plate, n, basis.discretization)
        w = _dofs(mode)
        assert w @ M @ w == pytest.approx(1.0, rel=1e-10)


def test_eigenpair_residuals_under_gate(calibrated_plate, basis):
    for mode in basis:
        if mode.orientation != "cos":
            continue
        K, M = assemble(calibrated_plate, mode.n, basis.discretization)
        w = _dofs(mode)
        resid = eig_residual(K, M, mode.omega ** 2, w)
        assert resid < EIG_RESIDUAL_TOL


def test_mesh_refinement_stability(calibrated_plate):
    """Frequencies must be mesh-converged at the default resolution."""
    f48 = solve_modes(calibrated_plate, n_max=4, n_min=4,
                      disc=Discretization(radial_nodes=48)).frequency_for(4)
    f64 = solve_modes(calibrated_plate, n_max=4, n_min=4).frequency_for(4)
    assert abs(f48 - f64) / f64 < 1e-6


def test_fine_mesh_fails_loudly(calibrated_plate):
    # the residual gate cannot be met in double precision on a very dense
    # mesh; the solver must refuse rather than return an unverified pair
    with pytest.raises(NumericalError, match="residual"):
        solve_modes(calibrated_plate, n_max=0, n_min=0,
                    disc=Discretization(radial_nodes=192))


def test_radial_shape_clamped_region(basis):
    mode = basis.select(4, "cos")[0]
    r_in = np.array([1e-3, 3e-3, 5.9e-3])
    assert np.all(mode.radial(r_in) == 0.0)
    # spline interpolates its own nodes
    assert np.allclose(mode.radial(mode.radial_nodes), mode.radial_values,
                       rtol=0, atol=1e-12 * np.abs(mode.radial_values).max())
    # rim rises by the sign convention
    assert mode.radial(15e-3) > 0.0


def test_radial_moment_matches_dense_quadrature(basis):
    mode = basis.select(3, "cos")[0]
    r = np.linspace(mode.radial_nodes[0], mode.radial_nodes[-1], 20001)
    dense = np.trapezoid(mode.radial(r) * r, r)
    assert mode.radial_moment() == pytest.approx(dense, rel=1e-8)


def _moment(mode):
    """Int W(r) r dr by the per-element Gauss rule, evaluated afresh."""
    h = np.diff(mode.radial_nodes)[:, None]
    r = mode.radial_nodes[:-1, None] + 0.5 * (modal._MOMENT_XI + 1.0) * h
    return float(np.sum(0.5 * modal._MOMENT_W * h * mode.radial(r) * r))


def test_radial_moment_is_evaluated_once_per_mode(basis, split_pair,
                                                   monkeypatch):
    mode = dataclasses.replace(basis.select(3, "cos")[0])   # nothing cached
    calls = []
    shapes = modal.radial_shapes
    monkeypatch.setattr(modal, "radial_shapes",
                        lambda *args: calls.append(args) or shapes(*args))
    first = mode.radial_moment()
    assert mode.radial_moment() == first
    assert len(calls) == 1
    # a split partner is a new mode and evaluates its own moment
    partner = split_pair(basis, 3, 1e-3).select(3, "sin")[0]
    assert partner.radial_moment() == _moment(partner)
    assert len(calls) == 3


def _unit_modes(n):
    common = dict(n=n, frequency=1.0, radial_nodes=np.array([0.0, 1.0]),
                  radial_values=np.zeros(2), radial_slopes=np.zeros(2))
    return Mode(orientation="cos", **common), Mode(orientation="sin", **common)


@pytest.mark.parametrize("pixels", [128, 384, 2048])
def test_powered_phasors_match_libm_trig(pixels):
    grid = RasterGrid(inner_radius=3.75e-3, outer_radius=15e-3, pixels=pixels)
    theta = grid.theta[grid.mask]
    worst = 0.0
    for n in range(14):
        rows = np.ones((2, theta.size))
        modal.angular_patterns(_unit_modes(n), grid.unit, rows)
        # n theta rounds by up to 7e-15 at n = 13: libm's error, not the powering's
        worst = max(worst, np.max(np.abs(rows[0] - np.cos(n * theta))),
                    np.max(np.abs(rows[1] - np.sin(n * theta))))
    assert worst <= 1e-14


def test_angular_is_one_path_for_scalars_points_and_blocks(basis):
    theta = np.random.default_rng(3).uniform(0.0, 2 * np.pi,
                                             modal._ANGULAR_BLOCK + 3)
    for mode in (basis.select(7, "sin")[0], basis.select(5, "cos")[0]):
        whole = mode.angular(theta)
        assert np.array_equal(whole[-3:], mode.angular(theta[-3:]))
        assert np.array_equal(whole[-3:], [mode.angular(t) for t in theta[-3:]])
        assert np.isscalar(mode.angular(float(theta[0])))


def test_mode_shape_eval_bounds(basis):
    mode = basis.select(2, "cos")[0]
    value = mode_shape_eval(mode, 12e-3, 0.0)
    assert value == pytest.approx(mode.radial(12e-3), rel=1e-12)
    with pytest.raises(DomainError):
        mode_shape_eval(mode, 20e-3, 0.0)


def test_with_damping(basis):
    quiet = basis.with_damping(0.001)
    assert quiet.damping_for(4) == pytest.approx(0.001)
    assert basis.damping_for(4) == pytest.approx(0.02)
    with pytest.raises(DomainError,
                       match=r"^damping ratio must be in \[0, 1\), got 1.0$"):
        basis.with_damping(1.0)
    # the basis owns the range: a default or an override outside it fails
    # at construction
    for default, overrides in ((1.0, None), (0.02, {4: -0.1})):
        with pytest.raises(DomainError, match="damping ratio must be in"):
            ModalBasis(basis.modes, basis.discretization, basis.provenance,
                       default, overrides)


def test_solve_modes_carries_material_damping(geometry):
    plate = homogenize(geometry, Material(damping_overrides={4: 0.0064}))
    basis = solve_modes(plate, n_max=4, n_min=3,
                        disc=Discretization(radial_nodes=32))
    assert basis.damping_for(4) == 0.0064
    assert basis.damping_for(3) == 0.02


def test_frequency_for_missing_harmonic(basis):
    with pytest.raises(DomainError):
        basis.frequency_for(0)


def test_calibration_hits_target_and_preserves_ratios(plate):
    raw = solve_modes(plate, n_max=3, n_min=1)
    result = calibrate(plate, target=(1, 3680.0))
    assert result.scale == pytest.approx((3680.0 / raw.frequency_for(1)) ** 2,
                                         rel=1e-12)
    recal = solve_modes(result.plate, n_max=3, n_min=1)
    assert recal.frequency_for(1) == pytest.approx(3680.0, rel=1e-6)
    # a pure stiffness scale moves the whole ladder together
    assert (recal.frequency_for(3) / recal.frequency_for(1)
            == pytest.approx(raw.frequency_for(3) / raw.frequency_for(1),
                             rel=1e-9))
    with pytest.raises(DomainError):
        calibrate(plate, target=(1, -5.0))


def test_oracle_agrees_on_piecewise_plate(calibrated_plate):
    fem = solve_modes(calibrated_plate, n_max=4, n_min=4).frequency_for(4)
    fd = oracle_frequency(calibrated_plate, 4, points=3000)
    assert abs(fem - fd) / fd < 0.01


def test_solve_modes_argument_check(plate):
    with pytest.raises(DomainError):
        solve_modes(plate, n_max=1, n_min=3)


def test_basis_frequency_and_profiles_deterministic(basis):
    assert basis[0].frequency == pytest.approx(3680.0, rel=1e-6)
    assert format_radial_profiles(basis) == format_radial_profiles(basis)
    assert basis.provenance in format_radial_profiles(basis)


def _f_string_profiles(basis):
    """``format_radial_profiles`` as it was, with one f-string per node."""
    lines = [f"# statorlab radial profiles, provenance {basis.provenance}",
             f"# modes {len(basis)}  radial_nodes {basis.discretization.radial_nodes}"]
    for m in basis:
        lines.append(f"mode n={m.n} orientation={m.orientation} family={m.family} "
                     f"frequency_hz={m.frequency!r} boundary=clamped-at-fixture/free-at-edges")
        lines.append("r_m W dW_dr")
        lines.append("\n".join(
            f"{r!r} {v!r} {s!r}" for r, v, s in zip(
                m.radial_nodes.tolist(), m.radial_values.tolist(),
                m.radial_slopes.tolist())))
        lines.append("")
    return "\n".join(lines) + "\n"


def test_profiles_text_equals_one_f_string_per_node(calibrated_plate,
                                                    split_pair):
    # two families per harmonic, and a split pair whose sine partner has its
    # own frequency
    basis = solve_modes(calibrated_plate, n_max=5, n_min=0, modes_per_n=2)
    for b in (basis, split_pair(basis, 3, 0.01)):
        assert format_radial_profiles(b) == _f_string_profiles(b)


@pytest.mark.parametrize("points", [3, 6])
def test_gauss_literals_are_numpys_leggauss(points):
    raw = {3: (modal._MOMENT_XI, modal._MOMENT_W),
           6: (modal._GAUSS6_XI, modal._GAUSS6_W)}[points]
    for name, got, want in zip(("nodes", "weights"), raw,
                               np.polynomial.legendre.leggauss(points)):
        if np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            continue
        # another numpy may round the rule differently: at most 1 ulp
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 1.0, (
            f"leggauss({points}) {name} differ from the literals by "
            f"{ulps.max():g} ulp: {want.tolist()} vs {got.tolist()}")
    assert np.array_equal(modal._QUAD_XI, 0.5 * (modal._GAUSS6_XI + 1.0))
    assert modal.Discretization.quadrature_order == 6


def test_mode_rejects_bad_orientation(basis):
    good = basis.select(1, "cos")[0]
    with pytest.raises(DomainError):
        Mode(n=1, orientation="diag", frequency=good.frequency,
             radial_nodes=good.radial_nodes,
             radial_values=good.radial_values,
             radial_slopes=good.radial_slopes)
