import numpy as np
import pytest

from oracle_fd import oracle_frequency
from statorlab.errors import DiscretizationError, DomainError, NumericalError
from statorlab.geometry import Material, homogenize
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


def test_mode_shape_eval_bounds(basis):
    mode = basis.select(2, "cos")[0]
    value = mode_shape_eval(mode, 12e-3, 0.0)
    assert value == pytest.approx(mode.radial(12e-3), rel=1e-12)
    with pytest.raises(DomainError):
        mode_shape_eval(mode, 20e-3, 0.0)


def test_angular_leak_admixture(basis):
    mode = basis.select(4, "cos")[0]
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    leaky = basis.with_pair_defect(4, shape_leak=0.1).select(4, "cos")[0]
    assert np.allclose(leaky.angular(theta),
                       np.cos(4 * theta) + 0.1 * np.cos(5 * theta))
    assert np.allclose(mode.angular(theta), np.cos(4 * theta))


def test_pair_defect_frequency_split(basis):
    split = basis.with_pair_defect(4, frequency_split=1e-3)
    f_cos = split.select(4, "cos")[0].frequency
    f_sin = split.select(4, "sin")[0].frequency
    assert f_sin == pytest.approx(f_cos * 1.001, rel=1e-12)
    with pytest.raises(DomainError):
        basis.with_pair_defect(9)


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
    result = calibrate(plate, target=(1, 3680.0), basis=raw)
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


def test_mode_rejects_bad_orientation(basis):
    good = basis.select(1, "cos")[0]
    with pytest.raises(DomainError):
        Mode(n=1, orientation="diag", frequency=good.frequency,
             radial_nodes=good.radial_nodes,
             radial_values=good.radial_values,
             radial_slopes=good.radial_slopes)
