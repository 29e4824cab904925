import math

import numpy as np
import pytest

from coherence_lab import fock, spin
from coherence_lab.dynamics import (
    DriveSpec,
    LinearSpinHamiltonian,
    alpha_eta_of_t,
    alpha_of_t,
    cs_fidelity,
    cs_overlap,
    eta_convention_report,
    evolve_fock,
    evolve_spin,
)
from coherence_lab.errors import NumericalError, StepSizeTooLarge, ValidationError
from coherence_lab.qcore import expectation


def constant_drive(lam=0.2, omega=1.0):
    return DriveSpec.constant(omega, lam)


# ---------------------------------------------------------------------------
# alpha_eta_of_t
# ---------------------------------------------------------------------------

def test_alpha_eta_zero_drive():
    drive = DriveSpec.zero(2.0)
    alpha, eta = alpha_eta_of_t(drive, 1.3)
    assert alpha == pytest.approx(0.0, abs=1e-14)
    assert eta == pytest.approx(-2.0 * 1.3 / 2.0, abs=1e-12)


def test_alpha_constant_drive_closed_form():
    lam, omega = 0.2, 1.0
    drive = constant_drive(lam, omega)
    for t in (0.5, math.pi, 2 * math.pi):
        want = -(lam / omega) * (1 - np.exp(-1j * omega * t))
        assert alpha_of_t(drive, t) == pytest.approx(want, abs=1e-10)
    # at omega*t = pi the amplitude reaches -2 lam / omega = -0.4
    assert alpha_of_t(drive, math.pi) == pytest.approx(-0.4, abs=1e-10)


def test_alpha_resonant_drive_grows_linearly():
    g, omega = 0.1, 1.0
    drive = DriveSpec.exponential(omega, g, omega)
    for t in (1.0, 3.0, 6.0):
        alpha = alpha_of_t(drive, t)
        assert abs(alpha) == pytest.approx(g * t, abs=1e-9)


def test_eta_constant_drive_closed_form():
    # Re[conj(lam) alpha](tau) = -lam^2 (1 - cos tau) for real lam, omega = 1
    lam = 0.2
    drive = constant_drive(lam, 1.0)
    t = math.pi
    _, eta = alpha_eta_of_t(drive, t)
    want = -t / 2.0 + lam ** 2 * (t - math.sin(t))
    assert eta == pytest.approx(want, abs=1e-9)


def test_alpha_requires_nonnegative_time():
    with pytest.raises(ValidationError):
        alpha_of_t(constant_drive(), -0.1)


def test_quadrature_failure_on_hopeless_integrand():
    from coherence_lab.errors import QuadratureFailure
    drive = DriveSpec.sinusoid(1.0, 0.3, 50000.0)
    with pytest.raises(QuadratureFailure):
        alpha_of_t(drive, 60.0)


def test_table_drive_matches_closed_form():
    # a linearly interpolated constant is exactly constant
    times = np.linspace(0.0, 7.0, 15)
    drive = DriveSpec.from_table(1.0, times, np.full(15, 0.2 + 0.0j))
    want = constant_drive(0.2, 1.0)
    for t in (1.0, 3.5, 6.2):
        assert drive.lam(t) == pytest.approx(0.2, abs=1e-14)
        assert alpha_of_t(drive, t) == pytest.approx(alpha_of_t(want, t),
                                                     abs=1e-9)
    with pytest.raises(ValidationError):
        drive.lam(8.0)
    with pytest.raises(ValidationError):
        DriveSpec.from_table(1.0, [0.0, 1.0], [1.0, np.nan])


# ---------------------------------------------------------------------------
# cs_fidelity
# ---------------------------------------------------------------------------

def test_cs_fidelity_exact_match():
    s = fock.glauber_cs(0.7 + 0.1j, 40)
    assert cs_fidelity(s, 0.7 + 0.1j) == pytest.approx(1.0, abs=1e-10)


def test_cs_fidelity_displaced_reference():
    # |<alpha|beta>| = exp(-|alpha-beta|^2 / 2); frozen: exp(-0.005)
    s = fock.glauber_cs(0.6, 40)
    assert cs_fidelity(s, 0.5) == pytest.approx(math.exp(-0.005), abs=1e-9)
    assert cs_fidelity(s, 0.5) == pytest.approx(0.9950124791926823, abs=1e-9)


def test_cs_fidelity_fock_one_vs_vacuum_reference():
    assert cs_fidelity(fock.number_state(20, 1), 0.0) == pytest.approx(0.0,
                                                                       abs=1e-14)


def test_cs_overlap_phase():
    import numpy as np
    from coherence_lab.qcore import StateVector
    base = fock.glauber_cs(0.4, 30)
    rotated = StateVector(base.space, base.amps * np.exp(0.3j))
    assert np.angle(cs_overlap(rotated, 0.4)) == pytest.approx(0.3, abs=1e-10)


# ---------------------------------------------------------------------------
# oscillator evolution
# ---------------------------------------------------------------------------

def test_evolve_vacuum_no_drive():
    traj = evolve_fock(DriveSpec.zero(1.0), np.linspace(0, 2, 9), 20)
    assert np.allclose(traj.alpha_track, 0.0, atol=1e-12)
    assert np.all(traj.cs_fidelity > 1 - 1e-12)


def test_evolve_constant_drive_tracks_quadrature_alpha():
    drive = constant_drive(0.2, 1.0)
    grid = np.linspace(0, 2 * math.pi, 33)
    traj = evolve_fock(drive, grid, 40)
    for i, t in enumerate(grid):
        want = alpha_of_t(drive, t)
        assert abs(traj.alpha_track[i] - want) < 1e-6
    assert traj.cs_fidelity.min() > 1 - 1e-6


def test_evolve_free_coherent_state_orbit():
    omega = 1.0
    grid = np.linspace(0, 2 * math.pi, 17)
    initial = fock.glauber_cs(0.5, 40)
    traj = evolve_fock(DriveSpec.zero(omega), grid, 40, initial=initial)
    want = 0.5 * np.exp(-1j * omega * grid)
    assert np.abs(traj.alpha_track - want).max() < 1e-9
    assert traj.cs_fidelity.min() > 1 - 1e-9


def test_evolve_phase_space_consistency():
    drive = constant_drive(0.3, 1.0)
    grid = np.linspace(0, 4.0, 9)
    traj = evolve_fock(drive, grid, 40)
    q, p = fock.quadrature_ops(40)
    for state, alpha in zip(traj.states, traj.alpha_track):
        via_quadratures = (expectation(q, state) + 1j * expectation(p, state)) / math.sqrt(2)
        assert abs(via_quadratures - alpha) < 1e-10


def test_evolve_coherence_preservation_strong_drive():
    drive = constant_drive(0.5, 1.0)
    grid = np.linspace(0, 2 * math.pi, 25)
    traj = evolve_fock(drive, grid, 40)
    assert traj.cs_fidelity.min() > 1 - 1e-6
    assert traj.cs_fidelity.max() <= 1 + 1e-12


def test_evolve_convergence_order():
    # time-dependent drive: halving the step cuts the error by >= 3.5x
    drive = DriveSpec.sinusoid(1.0, 0.3, 2.0)
    grid = np.array([0.0, 2.0])
    exact = alpha_of_t(drive, 2.0)
    errs = []
    for dt in (0.05, 0.025):
        traj = evolve_fock(drive, grid, 30, max_step=dt)
        errs.append(abs(traj.alpha_track[-1] - exact))
    assert errs[0] / errs[1] >= 3.5


def test_evolve_fourth_order():
    # Magnus-4: halving the step cuts the error by about 16x
    drive = DriveSpec.sinusoid(1.0, 0.3, 2.0)
    grid = np.array([0.0, 2.0])
    exact = alpha_of_t(drive, 2.0)
    errs = []
    for dt in (0.2, 0.1):
        traj = evolve_fock(drive, grid, 30, max_step=dt)
        errs.append(abs(traj.alpha_track[-1] - exact))
    assert errs[0] / errs[1] >= 12.0


def test_evolve_moderate_sinusoid_drives_meet_amplitude_bound():
    # the default step keeps c07's 1e-6 amplitude bound on |lambda| = 0.2
    # sinusoid drives, where the second-order midpoint step missed it
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, math.pi, 9)  # half an oscillator period
    for _ in range(6):
        lam = 0.2 * np.exp(1j * rng.uniform(0, 2 * math.pi))
        drive = DriveSpec.sinusoid(1.0, lam, rng.uniform(0.3, 0.9),
                                   rng.uniform(0, 2 * math.pi))
        want = np.array([alpha_of_t(drive, t) for t in grid])
        for cutoff in (40, 80):
            traj = evolve_fock(drive, grid, cutoff)
            assert np.abs(traj.alpha_track - want).max() < 1e-6


def test_substep_budget(monkeypatch):
    import coherence_lab.dynamics as dyn
    # 8e6 and 8e9 substeps at the default step
    with pytest.raises(NumericalError):
        evolve_fock(DriveSpec.zero(1e6), np.array([0.0, 1.0]), 20)
    initial = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5))
    with pytest.raises(NumericalError):
        evolve_spin(LinearSpinHamiltonian(1e9), 1, np.array([0.0, 1.0]), initial)
    # span / max_step overflows to inf
    with pytest.raises(NumericalError):
        evolve_fock(DriveSpec.zero(1.0), np.array([0.0, 1.0]), 20, max_step=1e-320)
    with pytest.raises(ValidationError):
        evolve_fock(DriveSpec.zero(1.0), np.array([0.0, 1.0]), 20, max_step=0.0)
    # the budget counts the substeps of the whole trajectory
    monkeypatch.setattr(dyn, "MAX_SUBSTEPS", 10)
    evolve_fock(DriveSpec.zero(1.0), np.array([0.0, 1.0]), 20, max_step=0.1)
    with pytest.raises(NumericalError):
        evolve_fock(DriveSpec.zero(1.0), np.array([0.0, 0.5, 1.0]), 20, max_step=0.09)


def test_evolve_truncation_guard():
    from coherence_lab.errors import TruncationTooSmall
    with pytest.raises(TruncationTooSmall):
        evolve_fock(constant_drive(2.0, 1.0), np.linspace(0, 20, 5), 20)


def test_evolve_rejects_descending_grid():
    with pytest.raises(ValidationError):
        evolve_fock(constant_drive(), np.array([0.0, 1.0, 0.5]), 20)


def test_norm_drift_guard_raises(monkeypatch):
    import coherence_lab.dynamics as dyn
    monkeypatch.setattr(dyn, "_NORM_DRIFT_LIMIT", -1.0)
    with pytest.raises(StepSizeTooLarge):
        evolve_fock(constant_drive(), np.linspace(0, 1, 3), 20)


# ---------------------------------------------------------------------------
# spin evolution
# ---------------------------------------------------------------------------

def test_evolve_spin_precession_circle():
    omega = 1.0
    ham = LinearSpinHamiltonian(omega)
    grid = np.linspace(0, 2 * math.pi, 33)
    for j in (0.5, 1.0, 2.0):
        initial = spin.spin_cs(spin.SpinCsParams(j=j, zeta=0.5))
        traj = evolve_spin(ham, j, grid, initial)
        assert traj.cs_fidelity.min() > 1 - 1e-8
        mods = np.abs(traj.zeta_track)
        assert mods.max() - mods.min() < 1e-8
        # rotation sense fixed by the measured generator action:
        # zeta(t) = zeta(0) exp(-i omega t)
        want = 0.5 * np.exp(-1j * omega * grid)
        assert np.abs(traj.zeta_track - want).max() < 1e-7


def test_evolve_spin_constant_hamiltonian_zero():
    ham = LinearSpinHamiltonian(0.0, 0.0)
    initial = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.3 + 0.2j))
    traj = evolve_spin(ham, 1, np.linspace(0, 3, 7), initial)
    for state in traj.states:
        assert np.abs(state.amps - initial.amps).max() < 1e-12


def test_evolve_spin_rabi_great_circle():
    # H = Omega (J+ + J-)/2 sweeps theta at unit rate through the poles
    ham = LinearSpinHamiltonian(0.0, 0.5)
    grid = np.linspace(0, math.pi, 21)
    traj = evolve_spin(ham, 1.5, grid, spin.lowest_state(1.5))
    assert traj.cs_fidelity.min() > 1 - 1e-8
    np.testing.assert_allclose(traj.theta_track, grid, atol=1e-7)


def test_evolve_spin_coherence_for_generic_linear_hamiltonian():
    rng = np.random.default_rng(8)
    grid = np.linspace(0, 2 * math.pi, 17)
    for j in (0.5, 1.5, 3.0):
        beta0 = rng.uniform(-1, 1)
        beta_plus = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        ham = LinearSpinHamiltonian(beta0, beta_plus)
        initial = spin.spin_cs(spin.SpinCsParams(j=j, zeta=0.4 - 0.6j))
        traj = evolve_spin(ham, j, grid, initial)
        assert traj.cs_fidelity.min() > 1 - 1e-7


def test_linear_spin_hamiltonian_hermitian():
    ham = LinearSpinHamiltonian(0.7, 0.2 - 0.1j)
    op = ham.operator(1.5)
    assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-12


# ---------------------------------------------------------------------------
# eta convention
# ---------------------------------------------------------------------------

def test_eta_convention_report():
    drive = constant_drive(0.2, 1.0)
    report = eta_convention_report(drive, np.linspace(0, 4.0, 9), 40)
    # evolving with H = omega a+a leaves the formula's -omega t/2 unbalanced:
    # the vacuum-energy convention reproduces the textbook phase
    assert report["matched_convention"] == "omega*(n+1/2)"
    assert report["offset_rate"] == pytest.approx(0.5, abs=1e-6)
    assert report["max_residual"] < 1e-6
