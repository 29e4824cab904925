import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coherence_lab.dynamics as dyn
from coherence_lab import fock, qcore, spin
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


TABLE_TIMES = np.linspace(0.0, 25.0, 40)
DRIVE_KINDS = [
    DriveSpec.constant(1.0, 0.2 - 0.1j),
    DriveSpec.sinusoid(1.3, 0.2 * np.exp(0.4j), 0.7, 1.1),
    DriveSpec.exponential(0.8, 0.15 + 0.05j, 1.9),
    DriveSpec.from_table(1.0, TABLE_TIMES,
                         0.3 * np.cos(TABLE_TIMES) + 0.1j * np.sin(2 * TABLE_TIMES)),
]


@pytest.mark.parametrize("drive", DRIVE_KINDS, ids=lambda d: d.kind)
def test_lam_takes_arrays(drive):
    t = np.linspace(0.0, 20.0, 41)
    got = drive.lam(t)
    assert got.shape == t.shape and got.dtype == complex
    np.testing.assert_allclose(got, [drive.lam(float(x)) for x in t], rtol=0, atol=1e-15)
    assert type(drive.lam(1.5)) is complex
    if drive.kind == "table":
        with pytest.raises(ValidationError, match=r"t=26\.0 outside"):
            drive.lam(np.array([1.0, 26.0]))


@pytest.mark.parametrize("drive", DRIVE_KINDS, ids=lambda d: d.kind)
def test_drive_reach_is_the_amplitude_the_integrator_follows(drive):
    # one substep per interval: the states at the grid times are every
    # point of the reach recurrence
    grid = np.linspace(0.0, 20.0, 161)
    traj = evolve_fock(drive, grid, 60, max_step=1.0001 * (grid[1] - grid[0]))
    peak = np.abs(traj.alpha_track).max()
    assert dyn._drive_reach(drive, grid, [1] * 160) / 1.02 == pytest.approx(peak, rel=1e-12)


def loop_drive_reach(drive, grid, counts):
    """The cutoff check's substep recurrence as a loop: the reference for
    ``_drive_reach``, which runs it on arrays."""
    alpha, peak = 0j, 0.0
    for start, end, n in zip(grid, grid[1:], counts):
        dt = (end - start) / n
        r = np.exp(-1j * drive.omega * dt)
        for k in range(n):
            t = start + k * dt
            lam1 = drive.lam(t + (0.5 - math.sqrt(3) / 6) * dt)
            lam2 = drive.lam(t + (0.5 + math.sqrt(3) / 6) * dt)
            nu = dt / 2 * (lam1 + lam2) - 1j * math.sqrt(3) / 12 * drive.omega * dt ** 2 * (
                lam1 - lam2)
            alpha = r * alpha - (1 - r) * nu / (drive.omega * dt)
            peak = max(peak, abs(alpha))
    return 1.02 * peak


def test_drive_reach_follows_every_substep():
    rng = np.random.default_rng(11)
    for _ in range(20):
        drive = DriveSpec.sinusoid(rng.uniform(0.2, 3.0),
                                   rng.uniform(0.01, 1.0) * np.exp(1j * rng.uniform(0, 7)),
                                   rng.uniform(0.0, 3.0), rng.uniform(0, 7))
        grid = np.cumsum(rng.uniform(0.5, 6.0, 6))
        counts = rng.integers(1, 9, 5).tolist()
        assert dyn._drive_reach(drive, grid, counts) == pytest.approx(
            loop_drive_reach(drive, grid, counts), rel=1e-12)


def test_drive_reach_is_stable_at_long_steps():
    # omega dt = 4 per substep is beyond RK4's stability limit (2.83);
    # the exact substep map keeps |alpha| <= 2 |lam| / omega
    drive = DriveSpec.constant(1.0, 0.01)
    grid = np.array([0.0, 2000.0, 4000.0])
    reach = dyn._drive_reach(drive, grid, [500, 500])
    assert 0.0 < reach <= 1.02 * 0.02


def test_one_point_grid_has_no_reach():
    assert dyn._drive_reach(DRIVE_KINDS[3], np.array([0.0]), []) == 0.0
    traj = evolve_fock(constant_drive(), np.array([0.0]), 20)
    assert traj.alpha_track.tolist() == [0]


def test_default_step_resolves_a_fast_drive():
    # a drive faster than the oscillator sets the default substep
    grid = np.linspace(0.0, 10.0, 11)
    for drive in (DriveSpec.sinusoid(0.2, 0.2, 3.0, 0.3),
                  DriveSpec.exponential(0.2, 0.2, 3.0)):
        traj = evolve_fock(drive, grid, 60)
        want = np.array([alpha_of_t(drive, t) for t in grid])
        assert np.abs(traj.alpha_track - want).max() < 1e-6


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
    # 8e6 substeps at the default step
    with pytest.raises(NumericalError):
        evolve_fock(DriveSpec.zero(1e6), np.array([0.0, 1.0]), 20)
    # a static spin Hamiltonian takes one exact step per interval at any
    # strength: zeta(t) = zeta(0) exp(-i beta0 t)
    initial = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5))
    traj = evolve_spin(LinearSpinHamiltonian(1e9), 1, np.array([0.0, 1.0]), initial)
    want = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5 * np.exp(-1e9j)))
    assert abs(qcore.overlap(want, traj.states[-1])) > 1 - 1e-12
    assert abs(traj.zeta_track[-1] - 0.5 * np.exp(-1e9j)) < 1e-9
    # an exponent beyond the float range is refused
    with pytest.raises(NumericalError):
        evolve_spin(LinearSpinHamiltonian(1e300, 1e300), 1, np.array([0.0, 1.0]), initial)
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
# Magnus propagator
# ---------------------------------------------------------------------------

def generator_ops(system, size):
    """G0, G+ and G-: Fock cutoff ``size`` or spin 2j = size."""
    if system == "fock":
        a, adag = fock.ladder_ops(size)
        return fock.number_op(size), adag, a
    return spin.spin_ops(size / 2)


def dense_magnus_propagator(generators, nodes, dt):
    """The exponent of a fourth-order Magnus substep built from dense
    Hamiltonians and their commutator, exponentiated by ``expm``."""
    g0, gp, gm = generators
    h1, h2 = (w * g0 + lam * gp + np.conj(lam) * gm for w, lam in nodes)
    omega = (-0.5j * dt) * (h1 + h2) - (math.sqrt(3.0) / 12.0 * dt * dt) * (h2 @ h1 - h1 @ h2)
    return scipy.linalg.expm(omega)


def assert_unitary_match(u, want):
    assert np.abs(u - want).max() <= 1e-12
    assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-13


def two_nodes(t, dt, nodes):
    """coeffs(s) giving nodes[0] at the first Gauss-Legendre node, nodes[1] after."""
    return lambda s: nodes[0] if s < t + 0.5 * dt else nodes[1]


COEFF = st.floats(-2.0, 2.0)
LAM = st.builds(lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
                st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None)
@given(system=st.one_of(st.tuples(st.just("fock"), st.integers(1, 80)),
                        st.tuples(st.just("spin"), st.integers(1, 20))),
       w1=COEFF, w2=COEFF, lam1=LAM, lam2=LAM, dt=st.floats(1e-3, 0.2),
       t=st.floats(0.0, 10.0))
@example(system=("fock", 1), w1=1.0, w2=1.0, lam1=0j, lam2=0j, dt=0.1, t=0.0)
@example(system=("spin", 1), w1=0.0, w2=0.0, lam1=0j, lam2=0j, dt=0.1, t=0.0)
@example(system=("fock", 1), w1=0.0, w2=0.0, lam1=0j, lam2=2.225073858507203e-309 + 0j,
         dt=0.125, t=0.0)
@example(system=("fock", 80), w1=1.0, w2=1.0, lam1=0j, lam2=0.7j, dt=0.2, t=0.0)
@example(system=("fock", 80), w1=2.0, w2=-2.0, lam1=1.0, lam2=-1j, dt=0.2, t=1.0)
@example(system=("spin", 20), w1=-2.0, w2=2.0, lam1=1j, lam2=1.0, dt=0.2, t=1.0)
def test_magnus_propagator_matches_dense_expm(system, w1, w2, lam1, lam2, dt, t):
    # lam = 0 leaves zero bands and a subnormal lam subnormal ones, which the
    # phase gauge must keep finite; at the truncation corner k = N the
    # commutator [G+, G-] is +N, not -1
    ops = generator_ops(*system)
    generators = [op.matrix for op in ops]
    bands = dyn._bands(ops[0], ops[1])
    nodes = ((w1, complex(lam1)), (w2, complex(lam2)))
    x, w = dyn._magnus_exponent(two_nodes(t, dt, nodes), bands, t, dt)
    assert_unitary_match((x * np.exp(-1j * w)) @ x.conj().T,
                         dense_magnus_propagator(generators, nodes, dt))
    # a static H is factored once over a unit step and scaled by dt
    x, w = dyn._magnus_exponent(lambda s: nodes[1], bands, t, 1.0)
    assert_unitary_match((x * np.exp(-1j * dt * w)) @ x.conj().T,
                         dense_magnus_propagator(generators, (nodes[1], nodes[1]), dt))


def test_steps_use_tridiagonal_eigensolves_not_expm(monkeypatch):
    calls = {"expm": 0, "eigh_tridiagonal": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(scipy.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counted)
    # half a period on 9 samples: 8 intervals of 4 substeps at 50 per period
    evolve_fock(DriveSpec.sinusoid(1.0, 0.2, 0.7), np.linspace(0.0, math.pi, 9), 24)
    assert calls == {"expm": 0, "eigh_tridiagonal": 8 * 4}
    # a static spin Hamiltonian is factored once for all its interval lengths
    calls.update(expm=0, eigh_tridiagonal=0)
    ham = LinearSpinHamiltonian(1.0, 0.3)
    grid = np.array([0.0, 0.1, 0.35, 0.4, 1.3, 3.0]) / ham.strength
    assert len(set(np.diff(grid).tolist())) == 5
    evolve_spin(ham, 2, grid, spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.5)))
    assert calls == {"expm": 0, "eigh_tridiagonal": 1}


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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=1.0),
       st.complex_numbers(max_magnitude=3.0), st.floats(0.1, 10.0))
def test_evolve_spin_labels_match_the_fit(tj, beta0, beta_plus, zeta0, t_max):
    # the fit is the oracle of the mean-spin label on every coherent sample
    initial = spin.spin_cs(spin.SpinCsParams(j=tj / 2, zeta=zeta0))
    traj = evolve_spin(LinearSpinHamiltonian(beta0, beta_plus), tj / 2,
                       np.linspace(0.0, t_max, 5), initial)
    for state, theta, phi, fid in zip(traj.states, traj.theta_track, traj.phi_track,
                                      traj.cs_fidelity):
        fit_theta, fit_phi, _, _ = spin.nearest_cs_fit(state)
        assert abs(theta - fit_theta) < 1e-10
        if math.sin(theta) > 1e-3:
            assert abs((phi - fit_phi + math.pi) % (2 * math.pi) - math.pi) < 1e-10
        assert fid > 1 - 1e-12


def test_evolve_spin_fidelity_of_a_non_coherent_state_is_at_most_the_fit():
    traj = evolve_spin(LinearSpinHamiltonian(0.9, 0.3 + 0.1j), 1, np.linspace(0.0, 3.0, 7),
                       spin.basis_state(1, 0))
    for state, fid in zip(traj.states, traj.cs_fidelity):
        assert fid <= spin.nearest_cs_fit(state)[3]


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
