import dataclasses
import functools
import inspect
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coherence_lab
import coherence_lab.dynamics as dyn
import oracles
from coherence_lab import bell, cli, fock, qcore, spin, splitting
from coherence_lab.dynamics import DriveSpec, alpha_of_t, evolve_fock, evolve_spin
from coherence_lab.errors import NumericalError, StepSizeTooLarge, ValidationError
from oracles import (
    QuadratureFailure,
    alpha_by_quadrature,
    alpha_eta_of_t,
    eta_convention_report,
    expectation,
    generators,
    quadratures,
    spin_cs_fit,
)


def constant_drive(lam=0.2, omega=1.0):
    return DriveSpec.constant(omega, lam)


# ---------------------------------------------------------------------------
# alpha_eta_of_t
# ---------------------------------------------------------------------------

def test_alpha_eta_zero_drive():
    drive = DriveSpec.constant(2.0, 0)
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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -5e-324], ids=str)
def test_alpha_refuses_a_non_finite_or_negative_time(t):
    for drive in (constant_drive(), DriveSpec.sinusoid(1.0, 0.3, 2.0)):
        for times in (t, np.array([0.0, t, 1.0])):
            with pytest.raises(ValidationError, match="t must be finite and >= 0"):
                alpha_of_t(drive, times)


def test_quadrature_failure_on_hopeless_integrand():
    # the oracle's quadrature gives up on 50000 / (2 pi) drive periods, while
    # the closed form keeps within the bound of its two off-resonant terms
    drive = DriveSpec.sinusoid(1.0, 0.3, 50000.0)
    with pytest.raises(QuadratureFailure):
        alpha_by_quadrature(drive, 60.0)
    assert abs(alpha_of_t(drive, 60.0)) <= 0.3 * (1 / 50001.0 + 1 / 49999.0)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(dyn.DRIVE_KINDS), omega=st.floats(-3.0, 3.0),
       detuning=st.sampled_from([0.0, 1e-9, -1e-6, 1e-3]) | st.floats(-2.0, 2.0),
       sign=st.sampled_from([1.0, -1.0]), amplitude=st.complex_numbers(max_magnitude=1.0),
       phase=st.floats(0.0, 2 * math.pi), t=st.floats(0.0, 30.0))
@example(kind="constant", omega=0.0, detuning=0.0, sign=1.0, amplitude=0.2, phase=0.0, t=30.0)
@example(kind="exponential", omega=1.0, detuning=0.0, sign=1.0, amplitude=0.1j, phase=0.0,
         t=30.0)
@example(kind="sinusoid", omega=1.3, detuning=0.0, sign=-1.0, amplitude=0.5, phase=1.0,
         t=30.0)
def test_closed_form_alpha_matches_quadrature(kind, omega, detuning, sign, amplitude, phase,
                                              t):
    # at and near resonance: the drive frequency is +-(omega + detuning), so
    # the sinusoid's either term, or the exponential, meets omega
    drive = DriveSpec(omega, kind, amplitude, sign * (omega + detuning), phase)
    assert abs(alpha_of_t(drive, t) - alpha_by_quadrature(drive, t)) <= 1e-10


#: one drive of each kind, and an exponential one at resonance, whose
#: amplitude grows without bound
DRIVES = {
    "constant": DriveSpec.constant(1.0, 0.2 - 0.1j),
    "sinusoid": DriveSpec.sinusoid(1.3, 0.2 * np.exp(0.4j), 0.7, 1.1),
    "exponential": DriveSpec.exponential(0.8, 0.15 + 0.05j, 1.9),
    "resonant": DriveSpec.exponential(1.0, 0.1 - 0.05j, 1.0),
}


def fock_alphas(drive, grid, cutoff, step):
    """<a> at each grid time from the vacuum, by ``dynamics._evolve`` with
    substeps of at most ``step``, labelled as one stack."""
    _, (alphas, _) = dyn._evolve(drive, fock.FAMILY, fock.vacuum(cutoff), grid,
                                 dyn._substep_counts(grid, step))
    return np.array(alphas)


def reach_times(drive, grid, counts):
    """The times ``dynamics._drive_reach`` reads, ascending: every substep's
    end and, for a static drive, the peak of its orbit from grid[0]."""
    times = np.append(dyn._substep_times(grid, counts)[0], grid[-1])
    if drive.is_static:
        peak = grid[0] + min(grid[-1] - grid[0], math.pi / drive.omega)
        times = np.sort(np.append(times, peak))
    return times


@pytest.mark.parametrize("drive", DRIVES.values(), ids=list(DRIVES))
def test_lam_takes_arrays(drive):
    t = np.linspace(0.0, 20.0, 41)
    got = drive.lam(t)
    assert got.shape == t.shape and got.dtype == complex
    np.testing.assert_allclose(got, [drive.lam(float(x)) for x in t], rtol=0, atol=1e-15)
    assert type(drive.lam(1.5)) is complex
    got = alpha_of_t(drive, t)
    assert got.shape == t.shape and got.dtype == complex
    np.testing.assert_allclose(got, [alpha_of_t(drive, float(x)) for x in t], rtol=0,
                               atol=1e-15)
    assert type(alpha_of_t(drive, 1.5)) is complex


@pytest.mark.parametrize("drive", DRIVES.values(), ids=list(DRIVES))
def test_drive_reach_is_the_amplitude_the_integrator_follows(drive):
    # the reach reads the closed-form orbit at every substep end, and at the
    # default step the integrator's <a> there is that orbit
    grid = np.linspace(0.0, 20.0, 161)
    counts = dyn._substep_counts(grid, dyn._default_step(drive.omega, drive.frequency))
    times = reach_times(drive, grid, counts)
    reach = dyn._drive_reach(drive, grid, counts) / 1.02
    assert reach == pytest.approx(max(abs(alpha_of_t(drive, float(t))) for t in times[1:]),
                                  rel=1e-12)
    # one substep per interval of the grid of substep bounds: the same substeps
    peak = np.abs(fock_alphas(drive, times, 60, math.inf)).max()
    assert reach == pytest.approx(peak, rel=1e-6)


@pytest.mark.parametrize("drive", DRIVES.values(), ids=list(DRIVES))
def test_drive_reach_starts_from_the_vacuum_at_the_first_grid_time(drive):
    # from the vacuum at t0 > 0 the orbit is alpha(t) less the free rotation
    # of alpha(t0), which |alpha(t)| alone misses by up to |alpha(t0)|
    grid = np.linspace(0.5, 20.5, 161)
    counts = dyn._substep_counts(grid, dyn._default_step(drive.omega, drive.frequency))
    times = reach_times(drive, grid, counts)
    peak = np.abs(fock_alphas(drive, times, 60, math.inf)).max()
    assert dyn._drive_reach(drive, grid, counts) / 1.02 == pytest.approx(peak, rel=1e-6)


def test_drive_reach_is_stable_at_long_steps():
    # omega dt = 4 per substep is beyond RK4's stability limit (2.83);
    # the exact substep map keeps |alpha| <= 2 |lam| / omega, reached at
    # t = pi / omega, which the reach reads
    drive = DriveSpec.constant(1.0, 0.01)
    grid = np.array([0.0, 2000.0, 4000.0])
    reach = dyn._drive_reach(drive, grid, [500, 500])
    assert reach == 1.02 * abs(alpha_of_t(drive, math.pi))


def test_a_constant_drive_is_admitted_as_its_sinusoid_twin():
    # from the vacuum at t0 = 3 the orbit stays within |alpha| <= 0.2, so
    # cutoff 20 admits the constant drive as it admits the same Hamiltonian
    # written as a sinusoid of frequency 0
    grid = [3.0, 3.1]
    got = evolve_fock(DriveSpec.constant(1.0, 2.0), grid, 20).alpha_track
    twin = evolve_fock(DriveSpec.sinusoid(1.0, 2.0, 0.0), grid, 20).alpha_track
    assert np.abs(got - twin).max() <= 1e-15 and np.abs(got).max() <= 0.2


def test_one_point_grid_has_no_reach():
    assert dyn._drive_reach(DRIVES["resonant"], np.array([0.0]), []) == 0.0
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
# the mode label fock.mean_mode_label
# ---------------------------------------------------------------------------

def test_cs_fidelity_exact_match():
    alpha, ov = fock.mean_mode_label(fock.glauber_cs(0.7 + 0.1j, 40))
    assert alpha == pytest.approx(0.7 + 0.1j, abs=1e-10)
    assert abs(ov) == pytest.approx(1.0, abs=1e-10)


def test_cs_fidelity_displaced_reference():
    # |<alpha|beta>| = exp(-|alpha-beta|^2 / 2); frozen: exp(-0.005)
    fid = abs(qcore.overlap(fock.glauber_cs(0.5, 40), fock.glauber_cs(0.6, 40)))
    assert fid == pytest.approx(math.exp(-0.005), abs=1e-9)
    assert fid == pytest.approx(0.9950124791926823, abs=1e-9)


def test_cs_fidelity_fock_one_vs_vacuum_reference():
    # |1> has <a> = 0, so its label is the vacuum, orthogonal to it
    alpha, ov = fock.mean_mode_label(fock.number_state(20, 1))
    assert alpha == 0.0
    assert abs(ov) == pytest.approx(0.0, abs=1e-14)


def test_cs_overlap_phase():
    base = fock.glauber_cs(0.4, 30)
    rotated = qcore.StateVector(base.space, base.amps * np.exp(0.3j))
    alpha, ov = fock.mean_mode_label(rotated)
    # a global phase leaves <a>, and so the label, in place
    assert alpha == pytest.approx(0.4, abs=1e-10)
    assert np.angle(ov) == pytest.approx(0.3, abs=1e-10)


# ---------------------------------------------------------------------------
# oscillator evolution
# ---------------------------------------------------------------------------

def test_evolve_vacuum_no_drive():
    traj = evolve_fock(DriveSpec.constant(1.0, 0), np.linspace(0, 2, 9), 20)
    assert np.allclose(traj.alpha_track, 0.0, atol=1e-12)
    assert np.all(traj.cs_fidelity > 1 - 1e-12)


def test_evolve_constant_drive_tracks_quadrature_alpha():
    drive = constant_drive(0.2, 1.0)
    grid = np.linspace(0, 2 * math.pi, 33)
    traj = evolve_fock(drive, grid, 40)
    for i, t in enumerate(grid):
        want = alpha_by_quadrature(drive, t)
        assert abs(traj.alpha_track[i] - want) < 1e-6
    assert traj.cs_fidelity.min() > 1 - 1e-6


def test_evolve_free_coherent_state_orbit():
    omega = 1.0
    grid = np.linspace(0, 2 * math.pi, 17)
    initial = fock.glauber_cs(0.5, 40)
    traj = evolve_fock(DriveSpec.constant(omega, 0), grid, 40, initial=initial)
    want = 0.5 * np.exp(-1j * omega * grid)
    assert np.abs(traj.alpha_track - want).max() < 1e-9
    assert traj.cs_fidelity.min() > 1 - 1e-9


def test_evolve_phase_space_consistency():
    drive = constant_drive(0.3, 1.0)
    grid = np.linspace(0, 4.0, 9)
    traj = evolve_fock(drive, grid, 40)
    q, p = quadratures(40)
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
    errs = [abs(fock_alphas(drive, grid, 30, dt)[-1] - exact) for dt in (0.05, 0.025)]
    assert errs[0] / errs[1] >= 3.5


def test_evolve_fourth_order():
    # Magnus-4: halving the step cuts the error by about 16x
    drive = DriveSpec.sinusoid(1.0, 0.3, 2.0)
    grid = np.array([0.0, 2.0])
    exact = alpha_of_t(drive, 2.0)
    errs = [abs(fock_alphas(drive, grid, 30, dt)[-1] - exact) for dt in (0.2, 0.1)]
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


def _off_manifold_drives():
    """Four drives of each kind at omega = 1, |lambda| <= 0.3, by a seeded rule."""
    rng = np.random.default_rng(16)
    drives = []
    for kind in dyn.DRIVE_KINDS:
        for _ in range(4):
            lam = 0.3 * rng.uniform(0.2, 1.0) * np.exp(2j * math.pi * rng.uniform())
            nu, phase = rng.uniform(0.3, 3.0), rng.uniform(0, 2 * math.pi)
            drives.append(DriveSpec.constant(1.0, lam) if kind == "constant" else
                          DriveSpec.sinusoid(1.0, lam, nu, phase) if kind == "sinusoid" else
                          DriveSpec.exponential(1.0, lam, nu))
    return drives


def test_the_first_moment_of_any_state_follows_the_drive_orbit():
    # claim 4 off the coherent manifold: under a linear drive <a>(t) of any
    # state is the free rotation of <a>(t0) plus the vacuum's orbit. Every
    # state takes the same group element per Magnus step, so the step error
    # cancels in the difference from the vacuum's track
    cutoff, grid = 40, np.linspace(0.0, math.pi, 9)
    haar = np.zeros(cutoff + 1, dtype=complex)
    rng = np.random.default_rng(8)
    haar[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)
    rotation = np.exp(-1j * (grid - grid[0]))
    for drive in _off_manifold_drives():
        vacuum_track = evolve_fock(drive, grid, cutoff).alpha_track
        for initial in (fock.number_state(cutoff, 3),
                        qcore.StateVector(fock.fock_space(cutoff), haar)):
            track = evolve_fock(drive, grid, cutoff, initial=initial).alpha_track
            assert np.abs(track - vacuum_track - rotation * track[0]).max() < 1e-12
            orbit = rotation * track[0] + alpha_of_t(drive, grid)
            assert np.abs(track - orbit).max() < 1e-6


def test_substep_budget(monkeypatch):
    import coherence_lab.dynamics as dyn
    # a driven oscillator needs 8e6 substeps at the default step
    with pytest.raises(NumericalError):
        evolve_fock(DriveSpec.sinusoid(1e6, 0, 1.0), np.array([0.0, 1.0]), 20)
    # a static one takes one exact step per interval at any strength:
    # alpha(t) = alpha(0) exp(-i omega t)
    traj = evolve_fock(DriveSpec.constant(1e6, 0), np.array([0.0, 1.0]), 20,
                       initial=fock.glauber_cs(0.5, 20))
    assert abs(traj.alpha_track[-1] - 0.5 * np.exp(-1e6j)) < 1e-9
    # and so does a static spin Hamiltonian: zeta(t) = zeta(0) exp(-i beta0 t)
    initial = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5))
    traj = evolve_spin(DriveSpec.constant(1e9, 0), 1, np.array([0.0, 1.0]), initial)
    want = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5 * np.exp(-1e9j)))
    assert abs(qcore.overlap(want, traj.states[-1])) > 1 - 1e-12
    assert abs(traj.zeta_track[-1] - 0.5 * np.exp(-1e9j)) < 1e-9
    # an exponent beyond the float range is refused
    with pytest.raises(NumericalError):
        evolve_spin(DriveSpec.constant(1e300, 1e300), 1, np.array([0.0, 1.0]), initial)
    # span / step overflows to inf: the default step of omega = 1.7e308 is subnormal
    with pytest.raises(NumericalError, match="substeps"):
        evolve_fock(DriveSpec.sinusoid(1.7e308, 0, 0.0), np.array([0.0, 1.0]), 20)
    # the budget counts the substeps of the whole trajectory
    monkeypatch.setattr(dyn, "MAX_SUBSTEPS", 10)
    assert dyn._substep_counts(np.array([0.0, 1.0]), 0.1) == [10]
    with pytest.raises(NumericalError):
        dyn._substep_counts(np.array([0.0, 0.5, 1.0]), 0.09)


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

def dense_magnus_propagator(dense, nodes, dt):
    """The exponent of a fourth-order Magnus substep built from dense
    Hamiltonians and their commutator, exponentiated by ``expm``; ``dense``
    holds the oracles' (G0, G+, G-)."""
    g0, gp, gm = dense
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
    family = fock if system[0] == "fock" else spin
    dense = generators(family, system[1])
    bands = family.FAMILY.bands(system[1])
    nodes = ((w1, complex(lam1)), (w2, complex(lam2)))
    [(x, w)] = dyn._magnus_factors(two_nodes(t, dt, nodes), bands, np.array([t]),
                                   np.array([dt]))
    assert_unitary_match((x * np.exp(-1j * w)) @ x.conj().T,
                         dense_magnus_propagator(dense, nodes, dt))
    # a static H is factored once over a unit step and scaled by dt
    [(x, w)] = dyn._magnus_factors(lambda s: nodes[1], bands, np.array([t]), np.ones(1))
    assert_unitary_match((x * np.exp(-1j * dt * w)) @ x.conj().T,
                         dense_magnus_propagator(dense, (nodes[1], nodes[1]), dt))


@st.composite
def magnus_cases(draw):
    """A family record with a random initial state at dim 2..90, a drive of
    each kind or a constant one that takes substeps, and substep counts over
    up to four grid intervals."""
    family = draw(st.sampled_from([fock, spin]))
    size = draw(st.integers(1, 89))
    space = fock.fock_space(size) if family is fock else spin.spin_space(size / 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amplitude = complex(*rng.uniform(-1.0, 1.0, 2))
    omega, frequency = rng.uniform(-2.0, 2.0, 2)
    drive = draw(st.sampled_from([
        DriveSpec.constant(omega, amplitude),
        DriveSpec.sinusoid(omega, amplitude, frequency, rng.uniform(0.0, 6.0)),
        DriveSpec.exponential(omega, amplitude, frequency),
        DriveSpec.sinusoid(omega, amplitude, 0.0, rng.uniform(0.0, 6.0)),
    ]))
    initial = qcore.StateVector(space, rng.normal(size=(space.dim, 2)) @ [1, 1j])
    counts = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    grid = np.linspace(0.0, draw(st.floats(0.05, 25.0)), len(counts) + 1)
    return drive, family.FAMILY, initial, grid, counts


def stacked_states(drive, family, initial, grid, counts):
    """The states of ``dynamics._evolve``, each checked to read its row of
    the read-only stack, which the family's label hands back here."""
    stack_family = dataclasses.replace(family, labels=lambda rows: rows)
    states, rows = dyn._evolve(drive, stack_family, initial, grid, counts)
    assert not rows.flags.writeable and len(states) == len(rows) == grid.size
    assert all(state.amps.base is rows and state.space == initial.space for state in states)
    assert [state.amps.tobytes() for state in states] == [row.tobytes() for row in rows]
    return states


def states_or_error(evolve, drive, family, initial, grid, counts):
    """Each state's bytes, or the type and message of the error raised."""
    try:
        return [state.amps.tobytes() for state in evolve(drive, family, initial, grid, counts)]
    except (NumericalError, StepSizeTooLarge, ValidationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(magnus_cases())
@example((DriveSpec.sinusoid(1.0, 0.3j, 0.7), fock.FAMILY,
          fock.number_state(4, 1), np.linspace(0.0, 4.0, 5), [10] * 4))
@example((DriveSpec.exponential(0.4, 0.2 - 0.3j, 1.3), spin.FAMILY,
          spin.spin_cs(spin.SpinCsParams(j=89 / 2, zeta=0.3)), np.linspace(0.0, 9.0, 4),
          [30, 30, 31]))
def test_stacked_magnus_factors_match_the_per_substep_loop_bit_for_bit(case):
    # the stacked exponents, at most dim substeps at a time (cutoff 4 with 40
    # substeps spans 8 stacks), give the per-substep loop's states bit for bit
    drive, bands, initial, grid, counts = case
    assert (states_or_error(stacked_states, *case)
            == states_or_error(oracles.evolve_one_substep_at_a_time, *case))
    # lam on an array is lam at each of its times, bit for bit
    assert drive.lam(grid).tobytes() == np.array([drive.lam(t) for t in grid]).tobytes()


def count_calls(monkeypatch, targets):
    """Patch each ``(module, name)`` to count its calls in the returned dict."""
    calls = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_trajectory_normalizes_a_fixed_number_of_stacks(monkeypatch):
    # the samples are normalized as one stack and, for the mode, labelled
    # against one stack of coherent rows, whatever the sample count
    initial_fock = fock.glauber_cs(0.3 - 0.2j, 24)
    initial_spin = spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.4 - 0.9j))
    calls = count_calls(monkeypatch, ((qcore, "_normalize_rows"),))
    counts = []
    for samples in (1, 2, 9, 40):
        grid = np.linspace(0.0, 3.0, samples)
        calls["_normalize_rows"] = 0
        evolve_fock(DriveSpec.sinusoid(1.0, 0.2, 0.7), grid, 24, initial=initial_fock)
        counts.append(calls["_normalize_rows"])
        for drive in (DriveSpec.constant(0.9, 0.3 + 0.1j), DriveSpec.exponential(0.9, 0.3, 0.5)):
            calls["_normalize_rows"] = 0
            evolve_spin(drive, 2, grid, initial_spin)
            counts.append(calls["_normalize_rows"])
    assert counts == [2, 1, 1] * 4


#: grids on which a drive's exponent leaves the float range at substep 4 of 4
#: intervals with 4 substeps each: the second interval's dt^2 overflows (a
#: jump from 2 to 1e160), in the first stack of 9 substeps
BAD_GRIDS = {"jump": [0.0, 2.0, 1e160, 2e160, 3e160]}


@pytest.mark.parametrize("family", [fock, spin], ids=["fock", "spin"])
@pytest.mark.parametrize("bad", BAD_GRIDS, ids=str)
def test_stacked_magnus_factors_fail_at_the_per_substep_loops_substep(monkeypatch, family, bad):
    space = fock.fock_space(8) if family is fock else spin.spin_space(4)
    case = (DriveSpec.sinusoid(0.5, 1.0, 0.7), family.FAMILY,
            qcore.StateVector.basis(space, 3), np.array(BAD_GRIDS[bad]), [4] * 4)
    calls = count_calls(monkeypatch, ((scipy.linalg.lapack, "dstevd"),
                                      (scipy.linalg, "eigh_tridiagonal")))
    got = states_or_error(stacked_states, *case)
    assert got[0] is NumericalError
    assert got == states_or_error(oracles.evolve_one_substep_at_a_time, *case)
    # substeps 0-3 are factored by each, and neither factors substep 4
    assert calls == {"dstevd": 4, "eigh_tridiagonal": 4}
    # the first interval's drift check still comes before the bad substep
    monkeypatch.setattr(dyn, "_NORM_DRIFT_LIMIT", -1.0)
    got = states_or_error(stacked_states, *case)
    assert got[0] is StepSizeTooLarge and got[1].endswith("at t=2.0")
    assert got == states_or_error(oracles.evolve_one_substep_at_a_time, *case)


#: the deleted dense operator layer and nearest-coherent fits
DELETED_NAMES = ("LinearOperator", "apply", "expectation", "moments", "mat_exp",
                 "ladder_ops", "number_op", "quadrature_ops", "displacement",
                 "TAIL_TOLERANCE", "spin_ops", "spin_cs_exp", "lowest_state",
                 "nearest_cs_fit", "_ratio_candidate", "nearest_coherent_fit", "polish_fit",
                 "POLISH_OPTIONS")


def test_command_paths_build_no_dense_generator(monkeypatch):
    # the library keeps each generator as its band form only, and evolve and
    # the scan never exponentiate a dense matrix or search
    for module in (coherence_lab, qcore, fock, spin):
        assert [name for name in DELETED_NAMES if hasattr(module, name)] == []
    # one Fock label and one pole rule: the copies beside them are gone
    for module, name in ((dyn, "cs_overlap"), (dyn, "cs_fidelity"), (spin, "angle_to_zeta"),
                         (coherence_lab.errors, "AntipodalPoint"),
                         (spin.SpinCsParams, "antipodal")):
        assert not hasattr(module, name)

    def fail(*args, **kwargs):
        raise AssertionError("a dense matrix was exponentiated, or an optimizer ran")

    for module, name in ((scipy.linalg, "expm"), (scipy.optimize, "minimize")):
        monkeypatch.setattr(module, name, fail)
    traj = evolve_fock(DriveSpec.sinusoid(1.0, 0.2, 0.7), np.linspace(0.0, 3.0, 7), 24,
                       initial=fock.glauber_cs(0.3 - 0.2j, 24))
    assert traj.cs_fidelity.min() > 1 - 1e-9
    spin_cs = spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.4 - 0.9j))
    traj = evolve_spin(DriveSpec.constant(0.9, 0.3 + 0.1j), 2, np.linspace(0.0, 3.0, 7),
                       spin_cs)
    assert traj.cs_fidelity.min() > 1 - 1e-12
    # a planted coherent sample is counted, and its split is a product; each
    # scan draws its 12 samples in one chunk, so row 5 of the draw is sample 5
    haar = splitting._haar_rows

    def planted_rows(gen, count, dim, p):
        rows = haar(gen, count, dim)
        rows[5] = p
        return rows

    for system, planted in ((splitting.FockScanSystem(16), fock.glauber_cs(0.5 + 0.3j, 16)),
                            (splitting.SpinScanSystem(2, 1, 1), spin_cs)):
        monkeypatch.setattr(splitting, "_haar_rows", functools.partial(planted_rows,
                                                                       p=planted.amps))
        stats = splitting.uniqueness_scan(system, 12, 7)
        assert stats.n_excluded == 0
        assert stats.min_entropy_non_cs < qcore.PRODUCT_THRESHOLD_BITS


def test_drives_are_the_closed_forms_only():
    # no interpolated table kind, and no step knob on evolve_fock
    assert dyn.DRIVE_KINDS == ("constant", "sinusoid", "exponential")
    assert [f.name for f in dataclasses.fields(DriveSpec)] == [
        "omega", "kind", "amplitude", "frequency", "phase"]
    assert not hasattr(DriveSpec, "from_table")
    assert "max_step" not in inspect.signature(evolve_fock).parameters
    with pytest.raises(ValidationError, match="unknown drive kind 'table'"):
        DriveSpec(1.0, kind="table")
    # the CLI offers the same kinds, in the same order
    [drive] = [action for action in cli.build_parser().commands["evolve"].actions
               if action.dest == "drive"]
    assert drive.choices is dyn.DRIVE_KINDS


#: names that left the library, by the place they left: the scan's pieces now
#: live in each family's ``FAMILY`` record and its ``ScanSystem``, the
#: test-only checks and the quadrature of the driven oscillator in
#: ``oracles``, and the moment-bound screen, the per-state label distance,
#: the scan aliases, the per-kind factor sizes, the per-sample generators and
#: the scan's second pass are gone
MOVED_NAMES = ((splitting, ("_cs_grid_states", "_spin_bound", "_fock_bound",
                            "SCREEN_MARGIN", "_FIDELITY_CEILING", "_cs_distance",
                            "_haar_amps", "_extreme_entropy")),
               (spin, ("_scan_bound", "_scan_weight", "_scan_label")),
               (fock, ("_scan_bound", "_scan_weight", "_scan_label")),
               (qcore.Factor, ("cutoff", "twice_j")),
               (qcore, ("phase_align", "aligned_distance")),
               (splitting.SeriesPoly, ("perturbed",)),
               (splitting.AflpSolution, ("first_failing_order",)),
               (dyn, ("alpha_eta_of_t", "eta_convention_report", "_quad_complex")),
               (coherence_lab.errors, ("QuadratureFailure",)),
               # an observable is its matrix: no Bloch direction beside it
               (bell, ("_observable", "observable_from_unitary", "_settings_from_directions",
                       "_check_settings")),
               (bell.DichotomicObservable, ("direction",)),
               # main checks every command's format against DISPATCH
               (cli, ("_check_format",)))


def test_moved_names_stay_in_their_new_home():
    for module, names in MOVED_NAMES:
        assert [name for name in names if hasattr(module, name)] == []
    assert all(hasattr(oracles, name) for name in (
        "phase_align", "aligned_distance", "perturbed", "first_failing_order",
        "alpha_eta_of_t", "eta_convention_report", "quad_complex", "alpha_by_quadrature",
        "QuadratureFailure"))
    # one family record per group, which a scan system carries beside the
    # weight its constructor looked up
    for family, label, system, weight in (
            (spin.FAMILY, spin.mean_spin_label, splitting.SpinScanSystem(2, 1, 1),
             spin.coupling_weight),
            (fock.FAMILY, fock.mean_mode_label, splitting.FockScanSystem(16),
             fock.beamsplit_weight)):
        assert label == family.label and (system.family, system.weight) == (family, weight)
    # one scan-system record, whose two constructors are functions
    for make in (splitting.SpinScanSystem, splitting.FockScanSystem):
        assert not isinstance(make, type)
    assert isinstance(splitting.FockScanSystem(16), splitting.ScanSystem)


def test_steps_use_tridiagonal_eigensolves_not_expm(monkeypatch):
    # each substep is one direct call of the LAPACK binding dynamics uses,
    # with no expm and no eigh_tridiagonal around it
    calls = count_calls(monkeypatch, ((scipy.linalg, "expm"), (scipy.linalg, "eigh_tridiagonal"),
                                      (scipy.linalg.lapack, "dstevd")))
    # half a period on 9 samples: 8 intervals of 4 substeps at 50 per period
    evolve_fock(DriveSpec.sinusoid(1.0, 0.2, 0.7), np.linspace(0.0, math.pi, 9), 24)
    assert calls == {"expm": 0, "eigh_tridiagonal": 0, "dstevd": 8 * 4}
    # a static spin Hamiltonian is factored once for all its interval lengths
    calls.update(dstevd=0)
    ham = DriveSpec.constant(1.0, 0.3)
    grid = np.array([0.0, 0.1, 0.35, 0.4, 1.3, 3.0]) / math.hypot(1.0, 0.6)
    assert len(set(np.diff(grid).tolist())) == 5
    evolve_spin(ham, 2, grid, spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.5)))
    assert calls == {"expm": 0, "eigh_tridiagonal": 0, "dstevd": 1}
    # a driven spin takes substeps of 1/50 of its fastest period: 4 intervals
    # of pi/6 at the drive frequency 3, or at the Rabi rate 2 |lam| = 3 of a
    # constant drive that is not static, are 12.5, so 13 substeps each
    grid = np.linspace(0.0, 2 * math.pi / 3, 5)
    for drive in (DriveSpec.sinusoid(1.0, 0.3, 3.0), DriveSpec.exponential(0.0, 1.5j, 0.0)):
        calls.update(dstevd=0)
        evolve_spin(drive, 2, grid, spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.5)))
        assert calls == {"expm": 0, "eigh_tridiagonal": 0, "dstevd": 4 * 13}


# ---------------------------------------------------------------------------
# spin evolution
# ---------------------------------------------------------------------------

def test_evolve_spin_precession_circle():
    omega = 1.0
    ham = DriveSpec.constant(omega, 0)
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
    ham = DriveSpec.constant(0.0, 0.0)
    initial = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.3 + 0.2j))
    traj = evolve_spin(ham, 1, np.linspace(0, 3, 7), initial)
    for state in traj.states:
        assert np.abs(state.amps - initial.amps).max() < 1e-12


def test_evolve_spin_rabi_great_circle():
    # H = Omega (J+ + J-)/2 sweeps theta at unit rate through the poles
    ham = DriveSpec.constant(0.0, 0.5)
    grid = np.linspace(0, math.pi, 21)
    traj = evolve_spin(ham, 1.5, grid, spin.basis_state(1.5, -1.5))
    assert traj.cs_fidelity.min() > 1 - 1e-8
    np.testing.assert_allclose(traj.theta_track, grid, atol=1e-7)


def test_evolve_spin_coherence_for_generic_linear_hamiltonian():
    rng = np.random.default_rng(8)
    grid = np.linspace(0, 2 * math.pi, 17)
    for j in (0.5, 1.5, 3.0):
        beta0 = rng.uniform(-1, 1)
        beta_plus = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        ham = DriveSpec.constant(beta0, beta_plus)
        initial = spin.spin_cs(spin.SpinCsParams(j=j, zeta=0.4 - 0.6j))
        traj = evolve_spin(ham, j, grid, initial)
        assert traj.cs_fidelity.min() > 1 - 1e-7


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=1.0),
       st.complex_numbers(max_magnitude=3.0), st.floats(0.1, 10.0))
def test_evolve_spin_labels_match_the_fit(tj, beta0, beta_plus, zeta0, t_max):
    # the fit is the oracle of the mean-spin label on every coherent sample
    initial = spin.spin_cs(spin.SpinCsParams(j=tj / 2, zeta=zeta0))
    traj = evolve_spin(DriveSpec.constant(beta0, beta_plus), tj / 2,
                       np.linspace(0.0, t_max, 5), initial)
    for state, theta, phi, fid in zip(traj.states, traj.theta_track, traj.phi_track,
                                      traj.cs_fidelity):
        fit_theta, fit_phi, _ = spin_cs_fit(state)
        assert abs(theta - fit_theta) < 1e-10
        if math.sin(theta) > 1e-3:
            assert abs((phi - fit_phi + math.pi) % (2 * math.pi) - math.pi) < 1e-10
        assert fid > 1 - 1e-12


def test_exponential_drive_is_static_in_the_rotating_frame():
    # H(t) = beta0 J0 + beta+ exp(-i nu t) J+ + h.c. = R(t) H' R(t)+ with
    # R(t) = exp(-i nu t J0) and the static H' = (beta0 - nu) J0 + beta+ J+ + h.c.,
    # so psi(t) = R(t) exp(-i t H') psi(0) for any initial state (Rabi, Phys.
    # Rev. 51, 652 (1937))
    rng = np.random.default_rng(37)
    grid = np.linspace(0.0, 4.0, 9)
    for tj in (1, 2, 5, 12, 40):
        beta0, nu = rng.uniform(-1.5, 1.5), rng.uniform(0.3, 3.0)
        beta_plus = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        initial = qcore.StateVector(spin.spin_space(tj / 2), rng.normal(size=tj + 1)
                                    + 1j * rng.normal(size=tj + 1))
        driven = evolve_spin(DriveSpec.exponential(beta0, beta_plus, nu), tj / 2, grid,
                             initial)
        frame = evolve_spin(DriveSpec.constant(beta0 - nu, beta_plus), tj / 2, grid, initial)
        m = np.arange(tj + 1) - tj / 2
        for t, got, want in zip(grid, driven.states, frame.states):
            assert np.abs(got.amps - np.exp(-1j * nu * t * m) * want.amps).max() < 1e-5


def test_linear_spin_hamiltonian_is_the_constant_drive():
    # the former spelling, which perfbench's workloads still use, is a constant
    # DriveSpec and gives the same trajectory bit for bit
    initial = spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.4 - 0.9j))
    grid = np.linspace(0.0, 3.0, 7)
    old = dyn.LinearSpinHamiltonian(0.9, 0.3 + 0.1j)
    assert old.strength == math.hypot(0.9, 2.0 * abs(0.3 + 0.1j))
    got = evolve_spin(old, 2, grid, initial)
    want = evolve_spin(DriveSpec.constant(0.9, 0.3 + 0.1j), 2, grid, initial)
    for name in ("zeta_track", "theta_track", "phi_track", "cs_fidelity"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert all(np.array_equal(a.amps, b.amps) for a, b in zip(got.states, want.states))


def test_drive_omega_is_any_real_but_the_oscillator_needs_it_positive():
    initial = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5))
    traj = evolve_spin(DriveSpec.constant(-1.0, 0), 1, np.array([0.0, 1.0]), initial)
    assert abs(traj.zeta_track[-1] - 0.5 * np.exp(1j)) < 1e-12
    for omega in (0.0, -1.0):
        with pytest.raises(ValidationError, match="omega must be positive"):
            evolve_fock(DriveSpec.constant(omega, 0.1), np.array([0.0, 1.0]), 20)
    for omega in (math.inf, math.nan):
        with pytest.raises(ValidationError, match=r"omega \(a spin.s beta0\) must be finite"):
            DriveSpec.constant(omega, 0)


def test_evolve_spin_fidelity_of_a_non_coherent_state_is_at_most_the_fit():
    traj = evolve_spin(DriveSpec.constant(0.9, 0.3 + 0.1j), 1, np.linspace(0.0, 3.0, 7),
                       spin.basis_state(1, 0))
    for state, fid in zip(traj.states, traj.cs_fidelity):
        assert fid <= spin_cs_fit(state)[2]


def test_each_sample_is_labelled_by_its_family_label_of_the_stored_state():
    # one label rule for both families: every sample's label is, bit for bit,
    # the label function applied to the stored state
    traj = evolve_fock(DriveSpec.sinusoid(1.0, 0.3 - 0.1j, 0.7), np.linspace(0.0, 4.0, 9), 30,
                       initial=fock.glauber_cs(0.2 + 0.4j, 30))
    alphas, overlaps = zip(*map(fock.mean_mode_label, traj.states))
    assert traj.alpha_track.tolist() == list(alphas)
    assert traj.cs_fidelity.tolist() == [abs(ov) for ov in overlaps]
    assert traj.eta_track.tolist() == np.unwrap(np.angle(overlaps)).tolist()
    traj = evolve_spin(DriveSpec.constant(0.9, 0.3 + 0.1j), 1.5, np.linspace(0.0, 3.0, 7),
                       spin.spin_cs(spin.SpinCsParams(j=1.5, zeta=0.4 - 0.9j)))
    got = zip(traj.theta_track, traj.phi_track, traj.zeta_track, traj.cs_fidelity)
    assert list(got) == [spin.mean_spin_label(state) for state in traj.states]


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
