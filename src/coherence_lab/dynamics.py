"""Time evolution under generator-linear Hamiltonians.

Oscillator: H = omega a+a + lam(t) a+ + lam(t)* a with a classical drive
lam(t) (the amplitude multiplying the creation operator). The solution
stays coherent with

    alpha(t) = -i exp(-i omega t) * integral_0^t lam(tau) exp(i omega tau) dtau

and a global phase whose -omega*t/2 piece depends on whether the vacuum
energy omega/2 is included in H; ``eta_convention_report`` measures which
convention reproduces the textbook phase formula instead of assuming one.

Spin: H = beta0 J0 + beta+ J+ + beta+* J-. Both integrators use
midpoint-evaluated exponential stepping: unitary per step and second order
in the step size.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.linalg

from . import fock, qcore, spin
from .errors import (
    QuadratureFailure,
    StepSizeTooLarge,
    ValidationError,
)
from .qcore import LinearOperator, StateVector

#: default substep: 1/400 of a drive period
STEPS_PER_PERIOD = 400
_NORM_DRIFT_LIMIT = 1e-8


@dataclass(frozen=True)
class DriveSpec:
    """Oscillator frequency plus the drive amplitude lam(t) on a+.

    Closed forms: ``constant`` (lam = amplitude), ``sinusoid``
    (amplitude * cos(frequency t + phase)) and ``exponential``
    (amplitude * exp(-i frequency t)); ``table`` interpolates samples
    linearly.
    """

    omega: float
    kind: str = "constant"
    amplitude: complex = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    times: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValidationError("omega must be positive and finite")
        if not all(map(cmath.isfinite, (self.amplitude, self.frequency, self.phase))):
            raise ValidationError("drive amplitude, frequency and phase must be finite")
        if self.kind not in ("constant", "sinusoid", "exponential", "table"):
            raise ValidationError(f"unknown drive kind {self.kind!r}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if self.kind == "table":
            t = np.array(self.times, dtype=float)
            v = np.array(self.values, dtype=complex)
            if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
                raise ValidationError("table drive needs matching 1-d times/values")
            if not np.all(np.diff(t) > 0):
                raise ValidationError("table times must ascend")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v.view(float)))):
                raise ValidationError("table samples must be finite")
            t.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, omega: float, value: complex) -> "DriveSpec":
        return cls(omega=omega, kind="constant", amplitude=value)

    @classmethod
    def zero(cls, omega: float) -> "DriveSpec":
        return cls(omega=omega, kind="constant", amplitude=0.0)

    @classmethod
    def sinusoid(cls, omega: float, amplitude: complex, frequency: float,
                 phase: float = 0.0) -> "DriveSpec":
        return cls(omega=omega, kind="sinusoid", amplitude=amplitude,
                   frequency=frequency, phase=phase)

    @classmethod
    def exponential(cls, omega: float, amplitude: complex,
                    frequency: float) -> "DriveSpec":
        return cls(omega=omega, kind="exponential", amplitude=amplitude,
                   frequency=frequency)

    @classmethod
    def from_table(cls, omega: float, times, values) -> "DriveSpec":
        return cls(omega=omega, kind="table", times=times, values=values)

    @property
    def is_static(self) -> bool:
        return self.kind == "constant"

    def lam(self, t: float) -> complex:
        if self.kind == "constant":
            return self.amplitude
        if self.kind == "sinusoid":
            return self.amplitude * math.cos(self.frequency * t + self.phase)
        if self.kind == "exponential":
            return self.amplitude * np.exp(-1j * self.frequency * t)
        if not self.times[0] <= t <= self.times[-1]:
            raise ValidationError(f"t={t} outside the drive table")
        return complex(np.interp(t, self.times, self.values.real),
                       np.interp(t, self.times, self.values.imag))


def _quad_complex(func: Callable[[float], complex], a: float, b: float,
                  tol: float = 1e-10) -> complex:
    if b == a:
        return 0.0
    with warnings.catch_warnings():
        # accuracy is judged from the returned error estimate below
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        re, re_err = scipy.integrate.quad(lambda t: func(t).real, a, b,
                                          epsabs=tol / 4, epsrel=1e-12, limit=400)
        im, im_err = scipy.integrate.quad(lambda t: func(t).imag, a, b,
                                          epsabs=tol / 4, epsrel=1e-12, limit=400)
    if re_err + im_err > tol:
        raise QuadratureFailure(
            f"quadrature error {re_err + im_err:.2e} above tolerance {tol:.0e}")
    return complex(re, im)


def alpha_of_t(drive: DriveSpec, t: float) -> complex:
    """Coherent amplitude reached at time t, by adaptive quadrature."""
    if t < 0:
        raise ValidationError("t must be >= 0")
    integral = _quad_complex(lambda tau: drive.lam(tau) * np.exp(1j * drive.omega * tau),
                             0.0, t)
    return -1j * np.exp(-1j * drive.omega * t) * integral


def alpha_eta_of_t(drive: DriveSpec, t: float):
    """Amplitude and textbook global phase at time t.

    eta(t) = -omega t / 2 - integral_0^t Re[conj(lam(tau)) alpha(tau)] dtau,
    the convention that includes the oscillator's vacuum energy (see
    ``eta_convention_report``).
    """
    alpha = alpha_of_t(drive, t)
    if t == 0:
        return alpha, 0.0
    corr, corr_err = scipy.integrate.quad(
        lambda tau: (np.conj(drive.lam(tau)) * alpha_of_t(drive, tau)).real,
        0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)
    if corr_err > 1e-9:
        raise QuadratureFailure(f"phase quadrature error {corr_err:.2e}")
    return alpha, -drive.omega * t / 2.0 - corr


def cs_overlap(state: StateVector, alpha_ref: complex) -> complex:
    """Phase-including overlap <alpha_ref|state> on the state's cutoff."""
    if not state.space.is_single("fock"):
        raise ValidationError("cs_overlap needs a single Fock factor")
    cutoff = state.space.factors[0].cutoff
    return qcore.overlap(fock.glauber_cs(alpha_ref, cutoff), state)


def cs_fidelity(state: StateVector, alpha_ref: complex) -> float:
    """|<alpha_ref|state>|."""
    return abs(cs_overlap(state, alpha_ref))


@dataclass(frozen=True)
class Trajectory:
    """Sampled oscillator evolution.

    ``alpha_track`` is <a>; ``eta_track`` the unwrapped phase of
    <alpha_track(t)|state(t)>; ``cs_fidelity`` the overlap magnitude with
    the coherent state at alpha_track (the exact nearest coherent state
    whenever the state is coherent).
    """

    times: np.ndarray
    states: tuple
    alpha_track: np.ndarray
    eta_track: np.ndarray
    cs_fidelity: np.ndarray


@dataclass(frozen=True)
class SpinTrajectory:
    """Sampled spin evolution with fitted coherent-state coordinates."""

    times: np.ndarray
    states: tuple
    zeta_track: np.ndarray
    theta_track: np.ndarray
    phi_track: np.ndarray
    cs_fidelity: np.ndarray


def _validate_grid(t_grid) -> np.ndarray:
    grid = np.array(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("time grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("time grid must be finite")
    if grid[0] < 0 or not np.all(np.diff(grid) > 0):
        raise ValidationError("time grid must ascend from t >= 0")
    return grid


def _drive_reach(drive: DriveSpec, t_end: float) -> float:
    """Peak |alpha| of the classical amplitude ODE, by a coarse RK4 sweep."""
    if t_end <= 0.0:
        return 0.0
    n = 1024
    dt = t_end / n
    alpha = 0.0j
    peak = 0.0
    t = 0.0

    def rate(tt: float, a: complex) -> complex:
        return -1j * drive.omega * a - 1j * drive.lam(tt)

    for _ in range(n):
        k1 = rate(t, alpha)
        k2 = rate(t + dt / 2, alpha + dt / 2 * k1)
        k3 = rate(t + dt / 2, alpha + dt / 2 * k2)
        k4 = rate(t + dt, alpha + dt * k3)
        alpha = alpha + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        peak = max(peak, abs(alpha))
    return 1.02 * peak


def _stepped(hamiltonian: Callable[[float], np.ndarray], static: bool,
             psi0: np.ndarray, grid: np.ndarray, max_step: float):
    """Midpoint exponential stepping; yields the state at every grid time."""
    psi = psi0.astype(complex)
    cache = {}
    yield psi
    t = grid[0]
    for t_next in grid[1:]:
        span = t_next - t
        n_sub = max(1, math.ceil(span / max_step))
        dt = span / n_sub
        for k in range(n_sub):
            mid = t + (k + 0.5) * dt
            if static:
                u = cache.get(dt)
                if u is None:
                    u = cache[dt] = scipy.linalg.expm(-1j * hamiltonian(mid) * dt)
            else:
                u = scipy.linalg.expm(-1j * hamiltonian(mid) * dt)
            psi = u @ psi
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > _NORM_DRIFT_LIMIT:
            raise StepSizeTooLarge(f"norm drift {drift:.2e} at t={t_next}")
        t = t_next
        yield psi


def evolve_fock(drive: DriveSpec, t_grid, cutoff: int,
                initial: Optional[StateVector] = None,
                max_step: Optional[float] = None) -> Trajectory:
    """Drive a truncated oscillator mode along the given time grid.

    The cutoff must admit the largest amplitude the drive can reach
    (|alpha(0)| plus the integrated drive strength).
    """
    grid = _validate_grid(t_grid)
    space = fock.fock_space(cutoff)
    if initial is None:
        initial = fock.vacuum(cutoff)
    if initial.space != space:
        raise ValidationError("initial state must live on fock(cutoff)")
    a, adag = fock.ladder_ops(cutoff)
    n_op = fock.number_op(cutoff)
    alpha0 = qcore.expectation(a, initial)
    reach = abs(alpha0) + _drive_reach(drive, grid[-1])
    fock.check_cutoff(reach, cutoff)
    if max_step is None:
        max_step = (2.0 * math.pi / drive.omega) / STEPS_PER_PERIOD

    def hamiltonian(t: float) -> np.ndarray:
        lam = drive.lam(t)
        return (drive.omega * n_op.matrix + lam * adag.matrix
                + np.conj(lam) * a.matrix)

    states, alphas, raw_phases, fids = [], [], [], []
    for psi in _stepped(hamiltonian, drive.is_static, initial.amps, grid, max_step):
        state = StateVector(space, psi)
        alpha = complex(np.vdot(psi, a.matrix @ psi))
        ov = cs_overlap(state, alpha)
        states.append(state)
        alphas.append(alpha)
        raw_phases.append(np.angle(ov))
        fids.append(abs(ov))
    return Trajectory(
        times=grid,
        states=tuple(states),
        alpha_track=np.array(alphas),
        eta_track=np.unwrap(np.array(raw_phases)),
        cs_fidelity=np.array(fids),
    )


@dataclass(frozen=True)
class LinearSpinHamiltonian:
    """H = beta0 J0 + beta_plus J+ + conj(beta_plus) J-."""

    beta0: float
    beta_plus: complex = 0.0

    def __post_init__(self):
        if not (cmath.isfinite(self.beta0) and cmath.isfinite(self.beta_plus)):
            raise ValidationError("beta0 and beta_plus must be finite")
        if isinstance(self.beta0, complex) and abs(self.beta0.imag) > 1e-12:
            raise ValidationError("beta0 must be real for a Hermitian Hamiltonian")
        object.__setattr__(self, "beta0", float(np.real(self.beta0)))
        object.__setattr__(self, "beta_plus", complex(self.beta_plus))

    def operator(self, j) -> LinearOperator:
        j0, jp, jm = spin.spin_ops(j)
        mat = (self.beta0 * j0.matrix + self.beta_plus * jp.matrix
               + np.conj(self.beta_plus) * jm.matrix)
        return LinearOperator(j0.space, mat, hermitian=True)

    @property
    def strength(self) -> float:
        return math.hypot(self.beta0, 2.0 * abs(self.beta_plus))


def evolve_spin(hamiltonian: LinearSpinHamiltonian, j, t_grid,
                initial: StateVector,
                max_step: Optional[float] = None) -> SpinTrajectory:
    """Evolve a spin-j state; coherent-state coordinates are fitted by
    maximizing overlap over the sphere, warm-started at the previous point."""
    grid = _validate_grid(t_grid)
    space = spin.spin_space(j)
    if initial.space != space:
        raise ValidationError("initial state must live on spin(j)")
    h_op = hamiltonian.operator(j)
    if max_step is None:
        scale = max(hamiltonian.strength, 1e-6)
        max_step = (2.0 * math.pi / scale) / STEPS_PER_PERIOD

    states, zetas, thetas, phis, fids = [], [], [], [], []
    warm = None
    for psi in _stepped(lambda t: h_op.matrix, True, initial.amps, grid, max_step):
        state = StateVector(space, psi)
        theta, phi, zeta, fid = spin.nearest_cs_fit(state, start=warm)
        warm = (theta, phi)
        states.append(state)
        zetas.append(zeta)
        thetas.append(theta)
        phis.append(phi)
        fids.append(fid)
    return SpinTrajectory(
        times=grid,
        states=tuple(states),
        zeta_track=np.array(zetas, dtype=complex),
        theta_track=np.array(thetas),
        phi_track=np.array(phis),
        cs_fidelity=np.array(fids),
    )


def eta_convention_report(drive: DriveSpec, t_grid, cutoff: int) -> dict:
    """Measure which vacuum-energy convention reproduces the phase formula.

    Evolves the vacuum with H = omega a+a, measures the global phase, and
    compares against the formula carrying the -omega t/2 term. The fitted
    rate offset decides between H = omega a+a and H = omega (a+a + 1/2);
    the residual after removing the fitted offset is reported too.
    """
    grid = _validate_grid(t_grid)
    traj = evolve_fock(drive, grid, cutoff)
    formula = np.array([alpha_eta_of_t(drive, t)[1] for t in grid])
    diff = traj.eta_track - formula
    # least-squares slope through the origin
    denom = float(np.dot(grid, grid))
    slope = float(np.dot(grid, diff) / denom) if denom > 0 else 0.0
    half = drive.omega / 2.0
    if abs(slope - half) < 0.05 * drive.omega:
        convention = "omega*(n+1/2)"
    elif abs(slope) < 0.05 * drive.omega:
        convention = "omega*n"
    else:
        convention = "unresolved"
    residual = float(np.abs(diff - slope * grid).max())
    return {
        "offset_rate": slope,
        "matched_convention": convention,
        "max_residual": residual,
    }
