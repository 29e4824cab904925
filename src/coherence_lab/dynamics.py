"""Time evolution under generator-linear Hamiltonians.

Oscillator: H = omega a+a + lam(t) a+ + lam(t)* a with a classical drive
lam(t) (the amplitude multiplying the creation operator). The solution
stays coherent with

    alpha(t) = -i exp(-i omega t) * integral_0^t lam(tau) exp(i omega tau) dtau

(in closed form, ``alpha_of_t``) and a global phase whose -omega*t/2 piece
depends on whether the vacuum energy omega/2 is included in H; the tests
measure which convention reproduces the textbook phase formula instead of
assuming one.

Spin: H = beta0 J0 + lam(t) J+ + lam(t)* J-, the same ``DriveSpec`` with
omega = beta0. Both Hamiltonians are w0 G0 + lam(t) G+ + lam(t)* G-, with G0
diagonal, G+ a fixed subdiagonal and [G0, G+-] = +-G+- (Perelomov, Commun.
Math. Phys. 26, 222 (1972)), read from the bands of the family's
``qcore.Family`` record (``fock.FAMILY`` or ``spin.FAMILY``), and one
integrator, ``_evolve``, takes fourth-order
Magnus steps (two-point Gauss-Legendre; Iserles & Norsett, Phil. Trans. R.
Soc. A 357, 983 (1999); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)), unitary per step. A step's exponent is built from the generator
coefficients (w0, lam) at the two nodes and the closed-form commutator
[H2, H1], in the span of [G+, G-] (diagonal) and [G0, G+-] = +-G+-
(off-diagonal), so it is Hermitian tridiagonal over three bands. Exponents
are stacked over at most dim substeps at a time, each factored by one direct
tridiagonal eigensolve (LAPACK ``?stevd``); none is built from the closed-form
solution, so the integrator stays an independent check of it.
A constant drive takes one exact step per grid interval, in both families,
at any strength and span; an exponent or step phases beyond the float range
raise ``NumericalError``. A driven trajectory takes substeps; one that
would need more than ``MAX_SUBSTEPS`` raises ``NumericalError`` before the
first. The oscillator's cutoff check reads ``alpha_of_t`` at every step's
end, and a constant drive's at its peak time too, by one rule for every
drive (``_drive_reach``).

A trajectory's samples are one stack from the integrator to the report:
``_evolve`` writes them into one (samples, dim) array, which
``StateVector._stack`` normalizes once, and the family's stacked label
(``Family.labels``) labels them all at once, with no fit. Its rule is the
one the scan's guard reads, and its one-row case is ``fock.mean_mode_label``
(alpha = <a>) or ``spin.mean_spin_label`` (the mean spin's direction),
exact on coherent states.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fock, qcore, spin
from .errors import NumericalError, StepSizeTooLarge, ValidationError
from .qcore import StateVector

#: default substep: 1/50 of the shortest period (``_default_step``)
STEPS_PER_PERIOD = 50
#: most substeps a trajectory may take (25 by default over half a period)
MAX_SUBSTEPS = 10 ** 5
#: Gauss-Legendre nodes sit at 1/2 -+ sqrt(3)/6 of a substep; the commutator
#: term of the Magnus exponent carries sqrt(3)/12
_GL_NODE = math.sqrt(3.0) / 6.0
_GL_COMMUTATOR = math.sqrt(3.0) / 12.0
_NORM_DRIFT_LIMIT = 1e-8
#: the closed-form drive kinds, in the order of the CLI's ``--drive`` choices
DRIVE_KINDS = ("constant", "sinusoid", "exponential")


@dataclass(frozen=True)
class DriveSpec:
    """The coefficients (w0, lam(t)) of w0 G0 + lam(t) G+ + h.c.: omega and
    the amplitude on a+ of an oscillator (``evolve_fock`` needs omega > 0),
    or beta0 and the J+ coefficient of a spin.

    One of the closed forms ``DRIVE_KINDS``: ``constant`` (lam = amplitude),
    ``sinusoid`` (amplitude * cos(frequency t + phase)) and ``exponential``
    (amplitude * exp(-i frequency t)), so |lam| never exceeds |amplitude|.
    """

    omega: float
    kind: str = "constant"
    amplitude: complex = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValidationError("omega (a spin's beta0) must be finite")
        if not all(map(cmath.isfinite, (self.amplitude, self.frequency, self.phase))):
            raise ValidationError("drive amplitude, frequency and phase must be finite")
        if self.kind not in DRIVE_KINDS:
            raise ValidationError(f"unknown drive kind {self.kind!r}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    @classmethod
    def constant(cls, omega: float, value: complex) -> "DriveSpec":
        return cls(omega=omega, kind="constant", amplitude=value)

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

    @property
    def is_static(self) -> bool:
        return self.kind == "constant"

    def lam(self, t):
        """lam at time t: a complex for a float t, an array for an array t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full(t.shape, self.amplitude)
        elif self.kind == "sinusoid":
            out = self.amplitude * np.cos(self.frequency * t + self.phase)
        else:
            # parts rounded apart, as in lam(float): numpy's array product fuses
            rot, a = np.exp(-1j * self.frequency * t), self.amplitude
            out = np.empty(t.shape, dtype=complex)
            out.real = a.real * rot.real - a.imag * rot.imag
            out.imag = a.real * rot.imag + a.imag * rot.real
        return out if np.ndim(out) else complex(out)


def alpha_of_t(drive: DriveSpec, t):
    """Coherent amplitude the drive alone reaches at time t, in closed form: a
    complex for a float t, an array for an array t.

    lam is a sum of terms c exp(-i s tau): (A, 0) for a constant drive, (A, nu)
    for an exponential one and (A/2 e^{i phase}, -nu), (A/2 e^{-i phase}, nu)
    for a sinusoid. Each integrates to c t e^{iy/2} sinc(y/2pi), y = (omega - s) t,
    in numpy's normalized sinc: exact at resonance and with no cancellation.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t < math.inf)):
        raise ValidationError("t must be finite and >= 0")
    a, nu = drive.amplitude, drive.frequency
    if drive.kind == "sinusoid":
        c, s = 0.5 * a * np.exp([1j * drive.phase, -1j * drive.phase]), np.array([-nu, nu])
    else:
        c, s = np.array([a]), np.array([nu if drive.kind == "exponential" else 0.0])
    y = (drive.omega - s) * t[..., None]
    # an amplitude beyond the float range is inf, which no cutoff admits
    with np.errstate(over="ignore", invalid="ignore"):
        terms = c * t[..., None] * np.exp(0.5j * y) * np.sinc(y / (2.0 * math.pi))
        out = -1j * np.exp(-1j * drive.omega * t) * terms.sum(axis=-1)
    return out if np.ndim(out) else complex(out)


@dataclass(frozen=True)
class Trajectory:
    """Sampled oscillator evolution, all stored samples labelled at once by
    ``fock.FAMILY.labels``: each sample's label is, bit for bit,
    ``fock.mean_mode_label`` of it. The states are the rows of one read-only
    stack.

    ``alpha_track`` is <a>; ``eta_track`` the unwrapped phase of the label's
    overlap <alpha_track(t)|state(t)>; ``cs_fidelity`` its magnitude (with
    the exact nearest coherent state whenever the state is coherent).
    """

    times: np.ndarray
    states: tuple
    alpha_track: np.ndarray
    eta_track: np.ndarray
    cs_fidelity: np.ndarray


@dataclass(frozen=True)
class SpinTrajectory:
    """Sampled spin evolution, labelled by the mean spin's direction, all
    samples at once by ``spin.FAMILY.labels``: each sample's label is,
    bit for bit, ``spin.mean_spin_label`` of it. The states are the rows of
    one read-only stack.

    ``cs_fidelity`` is the overlap with the coherent state at that label:
    1 to rounding on a coherent state, and at most the best fidelity with
    any coherent state on every other.
    """

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


def _substep_times(grid: np.ndarray, counts: list) -> tuple:
    """Start times and lengths of the substeps, ``counts[i]`` per grid interval i."""
    counts = np.asarray(counts, dtype=int)
    dt = np.repeat(np.diff(grid) / counts, counts)
    k = np.arange(dt.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(grid[:-1], counts) + k * dt, dt


def _drive_reach(drive: DriveSpec, grid: np.ndarray, counts: list) -> float:
    """1.02 times the peak |alpha| the drive alone reaches at the ends of the
    trajectory's Magnus substeps (``counts[i]`` over grid interval i), on the
    orbit the untruncated integrator follows from the vacuum at t0 = grid[0]:
    ``alpha_of_t(t)`` less the free rotation exp(-i omega (t - t0)) of
    ``alpha_of_t(t0)``. A static drive's orbit, of modulus
    2 |lam| |sin(omega (t - t0) / 2)| / omega, is read at its peak
    t0 + min(T - t0, pi / omega) too, T = grid[-1]."""
    if not counts:
        return 0.0
    # t0 and every substep's end
    times = np.append(_substep_times(grid, counts)[0], grid[-1])
    if drive.is_static:
        times = np.append(times, grid[0] + min(grid[-1] - grid[0], math.pi / drive.omega))
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = alpha_of_t(drive, times)
        orbit = alphas - np.exp(-1j * drive.omega * (times - times[0])) * alphas[0]
        peak = float(np.abs(orbit).max())
    # a nan amplitude (inf - inf in a sinusoid's two terms) is refused like inf
    return math.inf if math.isnan(peak) else 1.02 * peak


def _default_step(*rates: float) -> float:
    """1/``STEPS_PER_PERIOD`` of the shortest period 2 pi/|rate| (a rate
    beyond the float range counts as the largest float); inf if all are 0."""
    fastest = min(max(map(abs, rates)), sys.float_info.max)
    return 2.0 * math.pi / fastest / STEPS_PER_PERIOD if fastest else math.inf


def _step_counts(drive: DriveSpec, grid: np.ndarray, step: float) -> list:
    """Substeps for each grid interval: one for a static drive, which
    ``_evolve`` steps exactly at any span, else ``_substep_counts``."""
    return [1] * (grid.size - 1) if drive.is_static else _substep_counts(grid, step)


def _substep_counts(grid: np.ndarray, step: float) -> list:
    """Substeps for each grid interval, at most ``step`` long.

    Raises ``NumericalError`` when the whole trajectory would take more than
    ``MAX_SUBSTEPS``, so a runaway request ends before any work is done.
    """
    # Python floats overflow to inf without numpy's RuntimeWarning
    ratios = [float(span) / step for span in np.diff(grid)]
    # checked before math.ceil, which raises OverflowError on inf
    if all(r <= MAX_SUBSTEPS for r in ratios):
        counts = [max(1, math.ceil(r)) for r in ratios]
        if sum(counts) <= MAX_SUBSTEPS:
            return counts
    raise NumericalError(
        f"the trajectory needs more than {MAX_SUBSTEPS} substeps of at most "
        f"{step:.3g}; shorten tmax or weaken the Hamiltonian")


def _magnus_coefficients(coeffs: Callable[[float], tuple], t, dt) -> tuple:
    """``(d0, d1, nu)`` of the exponent M = d0 G0 + d1 [G+, G-] + nu G+ + nu* G-
    of a fourth-order Magnus substep from t to t + dt (floats or arrays) for
    H(t) = w0(t) G0 + lam(t) G+ + lam(t)* G-, ``coeffs(t) = (w0, lam)``. With
    H1, H2 at the Gauss-Legendre nodes, M = (dt/2)(H1 + H2) - i c [H2, H1],
    c = (sqrt(3)/12) dt^2, and by [G0, G+-] = +-G+-, [H2, H1] =
    2i Im(lam2 lam1*) [G+, G-] + (w2 lam1 - w1 lam2) G+ - h.c. For a static H
    the commutator terms are exactly 0 and M is dt times H; callers set errstate."""
    w1, lam1 = coeffs(t + (0.5 - _GL_NODE) * dt)
    w2, lam2 = coeffs(t + (0.5 + _GL_NODE) * dt)
    c = _GL_COMMUTATOR * dt * dt
    # Im(lam2 lam1*) with each product rounded, as a scalar product is
    im = lam2.imag * lam1.real - lam2.real * lam1.imag
    return (0.5 * dt * (w1 + w2), 2.0 * c * im,
            (0.5 * dt) * (lam1 + lam2) - (1j * c) * (w2 * lam1 - w1 * lam2))


def _magnus_factors(coeffs: Callable, generator_bands: tuple, t, dt):
    """Yield, in order, the eigenpairs ``(x, w)``, M = x diag(w) x^H, of the
    exponent of each fourth-order Magnus substep from t[k] to t[k] + dt[k]
    over a family's ``Family.bands`` (g0, g). M is Hermitian tridiagonal,
    diagonal d0 g0 + d1 (g[k-1]^2 - g[k]^2) and subdiagonal nu g; phases D
    making D* M D real and nonnegative below the diagonal leave V diag(w) V^T,
    x = D V. Bands and phases are stacked over at most dim substeps at a time;
    each substep is factored by one ``?stevd``, or raises ``NumericalError``
    (an exponent beyond the float range), when reached. ``dstevd`` is
    imported here, on the first substep, so that only a trajectory loads
    ``scipy.linalg``: no other command needs scipy."""
    from scipy.linalg.lapack import dstevd

    g0, g = generator_bands
    q = np.concatenate(([0.0], g * g, [0.0]))
    comm_diag = q[:-1] - q[1:]
    for lo in range(0, t.size, g0.size):
        span = slice(lo, lo + g0.size)
        with np.errstate(all="ignore"):
            d0, d1, nu = _magnus_coefficients(coeffs, t[span], dt[span])
            diagonal = d0[:, None] * g0 + d1[:, None] * comm_diag
            sub = nu[:, None] * g
            finite = np.isfinite(diagonal).all(axis=1) & np.isfinite(sub).all(axis=1)
            # from the angle, not sub / |sub|: a zero band keeps phase 1
            # and a subnormal one does not overflow
            phase = np.ones(diagonal.shape, dtype=complex)
            phase[:, 1:] = np.exp(1j * np.angle(sub))
            gauge, magnitude = np.cumprod(phase, axis=1), np.abs(sub)
        for k in range(d0.size):
            if not finite[k]:
                raise NumericalError("the Magnus exponent leaves the float range")
            w, v, info = dstevd(diagonal[k], magnitude[k], overwrite_d=1, overwrite_e=1)
            if info:
                raise np.linalg.LinAlgError(f"dstevd did not converge (info={info})")
            yield gauge[k][:, None] * v, w


def _evolve(drive: DriveSpec, family: qcore.Family, initial: StateVector,
            grid: np.ndarray, counts: list) -> tuple:
    """``(states, labels)``: the states at every grid time under ``drive``
    over the ``family.bands`` of the initial state's size, ``counts[i]``
    Magnus substeps per grid interval i, as the rows of one unit, read-only
    ``(samples, dim)`` stack (``StateVector._stack``, one normalization for
    the stack), and ``family.labels`` of that stack.
    Exponents are stacked at most dim substeps at a time, each factored by
    one direct ``?stevd`` (``_magnus_factors``) and applied as x (exp(-i w)
    (psi^H x)^*), with no conjugate copy of x. A static drive has one factor,
    for a unit step, whose phases each span scales: one exact step each."""
    coeffs = lambda t: (drive.omega, drive.lam(t))  # noqa: E731
    generator_bands = family.bands(family.size(initial))
    psi = initial.amps
    if drive.is_static:
        x, w = next(_magnus_factors(coeffs, generator_bands, grid[:1], np.ones(1)))
        with np.errstate(over="ignore"):
            phases = np.multiply.outer(np.diff(grid), w)
        if not np.isfinite(phases).all():
            raise NumericalError("the step phases leave the float range")
        rotations = np.exp(-1j * phases)
    else:
        factors = _magnus_factors(coeffs, generator_bands, *_substep_times(grid, counts))
    rows = np.empty((grid.size, psi.size), dtype=complex)
    rows[0] = psi
    for i, (t_next, n_sub) in enumerate(zip(grid[1:], counts)):
        steps = ([(x, rotations[i])] if drive.is_static else
                 ((x_k, np.exp(-1j * w_k)) for x_k, w_k in itertools.islice(factors, n_sub)))
        for x_k, rotation in steps:
            psi = x_k @ (rotation * (psi.conj() @ x_k).conj())
        drift = abs(math.sqrt(np.vdot(psi, psi).real) - 1.0)
        if drift > _NORM_DRIFT_LIMIT:
            raise StepSizeTooLarge(f"norm drift {drift:.2e} at t={t_next}")
        rows[i + 1] = psi
    states = StateVector._stack(initial.space, rows)
    return states, family.labels(rows)


def evolve_fock(drive: DriveSpec, t_grid, cutoff: int,
                initial: Optional[StateVector] = None) -> Trajectory:
    """Drive a truncated oscillator mode along the given time grid.

    The cutoff must admit |alpha(0)| plus 1.02 times the peak of the orbit
    from the vacuum at the first grid time (``_drive_reach``): over the ends
    of its substeps, each ``_default_step`` long (it resolves the
    oscillator's period and the drive's, whichever is shorter), and, for a
    constant drive, at its peak time too.
    """
    if not drive.omega > 0:
        raise ValidationError("omega must be positive and finite")
    grid = _validate_grid(t_grid)
    space = fock.fock_space(cutoff)
    if initial is None:
        initial = fock.vacuum(cutoff)
    if initial.space != space:
        raise ValidationError("initial state must live on fock(cutoff)")
    counts = _step_counts(drive, grid, _default_step(drive.omega, drive.frequency))
    alpha0 = qcore._first_moments(initial.amps, *fock.FAMILY.bands(cutoff))[1]
    fock.check_cutoff(abs(alpha0) + _drive_reach(drive, grid, counts), cutoff)

    states, (alphas, overlaps) = _evolve(drive, fock.FAMILY, initial, grid, counts)
    return Trajectory(times=grid, states=states, alpha_track=np.array(alphas),
                      eta_track=np.unwrap(np.angle(overlaps)),
                      cs_fidelity=np.array([abs(ov) for ov in overlaps]))


class LinearSpinHamiltonian(DriveSpec):
    """The constant drive beta0 J0 + beta_plus J+ + h.c., by its former name."""

    def __init__(self, beta0: float, beta_plus: complex = 0.0):
        super().__init__(beta0, amplitude=beta_plus)

    @property
    def strength(self) -> float:
        return math.hypot(self.omega, 2.0 * abs(self.amplitude))


def evolve_spin(drive: DriveSpec, j, t_grid, initial: StateVector) -> SpinTrajectory:
    """Evolve a spin-j state under beta0 J0 + lam(t) J+ + h.c., with (beta0,
    lam) the (omega, lam) of ``drive``, the samples labelled at once by
    ``spin.FAMILY.labels`` (exact while the state is coherent), not fitted.
    A constant drive takes one exact step per interval, at any strength. A
    driven one takes Magnus substeps (``MAX_SUBSTEPS``) that resolve beta0,
    the drive frequency and the Rabi rate 2 peak|lam|: su(2) is compact, so
    a strong drive's nested commutators do not vanish as the oscillator's do."""
    grid = _validate_grid(t_grid)
    space = spin.spin_space(j)
    if initial.space != space:
        raise ValidationError("initial state must live on spin(j)")
    step = _default_step(drive.omega, drive.frequency, 2.0 * abs(drive.amplitude))
    counts = _step_counts(drive, grid, step)
    states, (thetas, phis, zetas, fids) = _evolve(drive, spin.FAMILY, initial, grid, counts)
    return SpinTrajectory(times=grid, states=states,
                          zeta_track=np.array(zetas, dtype=complex),
                          theta_track=np.array(thetas), phi_track=np.array(phis),
                          cs_fidelity=np.array(fids))

