"""Time evolution under generator-linear Hamiltonians.

Oscillator: H = omega a+a + lam(t) a+ + lam(t)* a with a classical drive
lam(t) (the amplitude multiplying the creation operator). The solution
stays coherent with

    alpha(t) = -i exp(-i omega t) * integral_0^t lam(tau) exp(i omega tau) dtau

and a global phase whose -omega*t/2 piece depends on whether the vacuum
energy omega/2 is included in H; the tests measure which convention
reproduces the textbook phase formula instead of assuming one.

Spin: H = beta0 J0 + lam(t) J+ + lam(t)* J-, the same ``DriveSpec`` with
omega = beta0. Both Hamiltonians are w0 G0 + lam(t) G+ + lam(t)* G-, with G0
diagonal, G+ a fixed subdiagonal and [G0, G+-] = +-G+- (Perelomov, Commun.
Math. Phys. 26, 222 (1972)), read from the bands ``_generator_bands`` of
``fock`` or ``spin``, and one integrator, ``_evolve``, takes fourth-order
Magnus steps (two-point Gauss-Legendre; Iserles & Norsett, Phil. Trans. R.
Soc. A 357, 983 (1999); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)), unitary per step. A step's exponent is built from the generator
coefficients (w0, lam) at the two nodes and the closed-form commutator
[H2, H1], in the span of [G+, G-] (diagonal) and [G0, G+-] = +-G+-
(off-diagonal), so it is Hermitian tridiagonal over three bands. Exponents
are stacked over at most dim substeps at a time, each factored by one direct
tridiagonal eigensolve (LAPACK ``?stevd``); none is built from the closed-form
solution, so the integrator stays an independent check of it.
A constant drive takes one exact step per grid interval, at any strength; an
exponent or step phases beyond the float range raise ``NumericalError``.

A driven trajectory, and every oscillator one (its cutoff check runs the
substeps' exact map of a coherent amplitude), takes substeps; one that would
need more than ``MAX_SUBSTEPS`` raises ``NumericalError`` before the first.

A trajectory's samples are one stack from the integrator to the report:
``_evolve`` writes them into one (samples, dim) array, which
``StateVector._stack`` normalizes once, and the family's stacked label
(``fock._mean_mode_labels`` or ``spin._mean_spin_labels``) labels them all
at once, with no fit. Its rule is the one the scan's guard reads one state
at a time, ``fock.mean_mode_label`` (alpha = <a>) or
``spin.mean_spin_label`` (the mean spin's direction), each the one-row case
of its stacked label and exact on coherent states.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.linalg.lapack

from . import fock, qcore, spin
from .errors import NumericalError, QuadratureFailure, StepSizeTooLarge, ValidationError
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled oscillator evolution, all stored samples labelled at once by
    ``fock._mean_mode_labels``: each sample's label is, bit for bit,
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
    samples at once by ``spin._mean_spin_labels``: each sample's label is,
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
    """1.02 times the peak |alpha| the drive alone reaches over the
    trajectory's Magnus substeps (``counts[i]`` over grid interval i).

    A substep's exponent is omega dt N + nu a+ + nu* a plus a constant, with
    nu from ``_magnus_coefficients``. It maps a coherent amplitude exactly to
    alpha <- r alpha + (r - 1) nu / (omega dt), r = exp(-i omega dt), which is
    stable at any step: this is the amplitude the untruncated integrator
    carries from the vacuum. With theta = omega dt, (r - 1) / theta is
    -(theta/2) sinc(theta/2pi)^2 - i sinc(theta/pi), in numpy's normalized
    sinc, so no division by an underflowing omega dt.
    """
    if not counts:
        return 0.0
    t, dt = _substep_times(grid, counts)
    # a peak beyond the float range is inf, which no cutoff admits; a static
    # drive's nu is lam dt, as its commutator terms are 0 even where dt^2
    # overflows and 0 * inf would make them nan
    with np.errstate(all="ignore"):
        nu = (drive.amplitude * dt if drive.is_static else
              _magnus_coefficients(lambda s: (drive.omega, drive.lam(s)), t, dt)[2])
        theta = drive.omega * dt
        forcing = nu * (-0.5 * theta * np.sinc(theta / (2.0 * math.pi)) ** 2
                        - 1j * np.sinc(theta / math.pi))
    alphas = itertools.accumulate(zip(np.exp(-1j * theta).tolist(), forcing.tolist()),
                                  lambda a, rf: rf[0] * a + rf[1], initial=0j)
    peaks = [abs(a) for a in alphas]
    # a nan amplitude (0 * inf in a drive that is constant but not static)
    # is refused like inf; max alone would pass over it
    return math.inf if any(map(math.isnan, peaks)) else 1.02 * max(peaks)


def _default_step(*rates: float) -> float:
    """1/``STEPS_PER_PERIOD`` of the shortest period 2 pi/|rate| (a rate
    beyond the float range counts as the largest float); inf if all are 0."""
    fastest = min(max(map(abs, rates)), sys.float_info.max)
    return 2.0 * math.pi / fastest / STEPS_PER_PERIOD if fastest else math.inf


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
    over a family's ``_generator_bands`` (g0, g). M is Hermitian tridiagonal,
    diagonal d0 g0 + d1 (g[k-1]^2 - g[k]^2) and subdiagonal nu g; phases D
    making D* M D real and nonnegative below the diagonal leave V diag(w) V^T,
    x = D V. Bands and phases are stacked over at most dim substeps at a time;
    each substep is factored by one ``?stevd``, or raises ``NumericalError``
    (an exponent beyond the float range), when reached."""
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
            w, v, info = scipy.linalg.lapack.dstevd(diagonal[k], magnitude[k],
                                                   overwrite_d=1, overwrite_e=1)
            if info:
                raise np.linalg.LinAlgError(f"dstevd did not converge (info={info})")
            yield gauge[k][:, None] * v, w


def _evolve(drive: DriveSpec, generator_bands: tuple, initial: StateVector,
            grid: np.ndarray, counts: list) -> tuple:
    """``(rows, states)``: the states at every grid time under ``drive`` over
    a family's ``_generator_bands``, ``counts[i]`` Magnus substeps per grid
    interval i, as one unit, read-only ``(samples, dim)`` stack and its rows
    as states (``StateVector._stack``, one normalization for the stack).
    Exponents are stacked at most dim substeps at a time, each factored by
    one direct ``?stevd`` (``_magnus_factors``) and applied as x (exp(-i w)
    (psi^H x)^*), with no conjugate copy of x. A static drive has one factor,
    for a unit step, whose phases each span scales: one exact step each."""
    coeffs = lambda t: (drive.omega, drive.lam(t))  # noqa: E731
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
    return rows, StateVector._stack(initial.space, rows)


def evolve_fock(drive: DriveSpec, t_grid, cutoff: int,
                initial: Optional[StateVector] = None) -> Trajectory:
    """Drive a truncated oscillator mode along the given time grid.

    The cutoff must admit |alpha(0)| plus the peak amplitude the drive
    reaches over the substeps, each ``_default_step`` long: it resolves the
    oscillator's period and the drive's, whichever is shorter.
    """
    if not drive.omega > 0:
        raise ValidationError("omega must be positive and finite")
    grid = _validate_grid(t_grid)
    space = fock.fock_space(cutoff)
    if initial is None:
        initial = fock.vacuum(cutoff)
    if initial.space != space:
        raise ValidationError("initial state must live on fock(cutoff)")
    counts = _substep_counts(grid, _default_step(drive.omega, drive.frequency))
    g0, g = fock._generator_bands(cutoff)
    alpha0 = qcore._first_moments(initial.amps, g0, g)[1]
    reach = abs(alpha0) + _drive_reach(drive, grid, counts)
    fock.check_cutoff(reach, cutoff)

    rows, states = _evolve(drive, (g0, g), initial, grid, counts)
    alphas, overlaps = fock._mean_mode_labels(rows)
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
    ``spin._mean_spin_labels`` (exact while the state is coherent), not fitted.
    A constant drive takes one exact step per interval, at any strength. A
    driven one takes Magnus substeps (``MAX_SUBSTEPS``) that resolve beta0,
    the drive frequency and the Rabi rate 2 peak|lam|: su(2) is compact, so
    a strong drive's nested commutators do not vanish as the oscillator's do."""
    grid = _validate_grid(t_grid)
    space = spin.spin_space(j)
    if initial.space != space:
        raise ValidationError("initial state must live on spin(j)")
    step = _default_step(drive.omega, drive.frequency, 2.0 * abs(drive.amplitude))
    counts = [1] * (grid.size - 1) if drive.is_static else _substep_counts(grid, step)
    rows, states = _evolve(drive, spin._generator_bands(space.factors[0].twice_j), initial,
                           grid, counts)
    thetas, phis, zetas, fids = spin._mean_spin_labels(rows)
    return SpinTrajectory(times=grid, states=states,
                          zeta_track=np.array(zetas, dtype=complex),
                          theta_track=np.array(thetas), phi_track=np.array(phis),
                          cs_fidelity=np.array(fids))

