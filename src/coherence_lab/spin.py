"""Spin-j systems: su(2) operators, lowest-weight reference state, spin
coherent states (closed form and coset exponential), and the stretched
angular-momentum-addition embedding j_A = j_B + j_C.

A spin coherent state is parameterized by the stereographic coordinate
zeta = -tan(theta/2) exp(-i phi) of a point on the sphere; theta = pi (the
antipodal point, the highest-weight state) is reachable through the angle
form only, never through an infinite zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from . import qcore
from .errors import (
    AntipodalPoint,
    InvalidWeight,
    NumericalError,
    SpaceMismatch,
    ValidationError,
    WeightConditionViolated,
)
from .qcore import LinearOperator, SpaceDescriptor, StateVector, as_twice_j


def spin_space(j) -> SpaceDescriptor:
    return SpaceDescriptor.single_spin(j)


def spin_ops(j):
    """J0, J+, J- as (2j+1)-dimensional matrices, basis m ascending."""
    tj = as_twice_j(j)
    if tj < 1:
        raise ValidationError("spin operators need j >= 1/2")
    dim = tj + 1
    jv = tj / 2.0
    m = -jv + np.arange(dim)
    space = spin_space(j)
    j0 = np.diag(m).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        jp[i + 1, i] = math.sqrt((jv - m[i]) * (jv + m[i] + 1.0))
    return (LinearOperator(space, j0, hermitian=True),
            LinearOperator(space, jp),
            LinearOperator(space, jp.conj().T))


def lowest_state(j) -> StateVector:
    return StateVector.basis(spin_space(j), 0)


def basis_state(j, m) -> StateVector:
    """|j,m> built by raising the lowest-weight state.

    Computes binom(2j, j+m)^(-1/2) (J+)^(j+m)/(j+m)! |j,-j>, which lands
    exactly on the canonical basis vector.
    """
    tj = as_twice_j(j)
    tm = int(round(2 * m))
    if abs(2 * m - tm) > 1e-9 or abs(tm) > tj or (tj + tm) % 2 != 0:
        raise InvalidWeight(f"m={m!r} invalid for j={j!r}")
    k = (tj + tm) // 2
    vec = np.zeros(tj + 1, dtype=complex)
    vec[0] = 1.0
    if k > 0:
        _, jp, _ = spin_ops(j)
        for _ in range(k):
            vec = jp.matrix @ vec
        vec *= 1.0 / (math.factorial(k) * math.sqrt(math.comb(tj, k)))
    return StateVector(spin_space(j), vec)


def angle_to_zeta(theta: float, phi: float) -> complex:
    """Stereographic coordinate zeta = -tan(theta/2) exp(-i phi)."""
    if not 0.0 <= theta <= math.pi:
        raise ValidationError(f"theta must lie in [0, pi], got {theta!r}")
    if abs(theta - math.pi) < 1e-12:
        raise AntipodalPoint("theta = pi: use the highest-weight state directly")
    return -math.tan(theta / 2.0) * np.exp(-1j * phi)


@dataclass(frozen=True)
class SpinCsParams:
    """Spin coherent-state label: j plus either zeta or sphere angles."""

    j: float
    zeta: Optional[complex] = None
    theta: Optional[float] = None
    phi: Optional[float] = None

    def __post_init__(self):
        as_twice_j(self.j)
        if self.zeta is None and self.theta is None:
            raise ValidationError("give either zeta or angles (theta, phi)")
        if self.zeta is not None:
            if self.theta is not None or self.phi is not None:
                raise ValidationError("give zeta or angles, not both")
            z = complex(self.zeta)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError("zeta must be finite; use angles for theta = pi")
            object.__setattr__(self, "zeta", z)
        else:
            if not 0.0 <= self.theta <= math.pi:
                raise ValidationError("theta must lie in [0, pi]")
            object.__setattr__(self, "phi", float(self.phi or 0.0))

    @classmethod
    def from_angles(cls, j, theta: float, phi: float = 0.0) -> "SpinCsParams":
        return cls(j=j, theta=theta, phi=phi)

    @property
    def antipodal(self) -> bool:
        return self.theta is not None and abs(self.theta - math.pi) < 1e-12

    def resolved_zeta(self) -> complex:
        if self.zeta is not None:
            return self.zeta
        return angle_to_zeta(self.theta, self.phi)


def _cs_amps(tj: int, zeta: complex) -> np.ndarray:
    try:
        amps = np.array([math.sqrt(math.comb(tj, k)) * zeta ** k for k in range(tj + 1)],
                        dtype=complex)
    except OverflowError as exc:  # a binomial (2j > 1029) or zeta^k beyond the float range
        raise NumericalError(f"spin j={tj / 2:g} coherent state overflows: {exc}") from exc
    return amps / np.linalg.norm(amps)


def spin_cs(params: SpinCsParams) -> StateVector:
    """(1+|zeta|^2)^(-j) exp(zeta J+) |j,-j>, normalized.

    Amplitudes are sqrt(binom(2j,k)) zeta^k over m = -j+k. Under
    exp(i delta J0) the state maps to zeta -> zeta exp(i delta) up to a
    global phase.
    """
    tj = as_twice_j(params.j)
    if params.antipodal:
        return StateVector.basis(spin_space(params.j), tj)
    return StateVector(spin_space(params.j), _cs_amps(tj, params.resolved_zeta()))


def spin_cs_exp(j, xi: complex) -> StateVector:
    """Coset-exponential route: exp(xi J+ - xi* J-) |j,-j>.

    Equals the closed form at zeta = (xi/|xi|) tan|xi| up to a global phase.
    """
    tj = as_twice_j(j)
    if tj == 0:
        return lowest_state(j)
    _, jp, jm = spin_ops(j)
    gen = xi * jp.matrix - np.conj(xi) * jm.matrix
    omega = qcore.mat_exp(LinearOperator(spin_space(j), gen))
    return qcore.apply(omega, lowest_state(j))


def coupling_weight(jB, jC) -> np.ndarray:
    """Stretched Clebsch-Gordan weights ``w[k, l]`` for ``qcore.split_amplitudes``.

    In the lowest-weight labelling (k = jB + m_B, l = jC + m_C) the coupled
    state of spin jA = jB + jC with n = k + l quanta above its lowest weight is
    ``sum_{k+l=n} w[k, l] |k>|l>`` with
    ``w[k, l] = sqrt(C(2jB, k) C(2jC, l) / C(2jA, k+l))`` (Arecchi, Courtens,
    Gilmore & Thomas, Phys. Rev. A 6, 2211 (1972)). ``w**2`` is a
    hypergeometric probability, so the recurrence used here, row 0 from
    ``sqrt(C(2jC, l) / C(2jA, l))`` and row k from row k - 1 times
    ``sqrt((2jB-k+1)(k+l) / (k (2jA-k-l+1)))``, keeps every intermediate at
    most 1. On the way to ``w[2jB, 2jC] = 1`` it passes the corner weight
    ``1/sqrt(C(2jA, 2jC))``, which underflows for balanced couplings once 2jA
    passes about 2100; the column-norm check then raises ``ValidationError``.
    """
    b, c = as_twice_j(jB), as_twice_j(jC)
    if b < 1 or c < 1:
        raise ValidationError("subsystem spins must be >= 1/2")
    k = np.arange(1, b + 1)[:, None]
    l = np.arange(c + 1)
    steps = np.empty((b + 1, c + 1))
    steps[0, 0] = 1.0
    steps[0, 1:] = np.sqrt((c - l[1:] + 1.0) / (b + c - l[1:] + 1.0))
    steps[0] = np.cumprod(steps[0])
    steps[1:] = np.sqrt((b - k + 1.0) * (k + l) / (k * (b + c - k - l + 1.0)))
    return np.cumprod(steps, axis=0)


def split_spin(state: StateVector, jB, jC) -> StateVector:
    """Split a spin-j_A state into jB (x) jC via the stretched coupling.

    The amplitude of ``|k>|l>`` is ``c[k+l]`` times the closed-form
    ``coupling_weight`` (through ``qcore.split_amplitudes``): O(dim_B dim_C)
    time and memory, with the unit norm of every column checked on the way.
    """
    if not state.space.is_single("spin"):
        raise SpaceMismatch("split_spin needs a state on a single spin factor")
    tjA = state.space.factors[0].twice_j
    if as_twice_j(jB) + as_twice_j(jC) != tjA:
        raise WeightConditionViolated(
            f"need jB + jC = {tjA / 2}, got {jB} + {jC}")
    amps = qcore.split_amplitudes(state.amps, coupling_weight(jB, jC))
    return StateVector(spin_space(jB).tensor(spin_space(jC)), amps.reshape(-1))


# ---------------------------------------------------------------------------
# nearest-coherent-state fit
# ---------------------------------------------------------------------------

def _angles_amps(tj: int, theta: float, phi: float) -> np.ndarray:
    theta = theta % (2.0 * math.pi)
    if theta > math.pi:  # fold back onto the sphere
        theta = 2.0 * math.pi - theta
        phi = phi + math.pi
    if abs(theta - math.pi) < 1e-15:
        vec = np.zeros(tj + 1, dtype=complex)
        vec[-1] = 1.0
        return vec
    return _cs_amps(tj, -math.tan(theta / 2.0) * np.exp(-1j * phi))


def _ratio_candidate(amps: np.ndarray, tj: int):
    """Estimate (theta, phi) from consecutive amplitude ratios."""
    prod = np.abs(amps[:-1] * amps[1:])
    if prod.size == 0:
        return None
    k = int(np.argmax(prod))
    if prod[k] < 1e-14:
        return None
    zeta = amps[k + 1] / amps[k] * math.sqrt((k + 1) / (tj - k))
    theta = 2.0 * math.atan(abs(zeta))
    phi = (math.pi - np.angle(zeta)) % (2.0 * math.pi) if abs(zeta) > 0 else 0.0
    return theta, phi


def _fid_ceiling(tj: int) -> float:
    """Ceiling on ``|vdot(_angles_amps(tj, theta, phi), state.amps)|`` as
    floating point computes it, for any angles and any ``StateVector``.

    Worst-case rounding, first order in eps = 2**-52, with n = tj + 1:

    - ``_cs_amps`` divides by ``np.linalg.norm``, whose sum of 2n squares
      and square root err by at most (n + 3) eps/4, and numpy's complex
      division rounds each part twice: the fitted vector's norm is at most
      1 + (n + 7) eps/4 (the pole vector's is exactly 1);
    - a ``StateVector`` keeps its computed norm within 4 eps of 1, so its
      exact norm is at most 1 + 5 eps;
    - each part of the complex dot product sums 2n products and errs by at
      most n eps sum_k |u_k| |v_k| <= n eps |u| |v|, so sqrt(2) n eps in
      modulus;
    - ``abs`` adds at most eps.

    The total, (1.67 n + 7.75) eps, stays below (2 n + 10) eps.
    """
    return 1.0 + (2 * tj + 12) * np.finfo(float).eps


def _polish(fid, start):
    return minimize(lambda x: -fid(x[0], x[1]), list(start), method="Nelder-Mead",
                    options=dict(xatol=1e-10, fatol=1e-15, maxiter=600))


def nearest_cs_fit(state: StateVector, start: Optional[tuple] = None):
    """Maximize |<j,(theta,phi)|state>| over the sphere.

    Returns ``(theta, phi, zeta, fidelity)``; at the antipodal pole
    (theta = pi) zeta is reported as complex infinity, so callers that need
    a finite label should use the angles. Candidates: the caller's warm
    start, a ratio-extraction estimate (exact on true coherent states), the
    two poles, and a coarse sphere grid; the best one is polished by a
    simplex search. A search that stops before it converges is restarted
    once where it stopped, and raises ``NumericalError`` if that fails too.
    """
    if not state.space.is_single("spin"):
        raise SpaceMismatch("nearest_cs_fit needs a single spin factor")
    tj = state.space.factors[0].twice_j
    amps = state.amps

    def fid(theta, phi):
        return abs(np.vdot(_angles_amps(tj, theta, phi), amps))

    candidates = []
    if start is not None:
        candidates.append(tuple(start))
    ratio = _ratio_candidate(amps, tj)
    if ratio is not None:
        candidates.append(ratio)
    # pole states are missed by the ratio estimate
    candidates.append((0.0, 0.0))
    candidates.append((math.pi, 0.0))
    if start is None:
        for th in np.linspace(0.35, math.pi - 0.35, 8):
            for ph in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                candidates.append((th, ph))
    best = max(candidates, key=lambda c: fid(*c))
    best_fid = fid(*best)
    # strict improvement only: on a true coherent state the ratio candidate
    # is machine-exact and must not be fuzzed by the simplex. No computed
    # fid exceeds _fid_ceiling(tj), so once best_fid + 1e-14 reaches it the
    # polish could not be kept and is skipped.
    if best_fid + 1e-14 < _fid_ceiling(tj):
        res = _polish(fid, best)
        if not res.success:
            # the initial simplex from phi = 0 is tiny in phi and can stall
            # short of the peak; a fresh simplex at the stopping point
            # gets past it
            res = _polish(fid, res.x)
        if not res.success:
            raise NumericalError(f"nearest-coherent fit did not converge: {res.message}")
        if -res.fun > best_fid + 1e-14:
            best, best_fid = (res.x[0], res.x[1]), -float(res.fun)
    theta = best[0] % (2.0 * math.pi)
    phi = best[1] % (2.0 * math.pi)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi = (phi + math.pi) % (2.0 * math.pi)
    if abs(theta - math.pi) < 1e-12:
        zeta = complex(np.inf)
    else:
        zeta = angle_to_zeta(theta, phi)
    return theta, phi, zeta, best_fid
