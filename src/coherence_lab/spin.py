"""Spin-j systems: su(2) operators, lowest-weight reference state, spin
coherent states (closed form and coset exponential), and the stretched
angular-momentum-addition embedding j_A = j_B + j_C.

A spin coherent state is parameterized by the stereographic coordinate
zeta = -tan(theta/2) exp(-i phi) of a point on the sphere; theta = pi (the
antipodal point, the highest-weight state) is reachable through the angle
form only, never through an infinite zeta. The amplitudes come from one
log-domain closed form at the sphere angles (``_cs_logs``), and the coupling
weights from its log-binomial rows, so no binomial or power overflows.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, xlogy

from . import qcore
from .errors import (
    AntipodalPoint,
    InvalidWeight,
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
    """|j,m> = binom(2j, j+m)^(-1/2) (J+)^(j+m)/(j+m)! |j,-j>, a basis vector."""
    tj = as_twice_j(j)
    tm = int(round(2 * m))
    if abs(2 * m - tm) > 1e-9 or abs(tm) > tj or (tj + tm) % 2 != 0:
        raise InvalidWeight(f"m={m!r} invalid for j={j!r}")
    return StateVector.basis(spin_space(j), (tj + tm) // 2)


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


@functools.lru_cache(maxsize=16)
def _cs_rows(tj: int) -> tuple:
    """Read-only rows log sqrt(C(2j, k)), k and 2j - k over k = 0..2j: the
    per-size part of ``_cs_logs``, built once per size."""
    k = np.arange(tj + 1.0)
    rows = (0.5 * (gammaln(tj + 1) - gammaln(k + 1) - gammaln(tj + 1 - k)), k, tj - k)
    for row in rows:
        row.setflags(write=False)
    return rows


def _cs_logs(rows, theta, phi) -> np.ndarray:
    """Complex logs log sqrt(C(2j, k)) + (2j-k) log cos(theta/2) + k log sin(theta/2)
    + i k (pi - phi) of the coherent amplitudes at 0 <= theta <= pi, for floats
    or arrays that broadcast against the k axis. At theta = 0 the logs above
    k = 0 are -inf, so exactly 0 once exponentiated.
    """
    log_binom, k, rest = rows
    half = theta / 2.0
    # the real part on theta's shape, then one complex sum with the phases
    magnitudes = log_binom + xlogy(k, np.sin(half)) + rest * np.log(np.cos(half))
    return magnitudes + k * (1j * (math.pi - phi))


def spin_cs(params: SpinCsParams) -> StateVector:
    """(1+|zeta|^2)^(-j) exp(zeta J+) |j,-j>, normalized.

    Amplitudes are sqrt(binom(2j,k)) zeta^k over m = -j+k, from ``_cs_logs``
    at theta = 2 atan|zeta|, phi = pi - arg zeta. Under exp(i delta J0) the
    state maps to zeta -> zeta exp(i delta) up to a global phase.
    """
    tj = as_twice_j(params.j)
    if params.antipodal:
        return StateVector.basis(spin_space(params.j), tj)
    z = params.zeta
    theta, phi = ((params.theta, params.phi) if z is None
                  else (2.0 * math.atan(abs(z)), math.pi - math.atan2(z.imag, z.real)))
    return StateVector(spin_space(params.j), _angles_amps(_cs_rows(tj), theta, phi))


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
    Gilmore & Thomas, Phys. Rev. A 6, 2211 (1972)): the ``qcore.hankel_weight``
    of the log-binomial rows of 2jB, 2jC and 2jA, in range at any spin.
    """
    b, c = as_twice_j(jB), as_twice_j(jC)
    if b < 1 or c < 1:
        raise ValidationError("subsystem spins must be >= 1/2")
    return qcore.hankel_weight(_cs_rows(b)[0], _cs_rows(c)[0], _cs_rows(b + c)[0])


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

def _angles_amps(rows, theta: float, phi: float) -> np.ndarray:
    """Unit coherent amplitudes at any angles; ``rows`` from ``_cs_rows``."""
    theta = theta % (2.0 * math.pi)
    if theta > math.pi:  # fold back onto the sphere
        theta = 2.0 * math.pi - theta
        phi = phi + math.pi
    if abs(theta - math.pi) < 1e-15:
        vec = np.zeros(rows[0].size, dtype=complex)
        vec[-1] = 1.0
        return vec
    amps = np.exp(_cs_logs(rows, theta, phi))
    return amps / np.linalg.norm(amps)


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


def _label(theta: float, phi: float) -> tuple:
    """Fold any angles onto the sphere: ``(theta, phi, zeta)`` with theta in
    [0, pi], phi in [0, 2 pi) and zeta complex infinity at the antipodal
    pole (theta = pi), where only the angles name the state."""
    theta = theta % (2.0 * math.pi)
    phi = phi % (2.0 * math.pi)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi = (phi + math.pi) % (2.0 * math.pi)
    if abs(theta - math.pi) < 1e-12:
        return theta, phi, complex(np.inf)
    return theta, phi, angle_to_zeta(theta, phi)


#: a mean spin |<J>| at most this times j (2j + 1) is rounding, not a direction
MEAN_SPIN_ROUNDING = 8 * np.finfo(float).eps


def _mean_spin(amps: np.ndarray) -> tuple:
    """``(<J0>, <J+>)`` of each unit row of ``amps`` over its last axis, the
    2j + 1 levels m = -j..j."""
    tj = amps.shape[-1] - 1
    _, k, rest = _cs_rows(tj)
    mean_j0 = np.vecdot(amps.real ** 2 + amps.imag ** 2, k - tj / 2.0)
    # J+ raises level k to k + 1 with sqrt((2j - k)(k + 1))
    mean_jp = np.vecdot(amps[..., 1:], np.sqrt(rest[:-1] * k[1:]) * amps[..., :-1])
    return mean_j0, mean_jp


def mean_spin_label(state: StateVector):
    """``(theta, phi, zeta, fidelity)`` read from the mean spin, with the
    overlap at that label as ``fidelity``.

    A coherent state has <J> = j n (Arecchi, Courtens, Gilmore & Thomas,
    Phys. Rev. A 6, 2211 (1972)): here <J0> = -j cos(theta) and <J+> =
    j sin(theta) exp(i (phi - pi)), so the label is exact on coherent states.
    When |<J>| is at most ``MEAN_SPIN_ROUNDING`` j (2j + 1), about the
    rounding of a sum of 2j + 1 terms of size j, the mean spin has no
    direction (as for |1, 0>), and the label is fixed at theta = 0, phi = 0,
    the lowest-weight state.
    """
    if not state.space.is_single("spin"):
        raise SpaceMismatch("mean_spin_label needs a single spin factor")
    tj = state.space.factors[0].twice_j
    rows = _cs_rows(tj)
    amps = state.amps
    mean_j0, mean_jp = _mean_spin(amps)
    if math.hypot(mean_j0, abs(mean_jp)) <= MEAN_SPIN_ROUNDING * tj / 2.0 * (tj + 1):
        theta, phi, zeta = _label(0.0, 0.0)
    else:
        theta, phi, zeta = _label(math.atan2(abs(mean_jp), -mean_j0),
                                  math.pi + cmath.phase(mean_jp))
    return theta, phi, zeta, abs(np.vdot(_angles_amps(rows, theta, phi), amps))


def nearest_cs_fit(state: StateVector):
    """Maximize |<j,(theta,phi)|state>| over the sphere.

    Returns ``(theta, phi, zeta, fidelity)``; at the antipodal pole
    (theta = pi) zeta is reported as complex infinity, so callers that need
    a finite label should use the angles. Candidates: a ratio-extraction
    estimate (exact on true coherent states), the two poles, and a coarse
    sphere grid; the best one is polished by ``qcore.polish_fit``. The
    splitting scan calls it only for samples its moment bound cannot certify;
    a trajectory's label is ``mean_spin_label``, for which this fit is the
    test oracle.
    """
    if not state.space.is_single("spin"):
        raise SpaceMismatch("nearest_cs_fit needs a single spin factor")
    tj = state.space.factors[0].twice_j
    amps = state.amps
    rows = _cs_rows(tj)

    def fid(theta, phi):
        return abs(np.vdot(_angles_amps(rows, theta, phi), amps))

    ratio = _ratio_candidate(amps, tj)
    # pole states are missed by the ratio estimate
    candidates = ([] if ratio is None else [ratio]) + [(0.0, 0.0), (math.pi, 0.0)]
    fids = [fid(*c) for c in candidates]
    # a coarse sphere grid, scored in one batch
    th = np.repeat(np.linspace(0.35, math.pi - 0.35, 8), 8)
    ph = np.tile(np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False), 8)
    bras = np.exp(_cs_logs(rows, th[:, None], ph[:, None]))
    fids += list(np.abs(bras.conj() @ amps) / np.linalg.norm(bras, axis=1))
    candidates += list(zip(th, ph))
    best, best_fid = qcore.polish_fit(fid, candidates[int(np.argmax(fids))], minimize)
    return _label(*best) + (best_fid,)
