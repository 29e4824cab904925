"""Spin-j systems: basis states, spin coherent states in closed form, the
stretched angular-momentum-addition embedding j_A = j_B + j_C, and the
mean-spin label of any state.

A spin coherent state is parameterized by the stereographic coordinate
zeta = -tan(theta/2) exp(-i phi) of a point on the sphere, or by its angles.
It is built by ``_angles_amps`` (behind ``spin_cs``, the label's reference
rows and the scan's grid) from one log-domain closed form (``_cs_logs``), a
row per angle pair in one call. A stack of states is labelled at once by
``_mean_spin_labels``, under one pole rule (``POLE_TOL``). The coupling
weights come from its log-binomial rows, so nothing overflows.
Its generators J0 and J+ ([G0, G+-] = +-G+-) live in one band form, m and
sqrt((2j - k)(k + 1)) (``_generator_bands``), which every moment and step reads.
The module's ``qcore.Family`` record ``FAMILY`` holds the bands, the
stacked label and the scan's grid (``_scan_grid``); ``mean_spin_label`` is
its one-row ``label``, and ``split_spin`` takes 2j from ``FAMILY.size``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qcore
from .errors import (
    InvalidWeight,
    ValidationError,
    WeightConditionViolated,
)
from .qcore import SpaceDescriptor, StateVector, as_twice_j

# perfbench/spans.py's MINIMIZE_USERS loop looks this up; ROADMAP item 1 deletes both
minimize = None


def spin_space(j) -> SpaceDescriptor:
    return SpaceDescriptor.single_spin(j)


def basis_state(j, m) -> StateVector:
    """|j,m> = binom(2j, j+m)^(-1/2) (J+)^(j+m)/(j+m)! |j,-j>, a basis vector."""
    tj = as_twice_j(j)
    tm = int(round(2 * m))
    if abs(2 * m - tm) > 1e-9 or abs(tm) > tj or (tj + tm) % 2 != 0:
        raise InvalidWeight(f"m={m!r} invalid for j={j!r}")
    return StateVector.basis(spin_space(j), (tj + tm) // 2)


#: within this of theta = pi a state is the highest-weight one, with zeta = inf
POLE_TOL = 1e-12


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
            phi = float(self.phi or 0.0)
            if not math.isfinite(phi):
                raise ValidationError(f"phi must be finite, got {phi!r}")
            object.__setattr__(self, "phi", phi)

    @classmethod
    def from_angles(cls, j, theta: float, phi: float = 0.0) -> "SpinCsParams":
        return cls(j=j, theta=theta, phi=phi)


@functools.lru_cache(maxsize=16)
def _cs_rows(tj: int) -> tuple:
    """Read-only rows log sqrt(C(2j, k)), k and 2j - k over k = 0..2j: the
    per-size part of ``_cs_logs``, built once per size. The log-binomial is
    (ln 2j! - ln k! - ln (2j - k)!) / 2 from the row ``qcore._log_factorials``,
    ``scipy.special.gammaln``'s bits without loading scipy."""
    log_factorial = qcore._log_factorials(tj)
    k = np.arange(tj + 1.0)
    rows = (0.5 * (log_factorial[tj] - log_factorial - log_factorial[::-1]), k, tj - k)
    for row in rows:
        row.setflags(write=False)
    return rows


def _generator_bands(tj: int) -> tuple:
    """``(m, g)`` of spin j = tj / 2: m = k - j over levels k = 0..2j and
    g = sqrt((2j - k)(k + 1)), the subdiagonal of J+, over k = 0..2j-1."""
    if tj < 1:
        raise ValidationError("spin operators need j >= 1/2")
    _, k, rest = _cs_rows(tj)
    return k - tj / 2.0, np.sqrt(rest[:-1] * k[1:])


def _cs_logs(rows, theta, phi) -> np.ndarray:
    """Complex logs log sqrt(C(2j, k)) + (2j-k) log cos(theta/2) + k log sin(theta/2)
    + i k (pi - phi) of the coherent amplitudes at 0 <= theta <= pi, for floats
    or arrays that broadcast against the k axis. At theta = 0 the logs above
    k = 0 are -inf, so exactly 0 once exponentiated.
    """
    log_binom, k, rest = rows
    half = theta / 2.0
    # the real part on theta's shape, then one complex sum with the phases
    magnitudes = log_binom + qcore._xlogy(k, np.sin(half)) + rest * np.log(np.cos(half))
    return magnitudes + k * (1j * (math.pi - phi))


def spin_cs(params: SpinCsParams) -> StateVector:
    """(1+|zeta|^2)^(-j) exp(zeta J+) |j,-j>, normalized.

    Amplitudes are sqrt(binom(2j,k)) zeta^k over m = -j+k, from ``_cs_logs``
    at theta = 2 atan|zeta|, phi = pi - arg zeta (``_angles_amps``). Under
    exp(i delta J0) the state maps to zeta -> zeta exp(i delta) up to a phase.
    """
    tj = as_twice_j(params.j)
    z = params.zeta
    theta, phi = ((params.theta, params.phi) if z is None
                  else (2.0 * math.atan(abs(z)), math.pi - math.atan2(z.imag, z.real)))
    return StateVector(spin_space(params.j), _angles_amps(tj, theta, phi))


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
    tjA = FAMILY.size(state)
    if as_twice_j(jB) + as_twice_j(jC) != tjA:
        raise WeightConditionViolated(
            f"need jB + jC = {tjA / 2}, got {jB} + {jC}")
    amps = qcore.split_amplitudes(state.amps, coupling_weight(jB, jC))
    return StateVector(spin_space(jB).tensor(spin_space(jC)), amps.reshape(-1))


# ---------------------------------------------------------------------------
# mean-spin label
# ---------------------------------------------------------------------------

def _angles_amps(tj: int, theta, phi) -> np.ndarray:
    """Unit coherent amplitudes of spin j = tj / 2 at 0 <= theta <= pi, exact
    within ``POLE_TOL`` of the pole: one row for float angles, a row per
    angle on a new last axis for arrays. Each row is divided by its
    ``np.linalg.norm``, sqrt(re.re + im.im), so a stack's rows are the
    per-angle rows bit for bit."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    amps = np.exp(_cs_logs(_cs_rows(tj), theta[..., None], phi[..., None]))
    re, im = amps.real, amps.imag
    amps /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
    pole = np.abs(theta - math.pi) < POLE_TOL
    if pole.any():
        amps[pole] = np.arange(tj + 1) == tj  # the highest-weight row
    return amps


def _label(theta: float, phi: float) -> tuple:
    """Fold any angles onto the sphere: ``(theta, phi, zeta)`` with theta in
    [0, pi], phi in [0, 2 pi) and zeta complex infinity at the antipodal
    pole (within ``POLE_TOL`` of theta = pi), where only the angles name the
    state, and -tan(theta/2) exp(-i phi) elsewhere."""
    theta = theta % (2.0 * math.pi)
    phi = phi % (2.0 * math.pi)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi = (phi + math.pi) % (2.0 * math.pi)
    if abs(theta - math.pi) < POLE_TOL:
        return theta, phi, complex(np.inf)
    return theta, phi, -math.tan(theta / 2.0) * np.exp(-1j * phi)


#: a mean spin |<J>| at most this times j (2j + 1) is rounding, not a direction
MEAN_SPIN_ROUNDING = 8 * np.finfo(float).eps


def _mean_spin_labels(amps: np.ndarray) -> tuple:
    """``(thetas, phis, zetas, fidelities)``, one entry per unit spin row of
    the 2-d stack ``amps``, read from the mean spin, with the overlap at
    that label as the fidelity.

    A coherent state has <J> = j n (Arecchi, Courtens, Gilmore & Thomas,
    Phys. Rev. A 6, 2211 (1972)): here <J0> = -j cos(theta) and <J-> =
    j sin(theta) exp(i (pi - phi)), so the label is exact on coherent states.
    When |<J>| is at most ``MEAN_SPIN_ROUNDING`` j (2j + 1), about the
    rounding of a sum of 2j + 1 terms of size j, the mean spin has no
    direction (as for |1, 0>), and the label is fixed at theta = 0, phi = 0,
    the lowest-weight state. The moments of the stack come at once, each
    row's fold in Python floats, and the reference rows from one
    ``_angles_amps`` call.
    """
    tj = amps.shape[-1] - 1
    mean_j0, mean_jm = qcore._first_moments(amps, *_generator_bands(tj))
    rounding = MEAN_SPIN_ROUNDING * tj / 2.0 * (tj + 1)
    labels = [_label(0.0, 0.0) if math.hypot(j0, abs(jm)) <= rounding else
              _label(math.atan2(abs(jm), -j0), math.pi - cmath.phase(jm))
              for j0, jm in zip(mean_j0.tolist(), mean_jm.tolist())]
    thetas, phis, zetas = zip(*labels)
    overlaps = np.vecdot(_angles_amps(tj, thetas, phis), amps).tolist()
    return thetas, phis, zetas, tuple(abs(ov) for ov in overlaps)


def _scan_grid(tj: int) -> np.ndarray:
    """``_angles_amps`` rows at 7 polar angles by 8 azimuths plus each pole
    once (its azimuth is a global phase), from one call."""
    ring = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    theta = np.linspace(0.0, math.pi, 9)
    return _angles_amps(tj, np.concatenate(([0.0], np.repeat(theta[1:-1], 8), [math.pi])),
                        np.concatenate(([0.0], np.tile(ring, 7), [0.0])))


FAMILY = qcore.Family("spin", _generator_bands, _mean_spin_labels, _scan_grid)
#: ``(theta, phi, zeta, fidelity)`` of one single-spin state, by ``_mean_spin_labels``
mean_spin_label = FAMILY.label
