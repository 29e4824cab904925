"""Truncated single-mode oscillator: ladder and quadrature operators,
displacement, Glauber coherent states, and beamsplitter splitting.

Truncation policy: an amplitude alpha is admitted at cutoff N only when
N >= |alpha|^2 + 12*sqrt(|alpha|^2 + 1), which keeps the neglected Poisson
tail below 1e-12 and hence below every tolerance used elsewhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import qcore
from .errors import NumericalError, SpaceMismatch, TruncationTooSmall, ValidationError
from .qcore import LinearOperator, SpaceDescriptor, StateVector

log = logging.getLogger(__name__)

TAIL_TOLERANCE = 1e-12


def required_cutoff(alpha) -> int:
    """Smallest cutoff admitted for coherent amplitude ``alpha``.

    Raises ``TruncationTooSmall`` when that cutoff is beyond the float range
    (|alpha| above about 1.3e154), since no cutoff can hold such a state.
    """
    try:
        r = float(abs(alpha))  # a Python float overflows to inf without a warning
        a2 = r * r
        return math.ceil(a2 + 12.0 * math.sqrt(a2 + 1.0))
    except OverflowError as exc:
        raise TruncationTooSmall(
            f"|alpha|={abs(alpha):.4g} needs a cutoff beyond the float range") from exc


def check_cutoff(alpha, cutoff: int) -> None:
    need = required_cutoff(alpha)
    if cutoff < need:
        raise TruncationTooSmall(
            f"cutoff {cutoff} too small for |alpha|={abs(alpha):.4g} (need >= {need})")


def admissible_radius(cutoff: int) -> float:
    """Largest |alpha| the tail criterion admits at this cutoff."""
    # solve x + 12 sqrt(x+1) = cutoff for x = |alpha|^2
    b = 2.0 * cutoff + 144.0
    disc = b * b - 4.0 * (cutoff ** 2 - 144.0)
    x = (b - math.sqrt(disc)) / 2.0 - 1e-9
    return math.sqrt(max(x, 0.0))


@dataclass(frozen=True)
class FockParams:
    """Cutoff plus coherent amplitude, validated against the tail criterion."""

    cutoff: int
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        check_cutoff(self.alpha, self.cutoff)


@dataclass(frozen=True)
class SplitSpec:
    """Beamsplitter coefficients with |mu|^2 + |nu|^2 = 1."""

    mu: complex
    nu: complex

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "nu", complex(self.nu))
        # products, not ** 2: a huge coefficient gives inf instead of raising
        # OverflowError, and a NaN fails the comparison
        norm2 = abs(self.mu) * abs(self.mu) + abs(self.nu) * abs(self.nu)
        if not abs(norm2 - 1.0) <= 1e-12:
            raise ValidationError("|mu|^2 + |nu|^2 must equal 1")

    @classmethod
    def balanced(cls) -> "SplitSpec":
        r = 1.0 / math.sqrt(2.0)
        return cls(r, r)

    @classmethod
    def from_angles(cls, t: float, phi: float = 0.0) -> "SplitSpec":
        return cls(math.cos(t), math.sin(t) * np.exp(1j * phi))


def fock_space(cutoff: int) -> SpaceDescriptor:
    return SpaceDescriptor.single_fock(cutoff)


def vacuum(cutoff: int) -> StateVector:
    return StateVector.basis(fock_space(cutoff), 0)


def number_state(cutoff: int, n: int) -> StateVector:
    if not 0 <= n <= cutoff:
        raise ValidationError(f"photon number {n} outside 0..{cutoff}")
    return StateVector.basis(fock_space(cutoff), n)


def ladder_ops(cutoff: int):
    """Annihilation and creation operators truncated at ``cutoff``."""
    if cutoff < 1:
        raise ValidationError("ladder operators need cutoff >= 1")
    space = fock_space(cutoff)
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return LinearOperator(space, a), LinearOperator(space, a.conj().T)


def number_op(cutoff: int) -> LinearOperator:
    space = fock_space(cutoff)
    return LinearOperator(space, np.diag(np.arange(cutoff + 1)).astype(complex),
                          hermitian=True)


def quadrature_ops(cutoff: int):
    """Scaled position and momentum q = (a + a+)/sqrt2, p = (a - a+)/(i sqrt2)."""
    a, adag = ladder_ops(cutoff)
    space = a.space
    q = (a.matrix + adag.matrix) / math.sqrt(2.0)
    p = (a.matrix - adag.matrix) / (1j * math.sqrt(2.0))
    return (LinearOperator(space, q, hermitian=True),
            LinearOperator(space, p, hermitian=True))


def displacement(alpha, cutoff: int) -> LinearOperator:
    """exp(alpha a+ - alpha* a), unitary on the retained subspace."""
    check_cutoff(alpha, cutoff)
    a, adag = ladder_ops(cutoff)
    gen = alpha * adag.matrix - np.conj(alpha) * a.matrix
    return qcore.mat_exp(LinearOperator(a.space, gen))


def glauber_cs(alpha, cutoff: int) -> StateVector:
    """Coherent state amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    check_cutoff(alpha, cutoff)
    space = fock_space(cutoff)
    alpha = complex(alpha)
    amps = np.empty(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-abs(alpha) ** 2 / 2.0)
    # the norm costs about 15% of a call and only feeds the debug message
    if log.isEnabledFor(logging.DEBUG):
        deficit = abs(np.linalg.norm(amps) - 1.0)
        if deficit > 1e-15:
            log.debug("coherent state renormalized after truncation, deficit %.3e", deficit)
    return StateVector(space, amps)


def beamsplit_weight(spec: SplitSpec, cutoff: int) -> np.ndarray:
    """Closed-form beamsplitter weights ``w[k, l]`` for ``qcore.split_amplitudes``.

    ``w[k, l] = sqrt(C(k+l, k)) mu^k nu^l`` on the ``(cutoff + 1)``-square
    output grid: input level n goes to ``(mu b+ + nu c+)^n / sqrt(n!) |0,0>``,
    with output mode B carrying ``mu`` and mode C carrying ``nu``.
    Row k is row k - 1 times ``mu sqrt((k+l)/k)``, starting from ``nu^l``;
    every intermediate is a weight, the square root of a binomial
    probability, so none exceeds 1 and nothing overflows at any cutoff. The
    relative error grows by a few ulps per row.
    """
    d = cutoff + 1
    k = np.arange(1, d)[:, None]
    l = np.arange(d)
    steps = np.empty((d, d), dtype=complex)
    steps[0, 0] = 1.0
    steps[0, 1:] = spec.nu
    steps[0] = np.cumprod(steps[0])
    steps[1:] = spec.mu * np.sqrt((k + l) / k)
    return np.cumprod(steps, axis=0)


def split_fock(state: StateVector, spec: SplitSpec) -> StateVector:
    """Send a single-mode state through the beamsplitter; norm preserved.

    Both output modes keep the input cutoff N. The output amplitude of
    ``|k, l>`` is ``c[k+l] sqrt(C(k+l, k)) mu^k nu^l`` (``beamsplit_weight``
    through ``qcore.split_amplitudes``): O(N^2) time and memory, with the
    unit norm of every column checked on the way.
    """
    if not state.space.is_single("fock"):
        raise SpaceMismatch("split_fock needs a state on a single Fock factor")
    cutoff = state.space.factors[0].cutoff
    amps = qcore.split_amplitudes(state.amps, beamsplit_weight(spec, cutoff))
    out = fock_space(cutoff)
    return StateVector(out.tensor(out), amps.reshape(-1))


def nearest_coherent_fit(state: StateVector):
    """Maximize |<alpha|state>| over alpha; returns (alpha, fidelity).

    Seeded at alpha = <a> (exact for true coherent states) and polished by
    a simplex search in (Re alpha, Im alpha). A search that stops before it
    converges raises ``NumericalError``.
    """
    if not state.space.is_single("fock"):
        raise SpaceMismatch("nearest_coherent_fit needs a single Fock factor")
    cutoff = state.space.factors[0].cutoff
    a, _ = ladder_ops(cutoff)
    start = qcore.expectation(a, state)
    # stay inside the admissible amplitude disk for this cutoff
    max_abs = admissible_radius(cutoff)

    def clip(z: complex) -> complex:
        return z if abs(z) <= max_abs else z / abs(z) * max_abs

    def negfid(x):
        alpha = clip(complex(x[0], x[1]))
        return -abs(np.vdot(glauber_cs(alpha, cutoff).amps, state.amps))

    start = clip(start)
    res = minimize(negfid, [start.real, start.imag], method="Nelder-Mead",
                   options=dict(xatol=1e-10, fatol=1e-14, maxiter=400))
    if not res.success:
        raise NumericalError(f"nearest-coherent fit did not converge: {res.message}")
    best = clip(complex(res.x[0], res.x[1]))
    return best, -float(res.fun)
