"""Truncated single-mode oscillator: Fock and Glauber coherent states and
beamsplitter splitting. Coherent amplitudes and beamsplitter weights come
from one log-domain closed form (``_coherent_logs``), so no power or
factorial overflows at any cutoff. Its generators N and a+ ([G0, G+-] =
+-G+-) live in one band form, n and sqrt(n + 1) (``_generator_bands``),
which every moment, Magnus step and first-moment label alpha = <a> reads.
A coherent state's amplitudes come from ``_glauber_amps`` alone (behind
``glauber_cs``, the label's reference rows and the scan's grid), a row per
alpha in one call. A stack of states is labelled at once by
``_mean_mode_labels``. The module's ``qcore.Family`` record ``FAMILY``
holds the bands, that stacked label and the scan's grid (``_scan_grid``);
``mean_mode_label`` is its one-row ``label``, the twin of
``spin.mean_spin_label``, and ``split_fock`` takes its cutoff from
``FAMILY.size``.

Truncation policy: an amplitude alpha is admitted at cutoff N only when
N >= |alpha|^2 + 12*sqrt(|alpha|^2 + 1), which keeps the neglected Poisson
tail below 1e-12 and hence below every tolerance used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import TruncationTooSmall, ValidationError
from .qcore import SpaceDescriptor, StateVector

# perfbench/spans.py's MINIMIZE_USERS loop looks this up; ROADMAP item 1 deletes both
minimize = None


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


def _generator_bands(cutoff: int) -> tuple:
    """``(g0, g)``: g0 = n over n = 0..N and g = sqrt(n + 1), the subdiagonal
    of a+, over n = 0..N-1."""
    if cutoff < 1:
        raise ValidationError("ladder operators need cutoff >= 1")
    g0 = np.arange(cutoff + 1.0)
    return g0, np.sqrt(g0[1:])


def _coherent_logs(alpha, cutoff: int) -> np.ndarray:
    """Complex logs of alpha^n / sqrt(n!), n = 0..cutoff, on a new last axis
    of an array of alpha; a zero alpha gives -inf, exactly 0 once
    exponentiated, above n = 0. ln n! is a prefix of the shared row
    ``qcore._log_factorials`` and n ln|alpha| is ``qcore._xlogy``, one libm
    log per alpha: both are ``scipy.special``'s gammaln and xlogy bit for bit."""
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    n = np.arange(cutoff + 1)
    return (qcore._xlogy(n, np.abs(alpha)) - qcore._log_factorials(cutoff) / 2.0
            + n * (1j * np.angle(alpha)))


def _glauber_amps(alpha, cutoff: int) -> np.ndarray:
    """exp(-|alpha|^2/2) alpha^n / sqrt(n!), n = 0..cutoff, on a new last axis
    of an array of alpha: the amplitudes of ``glauber_cs``, each row bit for
    bit the call at its alpha alone."""
    r = np.abs(alpha)
    # |alpha|^2 by float power, as a scalar is squared: numpy squares an
    # array by a product, which rounds differently about once in 1000
    r2 = np.reshape([x ** 2 for x in np.ravel(r).tolist()], np.shape(r))
    return np.exp(_coherent_logs(alpha, cutoff) - (r2 / 2.0)[..., None])


def glauber_cs(alpha, cutoff: int) -> StateVector:
    """Coherent state amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    check_cutoff(alpha, cutoff)
    space = fock_space(cutoff)  # refuses a cutoff too large to allocate
    return StateVector(space, _glauber_amps(alpha, cutoff))


def beamsplit_weight(spec: SplitSpec, cutoff: int) -> np.ndarray:
    """Closed-form beamsplitter weights ``w[k, l]`` for ``qcore.split_amplitudes``.

    ``w[k, l] = sqrt(C(k+l, k)) mu^k nu^l`` on the ``(cutoff + 1)``-square
    output grid: input level n goes to ``(mu b+ + nu c+)^n / sqrt(n!) |0,0>``,
    with output mode B carrying ``mu`` and mode C carrying ``nu``: the
    ``qcore.hankel_weight`` of mu^k / sqrt(k!), nu^l / sqrt(l!) and 1 / sqrt(n!).
    """
    return qcore.hankel_weight(_coherent_logs(spec.mu, cutoff),
                               _coherent_logs(spec.nu, cutoff),
                               _coherent_logs(1.0, 2 * cutoff))


def split_fock(state: StateVector, spec: SplitSpec) -> StateVector:
    """Send a single-mode state through the beamsplitter; norm preserved.

    Both output modes keep the input cutoff N. The output amplitude of
    ``|k, l>`` is ``c[k+l] sqrt(C(k+l, k)) mu^k nu^l`` (``beamsplit_weight``
    through ``qcore.split_amplitudes``): O(N^2) time and memory, with the
    unit norm of every column checked on the way.
    """
    cutoff = FAMILY.size(state)
    amps = qcore.split_amplitudes(state.amps, beamsplit_weight(spec, cutoff))
    out = fock_space(cutoff)
    return StateVector(out.tensor(out), amps.reshape(-1))


def _mean_mode_labels(amps: np.ndarray) -> tuple:
    """``(alphas, overlaps)``, one entry per unit Fock row of the 2-d stack
    ``amps``: alpha = <a>, exact on a coherent state (Perelomov, Commun.
    Math. Phys. 26, 222 (1972)), and <alpha'|row> with the ``glauber_cs``
    at alpha pulled onto the disk |alpha'| <= ``admissible_radius``. <a> of
    the stack at once, each row's pull onto the disk and ``check_cutoff`` in
    Python floats, and the ``glauber_cs`` rows from one ``_glauber_amps``
    and one ``qcore._normalize_rows`` call."""
    cutoff = amps.shape[-1] - 1
    alphas = qcore._first_moments(amps, *_generator_bands(cutoff))[1].tolist()
    radius = admissible_radius(cutoff)
    refs = [alpha if abs(alpha) <= radius else alpha / abs(alpha) * radius
            for alpha in alphas]
    for ref in refs:
        check_cutoff(ref, cutoff)
    ref_rows = qcore._normalize_rows(_glauber_amps(np.array(refs), cutoff))
    return tuple(alphas), tuple(np.vecdot(ref_rows, amps).tolist())


def _scan_grid(cutoff: int) -> np.ndarray:
    """``_glauber_amps`` rows at alpha = 0 plus 4 rings of 8 out to
    min(1.5, ``admissible_radius``)."""
    ring = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))
    radius = min(1.5, admissible_radius(cutoff))
    alpha = np.append(0.0, np.linspace(radius / 4.0, radius, 4)[:, None] * ring)
    return _glauber_amps(alpha, cutoff)


FAMILY = qcore.Family("fock", _generator_bands, _mean_mode_labels, _scan_grid)
#: ``(alpha, overlap)`` of one single-mode state, by ``_mean_mode_labels``
mean_mode_label = FAMILY.label
