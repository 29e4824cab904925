"""Factorization analysis and uniqueness checks.

Three pieces: classify split states as product vs entangled from a
values-only Schmidt report, solve the splitting functional equation
f_A(mu x + nu y) = f_B(x) f_C(y) order by order as a formal power series
(the unique solutions are exponentials), and run seeded randomized scans
demonstrating that only coherent states split into products.

A scan takes one ``ScanSystem`` record: a split ``weight`` and a family
record (``spin.FAMILY`` or ``fock.FAMILY``) with the stacked first-moment
label and the coherent grid. A scan labels every sample and excludes it
from the non-coherent pool when the coherent state at its label lies within
``CS_DISTANCE_GUARD``. Each chunk of
samples, and the grid of coherent amplitudes for ``cs_max_entropy`` (from
the amplitude functions behind ``spin_cs`` and ``glauber_cs``), is one
stacked array: normalized as ``StateVector`` normalizes, split with one
``split_amplitudes`` call and reduced to Schmidt coefficients by one
values-only stacked SVD, with no Schmidt vector and no per-row state; a
chunk is labelled by one stacked label call too. The norms are each row's
correctly rounded sum of squares (``math.fsum``'s bits), summed over the
whole stack at once and certified row by row, with ``math.fsum`` only for
a row the certificate cannot place. Its entropies are bit-identical to a
``schmidt_cut`` of each split sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fock, qcore, spin
from .errors import NotComposite, NumericalError, ValidationError
from .qcore import SpaceDescriptor, StateVector

#: phase-aligned distance below which a sample counts as a coherent state
CS_DISTANCE_GUARD = 1e-6
#: generic values of the series solve's free parameters tau, f_B(0), f_C(0)
SERIES_TAU, SERIES_B0, SERIES_C0 = 0.7 + 0.4j, 1.1 - 0.3j, 0.8 + 0.5j


def factorization_report(state: StateVector) -> qcore.SchmidtReport:
    """``qcore.schmidt_cut`` of a state on exactly two factors, values only:
    ``is_product`` alone decides "product". That a split coherent state is
    the product of the paper's coherent factors is measured against their
    closed forms, as the ``split`` command's ``residual``."""
    if state.space.nfactors != 2:
        raise NotComposite("factorization_report needs a two-factor state")
    return qcore.schmidt_cut(state, 1)


# ---------------------------------------------------------------------------
# functional equation as a formal power series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesPoly:
    """One-variable formal power series f(x) = sum_k c_k x^k, c_0 != 0."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("coefficients must be a nonempty 1-d array")
        if arr[0] == 0:
            raise ValidationError("c_0 must be nonzero (it is the normalization)")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def exponential(cls, tau: complex, f0: complex, order: int) -> "SeriesPoly":
        return cls(np.array([f0 * tau ** k / math.factorial(k)
                             for k in range(order + 1)], dtype=complex))

    @property
    def order(self) -> int:
        return self.coeffs.size - 1


def functional_residuals(f_a: SeriesPoly, f_b: SeriesPoly, f_c: SeriesPoly,
                         mu: complex = 1.0, nu: complex = 1.0) -> np.ndarray:
    """Per-order mismatch of f_A(mu x + nu y) = f_B(x) f_C(y).

    Order n compares a_n binom(n,k) mu^k nu^(n-k) with b_k c_(n-k) for every
    split k + (n-k) = n and returns the worst absolute deviation.
    """
    order = min(f_a.order, f_b.order, f_c.order)
    res = np.zeros(order + 1)
    for n in range(order + 1):
        worst = 0.0
        for k in range(n + 1):
            lhs = f_a.coeffs[n] * math.comb(n, k) * mu ** k * nu ** (n - k)
            worst = max(worst, abs(lhs - f_b.coeffs[k] * f_c.coeffs[n - k]))
        res[n] = worst
    return res


@dataclass(frozen=True)
class AflpSolution:
    """Solution family of the splitting functional equation to given order.

    The order-by-order solve leaves exactly two free parameters, the
    normalization f(0) and one complex amplitude tau; every admissible
    series is then pinned to c_k = f(0) tau^k / k!. For a beamsplitter
    (mu, nu) the subsystem series carry mu*tau and nu*tau.
    ``consistency_residual`` is the worst disagreement among the redundant
    order-n equations (zero up to roundoff: the equations are compatible),
    ``exponential_rule_residual`` the worst deviation of the solved
    coefficients from the exponential rule.
    """

    order: int
    mu: complex
    nu: complex
    consistency_residual: float
    exponential_rule_residual: float

    def coefficients(self, tau: complex, f0: complex = 1.0) -> np.ndarray:
        return SeriesPoly.exponential(tau, f0, self.order).coeffs

    def subsystem_taus(self, tau: complex) -> tuple:
        return self.mu * tau, self.nu * tau

    def split_triple(self, tau: complex, f0_b: complex = 1.0,
                     f0_c: complex = 1.0):
        """Series (f_A, f_B, f_C) solving the equation for these parameters."""
        tau_b, tau_c = self.subsystem_taus(tau)
        return (SeriesPoly.exponential(tau, f0_b * f0_c, self.order),
                SeriesPoly.exponential(tau_b, f0_b, self.order),
                SeriesPoly.exponential(tau_c, f0_c, self.order))


def aflp_series_solve(order: int, mu: complex = 1.0, nu: complex = 1.0) -> AflpSolution:
    """Solve the splitting functional equation order by order.

    With the generic values ``SERIES_TAU``, ``SERIES_B0`` and ``SERIES_C0``
    for the free parameters tau, f_B(0) and f_C(0), coefficients of
    order n >= 2 are fixed by the interior (k, n-k) equations; the solver
    checks that all redundant equations agree and that the result matches
    the exponential family, which establishes uniqueness to the requested
    order. ``mu = nu = 1`` is the commuting-raising-operator case; a
    beamsplitter supplies |mu|^2 + |nu|^2 = 1. A coefficient beyond the
    float range (huge mu or nu, or an order above 170), or a power of a tiny
    mu or nu that underflows to 0 and is divided by, raises
    ``NumericalError``.
    """
    if order < 2:
        raise ValidationError("order must be >= 2")
    if mu == 0 or nu == 0:
        raise ValidationError("mu and nu must be nonzero")
    a = np.zeros(order + 1, dtype=complex)
    b = np.zeros(order + 1, dtype=complex)
    c = np.zeros(order + 1, dtype=complex)
    b[0], c[0] = SERIES_B0, SERIES_C0
    a[0] = b[0] * c[0]
    a[1] = SERIES_TAU * a[0]
    b[1] = a[1] * mu / c[0]
    c[1] = a[1] * nu / b[0]
    consistency = 0.0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for n in range(2, order + 1):
                candidates = [b[k] * c[n - k] / (math.comb(n, k) * mu ** k * nu ** (n - k))
                              for k in range(1, n)]
                a[n] = candidates[0]
                consistency = max(consistency,
                                  max(abs(x - a[n]) for x in candidates))
                b[n] = a[n] * mu ** n / c[0]
                c[n] = a[n] * nu ** n / b[0]
            rule = SeriesPoly.exponential(SERIES_TAU, a[0], order).coeffs
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"series coefficients leave the float range: {exc}") from exc
    rule_residual = float(np.abs(a - rule).max())
    return AflpSolution(order=order, mu=complex(mu), nu=complex(nu),
                        consistency_residual=float(consistency),
                        exponential_rule_residual=rule_residual)


# ---------------------------------------------------------------------------
# randomized uniqueness scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanSystem:
    """What a scan splits: a ``label``, the input ``space``, the ``family``
    record whose label and grid it reads, and the split ``weight(*split)``,
    which the constructors look up when called, not at import, so that a
    rebinding of it (as a tracer makes) reaches the scan."""

    label: str
    space: SpaceDescriptor
    family: qcore.Family
    weight: Callable
    split: tuple


def SpinScanSystem(j_a, j_b, j_c) -> ScanSystem:  # noqa: N802 (a constructor)
    """Spin j_a split into the stretched pair (j_b, j_c)."""
    if qcore.as_twice_j(j_a) != qcore.as_twice_j(j_b) + qcore.as_twice_j(j_c):
        raise ValidationError("scan requires j_a = j_b + j_c")
    return ScanSystem(f"spin({j_a:g},{j_b:g},{j_c:g})", spin.spin_space(j_a), spin.FAMILY,
                      spin.coupling_weight, (j_b, j_c))


def FockScanSystem(cutoff: int, split: Optional[fock.SplitSpec] = None) -> ScanSystem:  # noqa: N802
    """Truncated Fock mode split by a beamsplitter (balanced by default)."""
    if cutoff < 12:
        raise ValidationError("scan needs cutoff >= 12 to admit a coherent grid")
    return ScanSystem(f"fock({cutoff})", fock.fock_space(cutoff), fock.FAMILY,
                      fock.beamsplit_weight, (split or fock.SplitSpec.balanced(), cutoff))


@dataclass(frozen=True)
class ScanStats:
    """Aggregated scan result; deterministic given (system, n_samples, seed)."""

    system: str
    n_samples: int
    seed: int
    min_entropy_non_cs: Optional[float]
    cs_max_entropy: float
    n_excluded: int = 0

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "min_entropy_non_cs": self.min_entropy_non_cs,
            "cs_max_entropy": self.cs_max_entropy,
        }


def _haar_amps(seed: int, index: int, dim: int) -> np.ndarray:
    """Counter-based per-sample stream: order-independent and reproducible."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index],
                                                            dtype=np.uint64)))
    vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _cs_distances(family: qcore.Family, amps: np.ndarray) -> list:
    """Phase-aligned distance of each unit row of ``amps`` to the coherent
    state at its first-moment label, from one ``family.labels`` call.

    A coherent state's first moments are its label: <J> = j n for a spin
    (``spin.mean_spin_label``) and <a> = alpha for a mode
    (``fock.mean_mode_label``, on the admissible disk; Perelomov, Commun.
    Math. Phys. 26, 222 (1972)).
    """
    return [math.sqrt(max(0.0, 2.0 - 2.0 * abs(overlap)))
            for overlap in family.labels(amps)[-1]]


#: most amplitudes one stacked split holds (1 MiB), which keeps a scan's
#: memory independent of its sample count
CHUNK_AMPS = 2 ** 16


def _split_entropies(weight: np.ndarray, amps: np.ndarray) -> list:
    """Schmidt entropy of each split row of ``amps``, bit for bit as
    ``schmidt_cut`` of ``split_spin``/``split_fock``.

    One ``split_amplitudes`` call splits the stack, ``qcore._normalize_rows``
    normalizes each split row as ``StateVector`` does, and one stacked
    values-only SVD (``compute_uv=False``, the route of ``schmidt_cut``)
    gives the coefficients; no Schmidt vector is computed.
    """
    split = qcore.split_amplitudes(amps, weight)
    rows = qcore._normalize_rows(split.reshape(len(amps), -1))
    coeffs = np.linalg.svd(rows.reshape(split.shape), compute_uv=False)
    return qcore.entropy_from_coefficients(coeffs).tolist()


def uniqueness_scan(system: ScanSystem, n_samples: int, seed: int) -> ScanStats:
    """Split seeded Haar-random states and record their entanglement.

    One path for every family: ``system.weight`` gives the split weight,
    built on every call, and ``system.family`` the stacked label
    (``labels``) and the coherent grid (``grid``). A sample is
    excluded from the non-coherent pool exactly when the coherent state at
    its first-moment label lies inside the guard band (``_cs_distances``).
    Samples go in chunks of at most ``CHUNK_AMPS`` amplitudes, each
    normalized by ``qcore._normalize_rows``, labelled by one
    ``_cs_distances`` call, split with one ``split_amplitudes`` call and
    cut by one values-only stacked SVD.
    ``cs_max_entropy`` splits the grid the same way on every call.
    Each sample draws from its own counter-based stream, so the result does
    not depend on the order samples are processed in, and every entropy is
    bit-identical to a ``schmidt_cut`` of the split sample.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    family, space = system.family, system.space
    weight = system.weight(*system.split)
    chunk = max(1, CHUNK_AMPS // weight.size)

    min_kept, n_kept = None, 0
    for start in range(0, n_samples, chunk):
        amps = qcore._normalize_rows(np.stack([
            _haar_amps(seed, i, space.dim)
            for i in range(start, min(start + chunk, n_samples))]))
        for ent, dist in zip(_split_entropies(weight, amps), _cs_distances(family, amps)):
            if dist > CS_DISTANCE_GUARD:
                min_kept = ent if min_kept is None else min(min_kept, ent)
                n_kept += 1
    # as StateVector normalizes each state
    grid = qcore._normalize_rows(family.grid(space.factors[0].param))
    cs_max = max(max(_split_entropies(weight, grid[i:i + chunk]))
                 for i in range(0, len(grid), chunk))
    return ScanStats(
        system=system.label,
        n_samples=n_samples,
        seed=seed,
        min_entropy_non_cs=min_kept,
        cs_max_entropy=cs_max,
        n_excluded=n_samples - n_kept,
    )
