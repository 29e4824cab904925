"""Factorization analysis and uniqueness checks.

Three pieces: classify split states as product vs entangled from a
values-only Schmidt report, solve the splitting functional equation
f_A(mu x + nu y) = f_B(x) f_C(y) order by order as a formal power series
(the unique solutions are exponentials), and run seeded randomized scans
demonstrating that only coherent states split into products.

A scan takes one ``ScanSystem`` record: a split ``weight`` and a family
record (``spin.FAMILY`` or ``fock.FAMILY``) whose coherent grid it reads.
Every Haar sample counts towards ``min_entropy_non_cs``: a Haar state is
non-coherent with probability 1, and ``qcore.PRODUCT_THRESHOLD_BITS`` is
the one threshold for "product". The samples come from one generator per
scan, drawn in sample order. A scan walks the rows of the grid of coherent
amplitudes for ``cs_max_entropy`` (from the amplitude functions behind
``spin_cs`` and ``glauber_cs``) and then the samples in chunks, one stack
per chunk holding grid rows and samples: normalized as ``StateVector``
normalizes, split with one ``split_amplitudes`` call and reduced to Schmidt
coefficients by one values-only stacked SVD, with no Schmidt vector and no
per-row state. The norms are each row's correctly rounded sum of squares
(``math.fsum``'s bits), summed over the whole stack at once and certified
row by row, with ``math.fsum`` only for a row the certificate cannot
place. Its entropies are bit-identical to a ``schmidt_cut`` of each split
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fock, qcore, spin
from .errors import NotComposite, NumericalError, ValidationError
from .qcore import SpaceDescriptor, StateVector

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
    record whose grid it reads, and the split ``weight(*split)``,
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
    """Aggregated scan result; deterministic given (system, n_samples, seed).

    ``min_entropy_non_cs`` is the smallest split entropy over all samples,
    and ``cs_max_entropy`` the largest over the coherent grid."""

    system: str
    n_samples: int
    seed: int
    min_entropy_non_cs: float
    cs_max_entropy: float
    # nothing sets it, as every sample counts; perfbench reads it (ROADMAP item 1)
    n_excluded: int = 0

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "min_entropy_non_cs": self.min_entropy_non_cs,
            "cs_max_entropy": self.cs_max_entropy,
        }


#: most amplitudes one stacked split holds (1 MiB), which keeps a scan's
#: memory independent of its sample count
CHUNK_AMPS = 2 ** 16


def _haar_rows(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """The next ``count`` samples of the scan's stream ``gen``, unnormalized:
    each is ``2 * dim`` normals, its real parts then its imaginary parts, so
    sample i depends only on (seed, dim, i), not on how the draws are cut."""
    draws = gen.normal(size=(count, 2, dim))
    return draws[:, 0] + 1j * draws[:, 1]


def _split_entropies(weight: np.ndarray, amps: np.ndarray) -> list:
    """Schmidt entropy of each row of ``amps``, split, bit for bit as
    ``schmidt_cut`` of ``split_spin``/``split_fock`` of its ``StateVector``.

    ``qcore._normalize_rows`` normalizes each row as ``StateVector`` does,
    one ``split_amplitudes`` call splits the stack, ``_normalize_rows``
    normalizes each split row, and one stacked values-only SVD
    (``compute_uv=False``, the route of ``schmidt_cut``) gives the
    coefficients; no Schmidt vector is computed.
    """
    split = qcore.split_amplitudes(qcore._normalize_rows(amps), weight)
    rows = qcore._normalize_rows(split.reshape(len(amps), -1))
    coeffs = np.linalg.svd(rows.reshape(split.shape), compute_uv=False)
    return qcore.entropy_from_coefficients(coeffs).tolist()


def uniqueness_scan(system: ScanSystem, n_samples: int, seed: int) -> ScanStats:
    """Split seeded Haar-random states and record their entanglement.

    One path for every family: ``system.weight`` gives the split weight,
    built on every call, and ``system.family`` the coherent grid (``grid``).
    The rows to split are the grid's, then the ``n_samples`` samples, which
    one generator per scan, keyed by ``seed``, draws in sample order. They
    are walked in chunks of at most ``CHUNK_AMPS`` split amplitudes, and
    each chunk is one stack holding grid rows and samples, split by one
    ``_split_entropies`` call. Every sample counts: ``min_entropy_non_cs``
    is the smallest entropy of the split samples, and ``cs_max_entropy``
    the largest of the split grid. The result does not depend on the chunk
    size, and every entropy is bit-identical to a ``schmidt_cut`` of the
    split state. ``seed`` must be an integer in [0, 2**64) and
    ``n_samples`` an integer >= 1 (``bool`` is neither).
    """
    seed = qcore.as_seed(seed)
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise ValidationError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    n_samples = int(n_samples)
    weight = system.weight(*system.split)
    grid = system.family.grid(system.space.factors[0].param)
    gen = np.random.Generator(np.random.Philox(key=seed))
    n_rows, chunk = len(grid) + n_samples, max(1, CHUNK_AMPS // weight.size)
    cs_max, non_cs_min = -math.inf, math.inf
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        cs_rows = grid[start:stop]
        draws = _haar_rows(gen, stop - start - len(cs_rows), system.space.dim)
        found = _split_entropies(weight, np.concatenate([cs_rows, draws]))
        cs_max = max([cs_max] + found[:len(cs_rows)])
        non_cs_min = min([non_cs_min] + found[len(cs_rows):])
    return ScanStats(system=system.label, n_samples=n_samples, seed=seed,
                     min_entropy_non_cs=non_cs_min, cs_max_entropy=cs_max)
