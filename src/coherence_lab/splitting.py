"""Factorization analysis and uniqueness checks.

Three pieces: classify split states as product vs entangled, solve the
splitting functional equation f_A(mu x + nu y) = f_B(x) f_C(y) order by
order as a formal power series (the unique solutions are exponentials),
and run seeded randomized scans demonstrating that only coherent states
split into products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fock, parallel, qcore, spin
from .errors import NotComposite, NumericalError, ValidationError
from .qcore import StateVector

#: phase-aligned distance below which a sample counts as a coherent state
CS_DISTANCE_GUARD = 1e-6
#: leading Schmidt coefficient above which product factors are extracted
FACTOR_COEFF_THRESHOLD = 1.0 - 1e-10


@dataclass(frozen=True)
class FactorizationReport:
    """Product-vs-entangled classification of a two-factor state.

    ``factor_b``/``factor_c`` and ``residual`` (the reconstruction error
    ||state - factor_b (x) factor_c||) are populated only when the leading
    Schmidt coefficient certifies a product.
    """

    entropy_bits: float
    is_product: bool
    factor_b: Optional[StateVector]
    factor_c: Optional[StateVector]
    residual: Optional[float]


def factorization_report(state: StateVector) -> FactorizationReport:
    """Schmidt analysis of a state on exactly two factors."""
    if state.space.nfactors != 2:
        raise NotComposite("factorization_report needs a two-factor state")
    report = qcore.schmidt_cut(state, 1)
    factor_b = factor_c = residual = None
    if report.coefficients[0] >= FACTOR_COEFF_THRESHOLD:
        space_b = state.space.subspace(0, 1)
        space_c = state.space.subspace(1, 2)
        factor_b = StateVector(space_b, report.left_vectors[:, 0])
        factor_c = StateVector(space_c, report.right_vectors[0, :])
        product = np.kron(factor_b.amps, factor_c.amps)
        residual = float(np.linalg.norm(state.amps - product))
    return FactorizationReport(
        entropy_bits=report.entropy_bits,
        is_product=report.is_product,
        factor_b=factor_b,
        factor_c=factor_c,
        residual=residual,
    )


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

    def perturbed(self, k: int, delta: complex) -> "SeriesPoly":
        arr = np.array(self.coeffs)
        arr[k] += delta
        return SeriesPoly(arr)

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

    def series(self, tau: complex, f0: complex = 1.0) -> SeriesPoly:
        return SeriesPoly.exponential(tau, f0, self.order)

    def subsystem_taus(self, tau: complex) -> tuple:
        return self.mu * tau, self.nu * tau

    def split_triple(self, tau: complex, f0_b: complex = 1.0,
                     f0_c: complex = 1.0):
        """Series (f_A, f_B, f_C) solving the equation for these parameters."""
        tau_b, tau_c = self.subsystem_taus(tau)
        return (SeriesPoly.exponential(tau, f0_b * f0_c, self.order),
                SeriesPoly.exponential(tau_b, f0_b, self.order),
                SeriesPoly.exponential(tau_c, f0_c, self.order))

    def first_failing_order(self, f_a: SeriesPoly, f_b: SeriesPoly,
                            f_c: SeriesPoly, tol: float = 1e-12) -> Optional[int]:
        res = functional_residuals(f_a, f_b, f_c, self.mu, self.nu)
        bad = np.nonzero(res > tol)[0]
        return int(bad[0]) if bad.size else None


def aflp_series_solve(order: int, mu: complex = 1.0, nu: complex = 1.0,
                      tau_sample: complex = 0.7 + 0.4j,
                      b0_sample: complex = 1.1 - 0.3j,
                      c0_sample: complex = 0.8 + 0.5j) -> AflpSolution:
    """Solve the splitting functional equation order by order.

    With generic sampled values for the free parameters, coefficients of
    order n >= 2 are fixed by the interior (k, n-k) equations; the solver
    checks that all redundant equations agree and that the result matches
    the exponential family, which establishes uniqueness to the requested
    order. ``mu = nu = 1`` is the commuting-raising-operator case; a
    beamsplitter supplies |mu|^2 + |nu|^2 = 1. A coefficient beyond the
    float range (huge mu or nu, or an order above 170) raises
    ``NumericalError``.
    """
    if order < 2:
        raise ValidationError("order must be >= 2")
    if mu == 0 or nu == 0:
        raise ValidationError("mu and nu must be nonzero")
    a = np.zeros(order + 1, dtype=complex)
    b = np.zeros(order + 1, dtype=complex)
    c = np.zeros(order + 1, dtype=complex)
    b[0], c[0] = b0_sample, c0_sample
    a[0] = b[0] * c[0]
    a[1] = tau_sample * a[0]
    b[1] = a[1] * mu / c[0]
    c[1] = a[1] * nu / b[0]
    consistency = 0.0
    try:
        for n in range(2, order + 1):
            candidates = [b[k] * c[n - k] / (math.comb(n, k) * mu ** k * nu ** (n - k))
                          for k in range(1, n)]
            a[n] = candidates[0]
            consistency = max(consistency,
                              max(abs(x - a[n]) for x in candidates))
            b[n] = a[n] * mu ** n / c[0]
            c[n] = a[n] * nu ** n / b[0]
        rule = SeriesPoly.exponential(tau_sample, a[0], order).coeffs
    except OverflowError as exc:
        raise NumericalError(f"series coefficients overflow: {exc}") from exc
    rule_residual = float(np.abs(a - rule).max())
    return AflpSolution(order=order, mu=complex(mu), nu=complex(nu),
                        consistency_residual=float(consistency),
                        exponential_rule_residual=rule_residual)


# ---------------------------------------------------------------------------
# randomized uniqueness scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinScanSystem:
    """Spin j_a split into the stretched pair (j_b, j_c)."""

    j_a: float
    j_b: float
    j_c: float

    def __post_init__(self):
        tja = qcore.as_twice_j(self.j_a)
        if qcore.as_twice_j(self.j_b) + qcore.as_twice_j(self.j_c) != tja:
            raise ValidationError("scan requires j_a = j_b + j_c")

    @property
    def label(self) -> str:
        return f"spin({self.j_a:g},{self.j_b:g},{self.j_c:g})"

    @property
    def dim(self) -> int:
        return qcore.as_twice_j(self.j_a) + 1


@dataclass(frozen=True)
class FockScanSystem:
    """Truncated Fock mode split by a beamsplitter (balanced by default)."""

    cutoff: int
    split: Optional[fock.SplitSpec] = None

    def __post_init__(self):
        if self.cutoff < 12:
            raise ValidationError("scan needs cutoff >= 12 to admit a coherent grid")
        if self.split is None:
            object.__setattr__(self, "split", fock.SplitSpec.balanced())

    @property
    def label(self) -> str:
        return f"fock({self.cutoff})"

    @property
    def dim(self) -> int:
        return self.cutoff + 1


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


def _split_entropy(system, state: StateVector) -> float:
    if isinstance(system, SpinScanSystem):
        out = spin.split_spin(state, system.j_b, system.j_c)
    else:
        out = fock.split_fock(state, system.split)
    return qcore.schmidt_cut(out, 1).entropy_bits


def _cs_distance(system, state: StateVector) -> float:
    """Phase-aligned distance to the fitted nearest coherent state.

    A cheap screen (grid fidelity / <a> seed) rules most samples out; the
    simplex polish only runs when a sample could plausibly sit inside the
    guard band.
    """
    if isinstance(system, SpinScanSystem):
        tj = qcore.as_twice_j(system.j_a)
        best = 0.0
        for th in np.linspace(0.0, math.pi, 9):
            for ph in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                best = max(best, abs(np.vdot(spin._angles_amps(tj, th, ph),
                                             state.amps)))
        # coherent peaks narrow like cos^(2j); polish generously so a sample
        # inside the guard band can never hide between grid points
        if best < 0.85 ** (tj / 2.0):
            return math.sqrt(max(0.0, 2.0 - 2.0 * best))
        _, _, _, fid = spin.nearest_cs_fit(state)
    else:
        _, fid = fock.nearest_coherent_fit(state)
    return math.sqrt(max(0.0, 2.0 - 2.0 * fid))


def _cs_grid_states(system):
    if isinstance(system, SpinScanSystem):
        for th in np.linspace(0.0, math.pi, 9):
            for ph in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                yield spin.spin_cs(spin.SpinCsParams.from_angles(system.j_a, th, ph))
    else:
        radius = min(1.5, fock.admissible_radius(system.cutoff))
        yield fock.glauber_cs(0.0, system.cutoff)
        for r in np.linspace(radius / 4.0, radius, 4):
            for ph in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                yield fock.glauber_cs(r * np.exp(1j * ph), system.cutoff)


def uniqueness_scan(system, n_samples: int, seed: int) -> ScanStats:
    """Split seeded Haar-random states and record their entanglement.

    Samples whose distance to the fitted nearest coherent state falls
    inside the guard band are excluded from the non-coherent pool. A
    deterministic coherent-state parameter grid is scanned separately for
    ``cs_max_entropy``. Each sample draws from its own counter-based stream,
    so the result does not depend on the order samples are processed in.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    space = (spin.spin_space(system.j_a) if isinstance(system, SpinScanSystem)
             else fock.fock_space(system.cutoff))

    # COHERENCE_LAB_THREADS is validated, but samples run serially: the work
    # holds the interpreter lock, so worker threads would only add overhead
    parallel.thread_budget()
    kept = []
    for i in range(n_samples):
        state = StateVector(space, _haar_amps(seed, i, system.dim))
        ent = _split_entropy(system, state)
        if _cs_distance(system, state) > CS_DISTANCE_GUARD:
            kept.append(ent)
    cs_max = max(_split_entropy(system, cs) for cs in _cs_grid_states(system))
    return ScanStats(
        system=system.label,
        n_samples=n_samples,
        seed=seed,
        min_entropy_non_cs=min(kept) if kept else None,
        cs_max_entropy=cs_max,
        n_excluded=n_samples - len(kept),
    )
