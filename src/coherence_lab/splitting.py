"""Factorization analysis and uniqueness checks.

Three pieces: classify split states as product vs entangled, solve the
splitting functional equation f_A(mu x + nu y) = f_B(x) f_C(y) order by
order as a formal power series (the unique solutions are exponentials),
and run seeded randomized scans demonstrating that only coherent states
split into products.

A scan excludes a sample from the non-coherent pool when it lies within
``CS_DISTANCE_GUARD`` of a coherent state. A closed-form bound on the best
coherent fidelity, read from each sample's first moments (the mean spin, or
<N> and <a> of the mode), keeps most samples without a nearest-coherent fit;
only a sample the bound cannot place outside the guard band is fitted. Each
chunk of samples, and the coherent grid for ``cs_max_entropy``, is one
stacked array: normalized as ``StateVector`` normalizes, split with one
``split_amplitudes`` call and reduced to Schmidt coefficients by one
values-only stacked SVD, with no Schmidt vector and no per-row state. Its
entropies are bit-identical to a ``schmidt_cut`` of each split sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fock, qcore, spin
from .errors import NotComposite, NumericalError, ValidationError
from .qcore import StateVector

#: phase-aligned distance below which a sample counts as a coherent state
CS_DISTANCE_GUARD = 1e-6
#: leading Schmidt coefficient above which product factors are extracted
FACTOR_COEFF_THRESHOLD = 1.0 - 1e-10
#: generic values of the series solve's free parameters tau, f_B(0), f_C(0)
SERIES_TAU, SERIES_B0, SERIES_C0 = 0.7 + 0.4j, 1.1 - 0.3j, 0.8 + 0.5j


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


def _cs_distance(system, state: StateVector) -> float:
    """Phase-aligned distance to the fitted nearest coherent state.

    Always runs the fit (``spin.nearest_cs_fit`` or
    ``fock.nearest_coherent_fit``); ``uniqueness_scan`` calls it only for
    samples whose moment bound cannot place them outside the guard band.
    """
    if isinstance(system, SpinScanSystem):
        _, _, _, fid = spin.nearest_cs_fit(state)
    else:
        _, fid = fock.nearest_coherent_fit(state)
    return math.sqrt(max(0.0, 2.0 - 2.0 * fid))


# The bounds below cap F* = max_g |<g|psi>| over the coherent family the fit
# searches, from the first moments of a unit sample psi alone.
#
# - Spin: a coherent state g is the top eigenvector of m.J for some unit m,
#   with eigenvalue j, and every other eigenvalue is at most j - 1 (Arecchi,
#   Courtens, Gilmore & Thomas, Phys. Rev. A 6, 2211 (1972); Perelomov,
#   Commun. Math. Phys. 26, 222 (1972)). So |g><g| <= (m.J + j) / (2j), and
#   F*^2 <= (1 + |<J>| / j) / 2.
# - Fock: the fit searches the unit truncated |alpha> with |alpha| <= R =
#   ``admissible_radius``. Let X = (a - alpha)^+ (a - alpha) on the truncated
#   mode and V = <N> - |<a>|^2. Then <X> = V + |<a> - alpha|^2 >= V, and
#   X <= (sqrt(N) + R)^2 = L, since ||a|| = sqrt(N). The truncated a lowers
#   every level of |alpha> but the top one exactly, so X|alpha> = |alpha|^2
#   g_N e_N, with g_N the top amplitude of |alpha>; |g_N| grows with |alpha|,
#   so take g = |g_N| at |alpha| = R and e = R^2 g. Writing psi = F|alpha> +
#   s chi with chi orthogonal to |alpha> and s^2 = 1 - F^2 gives
#   V <= <X> <= e g + 2 s e + s^2 L, a floor on s and so a ceiling on F*.
#
# A sample whose bound plus SCREEN_MARGIN stays below 1 - guard^2/2 has every
# fitted distance above the guard band, so it is kept without a fit. The
# margin covers the rounding of the moments (each a sum of dim terms of size
# at most j or N, divided by j or by L >= N, so the bound moves by about
# dim * eps) and the fit's own rounding (a computed overlap of unit vectors
# exceeds its exact value by at most about (2 dim + 10) eps).

#: allowance for rounding between a moment bound and a fitted fidelity
SCREEN_MARGIN = 1e-9
#: most amplitudes one stacked split holds (1 MiB), which keeps a scan's
#: memory independent of its sample count
CHUNK_AMPS = 2 ** 16
#: best coherent fidelity below which every fitted distance is above the guard
_FIDELITY_CEILING = 1.0 - CS_DISTANCE_GUARD ** 2 / 2.0


def _spin_bound(amps: np.ndarray) -> np.ndarray:
    """Per unit spin row of ``amps``: a ceiling on its best coherent fidelity."""
    mean_j0, mean_jp = spin._mean_spin(amps)
    j = (amps.shape[-1] - 1) / 2.0
    return np.sqrt((1.0 + np.hypot(mean_j0, np.abs(mean_jp)) / j) / 2.0)


def _fock_bound(amps: np.ndarray) -> np.ndarray:
    """Per unit Fock row of ``amps``: a ceiling on its best fidelity with an
    admissible truncated coherent state."""
    cutoff = amps.shape[-1] - 1
    radius = fock.admissible_radius(cutoff)
    edge = np.exp(fock._coherent_logs(radius, cutoff).real - radius * radius / 2.0)
    g = edge[-1] / np.linalg.norm(edge)
    e, x_norm = radius * radius * g, (math.sqrt(cutoff) + radius) ** 2
    n = np.arange(cutoff + 1.0)
    mean_a = np.vecdot(amps[..., :-1], np.sqrt(n[1:]) * amps[..., 1:])
    excess = np.maximum(np.vecdot(amps.real ** 2 + amps.imag ** 2, n)
                        - np.abs(mean_a) ** 2 - e * g, 0.0)
    # the positive root of x_norm s^2 + 2 e s - excess
    s = (np.sqrt(e * e + x_norm * excess) - e) / x_norm
    return np.sqrt(1.0 - s * s)


def _cs_grid_states(system) -> np.ndarray:
    """Stacked unit amplitudes of the coherent states for ``cs_max_entropy``,
    bit for bit those of ``spin_cs``/``glauber_cs`` at the same labels."""
    if isinstance(system, SpinScanSystem):
        tj = qcore.as_twice_j(system.j_a)
        # a pole's azimuth only sets a global phase, so each pole once; the
        # antipodal one is the exact highest-weight state, as spin_cs gives it
        theta = np.append(0.0, np.repeat(np.linspace(0.0, math.pi, 9)[1:-1], 8))
        phi = np.append(0.0, np.tile(np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False), 7))
        amps = np.exp(spin._cs_logs(spin._cs_rows(tj), theta[:, None], phi[:, None]))
        # row by row, as spin_cs divides each state by np.linalg.norm
        amps /= np.array([np.linalg.norm(row) for row in amps])[:, None]
        amps = np.vstack([amps, np.eye(1, tj + 1, tj)])
    else:
        radius = min(1.5, fock.admissible_radius(system.cutoff))
        ring = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))
        alpha = np.append(0.0, np.linspace(radius / 4.0, radius, 4)[:, None] * ring)
        amps = np.exp(fock._coherent_logs(alpha, system.cutoff)
                      - (np.abs(alpha) ** 2 / 2.0)[:, None])
    return qcore._normalize_rows(amps)


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


def uniqueness_scan(system, n_samples: int, seed: int) -> ScanStats:
    """Split seeded Haar-random states and record their entanglement.

    Samples whose distance to the fitted nearest coherent state falls
    inside the guard band are excluded from the non-coherent pool. A bound
    from each sample's first moments (``_spin_bound``, ``_fock_bound``; see
    the proofs above them) proves most samples lie outside the band, and a
    sample is fitted, as a ``StateVector``, only when it cannot. Samples go
    in chunks of at most ``CHUNK_AMPS`` amplitudes, each normalized by
    ``qcore._normalize_rows``, split with one ``split_amplitudes`` call and
    cut by one values-only stacked SVD. A deterministic coherent-state
    parameter grid is split the same way for ``cs_max_entropy``. Each sample
    draws from its own counter-based stream, so the result does not depend
    on the order samples are processed in, and every entropy is
    bit-identical to a ``schmidt_cut`` of the split sample.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    if isinstance(system, SpinScanSystem):
        space = spin.spin_space(system.j_a)
        weight = spin.coupling_weight(system.j_b, system.j_c)
        bound = _spin_bound
    else:
        space = fock.fock_space(system.cutoff)
        weight = fock.beamsplit_weight(system.split, system.cutoff)
        bound = _fock_bound
    chunk = max(1, CHUNK_AMPS // weight.size)

    min_kept, n_kept = None, 0
    for start in range(0, n_samples, chunk):
        amps = qcore._normalize_rows(np.stack([
            _haar_amps(seed, i, system.dim)
            for i in range(start, min(start + chunk, n_samples))]))
        entropies = _split_entropies(weight, amps)
        certified = bound(amps) + SCREEN_MARGIN < _FIDELITY_CEILING
        for row, ent, sure in zip(amps, entropies, certified):
            if sure or _cs_distance(system, StateVector(space, row)) > CS_DISTANCE_GUARD:
                min_kept = ent if min_kept is None else min(min_kept, ent)
                n_kept += 1
    grid = _cs_grid_states(system)
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
