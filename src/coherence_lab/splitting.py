"""Factorization analysis and uniqueness checks.

Three pieces: classify split states as product vs entangled, solve the
splitting functional equation f_A(mu x + nu y) = f_B(x) f_C(y) order by
order as a formal power series (the unique solutions are exponentials),
and run seeded randomized scans demonstrating that only coherent states
split into products.

A scan excludes a sample from the non-coherent pool when it lies within
``CS_DISTANCE_GUARD`` of a coherent state. A closed-form grid of coherent
states screens each chunk of samples with one matrix product, and a proven
bound on the best coherent fidelity keeps most samples without a
nearest-coherent fit. A sample the grid cannot place outside the guard band
is screened again on finer cells around the grid points that may hold its
best coherent state; only a sample this refined bound cannot place either is
fitted. Each chunk of samples, and the coherent grid for ``cs_max_entropy``,
is one stacked array: normalized as ``StateVector`` normalizes, split with
one ``split_amplitudes`` call and reduced to Schmidt coefficients by one
values-only stacked SVD, with no Schmidt vector and no per-row state. Its
entropies are bit-identical to a ``schmidt_cut`` of each split sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    samples its grid screen cannot place outside the guard band.
    """
    if isinstance(system, SpinScanSystem):
        _, _, _, fid = spin.nearest_cs_fit(state)
    else:
        _, fid = fock.nearest_coherent_fit(state)
    return math.sqrt(max(0.0, 2.0 - 2.0 * fid))


# The screen bounds F* = max_n |<n|psi>| over the coherent family from a grid
# of unit coherent states g whose covering distance is c: every coherent
# state lies within c of some grid point (an angle for spin, |alpha - beta|
# for Fock). With best = max_g |<g|psi>|:
#
# - Lipschitz on rays (spin and Fock): |F(n) - F(n')| is at most the
#   phase-aligned distance sqrt(2 - 2 |<n|n'>|), and the overlap is
#   cos^(2j)(c/2) for spin (Arecchi, Courtens, Gilmore & Thomas, Phys. Rev. A
#   6, 2211 (1972)) and exp(-c^2/2) for Glauber states, so
#   F* <= best + sqrt(2 - 2 ov(c)).
# - Curvature (spin only): rotate the maximizer n* towards its nearest grid
#   point by angle t <= c. G(t) = |<n(t)|psi>|^2 is a trigonometric polynomial
#   of degree 2j in t (the rotation's matrix elements carry frequencies
#   m - m'), with 0 <= G <= 1, so Bernstein's inequality applied to G - 1/2
#   gives |G''| <= (2j)^2 / 2. G'(0) = 0 at the maximum, hence
#   best^2 >= G(t) >= F*^2 - j^2 t^2, that is F*^2 <= best^2 + j^2 c^2.
#
# The smaller bound holds. A sample whose bound plus SCREEN_MARGIN stays below
# 1 - guard^2/2 has every fitted distance above the guard band, so it is kept
# without a fit. The grid rows are the fit's log-domain closed forms
# (fock._coherent_logs, and for spin the polar factor of spin._cs_logs times
# its azimuthal phases). The margin covers their rounding, the
# overlaps (about dim * eps), the fit's own rounding (a computed overlap of
# unit vectors exceeds its exact value by at most about (2 dim + 10) eps) and
# the Fock truncation, which moves an overlap of admissible states by about
# the 1e-12 tail mass.
#
# Refinement. Both bounds hold cell by cell. Give each grid point g a cell,
# a rectangle in the family's coordinates ((theta, phi) for spin, (Re alpha,
# Im alpha) for Fock) whose points all lie within c of g; the cells cover the
# family. The maximizer n* lies in some cell, so F* is at most the largest
# cell bound b(F(g), c), and the same holds for any cover by rectangles with
# their own points and covering distances. With thr = 1 - guard^2/2 -
# SCREEN_MARGIN, only a cell whose bound reaches thr can hold an n* that
# fails the screen: for spin that needs both F(g)^2 >= thr^2 - j^2 c^2 and
# F(g) >= thr - sqrt(2 - 2 ov(c)), for Fock the latter. Such an open cell is
# split into REFINE_SPLIT^2 sub-rectangles, each with its centre as grid
# point and the covering distance c / REFINE_SPLIT: from any point of a
# (dtheta, dphi) rectangle, a meridian arc of at most dtheta/2 and a
# latitude arc of at most sin(theta) dphi/2 reach the centre, and for Fock a
# centre outside the admissible disk moves to its edge, which brings it no
# further from any point of the disk. The largest bound over the refined
# cover, split REFINE_LEVELS times over, is again a ceiling on F*. Its rows
# come from the same closed forms, so the same margin covers its rounding,
# and only samples it cannot place below thr are fitted.

#: polar angles (poles included) x azimuths of the spin screen grid
SPIN_SCREEN_GRID = (33, 64)
#: cells per side of the Fock screen grid, and its smallest step
FOCK_SCREEN_CELLS = 32
FOCK_SCREEN_MIN_STEP = 0.2
#: allowance for rounding between the screen's bound and a fitted fidelity
SCREEN_MARGIN = 1e-9
#: sub-cells per side of a refined screen cell, and the levels of refinement
REFINE_SPLIT = 4
REFINE_LEVELS = 2
#: most amplitudes one stacked split or screen product holds (1 MiB), which
#: keeps a scan's memory independent of its sample count
CHUNK_AMPS = 2 ** 16
#: best coherent fidelity below which every fitted distance is above the guard
_FIDELITY_CEILING = 1.0 - CS_DISTANCE_GUARD ** 2 / 2.0


@dataclass(frozen=True)
class _Screen:
    """A cover of the coherent family by cells. Cell i is the rectangle
    ``lo[i]`` to ``lo[i] + size[i]`` in the family's coordinates, and every
    point of it lies within ``cover`` of the grid point whose unit bra <g| is
    row i of ``bras``. ``bras_at`` gives the unit bras at an (n, 2) array of
    points, and ``terms`` the two bound terms at a covering distance c:
    sqrt(2 - 2 ov(c)) and j^2 c^2 (inf where that bound does not apply)."""

    bras: np.ndarray
    lo: np.ndarray
    size: np.ndarray
    cover: float
    bras_at: Callable
    terms: Callable

    def _cell_bound(self, fids: np.ndarray, cover: float) -> np.ndarray:
        lipschitz, curvature = self.terms(cover)
        return np.minimum(fids + lipschitz, np.sqrt(fids * fids + curvature))

    def bound(self, amps: np.ndarray) -> np.ndarray:
        """Per row of ``amps``: a proven ceiling on F* from the grid alone,
        up to rounding."""
        return self._cell_bound(np.abs(amps @ self.bras.T).max(axis=1), self.cover)

    def refined_bound(self, amps: np.ndarray) -> np.ndarray:
        """Per row of ``amps``: the ceiling on F* over the refined cover."""
        return np.array([self._refine(row, fids)
                         for row, fids in zip(amps, np.abs(amps @ self.bras.T))])

    def certified(self, amps: np.ndarray) -> np.ndarray:
        """Per row of ``amps``: is every fitted distance above the guard band?
        Rows the grid cannot certify are tried on the refined cover."""
        fids = np.abs(amps @ self.bras.T)
        sure = (self._cell_bound(fids.max(axis=1), self.cover) + SCREEN_MARGIN
                < _FIDELITY_CEILING)
        for i in np.flatnonzero(~sure):
            sure[i] = self._refine(amps[i], fids[i]) + SCREEN_MARGIN < _FIDELITY_CEILING
        return sure

    def _refine(self, row: np.ndarray, fids: np.ndarray) -> float:
        """Largest cell bound for one state ``row``, whose grid overlaps are
        ``fids``, after splitting the open cells ``REFINE_LEVELS`` times. A
        level whose sub-cells would hold more than ``CHUNK_AMPS`` amplitudes
        is not taken, and the bound stays that of the coarser cover."""
        lo, size, cover = self.lo, self.size, self.cover
        bounds = self._cell_bound(fids, cover)
        settled = 0.0
        for _ in range(REFINE_LEVELS):
            is_open = bounds + SCREEN_MARGIN >= _FIDELITY_CEILING
            n_sub = np.count_nonzero(is_open) * REFINE_SPLIT ** 2
            if n_sub == 0 or n_sub * row.size > CHUNK_AMPS:
                break
            settled = max(settled, bounds[~is_open].max(initial=0.0))
            lo, size = _split_cells(lo[is_open], size[is_open])
            cover /= REFINE_SPLIT
            bounds = self._cell_bound(np.abs(self.bras_at(lo + size / 2.0) @ row), cover)
        return max(settled, bounds.max())


def _split_cells(lo: np.ndarray, size: np.ndarray) -> tuple:
    """Corners and sizes of the ``REFINE_SPLIT^2`` sub-rectangles of each cell."""
    steps = np.arange(REFINE_SPLIT) / REFINE_SPLIT
    offsets = np.stack(np.meshgrid(steps, steps, indexing="ij"), axis=-1).reshape(-1, 2)
    corners = lo[:, None, :] + offsets * size[:, None, :]
    return corners.reshape(-1, 2), np.repeat(size / REFINE_SPLIT, len(offsets), axis=0)


def _unit_rows(bras: np.ndarray) -> np.ndarray:
    bras /= np.linalg.norm(bras, axis=1, keepdims=True)
    return bras


def _spin_bras(tj: int, theta, phi) -> np.ndarray:
    """Unit bras <theta, phi| on the broadcast shape of ``theta`` and ``phi``
    (each with a trailing axis of length 1): the unit polar factor of
    ``spin._cs_logs`` at ``theta`` times the azimuthal phases at ``phi``, so
    a product grid exponentiates each factor once."""
    rows = spin._cs_rows(tj)
    polar = np.exp(spin._cs_logs(rows, theta, math.pi).real)
    polar /= np.linalg.norm(polar, axis=-1, keepdims=True)
    return polar * np.exp(-1j * rows[1] * (math.pi - phi))


def _spin_terms(tj: int, cover: float) -> tuple:
    overlap = math.cos(cover / 2.0) ** tj
    return math.sqrt(2.0 - 2.0 * overlap), (tj / 2.0 * cover) ** 2


def _spin_screen(tj: int) -> _Screen:
    n_theta, n_phi = SPIN_SCREEN_GRID
    d_theta, d_phi = math.pi / (n_theta - 1), 2.0 * math.pi / n_phi
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    # a point lies within dtheta/2 of a grid latitude and, along it, within
    # dphi/2 of a grid meridian; the pole rows' cells stop at the pole
    bottom = np.maximum(theta - d_theta / 2.0, 0.0)
    top = np.minimum(theta + d_theta / 2.0, math.pi)
    lo = np.stack([np.repeat(bottom, n_phi), np.tile(phi - d_phi / 2.0, n_theta)], axis=1)
    size = np.stack([np.repeat(top - bottom, n_phi),
                     np.full(n_theta * n_phi, d_phi)], axis=1)
    bras = _spin_bras(tj, theta[:, None, None], phi[:, None]).reshape(-1, tj + 1)
    return _Screen(bras, lo, size, (d_theta + d_phi) / 2.0,
                   lambda at: _spin_bras(tj, at[:, :1], at[:, 1:]),
                   functools.partial(_spin_terms, tj))


def _fock_bras(cutoff: int, radius: float, points: np.ndarray) -> np.ndarray:
    # conjugated amplitudes, built in place from the logs; a point outside the
    # admissible disk (the one nearest_coherent_fit clips to) goes to its
    # edge, which moves it no further from any point of the disk
    alpha = points[:, 0] + 1j * points[:, 1]
    mod = np.minimum(np.abs(alpha), radius)
    bras = fock._coherent_logs(mod * np.exp(1j * np.angle(alpha)), cutoff)
    bras -= (mod ** 2 / 2.0)[:, None]
    np.conj(bras, out=bras)
    np.exp(bras, out=bras)
    return _unit_rows(bras)


def _fock_terms(cover: float) -> tuple:
    return math.sqrt(2.0 - 2.0 * math.exp(-cover * cover / 2.0)), math.inf


def _fock_screen(cutoff: int) -> _Screen:
    # cell centres of the square of side 2R around the admissible disk lie
    # within step/sqrt(2) of every point of their cell
    radius = fock.admissible_radius(cutoff)
    cells = max(1, min(FOCK_SCREEN_CELLS,
                       math.ceil(2.0 * radius / FOCK_SCREEN_MIN_STEP)))
    step = 2.0 * radius / cells
    axis = -radius + (np.arange(cells) + 0.5) * step
    centres = np.stack([np.repeat(axis, cells), np.tile(axis, cells)], axis=1)
    bras_at = functools.partial(_fock_bras, cutoff, radius)
    return _Screen(bras_at(centres), centres - step / 2.0, np.full_like(centres, step),
                   step / math.sqrt(2.0), bras_at, _fock_terms)


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
    rows = qcore._normalize_rows(split.reshape(len(amps), -1).copy())
    coeffs = np.linalg.svd(rows.reshape(split.shape), compute_uv=False)
    return qcore.entropy_from_coefficients(coeffs).tolist()


def uniqueness_scan(system, n_samples: int, seed: int) -> ScanStats:
    """Split seeded Haar-random states and record their entanglement.

    Samples whose distance to the fitted nearest coherent state falls
    inside the guard band are excluded from the non-coherent pool. A
    closed-form grid of coherent states, built once per scan, screens the
    samples first: it proves most of them lie outside the band, the refined
    cover proves most of the rest (see the bounds above ``_Screen``), and a
    sample is fitted, as a ``StateVector``, only when both fail. Samples go
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
        screen = _spin_screen(qcore.as_twice_j(system.j_a))
    else:
        space = fock.fock_space(system.cutoff)
        weight = fock.beamsplit_weight(system.split, system.cutoff)
        screen = _fock_screen(system.cutoff)
    chunk = max(1, CHUNK_AMPS // max(weight.size, screen.bras.shape[0]))

    min_kept, n_kept = None, 0
    for start in range(0, n_samples, chunk):
        amps = qcore._normalize_rows(np.stack([
            _haar_amps(seed, i, system.dim)
            for i in range(start, min(start + chunk, n_samples))]))
        entropies = _split_entropies(weight, amps)
        certified = screen.certified(amps)
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
