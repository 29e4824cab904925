"""Finite-dimensional complex Hilbert-space kernel.

States, tensor products, the split kernel, Schmidt analysis and first
moments, shared by the oscillator and spin front ends. Both are generated
by a diagonal G0 and a raising band G+ with [G0, G+-] = +-G+- (Perelomov,
Commun. Math. Phys. 26, 222 (1972)), each kept as one band form
``(g0, g)``, never as a dense matrix, in its ``Family`` record
(``fock.FAMILY``, ``spin.FAMILY``) beside its stacked label and scan grid;
``_first_moments`` reads first moments from it, and a coherent state's
first moments are its label. The coherent states' log-domain closed forms
read ln n! and k ln y from here (``_log_factorials``, ``_xlogy``), computed
as ``scipy.special`` computes them, so no command but ``evolve`` loads scipy.

Basis conventions (fixed for bit-exact I/O):
  * Fock levels ascend by photon number n = 0..N.
  * Spin levels ascend by magnetic quantum number m = -j..j.
  * Composite indices are row-major with the leftmost factor slowest,
    i.e. exactly ``numpy.kron`` ordering.

Spin values are stored as the integer 2j so that half-integers stay exact.
All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidWeight,
    NonFinite,
    NotComposite,
    SpaceMismatch,
    ValidationError,
    ZeroVector,
)

#: Largest |norm - 1| that ``StateVector`` takes for rounding: it keeps such
#: amplitudes as given. One division by its norm lands within 3 eps of 1 at
#: any dimension, so rebuilding a state never moves its amplitudes.
NORM_ROUNDING = 4 * np.finfo(float).eps
ISOMETRY_TOL = 1e-10
#: Schmidt entropy (in bits) below which a bipartite state counts as product.
PRODUCT_THRESHOLD_BITS = 1e-9
#: Largest factor parameter (Fock cutoff or 2j) accepted. A split grid at this
#: limit still needs about 10^12 entries (16 TB); the CLI reports such a
#: failed allocation (``MemoryError``) as a numerical failure.
MAX_FACTOR_PARAM = 10 ** 6


def as_twice_j(j) -> int:
    """Validate a finite nonnegative half-integer spin and return 2j as an int."""
    if not math.isfinite(j):
        raise InvalidWeight(f"spin must be finite, got {j!r}")
    tj = int(round(2 * j))
    if tj < 0 or abs(2 * j - tj) > 1e-9:
        raise InvalidWeight(f"spin must be a nonnegative half-integer, got {j!r}")
    return tj


def as_seed(seed) -> int:
    """Validate a generator seed, an integer in [0, 2**64) (one unsigned
    64-bit key, the range the CLI's ``--seed`` takes; ``bool`` is refused),
    and return it as an int."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed!r}")
    return int(seed)


def as_count(count, name: str, least: int = 1) -> int:
    """Validate a count ``name`` (a sample or start count, a series order),
    an integer >= ``least`` (``bool`` is refused), and return it as an int."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {count!r}")
    if count < least:
        raise ValidationError(f"{name} must be >= {least}")
    return int(count)


#: each factor kind and the state-file key of its size: Fock cutoff N or 2j
FACTOR_KINDS = {"fock": "cutoff", "spin": "twice_j"}


@dataclass(frozen=True)
class Factor:
    """One tensor factor of a kind in ``FACTOR_KINDS``, of size ``param``
    (a Fock mode's levels 0..N or a spin's 2j) and dim = param + 1."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ValidationError(f"unknown factor kind {self.kind!r}")
        if not isinstance(self.param, int) or self.param < 0:
            raise ValidationError(f"factor parameter must be a nonnegative int, got {self.param!r}")
        if self.param > MAX_FACTOR_PARAM:
            raise ValidationError(
                f"factor parameter {self.param} exceeds the limit {MAX_FACTOR_PARAM}")

    @property
    def dim(self) -> int:
        return self.param + 1

    @property
    def j(self) -> float:
        if self.kind != "spin":
            raise ValidationError("j only defined for spin factors")
        return self.param / 2.0


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ordered tensor product of Fock and spin factors."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) == 0:
            raise ValidationError("a space needs at least one factor")
        for f in self.factors:
            if not isinstance(f, Factor):
                raise ValidationError(f"not a Factor: {f!r}")

    @classmethod
    def single_fock(cls, cutoff: int) -> "SpaceDescriptor":
        return cls((Factor("fock", int(cutoff)),))

    @classmethod
    def single_spin(cls, j) -> "SpaceDescriptor":
        return cls((Factor("spin", as_twice_j(j)),))

    @property
    def dim(self) -> int:
        return math.prod(f.dim for f in self.factors)

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def factor_dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)

    def tensor(self, other: "SpaceDescriptor") -> "SpaceDescriptor":
        return SpaceDescriptor(self.factors + other.factors)

    def subspace(self, start: int, stop: int) -> "SpaceDescriptor":
        return SpaceDescriptor(self.factors[start:stop])

    def is_single(self, kind: str) -> bool:
        return len(self.factors) == 1 and self.factors[0].kind == kind


def _fsum(squares: list) -> float:
    """Correctly rounded sum, or inf when it exceeds the float range."""
    try:
        return math.fsum(squares)
    except OverflowError:  # finite squares whose sum overflows
        return math.inf


#: fewest floats in a stack whose sums of squares ``_sum_squares`` computes
#: vectorized; below it one ``tolist`` and a ``math.fsum`` per row are faster
#: (one row of 512 floats: 16 us against 22 us; of 1024: 35 against 24;
#: 2 vCPUs, BLAS on one thread)
_VECTOR_SUM_MIN = 1024


def _sum_squares(flat: np.ndarray) -> list:
    """Correctly rounded sum of squares of each row of a 2-d float stack,
    bit for bit ``math.fsum`` of the rounded squares (inf where it overflows).

    A stack of ``_VECTOR_SUM_MIN`` floats or more is summed vectorized and
    each row's result is certified; a row the certificate cannot place (a
    near tie, an overflow, a zero or subnormal row) takes ``math.fsum``.
    """
    with np.errstate(over="ignore"):  # an overflowed square fails below
        squares = np.square(flat)
    if squares.size < _VECTOR_SUM_MIN:
        return [_fsum(row) for row in squares.tolist()]
    # Certificate (ExtractVector and AccSum: Rump, Ogita & Oishi, SIAM J.
    # Sci. Comput. 31, 189 (2008); Ogita, Rump & Oishi, ibid. 26, 1955
    # (2005)). A row of n squares s_i >= 0 has max M < 2^e; take
    # sigma = 2^(k + e) with 2^k >= n + 2 and u = 2^-53.
    # - q_i = (sigma + s_i) - sigma and r_i = s_i - q_i are exact: the error
    #   of a rounded sum is a float.
    # - Each q_i is a multiple of 2u sigma, and n q_i <= n (2^e + u sigma)
    #   < 2 sigma, so every partial sum of the q_i is such a multiple below
    #   2 sigma, a float: Q = sum q is exact in any order.
    # - |r_i| <= u sigma, so the float sum R of the r_i, in any order, is
    #   within gamma_(n-1) n u sigma <= 2 n^2 u^2 sigma < 2^(3k + e - 105)
    #   = bound of sum r (n u <= 1/2).
    # - With c = fl(Q + R) and d its exact error (TwoSum, Knuth), the exact
    #   sum is c + d + delta with |delta| <= bound.
    # - c is the rounding of every real in (c - below / 2, c + above / 2),
    #   where below and above are the gaps to c's float neighbours; at a
    #   power of two such as 1.0, above is twice below. The exact sum lies
    #   within bound of c + d, so d + bound < above / 2 and
    #   bound - d < below / 2 prove fsum(s) == c. Rounding is monotone and
    #   each half gap is a power of two, so the test in floats implies the
    #   test in reals.
    # - bound is kept >= 2^-1074. At a zero or subnormal sum both half gaps
    #   underflow to 0, and the test would need d < -bound < bound < d, so
    #   such a sum is never accepted; a non-finite sigma or sum makes the
    #   test false (nan compares false).
    n = squares.shape[1]
    k = (n + 1).bit_length()
    e = np.frexp(squares.max(axis=1))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, k + e)[:, None]
        # in place: a second temporary stack costs more than the arithmetic
        q = np.add(squares, sigma)
        q -= sigma
        big = q.sum(axis=1)
        small = np.subtract(squares, q, out=q).sum(axis=1)
        c = big + small
        small_part = c - big
        d = (big - (c - small_part)) + (small - small_part)
        bound = np.ldexp(1.0, np.maximum(3 * k + e - 105, -1074))
        certified = ((d + bound < 0.5 * np.spacing(c))
                     & (bound - d < 0.5 * (c - np.nextafter(c, 0.0))))
    sums = c.tolist()
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = _fsum(squares[i].tolist())
    return sums


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Normalize each row of a 2-d complex stack in place by ``StateVector``'s
    exact rule, and return the stack.

    One finiteness check covers the stack (``NonFinite``), and
    ``_sum_squares`` gives each row's correctly rounded sum of squares, the
    bits of ``math.fsum``: vectorized and certified on a stack of 1024 floats
    or more, ``math.fsum`` on smaller ones and on rows the certificate cannot
    place. That keeps a norm within 2 ulps at any dimension, where a BLAS dot
    product drifts by over 2000 ulps on a uniform superposition of 90 601
    entries. A row is a ray, loaded at any scale: one whose norm is not in
    [1e-14, inf) first has its float parts truly divided by the largest
    |part|, which becomes exactly +-1 (numpy would divide a complex row by
    that part's reciprocal, inf below about 1e-308). Only an all-zero row
    raises ``ZeroVector``. A row within ``NORM_ROUNDING`` of unit norm is
    kept as given, and all others are divided by their norms at once.
    """
    flat = rows.view(float)
    if not np.all(np.isfinite(flat)):
        raise NonFinite("state amplitudes must be finite")
    idx, norms = [], []
    for i, sum_sq in enumerate(_sum_squares(flat)):
        norm = math.sqrt(sum_sq)
        if not 1e-14 <= norm < math.inf:
            peak = np.abs(flat[i]).max()
            if peak == 0.0:
                raise ZeroVector("cannot normalize a null vector")
            flat[i] /= peak
            norm = math.sqrt(_sum_squares(flat[i:i + 1])[0])
        if abs(norm - 1.0) > NORM_ROUNDING:
            idx.append(i)
            norms.append(norm)
    # one stacked complex division by the float norms has each row's own bits
    # (dividing the float view would not); a whole stack needs no gather
    if len(idx) == len(rows):
        rows /= np.array(norms)[:, None]
    elif idx:
        rows[idx] /= np.array(norms)[:, None]
    return rows


class StateVector:
    """Normalized complex amplitude vector over a labeled basis.

    Construction normalizes the amplitudes by ``_normalize_rows`` (raising
    ``ZeroVector`` for an all-zero input) and freezes them; instances are
    safe to share. The norm is the square root of the correctly rounded sum of
    squares, ``math.fsum``'s bits: summed vectorized and certified from 1024
    floats (512 amplitudes) up, by ``math.fsum`` below that. When the norm
    is within ``NORM_ROUNDING`` (4 eps, about 8.9e-16) of 1 the amplitudes
    are kept as given; otherwise they are divided by it, which lands within
    that bound at any dimension. So construction is idempotent:
    ``StateVector(s.space, s.amps)`` has bit-identical amplitudes, and saved
    states round-trip exactly. Any nonzero finite ray loads at any scale:
    amplitudes whose norm is below 1e-14 or overflows are first divided by
    the largest part. A trajectory's samples are built at once, as the rows
    of one normalized stack (``_stack``).
    """

    __slots__ = ("space", "amps")

    def __init__(self, space: SpaceDescriptor, amps):
        vec = np.array(amps, dtype=complex).reshape(-1)
        if vec.shape != (space.dim,):
            raise ValidationError(
                f"amplitude length {vec.size} does not match space dim {space.dim}")
        _normalize_rows(vec[None, :])
        vec.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "amps", vec)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector(dim={self.space.dim}, factors={self.space.factor_dims})"

    @classmethod
    def _stack(cls, space: SpaceDescriptor, rows: np.ndarray) -> tuple:
        """The state of each row of a ``(samples, space.dim)`` complex stack,
        each bit for bit ``StateVector(space, row)``: one ``_normalize_rows``
        call normalizes the stack in place, which is then frozen, and each
        state reads its row of it."""
        if rows.ndim != 2 or rows.shape[1] != space.dim:
            raise ValidationError(
                f"amplitude rows of shape {rows.shape} do not match space dim {space.dim}")
        _normalize_rows(rows)
        rows.setflags(write=False)
        states = []
        for row in rows:
            state = object.__new__(cls)
            object.__setattr__(state, "space", space)
            object.__setattr__(state, "amps", row)
            states.append(state)
        return tuple(states)

    @classmethod
    def basis(cls, space: SpaceDescriptor, index: int) -> "StateVector":
        vec = np.zeros(space.dim, dtype=complex)
        vec[index] = 1.0
        return cls(space, vec)


@dataclass(frozen=True)
class Family:
    """A coherent-state family on one factor ``kind``, by size N or 2j:
    ``bands(size)``, its generators' band form ``(g0, g)``; ``labels(amps)``,
    the first-moment labels of a 2-d unit stack's rows as per-row sequences,
    with each row's overlap with the coherent state at its label last (the
    complex <ref|row> for ``fock.FAMILY``, its modulus |<ref|row>| for
    ``spin.FAMILY``); and ``grid(size)``, the scan's rows.

    Minimum uncertainty. The first moments ``_first_moments`` reads give a
    state psi a defect delta >= 0, zero exactly on the coherent states:
    delta = <N> - |<a>|^2 = ||(a - <a>) psi||^2 for a mode, and
    delta = j - |<J>| for a spin. It bounds two distances from above.

    - Infidelity at the label: 1 - |<ref|psi>|^2 <= delta, with ref the
      coherent state at psi's label, whose overlap ``labels`` returns.
      Mode: D(alpha)^+ (a - alpha) D(alpha) = a and N >= 1 - |0><0|, so
      delta >= 1 - |<alpha|psi>|^2 at alpha = <a>; the truncated a acts on
      psi as the full one does, and the renormalized truncated reference
      only raises the overlap. This holds wherever |alpha| <=
      ``fock.admissible_radius``; beyond it the reference is pulled onto
      the disk. Spin: with n along <J>, j - n.J has eigenvalues 0, 1, ..,
      2j and the coherent state at n as its kernel, so
      delta = <j - n.J> >= 1 - |<n|psi>|^2 (where |<J>| is rounding the
      label is fixed, and the bound holds to that rounding).
    - Entanglement of the split: 1 - sigma_1^2 <= min(|mu|^2, |nu|^2) delta
      for the beamsplitter and <= (min(j_B, j_C) / j_A) delta for the
      stretched coupling, sigma_1 the top Schmidt coefficient. The split
      intertwines the moments: <b> = mu <a> and <b^+ b> = |mu|^2 <N>, so
      delta_B = |mu|^2 delta, and <J_B> = (j_B / j_A) <J_A> on the
      stretched irrep, so delta_B = (j_B / j_A) delta. Then
      1 - sigma_1^2 <= 1 - <beta|rho_B|beta> <= delta_B by the first bound
      applied to the reduced state rho_B, and the same for C.

    Both are equalities on the first excited level, |1> or |j, -j + 1>,
    where delta = 1."""

    kind: str
    bands: Callable
    labels: Callable
    grid: Callable

    def size(self, state: StateVector) -> int:
        """N or 2j of a state on one factor of this kind, else ``SpaceMismatch``."""
        if not state.space.is_single(self.kind):
            raise SpaceMismatch(f"needs a state on a single {self.kind} factor")
        return state.space.factors[0].param

    def label(self, state: StateVector) -> tuple:
        """The label of one state: the one-row case of ``labels``."""
        self.size(state)
        return next(zip(*self.labels(state.amps[None, :])))


@dataclass(frozen=True)
class SchmidtReport:
    """Schmidt spectrum of a bipartition.

    ``coefficients`` descend and come from a values-only SVD of the state's
    amplitudes as a (left dim, right dim) matrix; ``entropy_bits`` uses log2
    with 0*log0 = 0, and ``is_product`` compares it with
    ``PRODUCT_THRESHOLD_BITS``. The report holds no Schmidt vector.
    """

    coefficients: np.ndarray
    entropy_bits: float
    is_product: bool


#: Cephes ``lgam``'s coefficients of the 1/x^2 tail of Stirling's series below
#: x = 1000 (by Horner's rule, highest power first) and ln sqrt(2 pi)
_STIRLING_TAIL = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_LN_SQRT_2PI = 0.91893853320467274178


def _log_factorial_span(start: int, stop: int) -> np.ndarray:
    """ln n! over start <= n < stop, built as Cephes ``lgam`` builds
    ln Gamma(x) at x = n + 1, so each entry is ``scipy.special.gammaln``'s
    bit for bit: below x = 13 the log of the exact factorial, from 13 up
    Stirling's (x - 1/2) ln x - x + ln sqrt(2 pi) plus its 1/x^2 tail (five
    terms below x = 1000, three above). Every log is libm's (``math.log``):
    numpy's own log may differ from it in the last bit."""
    head = [math.log(math.factorial(n)) for n in range(start, min(stop, 12))]
    x = np.arange(max(start, 12) + 1.0, stop + 1.0)
    p = 1.0 / (x * x)
    tail = np.full_like(x, _STIRLING_TAIL[0])
    for coefficient in _STIRLING_TAIL[1:]:
        tail = tail * p + coefficient
    far = x >= 1000.0
    tail[far] = ((7.9365079365079365079365e-4 * p[far] - 2.7777777777777777777778e-3)
                 * p[far] + 0.0833333333333333333333)
    ln_x = np.array([math.log(v) for v in x.tolist()])
    return np.concatenate((head, (x - 0.5) * ln_x - x + _LN_SQRT_2PI + tail / x))


#: ln n! over n = 0.. as far as any caller has read, read-only; no entry
#: depends on the row's length, so every size reads a prefix of this one
_LOG_FACTORIALS = np.zeros(0)
_LOG_FACTORIALS.setflags(write=False)


def _log_factorials(n_max: int) -> np.ndarray:
    """Read-only row ln n!, n = 0..n_max: a view of the one shared row,
    which grows by its missing tail (``_log_factorial_span``) when n_max
    passes its end."""
    global _LOG_FACTORIALS
    row = _LOG_FACTORIALS
    if n_max >= len(row):
        row = np.concatenate((row, _log_factorial_span(len(row), n_max + 1)))
        row.setflags(write=False)
        _LOG_FACTORIALS = row
    return row[:n_max + 1]


def _xlogy(k, y) -> np.ndarray:
    """k ln y, with 0 where k = 0 and y is not NaN, as ``scipy.special.xlogy``
    gives it for real y: one libm log (``math.log``) per element of y,
    broadcast against k."""
    y = np.asarray(y, dtype=float)
    # ln 0 = -inf and NaN below 0, where math.log raises
    ln_y = np.array([math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan
                     for v in y.ravel().tolist()]).reshape(y.shape)
    with np.errstate(invalid="ignore"):  # 0 times an infinite log
        return np.where((k == 0) & ~np.isnan(y), 0.0, k * ln_y)


def hankel_weight(log_b, log_c, log_a) -> np.ndarray:
    """``split_amplitudes`` weights ``w[k, l] = exp(log_b[k] + log_c[l] - log_a[k+l])``
    of the map sending amplitude a_n to b_k c_l on each pair k + l = n. Complex
    logs carry the phases, -inf in ``log_b`` or ``log_c`` a zero; ``log_a``
    needs ``len(log_b) + len(log_c) - 1`` finite entries."""
    w = np.add.outer(log_b, log_c)
    # row k of the window view is log_a[k + l] over l
    w -= np.lib.stride_tricks.sliding_window_view(log_a, len(log_c))[:len(log_b)]
    return np.exp(w, out=w)


def split_amplitudes(c, weight) -> np.ndarray:
    """Split amplitudes ``out[..., k, l] = c[..., k + l] * weight[k, l]``.

    ``c`` holds one input state (shape ``(d_in,)``) or a stack of them
    (shape ``(..., d_in)``); ``weight`` is the ``(d_B, d_C)`` grid of a map
    that sends input level n onto the output pairs with k + l = n, such as
    the beamsplitter and the stretched spin coupling. Entries of ``weight``
    with k + l >= d_in multiply nothing. The result has shape
    ``(..., d_B, d_C)``; its last two axes flattened give the
    ``numpy.kron`` index k * d_C + l. Cost is O(d_B * d_C) per state.

    Column n of the map lives only on k + l = n, so distinct columns are
    orthogonal by structure and the map is an isometry exactly when every
    column has unit norm. That check runs here, once per call, and raises
    ``ValidationError`` when some ``|sum_k |weight[k, n-k]|^2 - 1|`` reaches
    ``ISOMETRY_TOL``.
    """
    c = np.asarray(c)
    w = np.asarray(weight)
    d_in = c.shape[-1]
    d_b, d_c = w.shape
    if d_in > d_b + d_c - 1:
        raise ValidationError("weight grid too small for the input dimension")
    total = np.add.outer(np.arange(d_b), np.arange(d_c))
    col_norms = np.bincount(total.ravel(), weights=(w.real ** 2 + w.imag ** 2).ravel())
    if np.abs(col_norms[:d_in] - 1.0).max() >= ISOMETRY_TOL:
        raise ValidationError("map is not an isometry")
    padded = np.zeros(c.shape[:-1] + (d_b + d_c - 1,), dtype=complex)
    padded[..., :d_in] = c
    # take, not padded[..., total]: a C-contiguous stack, one split per row
    return np.take(padded, total, axis=-1) * w


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor_state(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product of two states on the concatenated factor list."""
    return StateVector(u.space.tensor(v.space), np.kron(u.amps, v.amps))


def overlap(u: StateVector, v: StateVector) -> complex:
    """<u|v> including phase."""
    if u.space != v.space:
        raise SpaceMismatch("overlap requires equal spaces")
    return complex(np.vdot(u.amps, v.amps))


def _first_moments(amps: np.ndarray, g0: np.ndarray, g: np.ndarray) -> tuple:
    """``(<G0>, <G->)`` of each unit row of ``amps`` (last axis) from a band
    form: ``g0`` = diag(G0), ``g`` the subdiagonal of G+ (<N>, <a> for a mode).
    A stack's rows, and for a mode the dense <a> of the test oracles, agree
    bit for bit."""
    # at full length, as the dense product: a shorter sum rounds differently
    lowered = np.zeros_like(amps)
    lowered[..., :-1] = g * amps[..., 1:]
    return np.vecdot(amps.real ** 2 + amps.imag ** 2, g0), np.vecdot(amps, lowered)


def entropy_from_coefficients(coefficients):
    """-sum c^2 log2 c^2 with the 0*log0 = 0 convention, over the last axis:
    a float for one spectrum, an array for a stack of them. A stack's rows
    sum as the same spectra one at a time do, bit for bit."""
    p = np.asarray(coefficients, dtype=float) ** 2
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    # adding 0.0 turns the -0.0 of a product state into 0.0
    ent = np.maximum(-(p * logs).sum(axis=-1), 0.0) + 0.0
    return float(ent) if ent.ndim == 0 else ent


def schmidt_cut(state: StateVector, cut: int) -> SchmidtReport:
    """Schmidt decomposition across factors [0, cut) | [cut, n).

    ``cut`` must split the factor list into two nonempty groups. The
    coefficients are ``np.linalg.svd(..., compute_uv=False)`` of the
    amplitude matrix; no Schmidt vector is computed.
    """
    nf = state.space.nfactors
    if nf < 2:
        raise NotComposite("Schmidt cut needs at least two factors")
    if not 1 <= cut <= nf - 1:
        raise NotComposite(f"cut index {cut} does not split {nf} factors")
    dims = state.space.factor_dims
    d_left = math.prod(dims[:cut])
    d_right = math.prod(dims[cut:])
    coeffs = np.linalg.svd(state.amps.reshape(d_left, d_right), compute_uv=False)
    ent = entropy_from_coefficients(coeffs)
    return SchmidtReport(
        coefficients=coeffs,
        entropy_bits=ent,
        is_product=ent < PRODUCT_THRESHOLD_BITS,
    )

