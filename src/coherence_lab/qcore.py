"""Finite-dimensional complex Hilbert-space kernel.

States, operators, tensor products, the split kernel, Schmidt analysis,
matrix exponentials, expectation values and the nearest-coherent fits'
polish, shared by the oscillator and spin front ends.

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

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    InvalidWeight,
    NonFinite,
    NotComposite,
    NumericalError,
    SpaceMismatch,
    ValidationError,
    ZeroVector,
)

log = logging.getLogger(__name__)

NORM_TOL = 1e-12
#: Largest |norm - 1| that ``StateVector`` takes for rounding: it keeps such
#: amplitudes as given. One division by its norm lands within 3 eps of 1 at
#: any dimension, so rebuilding a state never moves its amplitudes.
NORM_ROUNDING = 4 * np.finfo(float).eps
HERMITIAN_TOL = 1e-12
ISOMETRY_TOL = 1e-10
#: Schmidt entropy (in bits) below which a bipartite state counts as product.
PRODUCT_THRESHOLD_BITS = 1e-9
#: Nelder-Mead options of every nearest-coherent fit's polish
POLISH_OPTIONS = dict(xatol=1e-10, fatol=1e-15, maxiter=600)
#: Largest factor parameter (Fock cutoff or 2j) accepted. A dense operator or
#: a split grid on a bigger factor needs over 10^12 entries, so larger values
#: are refused before any array is allocated.
MAX_FACTOR_PARAM = 10 ** 6


def as_twice_j(j) -> int:
    """Validate a finite nonnegative half-integer spin and return 2j as an int."""
    if not math.isfinite(j):
        raise InvalidWeight(f"spin must be finite, got {j!r}")
    tj = int(round(2 * j))
    if tj < 0 or abs(2 * j - tj) > 1e-9:
        raise InvalidWeight(f"spin must be a nonnegative half-integer, got {j!r}")
    return tj


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a truncated Fock mode or a single spin.

    ``param`` is the Fock cutoff N (levels 0..N) for kind ``"fock"`` and
    the integer 2j for kind ``"spin"``; in both cases dim = param + 1.
    """

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in ("fock", "spin"):
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
    def cutoff(self) -> int:
        if self.kind != "fock":
            raise ValidationError("cutoff only defined for Fock factors")
        return self.param

    @property
    def twice_j(self) -> int:
        if self.kind != "spin":
            raise ValidationError("twice_j only defined for spin factors")
        return self.param

    @property
    def j(self) -> float:
        return self.twice_j / 2.0


def fock_factor(cutoff: int) -> Factor:
    return Factor("fock", int(cutoff))


def spin_factor(j) -> Factor:
    return Factor("spin", as_twice_j(j))


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
        return cls((fock_factor(cutoff),))

    @classmethod
    def single_spin(cls, j) -> "SpaceDescriptor":
        return cls((spin_factor(j),))

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


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Normalize each row of a 2-d complex stack in place by ``StateVector``'s
    exact rule, and return the stack.

    One finiteness check covers the stack (``NonFinite``), and one ``tolist``
    feeds a correctly rounded ``math.fsum`` of each row's squares: that keeps
    a norm within 2 ulps at any dimension, where a BLAS dot product drifts by
    over 2000 ulps on a uniform superposition of 90 601 entries. A row whose
    squares overflow (amplitudes above about 1e154) is first divided by its
    largest component, which keeps every square <= 1. A row within
    ``NORM_ROUNDING`` of unit norm is kept as given; any other is divided by
    its norm, and a null row raises ``ZeroVector``.
    """
    flat = rows.view(float)
    if not np.all(np.isfinite(flat)):
        raise NonFinite("state amplitudes must be finite")
    for i, squares in enumerate(np.square(flat).tolist()):
        sum_sq = _fsum(squares)
        if sum_sq == math.inf:
            rows[i] /= np.abs(flat[i]).max()
            sum_sq = _fsum(np.square(flat[i]).tolist())
        norm = math.sqrt(sum_sq)
        if norm < 1e-14:
            raise ZeroVector("cannot normalize a null vector")
        if abs(norm - 1.0) > NORM_TOL:
            log.debug("renormalizing state, norm deficit %.3e", abs(norm - 1.0))
        if abs(norm - 1.0) > NORM_ROUNDING:
            rows[i] /= norm
    return rows


class StateVector:
    """Normalized complex amplitude vector over a labeled basis.

    Construction normalizes the amplitudes by ``_normalize_rows`` (raising
    ``ZeroVector`` for a null input) and freezes them; instances are safe to
    share. When the norm is within ``NORM_ROUNDING`` (4 eps, about 8.9e-16)
    of 1 the amplitudes are kept as given; otherwise they are divided by it, which
    lands within that bound at any dimension. So construction is
    idempotent: ``StateVector(s.space, s.amps)`` has bit-identical
    amplitudes, and saved states round-trip exactly. Amplitudes too large
    to square (above about 1e154) are first divided by the largest one.
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
    def basis(cls, space: SpaceDescriptor, index: int) -> "StateVector":
        vec = np.zeros(space.dim, dtype=complex)
        vec[index] = 1.0
        return cls(space, vec)


@dataclass(frozen=True)
class LinearOperator:
    """Dense operator on a descriptor'd space; ``hermitian`` is a checked hint."""

    space: SpaceDescriptor
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValidationError(f"matrix shape {mat.shape} does not match dim {d}")
        if self.hermitian and np.abs(mat - mat.conj().T).max() >= HERMITIAN_TOL:
            raise ValidationError("operator flagged hermitian is not")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class SchmidtReport:
    """Schmidt spectrum of a bipartition.

    ``coefficients`` descend and come from a values-only SVD of ``matrix``,
    the state's amplitudes as a (left dim, right dim) matrix; ``entropy_bits``
    uses log2 with 0*log0 = 0. ``left_vectors``/``right_vectors`` hold the
    Schmidt vectors as columns / rows, so the state is
    sum_k c_k L[:,k] (x) R[k,:] to rounding. They take a second SVD with
    vectors, run on first read and cached, so a caller that reads only the
    spectrum never pays for them.
    """

    coefficients: np.ndarray
    entropy_bits: float
    is_product: bool
    matrix: np.ndarray = field(repr=False)

    @functools.cached_property
    def _vectors(self) -> tuple:
        left, _, right = np.linalg.svd(self.matrix, full_matrices=False)
        return left, right

    @property
    def left_vectors(self) -> np.ndarray:
        return self._vectors[0]

    @property
    def right_vectors(self) -> np.ndarray:
        return self._vectors[1]


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


def apply(op: LinearOperator, state: StateVector, normalize: bool = True):
    """Apply ``op`` to ``state``.

    Returns a ``StateVector`` when ``normalize`` is true (raising
    ``ZeroVector`` if the image vanishes), otherwise the raw, possibly
    unnormalized amplitude array.
    """
    if op.space != state.space:
        raise SpaceMismatch("operator and state live on different spaces")
    out = op.matrix @ state.amps
    if not normalize:
        return out
    if np.linalg.norm(out) < 1e-14:
        raise ZeroVector("operator annihilated the state")
    return StateVector(state.space, out)


def expectation(op: LinearOperator, state: StateVector) -> complex:
    """<state|op|state>, complex in general."""
    if op.space != state.space:
        raise SpaceMismatch("operator and state live on different spaces")
    return complex(np.vdot(state.amps, op.matrix @ state.amps))


def moments(op: LinearOperator, state: StateVector):
    """Mean and variance of ``op`` in ``state``.

    For a Hermitian operator returns ``(real mean, variance)`` with
    variance = <op^2> - <op>^2; for a non-Hermitian operator the variance
    is undefined and ``(complex mean, None)`` is returned.
    """
    mean = expectation(op, state)
    if not op.hermitian:
        return mean, None
    image = op.matrix @ state.amps
    second = float(np.vdot(image, image).real)  # <op^2> for hermitian op
    mean = float(mean.real)
    return mean, second - mean * mean


def mat_exp(op: LinearOperator) -> LinearOperator:
    """Matrix exponential via scaling-and-squaring (Pade)."""
    if not np.all(np.isfinite(op.matrix.view(float))):
        raise NonFinite("matrix exponential of a non-finite matrix")
    return LinearOperator(op.space, scipy.linalg.expm(op.matrix))


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
    amplitude matrix; the Schmidt vectors wait until the report's
    ``left_vectors`` or ``right_vectors`` is read.
    """
    nf = state.space.nfactors
    if nf < 2:
        raise NotComposite("Schmidt cut needs at least two factors")
    if not 1 <= cut <= nf - 1:
        raise NotComposite(f"cut index {cut} does not split {nf} factors")
    dims = state.space.factor_dims
    d_left = math.prod(dims[:cut])
    d_right = math.prod(dims[cut:])
    matrix = state.amps.reshape(d_left, d_right)
    coeffs = np.linalg.svd(matrix, compute_uv=False)
    ent = entropy_from_coefficients(coeffs)
    return SchmidtReport(
        coefficients=coeffs,
        entropy_bits=ent,
        is_product=ent < PRODUCT_THRESHOLD_BITS,
        matrix=matrix,
    )


def phase_align(reference: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Rotate ``amps`` by a global phase to match ``reference``.

    The phase is fixed at the largest-magnitude entry of ``reference``;
    if ``amps`` vanishes there, the overall overlap phase is used instead.
    """
    ref = np.asarray(reference)
    vec = np.asarray(amps)
    k = int(np.argmax(np.abs(ref)))
    if abs(vec[k]) > 1e-14:
        phase = np.angle(ref[k]) - np.angle(vec[k])
    else:
        ov = np.vdot(vec, ref)
        phase = 0.0 if abs(ov) < 1e-14 else np.angle(ov)
    return vec * np.exp(1j * phase)


def aligned_distance(u: StateVector, v: StateVector) -> float:
    """Norm distance between rays: ||u - e^{i phi} v|| after phase alignment."""
    if u.space != v.space:
        raise SpaceMismatch("aligned_distance requires equal spaces")
    return float(np.linalg.norm(u.amps - phase_align(u.amps, v.amps)))


def polish_fit(fid, best, minimize):
    """Polish a nearest-coherent fit's best candidate ``best`` (two
    coordinates) by a simplex search on ``-fid``; returns ``(point, fidelity)``.

    ``minimize`` is ``scipy.optimize.minimize`` as the front end binds it. A
    search that stalls (a simplex tiny in one coordinate can) is restarted
    once where it stopped, and a second failure raises ``NumericalError``.
    The result is kept only when it beats ``best`` by more than 1e-14, so a
    candidate exact to rounding (a true coherent state's) is never fuzzed.
    """
    def search(start):
        return minimize(lambda x: -fid(*x), list(start), method="Nelder-Mead",
                        options=POLISH_OPTIONS)

    best_fid = fid(*best)
    res = search(best)
    if not res.success:
        res = search(res.x)
    if not res.success:
        raise NumericalError(f"nearest-coherent fit did not converge: {res.message}")
    if -res.fun > best_fid + 1e-14:
        return (res.x[0], res.x[1]), -float(res.fun)
    return best, best_fid
