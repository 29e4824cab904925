"""CHSH quantity: evaluation, the analytic two-qubit maximum, and a
seeded see-saw maximizer for any pair of subsystem dimensions.

The four-correlator combination E(b,c) + E(b',c) + E(b,c') - E(b',c') is
bounded by 2 on product states and by 2*sqrt(2) on all states. For a pair
of two-level factors the exact maximum over dichotomic observables is
2*sqrt(t1^2 + t2^2) with t1 >= t2 the top singular values of the 3x3
correlation matrix T_kl = <sigma_k (x) sigma_l> — the oracle the numerical
route is tested against on qubits. On larger factors the Gisin-Peres
pairing of Schmidt levels gives a lower bound it is tested against.

The numerical route is a see-saw: with one side's pair of observables
fixed, the other side's best pair is exact (the sign of a Hermitian
matrix, one eigendecomposition each), so alternating the two sides never
lowers the value. Its seeded starts advance together in stacks of bounded
size, each start leaving its stack at its own stopping sweep, with the
same results as running them one after another; a sweep costs a fixed
handful of array calls however many starts its stack holds. It has no
dimension cap; each result says whether the search converged.

Pauli convention: sigma_k = 2 J_k for the spin-1/2 generators, components
ordered (x, y, z), basis m ascending, so sigma_z = diag(-1, +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qcore
from .errors import (
    NotTwoQubit,
    NotUnit,
    SpaceMismatch,
    StrategyUnavailable,
    ValidationError,
)
from .qcore import SpaceDescriptor, StateVector

# perfbench/spans.py's MINIMIZE_USERS loop looks this up; ROADMAP item 1 deletes both
minimize = None


TSIRELSON = 2.0 * math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
PAULI_Z = np.array([[-1, 0], [0, 1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# sigma_k (x) sigma_l at row 3k + l; every entry is 0, +-1 or +-i
_PAULI_PAIRS = np.array([np.kron(p, q) for p in PAULIS for q in PAULIS])

HERMITIAN_TOL = 1e-12
_INVOLUTION_TOL = 1e-10


@dataclass(frozen=True)
class DichotomicObservable:
    """Hermitian matrix with spectrum in {+1, -1}, acting on ``space``.

    ``matrix`` is kept as a read-only complex (dim, dim) array, checked to
    be Hermitian within ``HERMITIAN_TOL`` and to square to the identity
    within ``_INVOLUTION_TOL``. ``direction`` is the unit Bloch vector n of
    an observable n . sigma on a two-level factor, and None for any other.
    """

    space: SpaceDescriptor
    matrix: np.ndarray
    direction: Optional[tuple] = None

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValidationError(f"matrix shape {mat.shape} does not match dim {d}")
        # not (x < tol): a NaN entry fails both checks
        if not np.abs(mat - mat.conj().T).max() < HERMITIAN_TOL:
            raise ValidationError("observable must be Hermitian")
        if not np.abs(mat @ mat - np.eye(d)).max() < _INVOLUTION_TOL:
            raise ValidationError("observable must square to the identity")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def qubit_observable(direction, space: Optional[SpaceDescriptor] = None
                     ) -> DichotomicObservable:
    """n . sigma on a two-level factor (default: a single spin-1/2)."""
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise ValidationError("direction must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise NotUnit(f"direction must be unit length, |n| = {np.linalg.norm(n)!r}")
    if space is None:
        space = SpaceDescriptor.single_spin(0.5)
    if space.dim != 2 or space.nfactors != 1:
        raise ValidationError("qubit_observable needs a single two-level factor")
    mat = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return DichotomicObservable(space, mat, tuple(n))


def observable_from_unitary(unitary, signs, space: SpaceDescriptor
                            ) -> DichotomicObservable:
    """U diag(signs) U+ with a +-1 sign pattern; the general realization."""
    u = np.asarray(unitary, dtype=complex)
    s = np.asarray(signs, dtype=float)
    d = space.dim
    if u.shape != (d, d) or s.shape != (d,):
        raise ValidationError("unitary/sign shapes do not match the space")
    if not np.all(np.abs(s) == 1.0):
        raise ValidationError("signs must be +-1")
    if np.abs(u @ u.conj().T - np.eye(d)).max() > 1e-10:
        raise ValidationError("matrix is not unitary")
    return DichotomicObservable(space, (u * s) @ u.conj().T)


@dataclass(frozen=True)
class ChshSettings:
    """Two observables per subsystem: b, b' act on the first factor, c, c'
    on the second."""

    b: DichotomicObservable
    b_prime: DichotomicObservable
    c: DichotomicObservable
    c_prime: DichotomicObservable

    def angle_lists(self):
        """Bloch angles (theta, phi) per observable, or None unless every
        observable has a Bloch direction."""
        out = []
        for obs in (self.b, self.b_prime, self.c, self.c_prime):
            if obs.direction is None:
                return None
            nx, ny, nz = obs.direction
            out.append([math.acos(max(-1.0, min(1.0, nz))), math.atan2(ny, nx)])
        return out


def _check_settings(state: StateVector, settings: ChshSettings):
    if state.space.nfactors != 2:
        raise SpaceMismatch("CHSH needs a state on exactly two factors")
    space_b = state.space.subspace(0, 1)
    space_c = state.space.subspace(1, 2)
    for obs, space in ((settings.b, space_b), (settings.b_prime, space_b),
                       (settings.c, space_c), (settings.c_prime, space_c)):
        if obs.space != space:
            raise SpaceMismatch("observable does not act on its own factor")


def chsh_value(state: StateVector, settings: ChshSettings) -> float:
    """E(b,c) + E(b',c) + E(b,c') - E(b',c') on the given state."""
    _check_settings(state, settings)
    m = state.amps.reshape(state.space.factor_dims)

    def corr(ob, oc):
        # <B (x) C> = Tr(M+ B M C^T) with M the amplitude matrix
        return np.vdot(m, ob.matrix @ m @ oc.matrix.T)

    total = (corr(settings.b, settings.c) + corr(settings.b_prime, settings.c)
             + corr(settings.b, settings.c_prime)
             - corr(settings.b_prime, settings.c_prime))
    if abs(total.imag) > 1e-10:
        raise ValidationError(f"CHSH value has imaginary residue {total.imag:.2e}")
    return float(total.real)


def correlation_matrix(state: StateVector) -> np.ndarray:
    """T_kl = <sigma_k (x) sigma_l> for a state on two two-level factors."""
    if state.space.nfactors != 2 or state.space.factor_dims != (2, 2):
        raise NotTwoQubit("correlation matrix needs two two-level factors")
    psi = state.amps
    return np.vecdot(psi, _PAULI_PAIRS @ psi).real.reshape(3, 3)


def horodecki_max(state: StateVector) -> float:
    """Exact two-qubit CHSH maximum 2 sqrt(t1^2 + t2^2)."""
    t = np.linalg.svd(correlation_matrix(state), compute_uv=False)
    return 2.0 * math.sqrt(t[0] ** 2 + t[1] ** 2)


def _settings_from_directions(state, nb, nbp, nc, ncp) -> ChshSettings:
    space_b = state.space.subspace(0, 1)
    space_c = state.space.subspace(1, 2)
    return ChshSettings(
        b=qubit_observable(nb, space_b),
        b_prime=qubit_observable(nbp, space_b),
        c=qubit_observable(nc, space_c),
        c_prime=qubit_observable(ncp, space_c),
    )


def analytic_qubit_settings(state: StateVector) -> ChshSettings:
    """Optimal directions from the SVD of the correlation matrix.

    With T = U diag(t) V^T, the c-side measures along the top two right
    singular vectors and the b-side along cos(chi) u1 +- sin(chi) u2 with
    tan(chi) = t2/t1, which attains 2 sqrt(t1^2 + t2^2).
    """
    T = correlation_matrix(state)
    u, t, vt = np.linalg.svd(T)
    chi = math.atan2(t[1], t[0])
    nb = math.cos(chi) * u[:, 0] + math.sin(chi) * u[:, 1]
    nbp = math.cos(chi) * u[:, 0] - math.sin(chi) * u[:, 1]

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 1e-14 else np.array([0.0, 0.0, 1.0])

    return _settings_from_directions(state, unit(nb), unit(nbp), vt[0, :], vt[1, :])


@dataclass(frozen=True)
class ChshResult:
    """A CHSH maximum and the settings that attain it.

    ``max_value`` is always ``chsh_value`` of ``settings``. ``converged`` is
    False only when the see-saw start that gave the settings reached the
    sweep cap before its stopping rule.
    """

    max_value: float
    settings: ChshSettings
    strategy: str
    n_starts: Optional[int] = None
    seed: Optional[int] = None
    tol: Optional[float] = None
    converged: bool = True


#: see-saw sweeps per start; a sweep updates both sides once
SEESAW_MAX_SWEEPS = 5000
#: most observable entries one see-saw stack holds (64 KiB), which keeps a
#: search's memory independent of its number of starts
SEESAW_STACK_AMPS = 2 ** 12

_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]
_PAULI_Z_FLAT = PAULI_Z.ravel()


def _best_responses(h: np.ndarray) -> np.ndarray:
    """For each Hermitian matrix in the stack ``h`` (any leading shape), the
    matrix of the dichotomic observable O maximizing Tr(O h).

    On a two-level factor O is the traceless part of h over its spectral
    norm, i.e. n . sigma with n the unit Bloch direction of h, so the
    observable stays traceless and keeps its Bloch angles. On a larger
    factor O = sign(h), from one eigendecomposition of the whole stack.
    """
    if h.shape[-1] == 2:
        # the traceless part [[-z, w], [w*, z]] of each h over its spectral norm
        flat = h.reshape(-1, 4)
        w = flat[:, 1]
        z = 0.5 * (flat[:, 3].real - flat[:, 0].real)
        norm = np.hypot(z, np.abs(w))
        o = np.empty(flat.shape, dtype=complex)
        o[:, 0] = -z
        o[:, 1] = w
        o[:, 2] = w.conj()
        o[:, 3] = z
        # a vanishing traceless part gives every direction the value 0
        small = norm <= 1e-12
        o /= np.where(small, 1.0, norm)[:, None]
        o[small] = _PAULI_Z_FLAT
        return o.reshape(h.shape)
    vals, vecs = np.linalg.eigh(h)
    signs = np.where(vals >= 0.0, 1.0, -1.0)[..., None, :]
    return (vecs * signs) @ np.swapaxes(vecs.conj(), -1, -2)


def _side_update(m_t: np.ndarray, m_h: np.ndarray, x: np.ndarray):
    """Best responses of one side to each of the other side's pairs
    x[s] = (X, X') in the stack ``x`` of shape (starts, 2, d, d).

    With M the amplitude matrix seen from the updated side, ``m_t`` its
    transpose and ``m_h`` its adjoint, <O (x) X> = Tr(O M X^T M+), so the
    pair answering Y = X + X' and X - X' maximizes the CHSH value for fixed
    (X, X'). H = M Y^T M+ comes from two 2-D products over the whole stack,
    W = Y M^T on its rows and H = W^T M+, not one product per matrix.
    Returns those pairs as a stack and H; Re vecdot(pairs, H) is each start's value.
    """
    n, _, d_x, _ = x.shape
    d_o = m_t.shape[1]
    y = x[:, :1] + _PLUS_MINUS * x[:, 1:]
    w = (y.reshape(-1, d_x) @ m_t).reshape(-1, d_x, d_o)
    h = (np.swapaxes(w, 1, 2).reshape(-1, d_x) @ m_h).reshape(n, 2, d_o, d_o)
    return _best_responses(h), h


def _observable(mat: np.ndarray, space: SpaceDescriptor) -> DichotomicObservable:
    """A see-saw observable matrix as a checked observable on ``space``."""
    if mat.shape[0] == 2:
        n = np.array([np.vdot(p, mat).real for p in PAULIS])
        return qubit_observable(n / np.linalg.norm(n), space)
    vals, vecs = np.linalg.eigh(mat)
    return observable_from_unitary(vecs, np.where(vals >= 0.0, 1.0, -1.0), space)


def _seesaw_starts(m: np.ndarray, rng: np.random.Generator, n: int, tol: float):
    """The see-saw on the amplitude matrix ``m`` from ``n`` starts drawn from
    ``rng``, all advanced together as one stack.

    Each start draws its c-side pair as best responses to random Hermitian
    matrices, then alternates exact b-side and c-side updates. The value
    never decreases. A start leaves the stack once the remaining gain,
    extrapolated from its last two sweeps, is at most ``tol`` (it
    converged), or after ``SEESAW_MAX_SWEEPS`` sweeps. Returns the value,
    the final b-side and c-side pairs and the converged flag of the first
    start with the highest value, and every start's sweep count.
    """
    d_c = m.shape[1]
    draw = rng.normal(size=(n, 2, 2, d_c, d_c))
    g = draw[:, 0] + 1j * draw[:, 1]
    c = _best_responses(g + np.swapaxes(g.conj(), -1, -2))
    # (M^T, M+) with M seen from the b side, then from the c side
    b_side, c_side = (m.T, m.conj().T), (m, m.conj())
    live, value = np.arange(n), np.full(n, -math.inf)
    sweeps = [0] * n
    best_value, best_start, best = -math.inf, n, None
    for sweep in range(1, SEESAW_MAX_SWEEPS + 1):
        b = _side_update(*b_side, c)[0]
        c, h = _side_update(*c_side, b)
        # only the c side's values: its update ends each sweep
        new_value = np.vecdot(c.reshape(len(c), -1), h.reshape(len(h), -1)).real
        gain, value = new_value - value, new_value
        stop = gain <= 0.0
        # gains shrink geometrically, by r = gain / last_gain per sweep, so
        # what is left to gain is about gain * r / (1 - r); the first gain
        # is infinite, so a previous finite gain exists from sweep 3 on
        if sweep > 2:
            stop |= gain * gain <= tol * (last_gain - gain)
        leave = stop if sweep < SEESAW_MAX_SWEEPS else np.ones_like(stop)
        done = np.flatnonzero(leave).tolist()
        if done:
            starts, values = live.tolist(), value.tolist()
            for k in done:
                sweeps[starts[k]] = sweep
                # ties go to the earlier start, as if run one after another
                if (values[k], -starts[k]) > (best_value, -best_start):
                    best_value, best_start = values[k], starts[k]
                    best = (b[k], c[k], bool(stop[k]))
            if len(done) == len(live):
                break
            keep = ~leave
            live, c, value, gain = live[keep], c[keep], value[keep], gain[keep]
        last_gain = gain
    return best_value, *best, sweeps


def _maximize_seesaw(state, n_starts, seed, tol) -> ChshResult:
    """See-saw (Werner & Wolf 2001; Liang & Doherty 2007) from seeded starts.

    The starts advance together, in stacks of at most ``SEESAW_STACK_AMPS``
    observable entries, each start with its own stopping sweep (see
    ``_seesaw_starts``). The first best start's settings are returned with
    their ``chsh_value``.
    """
    d_b, d_c = state.space.factor_dims
    m = state.amps.reshape(d_b, d_c)
    rng = np.random.default_rng(seed)
    # a start holds two observables on each side
    per_stack = max(1, SEESAW_STACK_AMPS // (2 * (d_b * d_b + d_c * d_c)))
    best_value, best = -math.inf, None
    for first in range(0, n_starts, per_stack):
        value, *pairs, _ = _seesaw_starts(m, rng, min(per_stack, n_starts - first), tol)
        if value > best_value:
            best_value, best = value, pairs
    b, c, converged = best
    space_b = state.space.subspace(0, 1)
    space_c = state.space.subspace(1, 2)
    settings = ChshSettings(_observable(b[0], space_b), _observable(b[1], space_b),
                            _observable(c[0], space_c), _observable(c[1], space_c))
    return ChshResult(chsh_value(state, settings), settings,
                      "multistart-local-search", n_starts, seed, tol, converged)


def chsh_maximize(state: StateVector, strategy: str = "analytic-qubit",
                  n_starts: int = 32, seed: Optional[int] = None,
                  tol: float = 1e-7) -> ChshResult:
    """Maximize the CHSH quantity over dichotomic observable settings.

    ``analytic-qubit`` requires two two-level factors and is exact.
    ``multistart-local-search`` needs an explicit seed and works for any
    subsystem dimensions: it runs the see-saw from ``n_starts`` seeded
    random starts, advanced together in stacks of at most
    ``SEESAW_STACK_AMPS`` observable entries, each until the gain still to
    come, extrapolated from its last sweeps, is at most ``tol``. The first
    start with the highest value wins. Under either strategy ``n_starts`` must
    be at least 1, ``tol`` positive and finite, and a given ``seed`` an
    integer in [0, 2**64) (``qcore.as_seed``). Two-level factors
    get traceless observables, so ``settings.angle_lists()`` gives their Bloch
    angles.
    ``max_value`` is the ``chsh_value`` of the returned settings, and
    ``converged`` is False when the best start hit the sweep cap
    ``SEESAW_MAX_SWEEPS`` first.
    """
    if state.space.nfactors != 2:
        raise SpaceMismatch("CHSH maximization needs a two-factor state")
    if n_starts < 1:
        raise ValidationError("n_starts must be >= 1")
    if not 0.0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    if seed is not None:
        seed = qcore.as_seed(seed)
    if strategy == "analytic-qubit":
        if state.space.factor_dims != (2, 2):
            raise StrategyUnavailable("analytic strategy needs two two-level factors")
        settings = analytic_qubit_settings(state)
        return ChshResult(chsh_value(state, settings), settings, strategy)
    if strategy == "multistart-local-search":
        if seed is None:
            raise ValidationError("the numerical strategy requires an explicit seed")
        return _maximize_seesaw(state, n_starts, seed, tol)
    raise StrategyUnavailable(f"unknown strategy {strategy!r}")
