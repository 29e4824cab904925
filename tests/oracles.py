"""Oracles: dense band-form generators, nearest coherent states by search,
and the CHSH see-saw one start at a time.

The library keeps each family's generators only as the band form
``(g0, g)`` of ``_generator_bands``. The tests check it against the dense
matrices built here from those same bands, as plain complex arrays, and
against the north star's two exponential routes: the displacement operator
and the coset exponential, through ``scipy.linalg.expm`` directly.

The library labels a state by its first moments; ``spin_cs_fit`` and
``fock_cs_fit`` search, so the tests can hold those labels and the scan's
moment bounds against the best coherent fidelity.

The library advances all see-saw starts together as one stack;
``seesaw_one_start_at_a_time`` runs them one after another, so the tests
can hold the stacked search to it bit for bit.
"""

import math

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from coherence_lab import bell, fock, spin
from coherence_lab.qcore import StateVector


def generators(family, size):
    """Dense (G0, G+, G-) of ``family``: (N, a+, a) of ``fock`` at cutoff
    ``size``, or (J0, J+, J-) of ``spin`` at 2j = ``size``."""
    g0, g = family._generator_bands(size)
    g = g.astype(complex)
    return np.diag(g0.astype(complex)), np.diag(g, -1), np.diag(g, 1)


def quadratures(cutoff):
    """Scaled position and momentum q = (a + a+)/sqrt2, p = (a - a+)/(i sqrt2)."""
    _, adag, a = generators(fock, cutoff)
    return (a + adag) / math.sqrt(2.0), (a - adag) / (1j * math.sqrt(2.0))


def expectation(op, state):
    """<state|op|state>, complex in general."""
    return complex(np.vdot(state.amps, op @ state.amps))


def mean_variance(op, state):
    """Real mean and variance <op^2> - <op>^2 of a Hermitian ``op``."""
    mean = float(expectation(op, state).real)
    image = op @ state.amps
    return mean, float(np.vdot(image, image).real) - mean * mean


def displacement(alpha, cutoff):
    """exp(alpha a+ - alpha* a), unitary on the retained subspace."""
    _, adag, a = generators(fock, cutoff)
    return scipy.linalg.expm(alpha * adag - np.conj(alpha) * a)


def coset_state(j, xi):
    """exp(xi J+ - xi* J-) |j,-j>, which is the closed-form coherent state at
    zeta = (xi/|xi|) tan|xi| up to a global phase."""
    _, jp, jm = generators(spin, int(2 * j))
    lowest = spin.basis_state(j, -j)
    unitary = scipy.linalg.expm(xi * jp - np.conj(xi) * jm)
    return StateVector(lowest.space, unitary @ lowest.amps)


def _polish(fid, best):
    """``(point, fidelity)``: a Nelder-Mead search on -fid from the candidate
    ``best``, restarted once where a stalled search stopped. The candidate is
    kept unless the search beats it by more than 1e-14, so a candidate exact
    to rounding (a true coherent state's) is never fuzzed."""
    res = None
    for _ in range(2):
        res = minimize(lambda x: -fid(*x), list(best if res is None else res.x),
                       method="Nelder-Mead", options=dict(xatol=1e-10, fatol=1e-15, maxiter=600))
        if res.success:
            break
    assert res.success, f"nearest-coherent fit did not converge: {res.message}"
    best_fid = fid(*best)
    return (tuple(res.x), -res.fun) if -res.fun > best_fid + 1e-14 else (best, best_fid)


def spin_cs_fit(state):
    """``(theta, phi, fidelity)`` of the spin coherent state nearest ``state``:
    the best of a ratio estimate from the largest pair of consecutive
    amplitudes (exact on a coherent state), the two poles and an 8 x 8 sphere
    grid, polished."""
    amps = state.amps
    tj = amps.size - 1

    def fid(theta, phi):
        return abs(np.vdot(spin._angles_amps(tj, *spin._label(theta, phi)[:2]),
                           amps))

    candidates = [(0.0, 0.0), (math.pi, 0.0)] + [
        (theta, phi) for theta in np.linspace(0.35, math.pi - 0.35, 8)
        for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    prod = np.abs(amps[:-1] * amps[1:])
    k = int(np.argmax(prod))
    if prod[k] >= 1e-14:
        zeta = amps[k + 1] / amps[k] * math.sqrt((k + 1) / (tj - k))
        candidates.insert(0, (2.0 * math.atan(abs(zeta)), math.pi - np.angle(zeta)))
    best, best_fid = _polish(fid, max(candidates, key=lambda c: fid(*c)))
    return spin._label(*best)[:2] + (best_fid,)


def fock_cs_fit(state):
    """``(alpha, fidelity)`` of the unit truncated |alpha> nearest ``state``
    over the admissible disk |alpha| <= ``fock.admissible_radius``, seeded
    at the dense <a> and polished in (Re alpha, Im alpha)."""
    cutoff = state.space.factors[0].cutoff
    radius = fock.admissible_radius(cutoff)

    def clip(z):
        return z if abs(z) <= radius else z / abs(z) * radius

    def fid(re, im):
        alpha = clip(complex(re, im))
        bra = np.exp(fock._coherent_logs(alpha, cutoff) - abs(alpha) ** 2 / 2.0)
        return abs(np.vdot(bra, state.amps)) / np.linalg.norm(bra)

    start = clip(expectation(generators(fock, cutoff)[2], state))
    best, best_fid = _polish(fid, (start.real, start.imag))
    return clip(complex(*best)), best_fid


def cs_fit_distance(state):
    """Phase-aligned distance to the nearest admissible coherent state."""
    fit = spin_cs_fit if state.space.is_single("spin") else fock_cs_fit
    return math.sqrt(max(0.0, 2.0 - 2.0 * fit(state)[-1]))


def seesaw_one_start_at_a_time(state, n_starts, seed, tol):
    """``(result, sweeps)``: the ``multistart-local-search`` CHSH result of
    the see-saw run start after start from the same seeded draws, and each
    start's sweep count."""
    d_b, d_c = state.space.factor_dims
    m = state.amps.reshape(d_b, d_c)
    rng = np.random.default_rng(seed)

    def side_update(m, x):
        y = x[0] + np.array([1.0, -1.0])[:, None, None] * x[1]
        h = m @ np.swapaxes(y, 1, 2) @ m.conj().T
        o = bell._best_responses(h)
        return o, np.vdot(o, h).real

    best_value, best, sweeps = -math.inf, None, []
    for _ in range(n_starts):
        g = rng.normal(size=(2, d_c, d_c)) + 1j * rng.normal(size=(2, d_c, d_c))
        c = bell._best_responses(g + np.swapaxes(g.conj(), 1, 2))
        value, last_gain, converged = -math.inf, math.inf, False
        for sweep in range(1, bell.SEESAW_MAX_SWEEPS + 1):
            b, _ = side_update(m, c)
            c, new_value = side_update(m.T, b)
            gain, value = new_value - value, new_value
            if gain <= 0.0 or (last_gain < math.inf
                               and gain * gain <= tol * (last_gain - gain)):
                converged = True
                break
            last_gain = gain
        sweeps.append(sweep)
        if value > best_value:
            best_value, best = value, (b, c, converged)
    b, c, converged = best
    space_b = state.space.subspace(0, 1)
    space_c = state.space.subspace(1, 2)
    settings = bell.ChshSettings(
        bell._observable(b[0], space_b), bell._observable(b[1], space_b),
        bell._observable(c[0], space_c), bell._observable(c[1], space_c))
    result = bell.ChshResult(bell.chsh_value(state, settings), settings,
                             "multistart-local-search", n_starts, seed, tol, converged)
    return result, sweeps
