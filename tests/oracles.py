"""Oracles: dense band-form generators, nearest coherent states by search,
and the CHSH see-saw one start at a time.

The library keeps each family's generators only as the band form
``(g0, g)`` of its ``FAMILY.bands``. The tests check it against the dense
matrices built here from those same bands, as plain complex arrays, and
against the north star's two exponential routes: the displacement operator
and the coset exponential, through ``scipy.linalg.expm`` directly.

The library labels a state by its first moments; ``spin_cs_fit`` and
``fock_cs_fit`` search, so the tests can hold those labels and the scan's
label distances against the best coherent fidelity.

The library advances all see-saw starts together as one stack;
``seesaw_one_start_at_a_time`` runs them one after another, through the
library's own ``_side_update`` and ``_best_responses`` on one-start stacks,
so the tests can hold the stacked search to it bit for bit. It checks only
that stacking moves no bit; the tests hold those two kernels to the
per-matrix product and to ``np.linalg.eigh`` themselves.

The library sums a large stack's squares vectorized and certifies each
row's rounding; ``fsum_squares`` and ``normalize_rows_by_fsum`` take one
``math.fsum`` per row, so the tests can hold the sums and the normalized
bytes to it bit for bit.

The library stacks a trajectory's Magnus exponents and factors each by a
direct LAPACK call; ``evolve_one_substep_at_a_time`` builds each substep's
exponent from scalar coefficients and factors it by ``eigh_tridiagonal``, so
the tests can hold the stacked states, and the order of the errors, to it
bit for bit.

The library builds a stack of spin coherent rows from one array-valued
``spin._angles_amps`` call and labels all of a trajectory's samples at once;
``angles_amps_one_angle``, ``spin_scan_grid_one_angle_at_a_time`` and the
one-state labels ``mean_spin_label_one_state`` and
``mean_mode_label_one_state`` take one angle or one state per call, so the
tests can hold the stacked rows and labels to them bit for bit.

The library reads the driven oscillator's amplitude from its closed form;
``alpha_by_quadrature`` integrates the drive by adaptive quadrature
(``quad_complex``), so the tests can hold the closed form to it.

The rest serve only the tests: phase-aligned distances between rays, a
perturbed power series and the first order it fails at, and the textbook
global phase of the driven oscillator by quadrature, with the measurement of
which vacuum-energy convention reproduces it.
"""

import cmath
import math
import warnings

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.optimize import minimize

from coherence_lab import bell, dynamics, fock, qcore, spin, splitting
from coherence_lab.errors import NonFinite, NumericalError, StepSizeTooLarge, ZeroVector
from coherence_lab.qcore import NORM_ROUNDING, StateVector


def generators(family, size):
    """Dense (G0, G+, G-) of ``family``: (N, a+, a) of ``fock`` at cutoff
    ``size``, or (J0, J+, J-) of ``spin`` at 2j = ``size``."""
    g0, g = family.FAMILY.bands(size)
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
    cutoff = fock.FAMILY.size(state)
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
        o, h = bell._side_update(m.T, m.conj().T, x[None])
        return o[0], np.vecdot(o.reshape(1, -1), h.reshape(1, -1)).real[0]

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


def fsum_squares(flat):
    """``math.fsum`` of each row's rounded squares, inf where it overflows."""
    with np.errstate(over="ignore"):
        rows = np.square(flat).tolist()
    sums = []
    for squares in rows:
        try:
            sums.append(math.fsum(squares))
        except OverflowError:  # finite squares whose sum overflows
            sums.append(math.inf)
    return sums


def normalize_rows_by_fsum(rows):
    """``StateVector``'s normalization of each row of a 2-d complex stack, in
    place, with one ``math.fsum`` per row: a row whose squares overflow is
    first divided by its largest component; a row within ``NORM_ROUNDING`` of
    unit norm is kept, any other divided by its norm."""
    flat = rows.view(float)
    if not np.all(np.isfinite(flat)):
        raise NonFinite("state amplitudes must be finite")
    for i, sum_sq in enumerate(fsum_squares(flat)):
        if sum_sq == math.inf:
            rows[i] /= np.abs(flat[i]).max()
            sum_sq = fsum_squares(flat[i:i + 1])[0]
        norm = math.sqrt(sum_sq)
        if norm < 1e-14:
            raise ZeroVector("cannot normalize a null vector")
        if abs(norm - 1.0) > NORM_ROUNDING:
            rows[i] /= norm
    return rows


def magnus_exponent_one_substep(coeffs, generator_bands, t, dt):
    """``(x, w)``, M = x diag(w) x^H, of the exponent of one fourth-order
    Magnus substep from t to t + dt: ``dynamics._magnus_coefficients``'
    formula in scalar arithmetic (Im(lam2 lam1*) as a complex product), the
    phase gauge and one ``eigh_tridiagonal`` call."""
    g0, g = generator_bands
    q = np.zeros(g0.size + 1)
    q[1:-1] = g * g
    w1, lam1 = coeffs(t + (0.5 - dynamics._GL_NODE) * dt)
    w2, lam2 = coeffs(t + (0.5 + dynamics._GL_NODE) * dt)
    with np.errstate(all="ignore"):
        c = dynamics._GL_COMMUTATOR * dt * dt
        d0, d1 = 0.5 * dt * (w1 + w2), 2.0 * c * (lam2 * lam1.conjugate()).imag
        nu = (0.5 * dt) * (lam1 + lam2) - (1j * c) * (w2 * lam1 - w1 * lam2)
        diagonal = d0 * g0 + d1 * (q[:-1] - q[1:])
        sub = nu * g
    if not (np.isfinite(diagonal).all() and np.isfinite(sub).all()):
        raise NumericalError("the Magnus exponent leaves the float range")
    phase = np.ones(g0.size, dtype=complex)
    phase[1:] = np.exp(1j * np.angle(sub))
    w, v = scipy.linalg.eigh_tridiagonal(diagonal, np.abs(sub), check_finite=False)
    return np.cumprod(phase)[:, None] * v, w


def evolve_one_substep_at_a_time(drive, family, initial, grid, counts):
    """The states of ``dynamics._evolve`` over ``family``'s bands, with each
    substep's exponent built when it is reached
    (``magnus_exponent_one_substep``), lam taken at one time as a scalar
    product, and each step applied through x^H."""
    generator_bands = family.bands(family.size(initial))
    def coeffs(t):
        if drive.kind == "exponential":
            return drive.omega, complex(drive.amplitude * np.exp(-1j * drive.frequency * t))
        return drive.omega, drive.lam(t)

    psi = initial.amps.astype(complex)
    if drive.is_static:
        x, w = magnus_exponent_one_substep(coeffs, generator_bands, grid[0], 1.0)
        with np.errstate(over="ignore"):
            phases = np.multiply.outer(np.diff(grid), w)
        if not np.isfinite(phases).all():
            raise NumericalError("the step phases leave the float range")
    states = [StateVector(initial.space, psi)]
    t = grid[0]
    for i, (t_next, n_sub) in enumerate(zip(grid[1:], counts)):
        dt = (t_next - t) / n_sub
        steps = ([(x, phases[i])] if drive.is_static else
                 (magnus_exponent_one_substep(coeffs, generator_bands, t + k * dt, dt)
                  for k in range(n_sub)))
        for x_k, w_k in steps:
            psi = x_k @ (np.exp(-1j * w_k) * (x_k.conj().T @ psi))
        drift = abs(math.sqrt(np.vdot(psi, psi).real) - 1.0)
        if drift > dynamics._NORM_DRIFT_LIMIT:
            raise StepSizeTooLarge(f"norm drift {drift:.2e} at t={t_next}")
        t = t_next
        states.append(StateVector(initial.space, psi))
    return states


def angles_amps_one_angle(tj, theta, phi):
    """Unit spin coherent amplitudes at one angle pair, divided by
    ``np.linalg.norm``, with the pole row within ``spin.POLE_TOL`` of pi."""
    if abs(theta - math.pi) < spin.POLE_TOL:
        vec = np.zeros(tj + 1, dtype=complex)
        vec[-1] = 1.0
        return vec
    amps = np.exp(spin._cs_logs(spin._cs_rows(tj), theta, phi))
    return amps / np.linalg.norm(amps)


def spin_scan_grid_one_angle_at_a_time(tj):
    """``spin.FAMILY.grid`` built one angle pair at a time."""
    ring = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    return np.stack([angles_amps_one_angle(tj, theta, phi)
                     for theta in np.linspace(0.0, math.pi, 9)
                     for phi in (ring if 0.0 < theta < math.pi else ring[:1])])


def mean_spin_label_one_state(state):
    """``spin.mean_spin_label``'s rule on one state, with numpy scalars."""
    tj = spin.FAMILY.size(state)
    amps = state.amps
    mean_j0, mean_jm = qcore._first_moments(amps, *spin.FAMILY.bands(tj))
    if math.hypot(mean_j0, abs(mean_jm)) <= spin.MEAN_SPIN_ROUNDING * tj / 2.0 * (tj + 1):
        theta, phi, zeta = spin._label(0.0, 0.0)
    else:
        theta, phi, zeta = spin._label(math.atan2(abs(mean_jm), -mean_j0),
                                       math.pi - cmath.phase(mean_jm))
    return theta, phi, zeta, abs(np.vdot(angles_amps_one_angle(tj, theta, phi), amps))


def mean_mode_label_one_state(state):
    """``fock.mean_mode_label``'s rule on one state, through ``glauber_cs``."""
    cutoff = fock.FAMILY.size(state)
    alpha = complex(qcore._first_moments(state.amps, *fock.FAMILY.bands(cutoff))[1])
    radius = fock.admissible_radius(cutoff)
    ref = alpha if abs(alpha) <= radius else alpha / abs(alpha) * radius
    return alpha, qcore.overlap(fock.glauber_cs(ref, cutoff), state)


def phase_align(reference, amps):
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


def aligned_distance(u, v):
    """Norm distance between rays: ||u - e^{i phi} v|| after phase alignment."""
    assert u.space == v.space
    return float(np.linalg.norm(u.amps - phase_align(u.amps, v.amps)))


def perturbed(series, k, delta):
    """``series`` with ``delta`` added to its order-k coefficient."""
    arr = np.array(series.coeffs)
    arr[k] += delta
    return splitting.SeriesPoly(arr)


def first_failing_order(solution, f_a, f_b, f_c, tol=1e-12):
    """The lowest order at which (f_A, f_B, f_C) misses the splitting
    equation of ``solution``'s (mu, nu) by more than ``tol``, or None."""
    res = splitting.functional_residuals(f_a, f_b, f_c, solution.mu, solution.nu)
    bad = np.nonzero(res > tol)[0]
    return int(bad[0]) if bad.size else None


class QuadratureFailure(NumericalError):
    """Adaptive quadrature did not reach the requested tolerance."""


def quad_complex(func, a, b, tol=1e-10):
    """integral_a^b func(t) dt of a complex ``func``, its real and imaginary
    parts each by ``scipy.integrate.quad``; ``QuadratureFailure`` when their
    error estimates add up beyond ``tol``."""
    if b == a:
        return 0.0
    with warnings.catch_warnings():
        # accuracy is judged from the returned error estimate below
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        re, re_err = scipy.integrate.quad(lambda t: func(t).real, a, b,
                                          epsabs=tol / 4, epsrel=1e-12, limit=400)
        im, im_err = scipy.integrate.quad(lambda t: func(t).imag, a, b,
                                          epsabs=tol / 4, epsrel=1e-12, limit=400)
    if re_err + im_err > tol:
        raise QuadratureFailure(
            f"quadrature error {re_err + im_err:.2e} above tolerance {tol:.0e}")
    return complex(re, im)


def alpha_by_quadrature(drive, t):
    """Coherent amplitude reached at time t,
    -i exp(-i omega t) integral_0^t lam(tau) exp(i omega tau) dtau, by
    adaptive quadrature: the oracle of ``dynamics.alpha_of_t``."""
    integral = quad_complex(lambda tau: drive.lam(tau) * np.exp(1j * drive.omega * tau),
                            0.0, t)
    return -1j * np.exp(-1j * drive.omega * t) * integral


def alpha_eta_of_t(drive, t):
    """Amplitude and textbook global phase at time t.

    eta(t) = -omega t / 2 - integral_0^t Re[conj(lam(tau)) alpha(tau)] dtau,
    the convention that includes the oscillator's vacuum energy (see
    ``eta_convention_report``).
    """
    alpha = alpha_by_quadrature(drive, t)
    if t == 0:
        return alpha, 0.0
    corr, corr_err = scipy.integrate.quad(
        lambda tau: (np.conj(drive.lam(tau)) * alpha_by_quadrature(drive, tau)).real,
        0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)
    if corr_err > 1e-9:
        raise QuadratureFailure(f"phase quadrature error {corr_err:.2e}")
    return alpha, -drive.omega * t / 2.0 - corr


def eta_convention_report(drive, t_grid, cutoff):
    """Measure which vacuum-energy convention reproduces the phase formula.

    Evolves the vacuum with H = omega a+a, measures the global phase, and
    compares against the formula carrying the -omega t/2 term. The fitted
    rate offset decides between H = omega a+a and H = omega (a+a + 1/2);
    the residual after removing the fitted offset is reported too.
    """
    grid = np.array(t_grid, dtype=float)
    traj = dynamics.evolve_fock(drive, grid, cutoff)
    formula = np.array([alpha_eta_of_t(drive, t)[1] for t in grid])
    diff = traj.eta_track - formula
    # least-squares slope through the origin
    denom = float(np.dot(grid, grid))
    slope = float(np.dot(grid, diff) / denom) if denom > 0 else 0.0
    half = drive.omega / 2.0
    if abs(slope - half) < 0.05 * drive.omega:
        convention = "omega*(n+1/2)"
    elif abs(slope) < 0.05 * drive.omega:
        convention = "omega*n"
    else:
        convention = "unresolved"
    residual = float(np.abs(diff - slope * grid).max())
    return {
        "offset_rate": slope,
        "matched_convention": convention,
        "max_residual": residual,
    }
