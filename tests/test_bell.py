import hashlib
import math
import time

import numpy as np
import pytest

from coherence_lab import bell, fock, spin
from coherence_lab.bell import (
    TSIRELSON,
    ChshSettings,
    DichotomicObservable,
    analytic_qubit_settings,
    chsh_maximize,
    chsh_value,
    correlation_matrix,
    horodecki_max,
    observable_from_unitary,
    qubit_observable,
)
from coherence_lab.errors import (
    NotTwoQubit,
    NotUnit,
    StrategyUnavailable,
    ValidationError,
)
from coherence_lab.qcore import SpaceDescriptor, StateVector, tensor_state
from oracles import seesaw_one_start_at_a_time

TWO_QUBITS = SpaceDescriptor.single_spin(0.5).tensor(SpaceDescriptor.single_spin(0.5))


def psi_plus() -> StateVector:
    return StateVector(TWO_QUBITS, [0, 1, 1, 0])


def haar_two_qubit(rng) -> StateVector:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return StateVector(TWO_QUBITS, v)


def settings_from_directions(nb, nbp, nc, ncp) -> ChshSettings:
    return ChshSettings(qubit_observable(nb), qubit_observable(nbp),
                        qubit_observable(nc), qubit_observable(ncp))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_qubit_observable_z():
    obs = qubit_observable([0, 0, 1])
    np.testing.assert_allclose(obs.matrix, np.diag([-1, 1]), atol=1e-15)


def test_qubit_observable_x_is_involution():
    obs = qubit_observable([1, 0, 0])
    evals = np.linalg.eigvalsh(obs.matrix)
    np.testing.assert_allclose(evals, [-1, 1], atol=1e-14)
    sq = obs.matrix @ obs.matrix
    np.testing.assert_allclose(sq, np.eye(2), atol=1e-14)


def test_qubit_observable_rejects_nonunit():
    with pytest.raises(NotUnit):
        qubit_observable([0.5, 0, 0])


def test_observable_checks_its_matrix():
    # [[1, e], [0, -1]] squares to the identity for any e but is Hermitian
    # only within HERMITIAN_TOL = 1e-12
    space = SpaceDescriptor.single_spin(0.5)
    obs = DichotomicObservable(space, [[1, 1e-13], [0, -1]])
    assert obs.direction is None and not obs.matrix.flags.writeable
    with pytest.raises(ValidationError, match="Hermitian"):
        DichotomicObservable(space, [[1, 2e-12], [0, -1]])
    with pytest.raises(ValidationError, match="square to the identity"):
        DichotomicObservable(space, np.diag([1.0, 0.5]))
    with pytest.raises(ValidationError, match="shape"):
        DichotomicObservable(space, np.eye(3))
    # a NaN direction slips past the unit-norm check; its NaN matrix must not
    # slip past the observable's own checks
    with pytest.raises(ValidationError):
        qubit_observable([math.nan, 0.0, 0.0])


def test_observable_from_unitary():
    space = SpaceDescriptor.single_spin(1)
    rng = np.random.default_rng(1)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    import scipy.linalg
    u = scipy.linalg.expm(1j * h)
    obs = observable_from_unitary(u, [1, -1, 1], space)
    sq = obs.matrix @ obs.matrix
    np.testing.assert_allclose(sq, np.eye(3), atol=1e-12)
    with pytest.raises(ValidationError):
        observable_from_unitary(u, [1, -2, 1], space)


# ---------------------------------------------------------------------------
# chsh_value
# ---------------------------------------------------------------------------

def test_chsh_value_product_state_bounded():
    # classical bound: 1000 seeded random settings over random product states
    rng = np.random.default_rng(13)
    for _ in range(100):
        single = SpaceDescriptor.single_spin(0.5)
        u = StateVector(single, rng.normal(size=2) + 1j * rng.normal(size=2))
        v = StateVector(single, rng.normal(size=2) + 1j * rng.normal(size=2))
        state = tensor_state(u, v)
        for _ in range(10):
            dirs = rng.normal(size=(4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            settings = settings_from_directions(*dirs)
            assert abs(chsh_value(state, settings)) <= 2 + 1e-10


def test_chsh_value_optimal_on_triplet():
    # frozen via the correlation-matrix oracle: value must reach 2 sqrt 2
    settings = analytic_qubit_settings(psi_plus())
    assert chsh_value(psi_plus(), settings) == pytest.approx(2 * math.sqrt(2),
                                                             abs=1e-8)


def test_chsh_value_aligned_z_settings():
    z = [0, 0, 1]
    settings = settings_from_directions(z, z, z, z)
    down_down = StateVector(TWO_QUBITS, [1, 0, 0, 0])
    # E(b,c) + E(b',c) + E(b,c') - E(b',c') = 1 + 1 + 1 - 1 = 2 on |down,down>
    assert chsh_value(down_down, settings) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Horodecki oracle
# ---------------------------------------------------------------------------

def test_horodecki_product_state():
    u = StateVector(SpaceDescriptor.single_spin(0.5), [0.6, 0.8j])
    assert horodecki_max(tensor_state(u, u)) == pytest.approx(2.0, abs=1e-10)


def test_horodecki_triplet():
    t = correlation_matrix(psi_plus())
    np.testing.assert_allclose(t, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
    assert horodecki_max(psi_plus()) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_correlation_matrix_keeps_the_kron_formula_bits():
    # the nine sigma_k (x) sigma_l are built once; each entry is 0, +-1 or
    # +-i, so their products are exact and T keeps the per-entry kron bits
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = haar_two_qubit(rng)
        want = np.array([[np.vdot(state.amps, np.kron(p, q) @ state.amps).real
                          for q in bell.PAULIS] for p in bell.PAULIS])
        assert np.array_equal(correlation_matrix(state), want)


def test_horodecki_split_spin_cs_never_violates():
    for zeta in (0.0, 1.0, -0.4 + 2.2j, 5.0):
        out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1, zeta=zeta)),
                              0.5, 0.5)
        assert horodecki_max(out) == pytest.approx(2.0, abs=1e-8)


def test_horodecki_needs_two_qubits():
    with pytest.raises(NotTwoQubit):
        horodecki_max(spin.basis_state(1, 0))


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------

def test_maximize_analytic_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        state = haar_two_qubit(rng)
        res = chsh_maximize(state)
        assert res.max_value == pytest.approx(horodecki_max(state), abs=1e-10)
        assert res.max_value <= TSIRELSON + 1e-6


def test_maximize_numerical_product_state():
    u = StateVector(SpaceDescriptor.single_spin(0.5), [1 / math.sqrt(2), 1j / math.sqrt(2)])
    state = tensor_state(u, u)
    res = chsh_maximize(state, "multistart-local-search", n_starts=8, seed=3)
    assert res.max_value == pytest.approx(2.0, abs=1e-6)


def test_maximize_numerical_matches_oracle_on_entangled_states():
    rng = np.random.default_rng(77)
    count = 0
    while count < 20:
        state = haar_two_qubit(rng)
        from coherence_lab.qcore import schmidt_cut
        if schmidt_cut(state, 1).entropy_bits < 1e-3:
            continue
        count += 1
        res = chsh_maximize(state, "multistart-local-search", n_starts=8,
                            seed=1000 + count)
        oracle = horodecki_max(state)
        assert res.max_value > 2 + 1e-6
        assert res.max_value == pytest.approx(oracle, abs=1e-5)
        # reported settings actually attain the reported value
        assert chsh_value(state, res.settings) == pytest.approx(res.max_value,
                                                                abs=1e-12)


def test_maximize_split_single_photon():
    from coherence_lab import fock
    out = fock.split_fock(fock.number_state(1, 1), fock.SplitSpec.balanced())
    res = chsh_maximize(out, "multistart-local-search", n_starts=8, seed=17)
    assert res.max_value > 2.0
    assert res.max_value <= TSIRELSON + 1e-6


def test_maximize_general_route_finds_violation_in_2x3():
    # Bell pair embedded in the first two levels of a qutrit side
    space = SpaceDescriptor.single_spin(0.5).tensor(SpaceDescriptor.single_spin(1))
    amps = np.zeros(6, dtype=complex)
    amps[0 * 3 + 0] = 1 / math.sqrt(2)
    amps[1 * 3 + 1] = 1 / math.sqrt(2)
    state = StateVector(space, amps)
    res = chsh_maximize(state, "multistart-local-search", n_starts=8, seed=4)
    assert res.max_value > 2.0
    assert res.max_value <= TSIRELSON + 1e-6
    assert res.settings.angle_lists() is None


def test_maximize_gisin_property():
    # every entangled two-qubit pure state violates the classical bound
    rng = np.random.default_rng(99)
    from coherence_lab.qcore import schmidt_cut
    tested = 0
    while tested < 200:
        state = haar_two_qubit(rng)
        if schmidt_cut(state, 1).entropy_bits <= 1e-3:
            continue
        tested += 1
        assert chsh_maximize(state).max_value > 2.0


def test_maximize_strategy_guards():
    with pytest.raises(StrategyUnavailable):
        chsh_maximize(psi_plus(), "nonsense")
    with pytest.raises(ValidationError):
        chsh_maximize(psi_plus(), "multistart-local-search", seed=None)
    space = SpaceDescriptor.single_spin(0.5).tensor(SpaceDescriptor.single_spin(1))
    amps = np.zeros(6)
    amps[0] = 1
    with pytest.raises(StrategyUnavailable):
        chsh_maximize(StateVector(space, amps), "analytic-qubit")


@pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 64, True, "3"])
@pytest.mark.parametrize("strategy", ["analytic-qubit", "multistart-local-search"])
def test_maximize_refuses_a_seed_that_is_no_integer_in_range(strategy, seed):
    # the scan's seed rule: an integer in [0, 2**64), bool refused
    with pytest.raises(ValidationError, match="seed"):
        chsh_maximize(psi_plus(), strategy, n_starts=2, seed=seed)


def test_maximize_balanced_split_photon_13x13():
    # a single photon split at cutoff 12 has 13-dim subsystems; the see-saw
    # has no dimension cap and reaches the quantum ceiling quickly
    from coherence_lab import fock
    out = fock.split_fock(fock.number_state(12, 1), fock.SplitSpec.balanced())
    assert out.space.factor_dims == (13, 13)
    t0 = time.perf_counter()
    res = chsh_maximize(out, "multistart-local-search", n_starts=8, seed=1)
    assert time.perf_counter() - t0 < 10.0
    assert res.max_value == pytest.approx(TSIRELSON, abs=1e-6)
    assert res.converged
    assert chsh_value(out, res.settings) == res.max_value


def _matrix_observable(mat, space) -> DichotomicObservable:
    return DichotomicObservable(space, mat)


def gisin_peres_settings(state: StateVector) -> ChshSettings:
    """Pair consecutive Schmidt levels and measure each pair as a qubit.

    On the pair (i, i+1) with Schmidt coefficients c_i >= c_i+1, b = Z and
    b' = X in the b-side Schmidt basis, and c, c' = cos t Z +- sin t X in the
    c-side one, with tan t = 2 c_i c_i+1 / (c_i^2 + c_i+1^2). An unpaired
    last level gets +1 from all four observables (Gisin & Peres 1992).
    """
    d_b, d_c = state.space.factor_dims
    u, coeffs, vh = np.linalg.svd(state.amps.reshape(d_b, d_c))
    d = len(coeffs)
    # psi = sum_i c_i |u_i> |w_i> with w_i the rows of vh
    z, x = np.zeros((d, d)), np.zeros((d, d))
    c, c_prime = np.zeros((d, d)), np.zeros((d, d))
    z2, x2 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    for i in range(0, d - 1, 2):
        t = math.atan2(2 * coeffs[i] * coeffs[i + 1], coeffs[i] ** 2 + coeffs[i + 1] ** 2)
        block = slice(i, i + 2)
        z[block, block], x[block, block] = z2, x2
        c[block, block] = math.cos(t) * z2 + math.sin(t) * x2
        c_prime[block, block] = math.cos(t) * z2 - math.sin(t) * x2
    if d % 2:
        for mat in (z, x, c, c_prime):
            mat[-1, -1] = 1.0
    w = vh.T
    space_b = state.space.subspace(0, 1)
    space_c = state.space.subspace(1, 2)
    return ChshSettings(_matrix_observable(u @ z @ u.conj().T, space_b),
                        _matrix_observable(u @ x @ u.conj().T, space_b),
                        _matrix_observable(w @ c @ w.conj().T, space_c),
                        _matrix_observable(w @ c_prime @ w.conj().T, space_c))


def test_gisin_peres_settings_reach_gisin_on_qubits():
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = haar_two_qubit(rng)
        value = chsh_value(state, gisin_peres_settings(state))
        assert value == pytest.approx(horodecki_max(state), abs=1e-10)


@pytest.mark.parametrize("d", [3, 4, 6, 8])
def test_maximize_meets_gisin_peres_bound(d):
    rng = np.random.default_rng(1000 + d)
    space = SpaceDescriptor.single_spin((d - 1) / 2)
    space = space.tensor(space)
    state = StateVector(space, rng.normal(size=d * d) + 1j * rng.normal(size=d * d))
    bound = chsh_value(state, gisin_peres_settings(state))
    assert bound > 2.0
    res = chsh_maximize(state, "multistart-local-search", n_starts=4, seed=d,
                        tol=1e-10)
    assert res.converged
    assert res.max_value >= bound - 1e-8
    assert res.max_value <= TSIRELSON + 1e-9
    assert chsh_value(state, res.settings) == res.max_value
    assert res.settings.angle_lists() is None


def test_split_non_cs_spin1_states_violate():
    rng = np.random.default_rng(31)
    from coherence_lab.qcore import schmidt_cut
    found = 0
    while found < 25:
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = StateVector(SpaceDescriptor.single_spin(1), v)
        out = spin.split_spin(state, 0.5, 0.5)
        if schmidt_cut(out, 1).entropy_bits <= 0.01:
            continue
        found += 1
        assert horodecki_max(out) > 2.0


# ---------------------------------------------------------------------------
# the stacked see-saw against one start at a time
# ---------------------------------------------------------------------------

def _hermitian_stack(rng, shape, d) -> np.ndarray:
    g = rng.normal(size=(*shape, d, d)) + 1j * rng.normal(size=(*shape, d, d))
    return g + np.swapaxes(g.conj(), -1, -2)


@pytest.mark.parametrize("shape", [(3,), (7, 2), (3, 4, 2)], ids=str)
def test_two_level_best_response_is_the_sign_of_the_traceless_part(shape):
    # the oracle: sign(h - Tr(h)/2), from np.linalg.eigh one matrix at a time;
    # rows whose traceless part has norm <= 1e-12 come back as PAULI_Z
    rng = np.random.default_rng(len(shape))
    h = _hermitian_stack(rng, shape, 2)
    flat = h.reshape(-1, 2, 2)
    flat[0] = 0.0
    flat[1] = 2.5 * np.eye(2) + 1e-13 * bell.PAULI_X
    flat[-1] = -0.75 * np.eye(2) + 4e-13 * bell.PAULI_Y
    small = np.zeros(len(flat), dtype=bool)
    small[[0, 1, -1]] = True
    o = bell._best_responses(h)
    assert o.shape == h.shape
    for mat, got, vanishes in zip(flat, o.reshape(-1, 2, 2), small):
        if vanishes:
            assert np.array_equal(got, bell.PAULI_Z)
            continue
        vals, vecs = np.linalg.eigh(mat - 0.5 * np.trace(mat) * np.eye(2))
        want = (vecs * np.sign(vals)) @ vecs.conj().T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert np.array_equal(got, got.conj().T) and got[0, 0] == -got[1, 1]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 5), (13, 13)],
                         ids=lambda d: "%dx%d" % d)
@pytest.mark.parametrize("n_starts", [1, 5])
def test_side_update_forms_h_as_the_per_matrix_product(dims, n_starts, monkeypatch):
    # H = M Y^T M+ from two stacked 2-D products, against one product chain
    # per matrix, on both sides of the cut
    d_b, d_c = dims
    rng = np.random.default_rng(100 * d_b + d_c + n_starts)
    m = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    seen = []
    best_responses = bell._best_responses

    def recording(h):
        seen.append(h)
        return best_responses(h)

    monkeypatch.setattr(bell, "_best_responses", recording)
    for mat, d_x in ((m, d_c), (m.T, d_b)):
        x = _hermitian_stack(rng, (n_starts, 2), d_x)
        o, h = bell._side_update(mat.T, mat.conj().T, x)
        assert h is seen.pop()
        want = np.array([[mat @ (x[s, 0] + sign * x[s, 1]).T @ mat.conj().T
                          for sign in (1.0, -1.0)] for s in range(n_starts)])
        assert h.shape == want.shape
        assert np.abs(h - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(o, best_responses(h))
        # the see-saw's value, formed by the caller from the returned H
        value = np.vecdot(o.reshape(n_starts, -1), h.reshape(n_starts, -1)).real
        np.testing.assert_allclose(
            value, [np.vdot(o[s], want[s]).real for s in range(n_starts)],
            rtol=1e-13)


def _seesaw_state(dims) -> StateVector:
    if dims == "photon-13x13":
        return fock.split_fock(fock.number_state(12, 1), fock.SplitSpec.balanced())
    d_b, d_c = dims
    space = SpaceDescriptor.single_spin((d_b - 1) / 2).tensor(
        SpaceDescriptor.single_spin((d_c - 1) / 2))
    rng = np.random.default_rng(10 * d_b + d_c)
    return StateVector(space, rng.normal(size=d_b * d_c) + 1j * rng.normal(size=d_b * d_c))


def _recording_stacks(monkeypatch) -> list:
    """Patch ``bell._seesaw_starts`` to record each stack's sweep counts."""
    stack_sweeps = []
    stacked = bell._seesaw_starts

    def recording(*args):
        out = stacked(*args)
        stack_sweeps.append(out[-1])
        return out

    monkeypatch.setattr(bell, "_seesaw_starts", recording)
    return stack_sweeps


def _assert_matches_one_start_at_a_time(state, n_starts, tol, stack_sweeps):
    stack_sweeps.clear()
    res = chsh_maximize(state, "multistart-local-search", n_starts=n_starts,
                        seed=n_starts, tol=tol)
    ref, sweeps = seesaw_one_start_at_a_time(state, n_starts, n_starts, tol)
    assert res.max_value == ref.max_value
    assert res.converged == ref.converged
    for name in ("b", "b_prime", "c", "c_prime"):
        assert np.array_equal(getattr(res.settings, name).matrix,
                              getattr(ref.settings, name).matrix)
    assert sum(stack_sweeps, []) == sweeps
    return res


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4), (3, 5), "photon-13x13"],
                         ids=lambda d: d if isinstance(d, str) else "%dx%d" % d)
@pytest.mark.parametrize("per_stack", [None, 1, 3], ids=lambda k: f"stack-{k}")
def test_stacked_seesaw_is_bit_identical_to_one_start_at_a_time(dims, per_stack,
                                                                 monkeypatch):
    state = _seesaw_state(dims)
    d_b, d_c = state.space.factor_dims
    if per_stack is not None:
        # SEESAW_STACK_AMPS holds per_stack starts' observable entries
        monkeypatch.setattr(bell, "SEESAW_STACK_AMPS",
                            per_stack * 2 * (d_b * d_b + d_c * d_c))
    stack_sweeps = _recording_stacks(monkeypatch)
    for tol in (1e-7, 1e-10):
        for n_starts in (1, 8, 33):
            _assert_matches_one_start_at_a_time(state, n_starts, tol, stack_sweeps)
            if per_stack is not None:
                assert all(len(s) == per_stack for s in stack_sweeps[:-1])


@pytest.mark.parametrize("max_sweeps", [3, 4, 6])
def test_stacked_seesaw_at_the_sweep_cap_matches_one_start_at_a_time(max_sweeps,
                                                                      monkeypatch):
    # starts that stop on the cap's own sweep leave the stack converged,
    # the rest end unconverged with it
    monkeypatch.setattr(bell, "SEESAW_MAX_SWEEPS", max_sweeps)
    stack_sweeps = _recording_stacks(monkeypatch)
    results = [_assert_matches_one_start_at_a_time(_seesaw_state(dims), 33, 1e-10,
                                                   stack_sweeps)
               for dims in ((2, 3), (4, 4))]
    assert not all(res.converged for res in results)


@pytest.mark.parametrize("dims,value,settings_digest", [
    ((2, 2), "0x1.514f07af4f2cep+1", "1f30b01843fe4b28"),
    ((3, 3), "0x1.3bb28094d469fp+1", "3f28786067a2424c"),
], ids=["2x2", "3x3"])
def test_multistart_seesaw_keeps_its_recorded_bits(dims, value, settings_digest):
    # the one-start-at-a-time oracle shares _side_update and _best_responses
    # with the library, so only recorded bits see a trailing-bit move in
    # their arithmetic
    res = chsh_maximize(_seesaw_state(dims), "multistart-local-search", n_starts=8, seed=0)
    digest = hashlib.sha256()
    for name in ("b", "b_prime", "c", "c_prime"):
        digest.update(getattr(res.settings, name).matrix.astype("<c16").tobytes())
    assert (res.max_value.hex(), digest.hexdigest()[:16]) == (value, settings_digest)


def test_stacked_seesaw_eigensolves_once_per_side_per_sweep(monkeypatch):
    # eight starts on a 3x3 state share every eigendecomposition: one for the
    # starting c-side pairs, then one per side per sweep of the slowest start
    state = _seesaw_state((3, 3))
    calls = []
    eigh = np.linalg.eigh

    def counting(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    *_, sweeps = bell._seesaw_starts(state.amps.reshape(3, 3),
                                     np.random.default_rng(2), 8, 1e-7)
    assert min(sweeps) < max(sweeps) < bell.SEESAW_MAX_SWEEPS
    assert len(calls) == 1 + 2 * max(sweeps)
