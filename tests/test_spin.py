import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import binom

from coherence_lab import qcore, spin
from coherence_lab.dynamics import LinearSpinHamiltonian, evolve_spin
from coherence_lab.errors import (
    AntipodalPoint,
    InvalidWeight,
    NumericalError,
    ValidationError,
    WeightConditionViolated,
)
from coherence_lab.qcore import (
    LinearOperator,
    StateVector,
    aligned_distance,
    apply,
    mat_exp,
    overlap,
    schmidt_cut,
    tensor_state,
)
from coherence_lab.spin import (
    SpinCsParams,
    angle_to_zeta,
    basis_state,
    coupling_weight,
    lowest_state,
    nearest_cs_fit,
    spin_cs,
    spin_cs_exp,
    spin_ops,
    spin_space,
    split_spin,
)

HALF_SPINS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0]


def test_j0_spin_half():
    j0, _, _ = spin_ops(0.5)
    np.testing.assert_allclose(j0.matrix, np.diag([-0.5, 0.5]), atol=1e-15)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_su2_commutators(j):
    j0, jp, jm = spin_ops(j)
    comm_pm = jp.matrix @ jm.matrix - jm.matrix @ jp.matrix
    np.testing.assert_allclose(comm_pm, 2 * j0.matrix, atol=1e-13)
    comm_0p = j0.matrix @ jp.matrix - jp.matrix @ j0.matrix
    np.testing.assert_allclose(comm_0p, jp.matrix, atol=1e-13)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_casimir(j):
    j0, jp, jm = spin_ops(j)
    casimir = (j0.matrix @ j0.matrix
               + (jp.matrix @ jm.matrix + jm.matrix @ jp.matrix) / 2)
    np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(int(2 * j) + 1),
                               atol=1e-12)


def test_basis_state_lowest_and_raised():
    np.testing.assert_allclose(basis_state(1, -1).amps, [1, 0, 0], atol=1e-15)
    # one raising application with matched normalization
    np.testing.assert_allclose(basis_state(1, 0).amps, [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(basis_state(1.5, 1.5).amps, [0, 0, 0, 1],
                               atol=1e-12)


def raised_lowest_state(j, k):
    """binom(2j, k)^(-1/2) (J+)^k / k! |j,-j>: the lowest weight state raised
    k times with spin_ops' J+."""
    tj = int(2 * j)
    _, jp, _ = spin_ops(j)
    vec = np.zeros(tj + 1, dtype=complex)
    vec[0] = 1.0
    for _ in range(k):
        vec = jp.matrix @ vec
    return vec / (math.factorial(k) * math.sqrt(math.comb(tj, k)))


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 200])
def test_basis_state_is_canonical(j):
    tj = int(2 * j)
    for k in range(tj + 1):
        expected = np.zeros(tj + 1)
        expected[k] = 1.0
        assert np.array_equal(basis_state(j, -j + k).amps, expected)
        if tj <= 5:  # the raising recursion overflows long before 2j = 400
            np.testing.assert_allclose(raised_lowest_state(j, k), expected, atol=1e-12)


def test_basis_state_invalid_weight():
    with pytest.raises(InvalidWeight):
        basis_state(1, 0.5)
    with pytest.raises(InvalidWeight):
        basis_state(1, 2)


def test_spin_cs_at_zero_is_lowest():
    s = spin_cs(SpinCsParams(j=2, zeta=0.0))
    np.testing.assert_allclose(s.amps, lowest_state(2).amps, atol=1e-15)


def test_spin_cs_half_explicit():
    s = spin_cs(SpinCsParams(j=0.5, zeta=1.0))
    np.testing.assert_allclose(s.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                               atol=1e-14)


def test_spin_cs_one_explicit():
    s = spin_cs(SpinCsParams(j=1, zeta=1.0))
    np.testing.assert_allclose(s.amps, [0.5, math.sqrt(2) / 2, 0.5], atol=1e-14)


@pytest.mark.parametrize("tj", [2000, 10 ** 4])
def test_spin_cs_matches_binomial_far_out(tj):
    # |amplitude|^2 is the binomial pmf with p = |zeta|^2 / (1 + |zeta|^2);
    # C(2j, k) alone overflows a float above 2j = 1029
    zeta = 0.8 * np.exp(-0.7j)
    k = np.arange(tj + 1)
    p = abs(zeta) ** 2 / (1 + abs(zeta) ** 2)
    want = np.sqrt(binom.pmf(k, tj, p)) * np.exp(1j * k * np.angle(zeta))
    got = spin_cs(SpinCsParams(j=tj / 2, zeta=zeta)).amps
    assert np.abs(got - want).max() <= 1e-12


def test_spin_cs_antipodal_via_angles():
    s = spin_cs(SpinCsParams.from_angles(1, math.pi, 0.7))
    np.testing.assert_allclose(s.amps, [0, 0, 1], atol=1e-15)


def test_spin_cs_rejects_nonfinite_zeta():
    with pytest.raises(ValidationError):
        SpinCsParams(j=1, zeta=complex(np.inf))


def test_angle_to_zeta_values():
    assert angle_to_zeta(0.0, 0.3) == 0.0
    assert angle_to_zeta(math.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-14)
    # frozen by direct evaluation of -tan(theta/2) exp(-i phi)
    got = angle_to_zeta(math.pi / 2, math.pi / 2)
    assert got == pytest.approx(1j, abs=1e-14)
    with pytest.raises(AntipodalPoint):
        angle_to_zeta(math.pi, 0.0)


def test_spin_cs_exp_zero():
    s = spin_cs_exp(1.5, 0.0)
    np.testing.assert_allclose(s.amps, lowest_state(1.5).amps, atol=1e-15)


def test_spin_cs_exp_matches_closed_form_spin_half():
    got = spin_cs_exp(0.5, -math.pi / 4)
    want = spin_cs(SpinCsParams(j=0.5, zeta=-1.0))
    assert aligned_distance(want, got) < 1e-12


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_two_route_agreement(j):
    rng = np.random.default_rng(42)
    for _ in range(12):
        r = rng.uniform(0.05, 1.39)
        ang = rng.uniform(0, 2 * math.pi)
        xi = r * np.exp(1j * ang)
        got = spin_cs_exp(j, xi)
        zeta = xi / abs(xi) * math.tan(abs(xi))
        want = spin_cs(SpinCsParams(j=j, zeta=zeta))
        assert abs(overlap(want, got)) > 1 - 1e-10


def test_isotropy_rotation_moves_zeta_forward():
    # exp(i delta J0)|j,zeta> = |j, zeta e^{i delta}> up to a global phase
    j, zeta, delta = 1.5, 0.6 - 0.2j, 0.8
    j0, _, _ = spin_ops(j)
    rot = mat_exp(LinearOperator(j0.space, 1j * delta * j0.matrix))
    got = apply(rot, spin_cs(SpinCsParams(j=j, zeta=zeta)))
    want = spin_cs(SpinCsParams(j=j, zeta=zeta * np.exp(1j * delta)))
    assert aligned_distance(want, got) < 1e-12


def test_isotropy_leaves_reference_state_invariant():
    j = 1.0
    j0, _, _ = spin_ops(j)
    rot = mat_exp(LinearOperator(j0.space, 1j * 1.1 * j0.matrix))
    got = apply(rot, lowest_state(j))
    assert aligned_distance(lowest_state(j), got) < 1e-12


# ---------------------------------------------------------------------------
# stretched-coupling embedding
# ---------------------------------------------------------------------------

def coupling_matrix(jb, jc):
    """The stretched coupling as a dense matrix: the split kernel applied to
    every basis state of spin jb + jc."""
    d_a = int(2 * (jb + jc)) + 1
    return qcore.split_amplitudes(np.eye(d_a), coupling_weight(jb, jc)).reshape(d_a, -1).T


def test_addition_isometry_spin1_columns():
    w = coupling_matrix(0.5, 0.5)
    down_down = np.array([1, 0, 0, 0], dtype=complex)
    up_up = np.array([0, 0, 0, 1], dtype=complex)
    triplet = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    np.testing.assert_allclose(w[:, 0], down_down, atol=1e-14)
    np.testing.assert_allclose(w[:, 1], triplet, atol=1e-14)
    np.testing.assert_allclose(w[:, 2], up_up, atol=1e-14)


PAIRS = [(b / 2, c / 2) for b in range(1, 7) for c in range(1, 7)]


def test_large_balanced_coupling_passes_the_column_check():
    # the corner weight 1/sqrt(C(4000, 2000)) is about 1e-601 in a product
    # of ratios; summed in logs every column still has unit norm
    w = coupling_weight(1000, 1000)
    qcore.split_amplitudes(np.ones(4001) / math.sqrt(4001), w)
    assert w[0, 0] == 1.0 and w[-1, -1] == 1.0


@pytest.mark.parametrize("jb,jc", PAIRS)
def test_addition_isometry_is_isometry(jb, jc):
    w = coupling_matrix(jb, jc)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-12)


@pytest.mark.parametrize("jb,jc", PAIRS)
def test_intertwining_relations(jb, jc):
    ja = jb + jc
    w = coupling_matrix(jb, jc)
    ops_a = spin_ops(ja)
    ops_b = spin_ops(jb)
    ops_c = spin_ops(jc)
    dim_b, dim_c = int(2 * jb) + 1, int(2 * jc) + 1
    for op_a, op_b, op_c in zip(ops_a, ops_b, ops_c):
        pair = (np.kron(op_b.matrix, np.eye(dim_c))
                + np.kron(np.eye(dim_b), op_c.matrix))
        residue = np.abs(w @ op_a.matrix - pair @ w).max()
        assert residue < 1e-11


def test_split_spin_cs_factorizes_exactly():
    zeta = 0.4 + 1.1j
    got = split_spin(spin_cs(SpinCsParams(j=1, zeta=zeta)), 0.5, 0.5)
    half = spin_cs(SpinCsParams(j=0.5, zeta=zeta))
    want = tensor_state(half, half)
    np.testing.assert_allclose(got.amps, want.amps, atol=1e-12)


def test_split_spin_m0_is_maximally_entangled():
    got = split_spin(basis_state(1, 0), 0.5, 0.5)
    rep = schmidt_cut(got, 1)
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)


def test_split_spin_lowest_is_product_of_lowests():
    got = split_spin(lowest_state(2), 0.5, 1.5)
    want = tensor_state(lowest_state(0.5), lowest_state(1.5))
    np.testing.assert_allclose(got.amps, want.amps, atol=1e-14)


def test_split_spin_weight_condition():
    with pytest.raises(WeightConditionViolated):
        split_spin(basis_state(1, 0), 0.5, 1.0)


def test_cs_factorization_random_zeta_all_pairs():
    rng = np.random.default_rng(2024)
    pairs = [(b / 2, c / 2) for b in range(1, 6) for c in range(1, 6)
             if b + c <= 6]
    zetas = 5.0 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(
        2j * math.pi * rng.uniform(0, 1, 40))
    for jb, jc in pairs:
        ja = jb + jc
        for zeta in zetas[:10]:
            out = split_spin(spin_cs(SpinCsParams(j=ja, zeta=zeta)), jb, jc)
            assert schmidt_cut(out, 1).entropy_bits < 1e-9


# ---------------------------------------------------------------------------
# fits and the lowest-weight state
# ---------------------------------------------------------------------------

def test_nearest_cs_fit_roundtrip():
    params = SpinCsParams.from_angles(1.5, 1.1, 2.3)
    theta, phi, zeta, fid = nearest_cs_fit(spin_cs(params))
    assert fid > 1 - 1e-12
    assert theta == pytest.approx(1.1, abs=1e-7)
    assert phi == pytest.approx(2.3, abs=1e-7)
    assert abs(zeta - angle_to_zeta(1.1, 2.3)) < 1e-7


def test_nearest_cs_fit_pole():
    state = StateVector(spin_space(1), [0, 0, 1])
    theta, phi, zeta, fid = nearest_cs_fit(state)
    assert fid > 1 - 1e-12
    assert theta == pytest.approx(math.pi, abs=1e-7)
    assert np.isinf(abs(zeta))


def test_polish_runs_only_when_it_can_improve(monkeypatch):
    calls = []
    real = spin.minimize
    monkeypatch.setattr(spin, "minimize", lambda *a, **k: calls.append(1) or real(*a, **k))
    # the polish keeps only a strict improvement: on a true coherent state the
    # machine-exact ratio candidate survives the simplex
    for j, zeta in ((0.5, 0.3), (2, 0.4 - 0.7j), (5, 1.2j)):
        assert nearest_cs_fit(spin_cs(SpinCsParams(j=j, zeta=zeta)))[3] > 1 - 1e-15
    calls.clear()
    # a trajectory reads its labels from the mean spin: no fit at all
    initial = spin_cs(SpinCsParams(j=3, zeta=0.8 - 0.2j))
    traj = evolve_spin(LinearSpinHamiltonian(0.9, 0.3 + 0.1j), 3,
                       np.linspace(0.0, 3.0, 9), initial)
    assert traj.cs_fidelity.min() > 1 - 1e-12
    assert calls == []
    # |<cs|1,0>| <= 1/sqrt(2): the polish runs once
    assert nearest_cs_fit(basis_state(1, 0))[3] < 1 - 1e-6
    assert len(calls) == 1


def test_mean_spin_label_is_fixed_where_the_mean_spin_vanishes():
    # |1, 0> keeps <J> = 0 under a linear Hamiltonian; the computed mean spin
    # is rounding noise of up to about 1.1e-15, which once gave labels from
    # theta = pi to 2.0
    traj = evolve_spin(LinearSpinHamiltonian(0.9, 0.3 + 0.1j), 1,
                       np.linspace(0.0, 3.0, 7), basis_state(1, 0))
    assert (traj.theta_track == 0.0).all() and (traj.phi_track == 0.0).all()
    assert (traj.zeta_track == 0.0).all()
    for state, fid in zip(traj.states, traj.cs_fidelity):
        assert fid == abs(state.amps[0])
    assert spin.mean_spin_label(basis_state(1, 0)) == (0.0, 0.0, 0.0, 0.0)
    # a coherent state has |<J>| = j, so one next to the pole keeps its label
    assert spin.mean_spin_label(spin_cs(SpinCsParams(j=1, zeta=1e-6)))[0] > 0.0


@pytest.mark.parametrize("tj", [1, 2, 7, 40])
def test_mean_spin_of_a_stack_is_its_rows_bit_for_bit(tj):
    rng = np.random.default_rng(tj)
    stack = rng.normal(size=(2, 5, tj + 1)) + 1j * rng.normal(size=(2, 5, tj + 1))
    stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
    mean_j0, mean_jp = spin._mean_spin(stack)
    assert mean_j0.shape == mean_jp.shape == (2, 5)
    for index in np.ndindex(2, 5):
        row_j0, row_jp = spin._mean_spin(stack[index])
        assert mean_j0[index] == row_j0 and mean_jp[index] == row_jp


def test_nearest_cs_fit_refuses_an_unconverged_search(monkeypatch):
    def starved(*args, options, **kwargs):
        return minimize(*args, options=dict(options, maxiter=3), **kwargs)

    monkeypatch.setattr(spin, "minimize", starved)
    with pytest.raises(NumericalError):
        nearest_cs_fit(basis_state(1, 0))


def test_nearest_cs_fit_restarts_a_stalled_search():
    # the 2520th spin-1 state drawn as normal(3) + 1j normal(3) from
    # default_rng(102): the first search stalls at phi near -0.074 after
    # 600 iterations with fidelity 0.884
    state = StateVector(spin_space(1), [-0.5598415435034929 - 1.9466217084334736j,
                                        -0.445209926251902 + 0.8860333593009062j,
                                        0.3935533965643226 - 1.5264526758559385j])
    fid = nearest_cs_fit(state)[3]
    rows = spin._cs_rows(2)
    grid = max(abs(np.vdot(spin._angles_amps(rows, theta, phi), state.amps))
               for theta in np.linspace(0.0, math.pi, 61)
               for phi in np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False))
    assert grid <= fid == pytest.approx(0.9029083194057773, abs=1e-12)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_lowest_state_is_lowest_weight(j):
    j0, _, jm = spin_ops(j)
    low = lowest_state(j).amps
    np.testing.assert_allclose(jm.matrix @ low, 0.0, atol=1e-15)
    np.testing.assert_allclose(j0.matrix @ low, -j * low, atol=1e-15)
