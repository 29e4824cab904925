import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherence_lab import qcore
from coherence_lab.errors import (
    InvalidWeight,
    NotComposite,
    SpaceMismatch,
    ValidationError,
    ZeroVector,
)
from coherence_lab.qcore import (
    LinearOperator,
    SpaceDescriptor,
    StateVector,
    apply,
    as_twice_j,
    mat_exp,
    moments,
    overlap,
    schmidt_cut,
    tensor_state,
)

QUBIT = SpaceDescriptor.single_spin(0.5)


def qubit_state(a, b):
    return StateVector(QUBIT, [a, b])


# ---------------------------------------------------------------------------
# spaces and basic types
# ---------------------------------------------------------------------------

def test_space_dims():
    space = SpaceDescriptor.single_fock(5).tensor(SpaceDescriptor.single_spin(1))
    assert space.dim == 6 * 3
    assert space.factor_dims == (6, 3)
    assert space.nfactors == 2


def test_twice_j_validation():
    assert as_twice_j(0.5) == 1
    assert as_twice_j(3) == 6
    with pytest.raises(InvalidWeight):
        as_twice_j(0.3)
    with pytest.raises(InvalidWeight):
        as_twice_j(-1)


def test_state_normalizes_and_freezes():
    s = StateVector(QUBIT, [3.0, 4.0])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        s.amps[0] = 1.0
    with pytest.raises(AttributeError):
        s.amps = np.array([1, 0])


def test_null_state_rejected():
    with pytest.raises(ZeroVector):
        StateVector(QUBIT, [0.0, 0.0])


# 1e200 overflows each square; 1.3e154 squares to a finite value, but the
# sum of two such squares overflows
@pytest.mark.parametrize("big", [1e200, 1.3e154, 1e300])
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
def test_huge_amplitudes_normalize(big):
    state = StateVector(QUBIT, [big, big])
    np.testing.assert_allclose(state.amps, [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-16)
    assert StateVector(QUBIT, state.amps).amps.tobytes() == state.amps.tobytes()
    assert abs(np.linalg.norm(StateVector(QUBIT, [3 * big, 4j * big]).amps) - 1.0) < 1e-15


def test_hermitian_flag_checked():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        LinearOperator(QUBIT, bad, hermitian=True)


# ---------------------------------------------------------------------------
# tensor_state
# ---------------------------------------------------------------------------

def test_tensor_vacuum_vacuum():
    v = StateVector.basis(SpaceDescriptor.single_fock(3), 0)
    prod = tensor_state(v, v)
    assert prod.amps[0] == 1.0
    assert np.count_nonzero(prod.amps) == 1


def test_tensor_up_down_basis_bookkeeping():
    up = qubit_state(0, 1)
    down = qubit_state(1, 0)
    prod = tensor_state(up, down)
    # leftmost factor slowest: |up, down> sits at index 1*2 + 0
    expected = np.zeros(4)
    expected[2] = 1.0
    np.testing.assert_allclose(prod.amps, expected)


def test_tensor_superposition_row_major():
    u = qubit_state(1 / math.sqrt(2), 1 / math.sqrt(2))
    v = qubit_state(1, 0)
    prod = tensor_state(u, v)
    # frozen from direct Kronecker evaluation
    expected = np.array([1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0])
    np.testing.assert_allclose(prod.amps, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_identity():
    s = qubit_state(0.6, 0.8j)
    ident = LinearOperator(QUBIT, np.eye(2), hermitian=True)
    out = apply(ident, s)
    np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)


def test_apply_annihilates_vacuum():
    from coherence_lab.fock import ladder_ops, vacuum
    a, _ = ladder_ops(4)
    raw = apply(a, vacuum(4), normalize=False)
    np.testing.assert_allclose(raw, 0.0, atol=1e-15)
    with pytest.raises(ZeroVector):
        apply(a, vacuum(4))


def test_apply_raising_on_spin_half():
    from coherence_lab.spin import basis_state, spin_ops
    _, jp, _ = spin_ops(0.5)
    out = apply(jp, basis_state(0.5, -0.5))
    np.testing.assert_allclose(out.amps, basis_state(0.5, 0.5).amps, atol=1e-14)


def test_apply_space_mismatch():
    s = qubit_state(1, 0)
    other = LinearOperator(SpaceDescriptor.single_fock(1), np.eye(2))
    with pytest.raises(SpaceMismatch):
        apply(other, s)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_quadratures_on_coherent_state():
    from coherence_lab.fock import glauber_cs, quadrature_ops
    q, p = quadrature_ops(40)
    s = glauber_cs(1.0, 40)
    mean_q, var_q = moments(q, s)
    mean_p, var_p = moments(p, s)
    assert abs(mean_q - math.sqrt(2)) < 1e-8
    assert abs(var_q - 0.5) < 1e-8
    assert abs(mean_p) < 1e-8
    assert abs(var_p - 0.5) < 1e-8


def test_moments_eigenstate_has_zero_variance():
    from coherence_lab.spin import basis_state, spin_ops
    j0, _, _ = spin_ops(0.5)
    mean, var = moments(j0, basis_state(0.5, -0.5))
    assert abs(mean + 0.5) < 1e-14
    assert abs(var) < 1e-14


def test_moments_non_hermitian_mean_only():
    from coherence_lab.fock import glauber_cs, ladder_ops
    a, _ = ladder_ops(30)
    mean, var = moments(a, glauber_cs(0.5 + 0.25j, 30))
    assert var is None
    assert abs(mean - (0.5 + 0.25j)) < 1e-8


# ---------------------------------------------------------------------------
# mat_exp
# ---------------------------------------------------------------------------

def test_exp_zero_is_identity():
    space = SpaceDescriptor.single_fock(4)
    z = LinearOperator(space, np.zeros((5, 5)))
    np.testing.assert_allclose(mat_exp(z).matrix, np.eye(5), atol=1e-15)


def test_exp_diagonal_spin_half():
    from coherence_lab.spin import spin_ops
    j0, _, _ = spin_ops(0.5)
    e = mat_exp(LinearOperator(j0.space, 1j * math.pi * j0.matrix))
    expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    np.testing.assert_allclose(e.matrix, expected, atol=1e-13)


def test_exp_coset_matches_closed_form_cs():
    # xi = -pi/4 corresponds to theta = pi/2, phi = 0, i.e. zeta = -1
    from coherence_lab.spin import SpinCsParams, spin_cs, spin_cs_exp
    got = spin_cs_exp(0.5, -math.pi / 4)
    want = spin_cs(SpinCsParams(j=0.5, zeta=-1.0))
    aligned = qcore.phase_align(want.amps, got.amps)
    np.testing.assert_allclose(aligned, want.amps, atol=1e-12)


def test_exp_accuracy_against_eigendecomposition():
    # anti-Hermitian generators are normal: exp has an exact spectral form
    rng = np.random.default_rng(11)
    space = SpaceDescriptor.single_fock(7)
    for _ in range(5):
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2
        gen = LinearOperator(space, 1j * h)
        vals, vecs = np.linalg.eigh(h)
        exact = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        got = mat_exp(gen).matrix
        rel = np.abs(got - exact).max() / np.abs(exact).max()
        assert rel < 1e-12


def test_exp_non_finite_rejected():
    from coherence_lab.errors import NonFinite
    space = SpaceDescriptor.single_fock(1)
    bad = LinearOperator(space, np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(NonFinite):
        mat_exp(bad)


def test_exp_inverse_property():
    rng = np.random.default_rng(5)
    space = SpaceDescriptor.single_fock(5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = LinearOperator(space, m)
    neg = LinearOperator(space, -m)
    prod = mat_exp(op).matrix @ mat_exp(neg).matrix
    np.testing.assert_allclose(prod, np.eye(6), atol=1e-10)


# ---------------------------------------------------------------------------
# schmidt_cut / overlap
# ---------------------------------------------------------------------------

def test_schmidt_product_state():
    u = qubit_state(0.6, 0.8)
    v = qubit_state(1 / math.sqrt(2), 1j / math.sqrt(2))
    rep = schmidt_cut(tensor_state(u, v), 1)
    assert rep.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.entropy_bits < 1e-12
    assert rep.is_product


def test_schmidt_bell_state():
    psi = StateVector(QUBIT.tensor(QUBIT), [0, 1, 1, 0])
    rep = schmidt_cut(psi, 1)
    np.testing.assert_allclose(rep.coefficients,
                               [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)
    assert not rep.is_product


def test_schmidt_spin1_cs_embeds_as_product():
    from coherence_lab.spin import SpinCsParams, spin_cs, split_spin
    state = split_spin(spin_cs(SpinCsParams(j=1, zeta=1.0)), 0.5, 0.5)
    assert schmidt_cut(state, 1).entropy_bits < 1e-10


def test_schmidt_needs_composite():
    with pytest.raises(NotComposite):
        schmidt_cut(qubit_state(1, 0), 1)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(3)
    space = SpaceDescriptor.single_fock(3).tensor(SpaceDescriptor.single_spin(1))
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = StateVector(space, amps)
    rep = schmidt_cut(s, 1)
    assert abs((rep.coefficients ** 2).sum() - 1.0) < 1e-10
    rebuilt = np.zeros(12, dtype=complex)
    for k, c in enumerate(rep.coefficients):
        rebuilt += c * np.kron(rep.left_vectors[:, k], rep.right_vectors[k, :])
    np.testing.assert_allclose(rebuilt, s.amps, atol=1e-10)


def test_overlap_self_and_phase():
    s = qubit_state(0.6, 0.8j)
    assert overlap(s, s) == pytest.approx(1.0, abs=1e-14)
    rotated = StateVector(QUBIT, s.amps * np.exp(0.7j))
    assert overlap(s, rotated) == pytest.approx(np.exp(0.7j), abs=1e-14)


def test_overlap_vacuum_coherent():
    from coherence_lab.fock import glauber_cs, vacuum
    got = overlap(vacuum(40), glauber_cs(1.0, 40))
    assert got == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_overlap_lowest_weight_with_spin_cs():
    from coherence_lab.spin import SpinCsParams, lowest_state, spin_cs
    zeta = 0.8 - 0.5j
    got = overlap(lowest_state(0.5), spin_cs(SpinCsParams(j=0.5, zeta=zeta)))
    assert got == pytest.approx((1 + abs(zeta) ** 2) ** -0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

amplitude = st.complex_numbers(min_magnitude=0.0, max_magnitude=1.0,
                               allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(amplitude, min_size=3, max_size=3),
       st.lists(amplitude, min_size=4, max_size=4))
def test_tensor_norm_preserved(u_amps, v_amps):
    if np.linalg.norm(u_amps) < 1e-3 or np.linalg.norm(v_amps) < 1e-3:
        return
    u = StateVector(SpaceDescriptor.single_spin(1), u_amps)
    v = StateVector(SpaceDescriptor.single_fock(3), v_amps)
    assert abs(np.linalg.norm(tensor_state(u, v).amps) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_antihermitian_exp_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    space = SpaceDescriptor.single_fock(4)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    gen = LinearOperator(space, h - h.conj().T)
    u = mat_exp(gen)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    s = StateVector(space, amps)
    assert abs(np.linalg.norm(u.matrix @ s.amps) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_hermitian_variance_nonnegative(seed):
    rng = np.random.default_rng(seed)
    space = SpaceDescriptor.single_fock(5)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = LinearOperator(space, (h + h.conj().T) / 2, hermitian=True)
    s = StateVector(space, rng.normal(size=6) + 1j * rng.normal(size=6))
    _, var = moments(op, s)
    assert var >= -1e-12


# the largest split state in use: N = 300 into two N = 300 modes
LARGEST_SPLIT_DIM = 301 * 301
AMP_SHAPES = ("gaussian", "uniform", "decaying", "spike")


def shaped_amps(shape, dim, seed):
    """Unnormalized amplitudes of a given shape, scaled far from norm 1.

    ``uniform`` is a uniform superposition, the worst case for a running
    sum of squares: its rounding errors all point the same way.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 6)
    if shape == "gaussian":
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    elif shape == "uniform":
        vec = np.full(dim, complex(rng.uniform(0.1, 2), rng.uniform(-2, 2)))
    elif shape == "decaying":
        vec = np.exp(-np.arange(dim) / rng.uniform(1, dim) + 1j * rng.uniform(0, 6.3, dim))
    else:
        vec = 1e-9 * rng.normal(size=dim) + 0j
        vec[rng.integers(dim)] = 1.0
    return scale * vec


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=LARGEST_SPLIT_DIM),
       st.sampled_from(AMP_SHAPES),
       st.integers(min_value=0, max_value=10 ** 6))
@example(28, "gaussian", 2)
@example(151 * 151, "uniform", 0)
# seed 156: a uniform superposition on which one division by a BLAS-summed
# norm leaves the BLAS-summed norm over 1200 ulps from 1, beyond 4 sqrt(dim) eps
@example(LARGEST_SPLIT_DIM, "uniform", 156)
def test_construction_is_idempotent(dim, shape, seed):
    space = SpaceDescriptor.single_fock(dim - 1)
    state = StateVector(space, shaped_amps(shape, dim, seed))
    again = StateVector(space, state.amps)
    assert again.amps.tobytes() == state.amps.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=LARGEST_SPLIT_DIM),
       st.sampled_from(AMP_SHAPES),
       st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=-14.9, max_value=-1.0),
       st.sampled_from((-1.0, 1.0)))
@example(LARGEST_SPLIT_DIM, "uniform", 0, -14.9, 1.0)
def test_norm_off_by_more_than_rounding_is_normalized(dim, shape, seed, log_offset, sign):
    # 10 ** -14.9 is about 5.7 eps, above the 4 eps kept as rounding
    assert 10.0 ** -14.9 > qcore.NORM_ROUNDING
    space = SpaceDescriptor.single_fock(dim - 1)
    unit = StateVector(space, shaped_amps(shape, dim, seed)).amps
    state = StateVector(space, unit * (1.0 + sign * 10.0 ** log_offset))
    assert abs(np.linalg.norm(state.amps) - 1.0) < qcore.NORM_TOL
