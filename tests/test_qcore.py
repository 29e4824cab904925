import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherence_lab import fock, qcore, spin
from coherence_lab.errors import (
    InvalidWeight,
    NonFinite,
    NotComposite,
    ValidationError,
    ZeroVector,
)
from coherence_lab.qcore import (
    SpaceDescriptor,
    StateVector,
    as_twice_j,
    overlap,
    schmidt_cut,
    tensor_state,
)
from oracles import (
    coset_state,
    expectation,
    fsum_squares,
    generators,
    mean_variance,
    normalize_rows_by_fsum,
    phase_align,
    quadratures,
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
def test_huge_amplitudes_normalize(big):
    state = StateVector(QUBIT, [big, big])
    np.testing.assert_allclose(state.amps, [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-16)
    assert StateVector(QUBIT, state.amps).amps.tobytes() == state.amps.tobytes()
    assert abs(np.linalg.norm(StateVector(QUBIT, [3 * big, 4j * big]).amps) - 1.0) < 1e-15


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
# generators applied to states
# ---------------------------------------------------------------------------

def test_apply_annihilates_vacuum():
    _, _, a = generators(fock, 4)
    raw = a @ fock.vacuum(4).amps
    np.testing.assert_allclose(raw, 0.0, atol=1e-15)
    with pytest.raises(ZeroVector):
        StateVector(fock.fock_space(4), raw)


def test_apply_raising_on_spin_half():
    _, jp, _ = generators(spin, 1)
    out = StateVector(spin.spin_space(0.5), jp @ spin.basis_state(0.5, -0.5).amps)
    np.testing.assert_allclose(out.amps, spin.basis_state(0.5, 0.5).amps, atol=1e-14)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_quadratures_on_coherent_state():
    q, p = quadratures(40)
    s = fock.glauber_cs(1.0, 40)
    mean_q, var_q = mean_variance(q, s)
    mean_p, var_p = mean_variance(p, s)
    assert abs(mean_q - math.sqrt(2)) < 1e-8
    assert abs(var_q - 0.5) < 1e-8
    assert abs(mean_p) < 1e-8
    assert abs(var_p - 0.5) < 1e-8


def test_moments_eigenstate_has_zero_variance():
    j0, _, _ = generators(spin, 1)
    mean, var = mean_variance(j0, spin.basis_state(0.5, -0.5))
    assert abs(mean + 0.5) < 1e-14
    assert abs(var) < 1e-14


def test_moments_non_hermitian_mean_only():
    _, _, a = generators(fock, 30)
    mean = expectation(a, fock.glauber_cs(0.5 + 0.25j, 30))
    assert abs(mean - (0.5 + 0.25j)) < 1e-8


# ---------------------------------------------------------------------------
# the coset exponential
# ---------------------------------------------------------------------------

def test_exp_coset_matches_closed_form_cs():
    # xi = -pi/4 corresponds to theta = pi/2, phi = 0, i.e. zeta = -1
    got = coset_state(0.5, -math.pi / 4)
    want = spin.spin_cs(spin.SpinCsParams(j=0.5, zeta=-1.0))
    aligned = phase_align(want.amps, got.amps)
    np.testing.assert_allclose(aligned, want.amps, atol=1e-12)


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


def test_schmidt_coefficients_are_values_only_svd():
    rng = np.random.default_rng(5)
    space = SpaceDescriptor.single_fock(4).tensor(SpaceDescriptor.single_spin(1.5))
    s = StateVector(space, rng.normal(size=20) + 1j * rng.normal(size=20))
    rep = schmidt_cut(s, 1)
    want = np.linalg.svd(s.amps.reshape(5, 4), compute_uv=False)
    assert rep.coefficients.tobytes() == want.tobytes()
    # the Schmidt vectors are computed on first read only
    assert "_vectors" not in vars(rep)
    assert rep.left_vectors.shape == (5, 4) and rep.right_vectors.shape == (4, 4)
    assert "_vectors" in vars(rep)


def test_entropy_of_a_stack_matches_each_spectrum():
    spectra = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0],
                        [0.6, 0.6, math.sqrt(0.28)]])
    stack = qcore.entropy_from_coefficients(spectra)
    for row, ent in zip(spectra, stack):
        assert np.float64(qcore.entropy_from_coefficients(row)).tobytes() == ent.tobytes()
    # a product spectrum has entropy 0.0, not -0.0
    assert math.copysign(1.0, qcore.entropy_from_coefficients(spectra[0])) == 1.0


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
    from coherence_lab.spin import SpinCsParams, basis_state, spin_cs
    zeta = 0.8 - 0.5j
    got = overlap(basis_state(0.5, -0.5), spin_cs(SpinCsParams(j=0.5, zeta=zeta)))
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


def test_stacked_normalization_matches_state_vector_bytes():
    # one stack holds a row kept as given (unit to rounding) and a row that
    # is divided (norm off by 1e-10); each equals its StateVector's amplitudes
    space = SpaceDescriptor.single_fock(27)
    unit = StateVector(space, shaped_amps("gaussian", 28, 2)).amps
    rows = np.stack([unit, unit * (1.0 + 1e-10)])
    got = qcore._normalize_rows(rows.copy())
    assert got[0].tobytes() == unit.tobytes()
    assert got[1].tobytes() != rows[1].tobytes()
    for row, given in zip(got, rows):
        assert row.tobytes() == StateVector(space, given).amps.tobytes()
    # the states of a stack read its normalized rows, frozen
    states = StateVector._stack(space, rows.copy())
    assert [state.amps.tobytes() for state in states] == [row.tobytes() for row in got]
    assert all(state.space == space and not state.amps.flags.writeable for state in states)
    with pytest.raises(ValidationError, match="do not match space dim 28"):
        StateVector._stack(space, rows[:, :-1].copy())


def test_stacked_normalization_checks_the_whole_stack():
    rows = np.ones((3, 2), dtype=complex)
    rows[2, 1] = np.nan
    with pytest.raises(NonFinite):
        qcore._normalize_rows(rows)
    rows[2] = 0.0
    with pytest.raises(ZeroVector):
        qcore._normalize_rows(rows)


def normalized_or_error(normalize, rows):
    """The normalized bytes, or the error type ``normalize`` raises."""
    try:
        return normalize(rows.copy()).tobytes()
    except (NonFinite, ZeroVector) as exc:
        return type(exc)


#: complex entries of a stack just above the vectorized sum's crossover
ABOVE_CROSSOVER = qcore._VECTOR_SUM_MIN // 2 + 1


@st.composite
def large_stacks(draw):
    """1-4 shaped rows of at least ``_VECTOR_SUM_MIN`` floats in all, each
    scaled by its own 10^x, x uniform in [-150, 150]."""
    n_rows = draw(st.integers(min_value=1, max_value=4))
    dim = draw(st.integers(min_value=ABOVE_CROSSOVER, max_value=4096))
    shape = draw(st.sampled_from(AMP_SHAPES))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    scales = 10.0 ** np.random.default_rng(seed).uniform(-150, 150, size=(n_rows, 1))
    return scales * np.stack([shaped_amps(shape, dim, seed + i) for i in range(n_rows)])


# the squares sum to 3 + 2^-52 + 2^-200, just above the midpoint 3 + 2^-52
# between 3 and the next float; the float sum drops 2^-200 and lands on the
# midpoint itself, which rounds to 3, so only the fallback gives fsum's bits
TIE = np.zeros((1, ABOVE_CROSSOVER), dtype=complex)
TIE[0, :3] = 1 + 1j, 1 + 2.0 ** -26 * 1j, 2.0 ** -100
# most squares subnormal (1e-320) beside a few normal ones
SUBNORMAL_HEAVY = np.full((2, 600), 1e-160 + 3e-161j)
SUBNORMAL_HEAVY[:, :3] = 2e-154


@settings(max_examples=40, deadline=None)
@given(large_stacks())
@example(TIE)
@example(SUBNORMAL_HEAVY)
@example(np.full((1, LARGEST_SPLIT_DIM), 0.3 - 0.7j))
def test_vectorized_sums_are_fsum_bits(stack):
    assert stack.size * 2 >= qcore._VECTOR_SUM_MIN
    flat = stack.view(float)
    assert qcore._sum_squares(flat) == fsum_squares(flat)
    assert (normalized_or_error(qcore._normalize_rows, stack)
            == normalized_or_error(normalize_rows_by_fsum, stack))
    space = SpaceDescriptor.single_fock(stack.shape[1] - 1)
    assert (normalized_or_error(lambda rows: np.stack(
                [state.amps for state in StateVector._stack(space, rows)]), stack)
            == normalized_or_error(normalize_rows_by_fsum, stack))


def test_tie_takes_the_fsum_fallback(monkeypatch):
    calls = []
    monkeypatch.setattr(qcore, "_fsum", lambda squares: calls.append(squares) or 1.0)
    qcore._sum_squares(TIE.view(float))
    assert len(calls) == 1


def test_large_stack_rescales_overflow_and_refuses_null_and_nan():
    # 1026 floats a row, summed vectorized: the 1e200 row's squares overflow,
    # and the 1.3e154 row's finite squares give sigma = 2^(k + e) beyond the
    # float range; both must stay quiet, since RuntimeWarnings are errors here
    space = SpaceDescriptor.single_fock(ABOVE_CROSSOVER - 1)
    state = StateVector(space, np.full(ABOVE_CROSSOVER, 1e200 - 1e200j))
    np.testing.assert_allclose(np.abs(state.amps), 1 / math.sqrt(ABOVE_CROSSOVER),
                               rtol=0, atol=1e-16)
    assert StateVector(space, state.amps).amps.tobytes() == state.amps.tobytes()
    rows = np.stack([np.full(ABOVE_CROSSOVER, 1e200 - 1e200j),
                     np.full(ABOVE_CROSSOVER, 1.3e154 + 0j),
                     shaped_amps("gaussian", ABOVE_CROSSOVER, 4)])
    assert (qcore._normalize_rows(rows.copy()).tobytes()
            == normalize_rows_by_fsum(rows.copy()).tobytes())
    with pytest.raises(ZeroVector):
        StateVector(space, np.full(ABOVE_CROSSOVER, 1e-170 + 1e-170j))
    rows[2, 7] = np.nan
    with pytest.raises(NonFinite):
        qcore._normalize_rows(rows)
