"""The closed-form split kernel ``qcore.split_amplitudes`` with the
beamsplitter and stretched-coupling weights.

The references below are the constructions the closed forms replaced: the
beamsplitter's binomial double loop and the raising-operator recursion of
the stretched coupling. They stay here as the independent oracles for the
weights.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherence_lab import fock, qcore, spin
from coherence_lab.errors import ValidationError
from coherence_lab.qcore import StateVector, overlap, schmidt_cut, tensor_state
from oracles import generators

TOL = 1e-13


def reference_beamsplit_matrix(spec, cutoff):
    """Column n holds sqrt(C(n, k)) mu^k nu^(n-k) at |k, n-k>."""
    d = cutoff + 1
    matrix = np.zeros((d * d, d), dtype=complex)
    for n in range(d):
        for k in range(n + 1):
            matrix[k * d + (n - k), n] = (math.sqrt(math.comb(n, k))
                                          * spec.mu ** k * spec.nu ** (n - k))
    return matrix


def reference_coupling_matrix(jb, jc):
    """Climb from the product of lowest weights with J_B+ + J_C+, dividing
    by the J_A+ matrix element at each step."""
    ja = jb + jc
    _, jp_b, _ = generators(spin, int(2 * jb))
    _, jp_c, _ = generators(spin, int(2 * jc))
    d_b, d_c = jp_b.shape[0], jp_c.shape[0]
    d_a = d_b + d_c - 1
    grid = np.zeros((d_b, d_c), dtype=complex)
    grid[0, 0] = 1.0
    columns = [grid.reshape(-1)]
    for i in range(d_a - 1):
        m_a = -ja + i
        grid = (jp_b @ grid + grid @ jp_c.T) / math.sqrt(
            (ja - m_a) * (ja + m_a + 1.0))
        columns.append(grid.reshape(-1))
    return np.stack(columns, axis=1)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    return StateVector(space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, math.pi / 2), phi=st.floats(0.0, 2 * math.pi),
       cutoff=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(t=0.0, phi=0.0, cutoff=40, seed=1)
@example(t=math.pi / 2, phi=1.0, cutoff=40, seed=2)
@example(t=0.0, phi=3.0, cutoff=1, seed=3)
@example(t=math.pi / 2, phi=0.0, cutoff=1, seed=4)
def test_split_fock_matches_reference(t, phi, cutoff, seed):
    spec = fock.SplitSpec.from_angles(t, phi)
    state = random_state(fock.fock_space(cutoff), seed)
    got = fock.split_fock(state, spec).amps
    reference = reference_beamsplit_matrix(spec, cutoff) @ state.amps
    assert np.abs(got - reference).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(tjb=st.integers(1, 40), tjc=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(tjb=1, tjc=1, seed=1)
@example(tjb=40, tjc=40, seed=2)
@example(tjb=1, tjc=40, seed=3)
def test_split_spin_matches_reference(tjb, tjc, seed):
    jb, jc = tjb / 2, tjc / 2
    state = random_state(spin.spin_space(jb + jc), seed)
    got = spin.split_spin(state, jb, jc).amps
    reference = reference_coupling_matrix(jb, jc) @ state.amps
    assert np.abs(got - reference).max() <= TOL


def test_batched_split_equals_per_state_calls():
    spec = fock.SplitSpec.from_angles(0.4, 2.2)
    batch = np.stack([random_state(fock.fock_space(12), s).amps for s in range(6)])
    got = qcore.split_amplitudes(batch.reshape(2, 3, 13), fock.beamsplit_weight(spec, 12))
    assert got.shape == (2, 3, 13, 13)
    for amps, out in zip(batch, got.reshape(6, -1)):
        state = StateVector(fock.fock_space(12), amps)
        assert np.array_equal(out, fock.split_fock(state, spec).amps)
    reference = (reference_beamsplit_matrix(spec, 12) @ batch.T).T
    assert np.abs(got.reshape(6, -1) - reference).max() <= TOL

    batch = np.stack([random_state(spin.spin_space(3.5), s).amps for s in range(4)])
    got = qcore.split_amplitudes(batch, spin.coupling_weight(1.5, 2))
    assert got.shape == (4, 4, 5)
    for amps, out in zip(batch, got.reshape(4, -1)):
        state = StateVector(spin.spin_space(3.5), amps)
        assert np.array_equal(out, spin.split_spin(state, 1.5, 2).amps)
    reference = (reference_coupling_matrix(1.5, 2) @ batch.T).T
    assert np.abs(got.reshape(4, -1) - reference).max() <= TOL


def test_stacked_split_is_c_contiguous():
    # each split is one contiguous row of the stack, with the values of the
    # fancy-indexed gather padded[..., k + l] * weight[k, l]
    weight = fock.beamsplit_weight(fock.SplitSpec.from_angles(0.4, 2.2), 12)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(3, 2, 13)) + 1j * rng.normal(size=(3, 2, 13))
    got = qcore.split_amplitudes(batch, weight)
    assert got.flags.c_contiguous
    padded = np.zeros((3, 2, 25), dtype=complex)
    padded[..., :13] = batch
    total = np.add.outer(np.arange(13), np.arange(13))
    assert np.array_equal(got, padded[..., total] * weight)


def test_large_coherent_states_split_into_products():
    alpha, cutoff = 20.0, 1000
    spec = fock.SplitSpec.from_angles(0.6, 0.4)
    out = fock.split_fock(fock.glauber_cs(alpha, cutoff), spec)
    want = tensor_state(fock.glauber_cs(spec.mu * alpha, cutoff),
                        fock.glauber_cs(spec.nu * alpha, cutoff))
    assert abs(overlap(want, out)) >= 1 - 1e-10
    assert schmidt_cut(out, 1).entropy_bits < 1e-9

    zeta = 0.8 - 0.3j
    out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=500, zeta=zeta)), 250, 250)
    half = spin.spin_cs(spin.SpinCsParams(j=250, zeta=zeta))
    assert abs(overlap(tensor_state(half, half), out)) >= 1 - 1e-10
    assert schmidt_cut(out, 1).entropy_bits < 1e-9


@pytest.mark.parametrize("weight", [
    fock.beamsplit_weight(fock.SplitSpec.from_angles(0.9, 1.3), 10),
    spin.coupling_weight(2.5, 1.5),
], ids=["beamsplitter", "coupling"])
def test_corrupted_weight_fails_the_column_norm_check(weight):
    amps = random_state(qcore.SpaceDescriptor.single_fock(8), 0).amps
    qcore.split_amplitudes(amps, weight)
    corrupted = weight.copy()
    corrupted[2, 3] *= 1 + 1e-6
    with pytest.raises(ValidationError, match="not an isometry"):
        qcore.split_amplitudes(amps, corrupted)
    # a weight grid with no room for the input's top levels is refused too
    with pytest.raises(ValidationError):
        qcore.split_amplitudes(np.ones(weight.shape[0] + weight.shape[1]), weight)
