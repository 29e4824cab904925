import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from coherence_lab import fock, qcore, spin
from coherence_lab.errors import (
    SpaceMismatch,
    TruncationTooSmall,
    ValidationError,
)
from coherence_lab.fock import (
    SplitSpec,
    beamsplit_weight,
    fock_space,
    glauber_cs,
    number_state,
    required_cutoff,
    split_fock,
    vacuum,
)
from coherence_lab.qcore import StateVector, overlap, schmidt_cut, tensor_state
import oracles
from oracles import aligned_distance, displacement, generators, mean_variance, quadratures


def test_ladder_matrix_elements():
    _, adag, a = generators(fock, 4)
    out = StateVector(fock_space(4), a @ number_state(4, 1).amps)
    np.testing.assert_allclose(out.amps, vacuum(4).amps, atol=1e-15)
    out = StateVector(fock_space(4), adag @ vacuum(4).amps)
    np.testing.assert_allclose(out.amps, number_state(4, 1).amps, atol=1e-15)


def test_commutator_identity_below_cutoff():
    n_cut = 12
    _, adag, a = generators(fock, n_cut)
    comm = a @ adag - adag @ a
    # truncated commutator is the identity except in the top level
    for n in range(n_cut):
        basis = np.zeros(n_cut + 1)
        basis[n] = 1.0
        np.testing.assert_allclose(comm @ basis, basis, atol=1e-13)
    top = np.zeros(n_cut + 1)
    top[n_cut] = 1.0
    assert abs((comm @ top)[n_cut] - 1.0) > 1.0  # fails only at n = cutoff


def test_quadrature_vacuum_moments():
    q, p = quadratures(20)
    mean, var = mean_variance(q, vacuum(20))
    assert abs(mean) < 1e-14
    assert var == pytest.approx(0.5, abs=1e-12)
    _, var_p = mean_variance(p, vacuum(20))
    assert var_p == pytest.approx(0.5, abs=1e-12)


def test_quadrature_mean_tracks_alpha():
    q, p = quadratures(40)
    s = glauber_cs(0.5, 40)
    mean_q, _ = mean_variance(q, s)
    assert mean_q == pytest.approx(math.sqrt(2) * 0.5, abs=1e-8)
    mean_p, _ = mean_variance(p, s)
    assert mean_p == pytest.approx(0.0, abs=1e-8)


def test_required_cutoff_policy():
    assert required_cutoff(0.0) == 12
    assert required_cutoff(2.0) == math.ceil(4 + 12 * math.sqrt(5))
    with pytest.raises(TruncationTooSmall):
        fock.check_cutoff(2.0, 10)
    fock.check_cutoff(2.0, 40)


def test_displacement_identity():
    d0 = displacement(0.0, 15)
    np.testing.assert_allclose(d0, np.eye(16), atol=1e-13)


def test_displacement_generates_coherent_state():
    for alpha in (0.5, 1.0, 2.0, 1.0 + 1.0j):
        d = displacement(alpha, 40)
        got = StateVector(fock_space(40), d @ vacuum(40).amps)
        want = glauber_cs(alpha, 40)
        assert aligned_distance(want, got) < 1e-10


def test_displacement_inverse_on_low_levels():
    alpha = 1.2 - 0.4j
    n_cut = 40
    prod = displacement(alpha, n_cut) @ displacement(-alpha, n_cut)
    for n in range(n_cut // 2 + 1):
        basis = np.zeros(n_cut + 1)
        basis[n] = 1.0
        np.testing.assert_allclose(prod @ basis, basis, atol=1e-9)


def test_vacuum_is_lowest_weight():
    number, _, a = generators(fock, 15)
    np.testing.assert_allclose(a @ vacuum(15).amps, 0.0, atol=1e-15)
    np.testing.assert_allclose(number @ vacuum(15).amps, 0.0, atol=1e-15)


def test_glauber_cs_zero_is_vacuum():
    np.testing.assert_allclose(glauber_cs(0.0, 15).amps, vacuum(15).amps,
                               atol=1e-15)


@pytest.mark.parametrize("radius", [40.0, 100.0, 300.0])
def test_glauber_cs_matches_poisson_far_out(radius):
    # sqrt(poisson.pmf) carries the magnitudes; no power or factorial of the
    # closed form leaves the float range up to cutoff 93 601. poisson.pmf
    # rounds ln n! as the closed form does, so this cannot see a drift of
    # that row: tests/test_qcore.py holds it to mpmath's loggamma instead
    alpha = radius * np.exp(0.3j)
    cutoff = required_cutoff(alpha)
    n = np.arange(cutoff + 1)
    want = np.sqrt(poisson.pmf(n, abs(alpha) ** 2)) * np.exp(1j * n * np.angle(alpha))
    assert np.abs(glauber_cs(alpha, cutoff).amps - want).max() <= 1e-12


def test_glauber_cs_eigenstate_of_a():
    alpha = 1.0 + 0.5j
    s = glauber_cs(alpha, 40)
    _, _, a = generators(fock, 40)
    raw = a @ s.amps
    assert np.linalg.norm(raw - alpha * s.amps) < 1e-8


def test_eigenstate_property_on_amplitude_grid():
    _, _, a = generators(fock, 40)
    for r in (0.5, 1.0, 1.5, 2.0):
        for ph in np.linspace(0, 2 * math.pi, 6, endpoint=False):
            alpha = r * np.exp(1j * ph)
            s = glauber_cs(alpha, 40)
            raw = a @ s.amps
            assert np.linalg.norm(raw - alpha * s.amps) < 1e-7


def test_split_spec_validation():
    with pytest.raises(ValidationError):
        SplitSpec(1.0, 1.0)
    spec = SplitSpec.from_angles(0.3, 1.1)
    assert abs(abs(spec.mu) ** 2 + abs(spec.nu) ** 2 - 1) < 1e-12


def test_beamsplit_vacuum_and_single_photon():
    spec = SplitSpec.balanced()
    out = split_fock(vacuum(6), spec)
    assert out.amps[0] == pytest.approx(1.0, abs=1e-14)
    out = split_fock(number_state(6, 1), spec)
    d = 7
    expected = np.zeros(d * d, dtype=complex)
    expected[0 * d + 1] = 1 / math.sqrt(2)   # |0,1>
    expected[1 * d + 0] = 1 / math.sqrt(2)   # |1,0>
    np.testing.assert_allclose(out.amps, expected, atol=1e-14)


def test_beamsplit_isometry_gram():
    # the split kernel applied to every basis state is the dense map
    weight = beamsplit_weight(SplitSpec.from_angles(0.7, 2.1), 12)
    matrix = qcore.split_amplitudes(np.eye(13), weight).reshape(13, -1).T
    gram = matrix.conj().T @ matrix
    np.testing.assert_allclose(gram, np.eye(13), atol=1e-12)


def test_beamsplit_coherent_factorizes():
    alpha = 1.0
    spec = SplitSpec.balanced()
    out = split_fock(glauber_cs(alpha, 30), spec)
    want = tensor_state(glauber_cs(spec.mu * alpha, 30),
                        glauber_cs(spec.nu * alpha, 30))
    assert abs(overlap(want, out)) > 1 - 1e-8
    assert schmidt_cut(out, 1).entropy_bits < 1e-9


def test_coherent_split_law_grid():
    for alpha in (0.4, 0.9 + 0.3j, 1.5):
        for t in np.linspace(0.2, 1.35, 4):
            for phi in (0.0, 1.3, 4.0):
                spec = SplitSpec.from_angles(t, phi)
                out = split_fock(glauber_cs(alpha, 40), spec)
                want = tensor_state(glauber_cs(spec.mu * alpha, 40),
                                    glauber_cs(spec.nu * alpha, 40))
                assert abs(overlap(want, out)) > 1 - 1e-7


def test_split_two_photon_entropy():
    # frozen from the 3-term binomial expansion: singular values
    # (1/sqrt2, 1/2, 1/2) give exactly 1.5 bits
    out = split_fock(number_state(20, 2), SplitSpec.balanced())
    ent = schmidt_cut(out, 1).entropy_bits
    assert ent == pytest.approx(1.5, abs=1e-12)
    assert ent > 0.5


def test_number_states_split_entangled():
    spec = SplitSpec.balanced()
    for n in range(1, 6):
        out = split_fock(number_state(20, n), spec)
        assert schmidt_cut(out, 1).entropy_bits > 0.1


def test_split_fock_rejects_composite_input():
    # each family's size is its one kind check, behind its label and split:
    # a two-factor state and a state of the other kind are both refused
    mode, spin_half = vacuum(3), spin.basis_state(0.5, -0.5)
    for family, other, split in (
            (fock.FAMILY, spin_half, lambda s: split_fock(s, SplitSpec.balanced())),
            (spin.FAMILY, mode, lambda s: spin.split_spin(s, 0.5, 1.0))):
        for state in (tensor_state(mode, mode), tensor_state(spin_half, spin_half), other):
            for call in (family.size, family.label, split):
                with pytest.raises(SpaceMismatch):
                    call(state)
    assert (fock.FAMILY.size(mode), spin.FAMILY.size(spin_half)) == (3, 1)


def test_minimum_uncertainty_product():
    q, p = quadratures(40)
    for alpha in (0.0, 0.7, 1.5 * np.exp(0.9j)):
        s = glauber_cs(alpha, 40)
        _, var_q = mean_variance(q, s)
        _, var_p = mean_variance(p, s)
        assert math.sqrt(var_q) * math.sqrt(var_p) == pytest.approx(0.5, abs=1e-8)


def test_stacked_glauber_amps_are_the_per_alpha_rows_bit_for_bit():
    # each row of an array call is the call at its alpha alone, and the
    # scalar formula, whose |alpha|^2 is a float power, not a product
    rng = np.random.default_rng(7)
    alpha = np.concatenate(([0.0, 1.5, -2.0j], rng.normal(size=3000) + 1j * rng.normal(size=3000)))
    for cutoff in (1, 6, 24):
        stack = fock._glauber_amps(alpha, cutoff)
        assert stack.shape == (alpha.size, cutoff + 1)
        for a, row in zip(alpha.tolist(), stack):
            one = fock._glauber_amps(a, cutoff)
            scalar = np.exp(fock._coherent_logs(a, cutoff) - (np.abs(a) ** 2 / 2.0)[..., None])
            assert row.tobytes() == one.tobytes() == scalar.tobytes()


def fock_label_rows(cutoff, seed, n_random):
    """Unit rows of a mode at ``cutoff``: random rows, truncated coherent
    rows inside and beyond ``admissible_radius``, and the uniform row over
    the top four levels, whose <a> (about 3 sqrt(cutoff) / 4) lies beyond it
    at cutoffs 12 to 90."""
    rng = np.random.default_rng(seed)
    radius = fock.admissible_radius(cutoff)
    alpha = rng.uniform(0.0, 2.0 * radius + 1.0, 4) * np.exp(1j * rng.uniform(0.0, 7.0, 4))
    top = np.zeros((1, cutoff + 1), dtype=complex)
    top[0, -4:] = 1.0
    stack = np.concatenate((rng.normal(size=(n_random, cutoff + 1))
                            + 1j * rng.normal(size=(n_random, cutoff + 1)),
                            fock._glauber_amps(alpha, cutoff), top))
    return qcore._normalize_rows(stack[rng.permutation(len(stack))])


@settings(max_examples=40, deadline=None)
@given(st.integers(12, 90), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
@example(12, 0, 0)
@example(40, 3, 2)
def test_stacked_mode_labels_are_each_rows_label_bit_for_bit(cutoff, seed, n_random):
    # the stacked label of every row is its one-state label and that of
    # glauber_cs at the pulled alpha, bit for bit, fidelity included; from
    # cutoff 12 up, where the admissible disk (radius 0 at 12) holds alpha 0
    rows = fock_label_rows(cutoff, seed, n_random)
    alphas, overlaps = fock._mean_mode_labels(rows)
    assert len(alphas) == len(overlaps) == len(rows)
    radius = fock.admissible_radius(cutoff)
    assert max(map(abs, alphas)) > radius
    for row, alpha, ov in zip(rows, alphas, overlaps):
        state = StateVector(fock_space(cutoff), row)
        for label in (fock.mean_mode_label, oracles.mean_mode_label_one_state):
            one_alpha, one_ov = label(state)
            assert np.array([alpha, ov]).tobytes() == np.array([one_alpha, one_ov]).tobytes()
            assert np.float64(abs(ov)).tobytes() == np.float64(abs(one_ov)).tobytes()


@pytest.mark.parametrize("cutoff", range(1, 12))
def test_vacuum_is_labelled_below_cutoff_12(cutoff):
    # the admissible disk has radius 0 below cutoff 12; the vacuum's label
    # alpha = 0 lies on it, and its overlap with itself is 1
    assert fock.mean_mode_label(fock.vacuum(cutoff)) == (0j, (1 + 0j))
