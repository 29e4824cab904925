import math

import numpy as np
import pytest
from scipy.optimize import minimize

from coherence_lab import fock, qcore
from coherence_lab.errors import (
    NumericalError,
    SpaceMismatch,
    TruncationTooSmall,
    ValidationError,
)
from coherence_lab.fock import (
    FockParams,
    SplitSpec,
    beamsplit_weight,
    displacement,
    glauber_cs,
    ladder_ops,
    nearest_coherent_fit,
    number_op,
    number_state,
    quadrature_ops,
    required_cutoff,
    split_fock,
    vacuum,
)
from coherence_lab.qcore import apply, moments, overlap, schmidt_cut, tensor_state


def test_ladder_matrix_elements():
    a, adag = ladder_ops(4)
    out = apply(a, number_state(4, 1))
    np.testing.assert_allclose(out.amps, vacuum(4).amps, atol=1e-15)
    out = apply(adag, vacuum(4))
    np.testing.assert_allclose(out.amps, number_state(4, 1).amps, atol=1e-15)


def test_commutator_identity_below_cutoff():
    n_cut = 12
    a, adag = ladder_ops(n_cut)
    comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
    # truncated commutator is the identity except in the top level
    for n in range(n_cut):
        basis = np.zeros(n_cut + 1)
        basis[n] = 1.0
        np.testing.assert_allclose(comm @ basis, basis, atol=1e-13)
    top = np.zeros(n_cut + 1)
    top[n_cut] = 1.0
    assert abs((comm @ top)[n_cut] - 1.0) > 1.0  # fails only at n = cutoff


def test_quadrature_vacuum_moments():
    q, p = quadrature_ops(20)
    mean, var = moments(q, vacuum(20))
    assert abs(mean) < 1e-14
    assert var == pytest.approx(0.5, abs=1e-12)
    _, var_p = moments(p, vacuum(20))
    assert var_p == pytest.approx(0.5, abs=1e-12)


def test_quadrature_mean_tracks_alpha():
    q, p = quadrature_ops(40)
    s = glauber_cs(0.5, 40)
    mean_q, _ = moments(q, s)
    assert mean_q == pytest.approx(math.sqrt(2) * 0.5, abs=1e-8)
    mean_p, _ = moments(p, s)
    assert mean_p == pytest.approx(0.0, abs=1e-8)


def test_required_cutoff_policy():
    assert required_cutoff(0.0) == 12
    assert required_cutoff(2.0) == math.ceil(4 + 12 * math.sqrt(5))
    with pytest.raises(TruncationTooSmall):
        FockParams(10, 2.0)
    FockParams(40, 2.0)


def test_displacement_identity():
    d0 = displacement(0.0, 15)
    np.testing.assert_allclose(d0.matrix, np.eye(16), atol=1e-13)


def test_displacement_generates_coherent_state():
    for alpha in (0.5, 1.0, 2.0, 1.0 + 1.0j):
        d = displacement(alpha, 40)
        got = apply(d, vacuum(40))
        want = glauber_cs(alpha, 40)
        assert qcore.aligned_distance(want, got) < 1e-10


def test_displacement_inverse_on_low_levels():
    alpha = 1.2 - 0.4j
    n_cut = 40
    prod = displacement(alpha, n_cut).matrix @ displacement(-alpha, n_cut).matrix
    for n in range(n_cut // 2 + 1):
        basis = np.zeros(n_cut + 1)
        basis[n] = 1.0
        np.testing.assert_allclose(prod @ basis, basis, atol=1e-9)


def test_vacuum_is_lowest_weight():
    a, _ = ladder_ops(15)
    np.testing.assert_allclose(a.matrix @ vacuum(15).amps, 0.0, atol=1e-15)
    np.testing.assert_allclose(number_op(15).matrix @ vacuum(15).amps, 0.0, atol=1e-15)


def test_glauber_cs_zero_is_vacuum():
    np.testing.assert_allclose(glauber_cs(0.0, 15).amps, vacuum(15).amps,
                               atol=1e-15)


def test_glauber_cs_eigenstate_of_a():
    alpha = 1.0 + 0.5j
    s = glauber_cs(alpha, 40)
    a, _ = ladder_ops(40)
    raw = apply(a, s, normalize=False)
    assert np.linalg.norm(raw - alpha * s.amps) < 1e-8


def test_eigenstate_property_on_amplitude_grid():
    a, _ = ladder_ops(40)
    for r in (0.5, 1.0, 1.5, 2.0):
        for ph in np.linspace(0, 2 * math.pi, 6, endpoint=False):
            alpha = r * np.exp(1j * ph)
            s = glauber_cs(alpha, 40)
            raw = apply(a, s, normalize=False)
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
    s = tensor_state(vacuum(3), vacuum(3))
    with pytest.raises(SpaceMismatch):
        split_fock(s, SplitSpec.balanced())


def test_minimum_uncertainty_product():
    q, p = quadrature_ops(40)
    for alpha in (0.0, 0.7, 1.5 * np.exp(0.9j)):
        s = glauber_cs(alpha, 40)
        _, var_q = moments(q, s)
        _, var_p = moments(p, s)
        assert math.sqrt(var_q) * math.sqrt(var_p) == pytest.approx(0.5, abs=1e-8)


def test_nearest_coherent_fit_recovers_alpha():
    alpha = 0.8 - 0.35j
    state = glauber_cs(alpha, 30)
    fitted, fid = nearest_coherent_fit(state)
    assert abs(fitted - alpha) < 1e-7
    assert fid > 1 - 1e-12


def test_nearest_coherent_fit_refuses_an_unconverged_search(monkeypatch):
    def starved(*args, options, **kwargs):
        return minimize(*args, options=dict(options, maxiter=3), **kwargs)

    monkeypatch.setattr(fock, "minimize", starved)
    with pytest.raises(NumericalError):
        nearest_coherent_fit(glauber_cs(0.8 - 0.35j, 30))
