"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a PASS line with its runtime (visible with ``pytest -s``
or ``-v``); a failed assertion marks the criterion red.
"""

import math
import time

import numpy as np
import pytest

from coherence_lab import bell, dynamics, fock, qcore, spin, splitting
from coherence_lab.qcore import (
    SpaceDescriptor,
    StateVector,
    overlap,
    schmidt_cut,
    tensor_state,
)


def _report(number: int, summary: str, t0: float, limit: float):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s < {limit:g}s): {summary}")


def test_c01_glauber_split_law():
    t0 = time.time()
    worst_overlap, worst_entropy = 1.0, 0.0
    for alpha in (0.3, 0.7 + 0.2j, 1.2):
        for t in np.linspace(0.0, math.pi / 2, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5):
                spec = fock.SplitSpec.from_angles(t, phi)
                out = fock.split_fock(fock.glauber_cs(alpha, 40), spec)
                want = tensor_state(fock.glauber_cs(spec.mu * alpha, 40),
                                    fock.glauber_cs(spec.nu * alpha, 40))
                worst_overlap = min(worst_overlap, abs(overlap(want, out)))
                worst_entropy = max(worst_entropy,
                                    schmidt_cut(out, 1).entropy_bits)
    assert worst_overlap >= 1 - 1e-7
    assert worst_entropy < 1e-9
    _report(1, f"split coherent states stay coherent (overlap >= {worst_overlap:.12f}, "
               f"entropy <= {worst_entropy:.2e} bits)", t0, 10.0)


def test_c02_spin_cs_factorization():
    t0 = time.time()
    rng = np.random.default_rng(731)
    zetas = 5.0 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
        2j * math.pi * rng.uniform(0, 1, 200))
    pairs = [(tb / 2, tc / 2) for tb in range(1, 6) for tc in range(1, 6)
             if tb + tc <= 6]
    worst_entropy, worst_intertwine = 0.0, 0.0
    for jb, jc in pairs:
        ja = jb + jc
        # the split kernel applied to every basis state is the dense map W
        dim_a = int(2 * ja) + 1
        w = qcore.split_amplitudes(np.eye(dim_a), spin.coupling_weight(jb, jc))
        w = w.reshape(dim_a, -1).T
        dim_b, dim_c = int(2 * jb) + 1, int(2 * jc) + 1
        for op_a, op_b, op_c in zip(spin.spin_ops(ja), spin.spin_ops(jb),
                                    spin.spin_ops(jc)):
            pair_op = (np.kron(op_b.matrix, np.eye(dim_c))
                       + np.kron(np.eye(dim_b), op_c.matrix))
            worst_intertwine = max(worst_intertwine, np.abs(
                w @ op_a.matrix - pair_op @ w).max())
        for zeta in zetas:
            out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=ja, zeta=zeta)),
                                  jb, jc)
            worst_entropy = max(worst_entropy, schmidt_cut(out, 1).entropy_bits)
    assert worst_entropy < 1e-9
    assert worst_intertwine < 1e-11
    _report(2, f"{len(pairs)} couplings x 200 zeta: entropy <= {worst_entropy:.2e}, "
               f"intertwining residual <= {worst_intertwine:.2e}", t0, 30.0)


def test_c03_spin_one_example_exactness():
    t0 = time.time()
    got = spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)
    want = np.array([0, 1, 1, 0]) / math.sqrt(2)
    assert np.abs(got.amps - want).max() < 1e-12
    for zeta in (0.0, 1.0, -0.6 + 1.7j):
        got = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1, zeta=zeta)),
                              0.5, 0.5)
        half = spin.spin_cs(spin.SpinCsParams(j=0.5, zeta=zeta))
        assert np.abs(got.amps - tensor_state(half, half).amps).max() < 1e-12
    _report(3, "spin-1 -> 1/2 (x) 1/2 coupling displays exact to 1e-12", t0, 1.0)


def test_c04_bell_state_property():
    t0 = time.time()
    # split spin coherent states never violate
    for zeta in (0.0, 0.8, -1.3 + 0.4j, 4.0j):
        out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1, zeta=zeta)),
                              0.5, 0.5)
        assert bell.chsh_maximize(out).max_value <= 2 + 1e-8
    # the split m = 0 level reaches the quantum ceiling
    triplet = spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)
    analytic = bell.chsh_maximize(triplet).max_value
    assert analytic == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert analytic == pytest.approx(bell.horodecki_max(triplet), abs=1e-10)
    # numerical maximizer vs the analytic oracle on entangled pure states
    rng = np.random.default_rng(20240004)
    two_qubits = SpaceDescriptor.single_spin(0.5).tensor(
        SpaceDescriptor.single_spin(0.5))
    worst_gap, count = 0.0, 0
    while count < 200:
        state = StateVector(two_qubits,
                            rng.normal(size=4) + 1j * rng.normal(size=4))
        if schmidt_cut(state, 1).entropy_bits < 1e-3:
            continue
        count += 1
        res = bell.chsh_maximize(state, "multistart-local-search",
                                 n_starts=8, seed=count)
        oracle = bell.horodecki_max(state)
        assert res.max_value > 2.0
        worst_gap = max(worst_gap, abs(res.max_value - oracle))
    assert worst_gap < 1e-5
    _report(4, f"split CS obey the bound; 200 entangled states violate and "
               f"match the oracle to {worst_gap:.2e}", t0, 60.0)


def test_c05_uniqueness_scan():
    t0 = time.time()
    stats = splitting.uniqueness_scan(splitting.SpinScanSystem(1, 0.5, 0.5),
                                      500, seed=7)
    assert stats.n_excluded == 0 or stats.min_entropy_non_cs is not None
    assert stats.min_entropy_non_cs > 1e-4
    assert stats.cs_max_entropy < 1e-9
    _report(5, f"500 Haar samples: min non-CS entropy {stats.min_entropy_non_cs:.2e} "
               f"> 1e-4; CS grid max {stats.cs_max_entropy:.2e} < 1e-9", t0, 60.0)


def test_c06_series_solver():
    t0 = time.time()
    order = 8
    for mu, nu in [(1.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2))]:
        sol = splitting.aflp_series_solve(order, mu, nu)
        assert sol.consistency_residual < 1e-12
        assert sol.exponential_rule_residual < 1e-12
        for tau in (0.6, -1.1 + 0.5j):
            triple = sol.split_triple(tau, f0_b=1.2, f0_c=0.8)
            res = splitting.functional_residuals(*triple, mu=mu, nu=nu)
            assert res.max() < 1e-12
            for which in range(3):
                for k in range(order + 1):
                    series = list(triple)
                    series[which] = series[which].perturbed(k, 1e-4)
                    assert splitting.functional_residuals(
                        *series, mu=mu, nu=nu)[k] > 0.0
    _report(6, "exponential family solves to order 8; every single-coefficient "
               "perturbation leaves a residual at its order", t0, 1.0)


def test_c07_classical_trajectory():
    t0 = time.time()
    omega, lam = 1.0, 0.2
    drive = dynamics.DriveSpec.constant(omega, lam)
    grid = np.linspace(0.0, 2 * math.pi, 41)
    traj = dynamics.evolve_fock(drive, grid, 40)
    assert traj.cs_fidelity.min() > 1 - 1e-6
    worst = 0.0
    for i, t in enumerate(grid):
        worst = max(worst, abs(traj.alpha_track[i] - dynamics.alpha_of_t(drive, t)))
    assert worst < 1e-6
    idx_pi = 20
    assert grid[idx_pi] == pytest.approx(math.pi, abs=1e-12)
    assert abs(traj.alpha_track[idx_pi] - (-0.4)) < 1e-6
    _report(7, f"driven oscillator stays coherent (min fid {traj.cs_fidelity.min():.9f}); "
               f"alpha matches quadrature to {worst:.2e}; alpha(pi) = -0.4", t0, 20.0)


def test_c08_spin_precession():
    t0 = time.time()
    omega = 1.0
    ham = dynamics.LinearSpinHamiltonian(omega)
    grid = np.linspace(0.0, 2 * math.pi / omega, 49)
    for j in (0.5, 1.0, 2.0):
        initial = spin.spin_cs(spin.SpinCsParams(j=j, zeta=0.5))
        traj = dynamics.evolve_spin(ham, j, grid, initial)
        assert traj.cs_fidelity.min() > 1 - 1e-8
        mods = np.abs(traj.zeta_track)
        assert mods.max() - mods.min() < 1e-8
    _report(8, "precession under the diagonal generator keeps fidelity 1 and "
               "|zeta| constant over a period for j = 1/2, 1, 2", t0, 10.0)


def test_c09_two_route_cs_agreement():
    t0 = time.time()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        j = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        r = rng.uniform(0.01, 1.399)
        ang = rng.uniform(0, 2 * math.pi)
        xi = r * np.exp(1j * ang)
        via_exp = spin.spin_cs_exp(j, xi)
        zeta = xi / abs(xi) * math.tan(abs(xi))
        closed = spin.spin_cs(spin.SpinCsParams(j=j, zeta=zeta))
        worst = max(worst, 1 - abs(overlap(closed, via_exp)))
    assert worst < 1e-10
    _report(9, f"coset exponential vs closed form: overlap deficit <= {worst:.2e}",
            t0, 5.0)


def test_c10_minimum_uncertainty():
    t0 = time.time()
    q, p = fock.quadrature_ops(40)
    target = 1 / math.sqrt(2)
    worst = 0.0
    for r in (0.0, 0.5, 1.0, 1.5):
        for ph in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            s = fock.glauber_cs(r * np.exp(1j * ph), 40)
            _, var_q = qcore.moments(q, s)
            _, var_p = qcore.moments(p, s)
            worst = max(worst, abs(math.sqrt(var_q) - target),
                        abs(math.sqrt(var_p) - target))
            if r == 0.0:
                break
    assert worst < 1e-8
    _report(10, f"quadrature spreads equal 1/sqrt(2) within {worst:.2e} "
                f"across the amplitude disk", t0, 2.0)
