import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab import fock, spin, splitting
from coherence_lab.errors import NotComposite, ValidationError
from coherence_lab.qcore import StateVector, overlap, schmidt_cut, tensor_state
from coherence_lab.splitting import (
    CS_DISTANCE_GUARD,
    SCREEN_MARGIN,
    FockScanSystem,
    ScanStats,
    SeriesPoly,
    SpinScanSystem,
    _cs_distance,
    _cs_grid_states,
    _fock_bound,
    _haar_amps,
    _spin_bound,
    aflp_series_solve,
    factorization_report,
    functional_residuals,
    uniqueness_scan,
)


# ---------------------------------------------------------------------------
# factorization_report
# ---------------------------------------------------------------------------

def test_report_product_state():
    u = fock.glauber_cs(0.6, 15)
    v = fock.glauber_cs(-0.2 + 0.4j, 15)
    rep = factorization_report(tensor_state(u, v))
    assert rep.is_product
    assert rep.residual < 1e-10
    assert abs(abs(overlap(rep.factor_b, u)) - 1.0) < 1e-10
    assert abs(abs(overlap(rep.factor_c, v)) - 1.0) < 1e-10


def test_report_split_m0_entangled():
    out = spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)
    rep = factorization_report(out)
    assert not rep.is_product
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)
    assert rep.factor_b is None and rep.residual is None


def test_report_split_coherent_factors():
    alpha = 1.0
    spec = fock.SplitSpec.balanced()
    out = fock.split_fock(fock.glauber_cs(alpha, 30), spec)
    rep = factorization_report(out)
    assert rep.is_product
    want_b = fock.glauber_cs(spec.mu * alpha, 30)
    assert abs(overlap(want_b, rep.factor_b)) > 1 - 1e-7


def test_report_needs_two_factors():
    with pytest.raises(NotComposite):
        factorization_report(fock.vacuum(5))
    three = tensor_state(tensor_state(fock.vacuum(2), fock.vacuum(2)),
                         fock.vacuum(2))
    with pytest.raises(NotComposite):
        factorization_report(three)


def test_report_reconstruction_bound():
    # when classified product, the rank-1 rebuild matches to 1e-8
    for zeta in (0.0, 0.5, 2.0 - 1.0j):
        out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1.5, zeta=zeta)),
                              0.5, 1.0)
        rep = factorization_report(out)
        assert rep.is_product
        rebuilt = np.kron(rep.factor_b.amps, rep.factor_c.amps)
        assert np.linalg.norm(out.amps - rebuilt) == pytest.approx(rep.residual,
                                                                   abs=1e-12)
        assert rep.residual < 1e-8


# ---------------------------------------------------------------------------
# functional-equation series
# ---------------------------------------------------------------------------

def test_series_poly_guards():
    with pytest.raises(ValidationError):
        SeriesPoly(np.array([0.0, 1.0]))


def test_exponential_solution_small_order():
    sol = aflp_series_solve(3)
    got = sol.coefficients(1.0, 1.0)
    np.testing.assert_allclose(got, [1.0, 1.0, 0.5, 1 / 6], atol=1e-15)


def test_solver_consistency_and_rule():
    for mu, nu in [(1.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)),
                   (0.6, 0.8j)]:
        sol = aflp_series_solve(8, mu, nu)
        assert sol.consistency_residual < 1e-12
        assert sol.exponential_rule_residual < 1e-12


def test_exponential_family_satisfies_equation():
    sol = aflp_series_solve(8)
    for tau in (0.3, -1.2, 0.5 + 0.9j, 2.0):
        triple = sol.split_triple(tau, f0_b=1.3, f0_c=0.7 - 0.2j)
        res = functional_residuals(*triple)
        assert res.max() < 1e-12


def test_beamsplitter_case_splits_amplitude():
    mu, nu = 1 / math.sqrt(2), 1 / math.sqrt(2)
    sol = aflp_series_solve(6, mu, nu)
    tau = 0.9 - 0.3j
    tau_b, tau_c = sol.subsystem_taus(tau)
    assert tau_b == pytest.approx(mu * tau, abs=1e-15)
    assert tau_c == pytest.approx(nu * tau, abs=1e-15)
    triple = sol.split_triple(tau)
    assert functional_residuals(*triple, mu=mu, nu=nu).max() < 1e-12


def test_perturbed_coefficient_residual():
    # frozen with the order-n residual definition: perturbing f_B's c_2 by
    # delta leaves exactly |delta| at order 2 (only the (2,0) pairing moves)
    sol = aflp_series_solve(5)
    f_a, f_b, f_c = sol.split_triple(1.0)
    delta = 1e-3
    res = functional_residuals(f_a, f_b.perturbed(2, delta), f_c)
    assert res[2] == pytest.approx(delta, rel=1e-12)
    assert res[0] == 0.0 and res[1] == 0.0
    assert sol.first_failing_order(f_a, f_b.perturbed(2, delta), f_c) == 2


def test_every_single_coefficient_perturbation_detected():
    order = 8
    sol = aflp_series_solve(order)
    f_a, f_b, f_c = sol.split_triple(0.8, f0_b=1.1, f0_c=0.9)
    for which in range(3):
        for k in range(order + 1):
            series = [f_a, f_b, f_c]
            series[which] = series[which].perturbed(k, 1e-4)
            res = functional_residuals(*series)
            assert res[k] > 1e-6, f"series {which}, order {k}"


def test_solver_validates_parameters():
    with pytest.raises(ValidationError):
        aflp_series_solve(1)
    with pytest.raises(ValidationError):
        aflp_series_solve(4, mu=0.0, nu=1.0)


# ---------------------------------------------------------------------------
# uniqueness scans
# ---------------------------------------------------------------------------

def test_spin_scan_system_validation():
    with pytest.raises(ValidationError):
        SpinScanSystem(1, 0.5, 1.0)


def test_scan_spin_entropy_separation():
    stats = uniqueness_scan(SpinScanSystem(1, 0.5, 0.5), 120, seed=7)
    assert stats.min_entropy_non_cs > 1e-4
    assert stats.cs_max_entropy < 1e-9
    assert stats.n_excluded == 0


def test_scan_determinism_bit_for_bit():
    a = uniqueness_scan(SpinScanSystem(1.5, 0.5, 1.0), 40, seed=123)
    b = uniqueness_scan(SpinScanSystem(1.5, 0.5, 1.0), 40, seed=123)
    assert a == b
    c = uniqueness_scan(SpinScanSystem(1.5, 0.5, 1.0), 40, seed=124)
    assert c.min_entropy_non_cs != a.min_entropy_non_cs


def test_scan_fock_two_level_states_entangle():
    # closed form: V(c0|0> + c1|1>) has Schmidt matrix [[c0, c1 nu], [c1 mu, 0]]
    spec = fock.SplitSpec.balanced()
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        if abs(c[1]) < 0.1:
            continue
        amps = np.zeros(21, dtype=complex)
        amps[:2] = c
        state = StateVector(fock.fock_space(20), amps)
        out = fock.split_fock(state, spec)
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0] = c[0]
        m[1, 0] = c[1] * spec.mu
        m[0, 1] = c[1] * spec.nu
        sv = np.linalg.svd(m, compute_uv=False)
        p = sv ** 2
        expected = float(-(p[p > 0] * np.log2(p[p > 0])).sum())
        from coherence_lab.qcore import schmidt_cut
        got = schmidt_cut(out, 1).entropy_bits
        assert got == pytest.approx(expected, abs=1e-10)
        assert got > 1e-3


def test_scan_fock_runs_and_separates():
    stats = uniqueness_scan(FockScanSystem(16), 25, seed=11)
    assert stats.min_entropy_non_cs > 1e-4
    assert stats.cs_max_entropy < 1e-9


def test_scan_cs_grid_includes_reference_state():
    # zeta = 0 sample: lowest weight splits into a product, entropy 0
    out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.0)),
                          0.5, 0.5)
    from coherence_lab.qcore import schmidt_cut
    assert schmidt_cut(out, 1).entropy_bits == 0.0


def test_spin_cs_grid_holds_each_pole_once():
    # 7 interior polar angles x 8 azimuths, plus the two poles
    amps = _cs_grid_states(SpinScanSystem(2, 1, 1))
    assert amps.shape == (58, 5)
    # every row is its own state: only the diagonal overlaps reach 1
    assert np.sum(np.abs(amps.conj() @ amps.T) > 1 - 1e-12) == 58


def test_negative_control_non_stretched_coupling_rejected():
    from coherence_lab.errors import WeightConditionViolated
    cs = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.3))
    with pytest.raises(WeightConditionViolated):
        spin.split_spin(cs, 1.0, 1.0)  # jB + jC = 2 > 1


def test_guard_band_excludes_planted_cs():
    # plant an exact coherent state among the samples via the guard check
    state = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.7))
    assert _cs_distance(SpinScanSystem(1, 0.5, 0.5), state) < CS_DISTANCE_GUARD


# ---------------------------------------------------------------------------
# the scan's moment bounds and batching
# ---------------------------------------------------------------------------

def _certified(bound, amps):
    return bound(amps) + SCREEN_MARGIN < 1.0 - CS_DISTANCE_GUARD ** 2 / 2.0


def _bound_case(kind, size, seed, eps):
    """A moment bound, a state and its fitted fidelity. ``eps`` None draws a
    Haar state; otherwise a random coherent state is perturbed by ``eps``."""
    rng = np.random.default_rng(seed)
    if kind == "spin":
        tj = 1 + size % 40
        bound, space = _spin_bound, spin.spin_space(tj / 2)
        coherent = spin.spin_cs(spin.SpinCsParams.from_angles(
            tj / 2, rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)))
    else:
        cutoff = 12 + size % 49
        bound, space = _fock_bound, fock.fock_space(cutoff)
        radius = fock.admissible_radius(cutoff) * math.sqrt(rng.uniform())
        coherent = fock.glauber_cs(radius * np.exp(2j * math.pi * rng.uniform()),
                                   cutoff)
    noise = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    noise /= np.linalg.norm(noise)
    state = StateVector(space, noise if eps is None else coherent.amps + eps * noise)
    if kind == "spin":
        fid = spin.nearest_cs_fit(state)[3]
    else:
        fid = fock.nearest_coherent_fit(state)[1]
    return bound, state, fid


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["spin", "fock"]),
       size=st.integers(0, 1000),
       seed=st.integers(0, 2 ** 32 - 1),
       eps=st.one_of(st.none(), st.just(0.0),
                     st.floats(-8.0, math.log10(0.3)).map(lambda x: 10.0 ** x)))
def test_screen_bound_covers_fitted_fidelity(kind, size, seed, eps):
    # spin 2j <= 40 and Fock N = 12..60: Haar states and coherent states
    # perturbed by 1e-8 to 0.3 never fit above the moment bound
    bound, state, fid = _bound_case(kind, size, seed, eps)
    row = state.amps[None, :]
    assert bound(row)[0] >= fid - 1e-12
    if eps == 0.0:  # a planted coherent state is never certified
        assert not _certified(bound, row)[0]


def test_moment_bound_certifies_every_spin1_sample_of_seed_3():
    # the largest spin-1 bound of seed 3 is close to 1, but below the guard
    amps = np.stack([StateVector(spin.spin_space(1), _haar_amps(3, i, 3)).amps
                     for i in range(60)])
    assert _certified(_spin_bound, amps).all()


def test_moment_bound_never_certifies_large_coherent_states():
    # j = 200 and N = 150, where rounding in the moments is largest
    row = spin.spin_cs(spin.SpinCsParams.from_angles(200, 1.0, 2.0)).amps[None, :]
    assert not _certified(_spin_bound, row)[0]
    alpha = 0.9 * fock.admissible_radius(150) * np.exp(0.7j)
    row = fock.glauber_cs(alpha, 150).amps[None, :]
    assert not _certified(_fock_bound, row)[0]


def _count_calls(monkeypatch, module, name, calls):
    fit = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fit(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_screen_leaves_few_fits(monkeypatch):
    calls = []
    _count_calls(monkeypatch, spin, "nearest_cs_fit", calls)
    _count_calls(monkeypatch, fock, "nearest_coherent_fit", calls)
    uniqueness_scan(FockScanSystem(24), 30, 1)
    uniqueness_scan(SpinScanSystem(3, 1.5, 1.5), 50, 1)
    uniqueness_scan(SpinScanSystem(1, 0.5, 0.5), 60, 3)
    assert calls == []


@pytest.mark.parametrize("system,planted", [
    (SpinScanSystem(2, 1, 1), spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.4 - 0.9j))),
    (FockScanSystem(16), fock.glauber_cs(0.5 + 0.3j, 16)),
], ids=["spin", "fock"])
def test_scan_fits_and_excludes_a_planted_coherent_sample(monkeypatch, system, planted):
    # sample 5 is an exact coherent state: the bound cannot certify it, so the
    # scan fits it, and the fit puts it inside the guard band
    haar = splitting._haar_amps
    monkeypatch.setattr(splitting, "_haar_amps", lambda seed, index, dim: (
        planted.amps if index == 5 else haar(seed, index, dim)))
    calls = []
    _count_calls(monkeypatch, spin, "nearest_cs_fit", calls)
    _count_calls(monkeypatch, fock, "nearest_coherent_fit", calls)
    assert uniqueness_scan(system, 12, 7).n_excluded == 1
    assert len(calls) == 1


def per_sample_scan(system, n_samples, seed):
    """The scan one state at a time, without screen or batching: every
    sample is fitted, and every sample and grid state is split by
    ``split_spin``/``split_fock`` and cut by ``schmidt_cut``. The grid is
    built point by point with ``spin_cs``/``glauber_cs``."""
    if isinstance(system, SpinScanSystem):
        space = spin.spin_space(system.j_a)

        def split(state):
            return spin.split_spin(state, system.j_b, system.j_c)

        grid = [spin.spin_cs(spin.SpinCsParams.from_angles(system.j_a, th, ph))
                for th in np.linspace(0.0, math.pi, 9)
                for ph in np.linspace(0.0, 2.0 * math.pi,
                                      1 if th in (0.0, math.pi) else 8, endpoint=False)]
    else:
        space = fock.fock_space(system.cutoff)

        def split(state):
            return fock.split_fock(state, system.split)

        radius = min(1.5, fock.admissible_radius(system.cutoff))
        grid = [fock.glauber_cs(0.0, system.cutoff)] + [
            fock.glauber_cs(r * np.exp(1j * ph), system.cutoff)
            for r in np.linspace(radius / 4.0, radius, 4)
            for ph in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    kept = []
    for index in range(n_samples):
        state = StateVector(space, _haar_amps(seed, index, system.dim))
        if _cs_distance(system, state) > CS_DISTANCE_GUARD:
            kept.append(schmidt_cut(split(state), 1).entropy_bits)
    return ScanStats(system=system.label, n_samples=n_samples, seed=seed,
                     min_entropy_non_cs=min(kept) if kept else None,
                     cs_max_entropy=max(schmidt_cut(split(s), 1).entropy_bits for s in grid),
                     n_excluded=n_samples - len(kept))


def _recorded(system, n_samples, seed, min_entropy, cs_max):
    return pytest.param(system, n_samples, seed, min_entropy, cs_max,
                        id=f"{system.label}-seed{seed}")


@pytest.mark.parametrize("system,n_samples,seed,min_entropy,cs_max", [
    _recorded(SpinScanSystem(1, 0.5, 0.5), 60, 11,
              0.04567368410454714, 2.1920692939028035e-30),
    _recorded(SpinScanSystem(2.5, 1, 1.5), 40, 5,
              0.426936852877323, 3.2034265038149467e-16),
    _recorded(SpinScanSystem(3, 1.5, 1.5), 30, 2,
              1.1214387669185872, 9.610279511444778e-16),
    _recorded(FockScanSystem(16), 20, 4,
              2.2585072392406698, 3.2034691608323937e-16),
    _recorded(FockScanSystem(20, fock.SplitSpec.from_angles(0.4, 1.1)), 15, 9,
              1.9070057740797075, 3.4624576543523505e-16),
])
def test_scan_stats_bit_identical_to_per_sample_scan(system, n_samples, seed,
                                                     min_entropy, cs_max):
    # the constants are recorded from per_sample_scan
    stats = ScanStats(system=system.label, n_samples=n_samples, seed=seed,
                      min_entropy_non_cs=min_entropy, cs_max_entropy=cs_max,
                      n_excluded=0)
    assert per_sample_scan(system, n_samples, seed) == stats
    assert uniqueness_scan(system, n_samples, seed) == stats


def test_scan_memory_does_not_grow_with_samples():
    peaks = []
    for n_samples in (50, 400):
        tracemalloc.start()
        try:
            uniqueness_scan(FockScanSystem(40), n_samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 * 2 ** 20
