import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from coherence_lab import fock, spin, splitting
from coherence_lab.errors import NotComposite, ValidationError
from coherence_lab.qcore import PRODUCT_THRESHOLD_BITS, StateVector, schmidt_cut, tensor_state
from coherence_lab.splitting import (
    FockScanSystem,
    ScanStats,
    SeriesPoly,
    SpinScanSystem,
    aflp_series_solve,
    factorization_report,
    functional_residuals,
    uniqueness_scan,
)
from oracles import (
    cs_fit_distance,
    first_failing_order,
    gaussian_rational,
    generators,
    perturbed,
    rigidity_constant,
    series_solve_exact,
)


# ---------------------------------------------------------------------------
# factorization_report
# ---------------------------------------------------------------------------

def test_report_product_state():
    u = fock.glauber_cs(0.6, 15)
    v = fock.glauber_cs(-0.2 + 0.4j, 15)
    rep = factorization_report(tensor_state(u, v))
    assert rep.is_product
    assert rep.entropy_bits < 1e-12


def test_report_split_m0_entangled():
    out = spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)
    rep = factorization_report(out)
    assert not rep.is_product
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)


def test_report_split_coherent_factors():
    # that the factors are |mu alpha> and |nu alpha> is the split command's
    # residual (tests/test_cli.py); the report says "product"
    alpha = 1.0
    out = fock.split_fock(fock.glauber_cs(alpha, 30), fock.SplitSpec.balanced())
    rep = factorization_report(out)
    assert rep.is_product
    assert rep.entropy_bits < 1e-12


def test_report_needs_two_factors():
    with pytest.raises(NotComposite):
        factorization_report(fock.vacuum(5))
    three = tensor_state(tensor_state(fock.vacuum(2), fock.vacuum(2)),
                         fock.vacuum(2))
    with pytest.raises(NotComposite):
        factorization_report(three)


def test_report_reconstruction_bound():
    # a split spin coherent state is rank one to rounding; its rebuild from
    # the closed-form factors is the split command's residual (tests/test_cli.py)
    for zeta in (0.0, 0.5, 2.0 - 1.0j):
        out = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1.5, zeta=zeta)),
                              0.5, 1.0)
        rep = factorization_report(out)
        assert rep.is_product
        assert rep.entropy_bits < 1e-12
        assert rep.coefficients[0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# functional-equation series
# ---------------------------------------------------------------------------

def test_series_poly_guards():
    with pytest.raises(ValidationError):
        SeriesPoly(np.array([0.0, 1.0]))


def test_exponential_solution_small_order():
    sol = aflp_series_solve(3)
    got = SeriesPoly.exponential(1.0, 1.0, sol.order).coeffs
    np.testing.assert_allclose(got, [1.0, 1.0, 0.5, 1 / 6], atol=1e-15)


def test_solver_consistency_and_rule():
    for mu, nu in [(1.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)),
                   (0.6, 0.8j)]:
        sol = aflp_series_solve(8, mu, nu)
        assert sol.consistency_residual < 1e-12
        assert sol.exponential_rule_residual < 1e-12


#: the README's beamsplitter, mu = nu = 0.70710678118654752, as a float
HALF_SQRT2 = 0.70710678118654752


@pytest.mark.parametrize("order,mu,nu", [
    (8, HALF_SQRT2, HALF_SQRT2),
    (20, HALF_SQRT2, HALF_SQRT2),
    (40, HALF_SQRT2, HALF_SQRT2),
    (20, (Fraction(3, 5), 0), (0, Fraction(4, 5))),
], ids=["8-readme", "20-readme", "40-readme", "20-pythagorean"])
def test_series_solve_is_exact_over_gaussian_rationals(order, mu, nu):
    # claim 3 with no rounding: every redundant order-n equation gives the
    # same a_n, and a_n = a_0 tau^n / n! exactly (order 40 is about 0.5 s)
    a, values = series_solve_exact(order, mu, nu)
    assert all(found == {a[n]} for n, found in enumerate(values) if n >= 2)
    tau_re, tau_im = gaussian_rational(splitting.SERIES_TAU)
    rule = [a[0]]  # a_0 tau^n / n!, one factor tau / n at a time
    for n in range(1, order + 1):
        re, im = rule[-1]
        rule.append(((re * tau_re - im * tau_im) / n, (re * tau_im + im * tau_re) / n))
    assert a == rule


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
    res = functional_residuals(f_a, perturbed(f_b, 2, delta), f_c)
    assert res[2] == pytest.approx(delta, rel=1e-12)
    assert res[0] == 0.0 and res[1] == 0.0
    assert first_failing_order(sol, f_a, perturbed(f_b, 2, delta), f_c) == 2


def test_every_single_coefficient_perturbation_detected():
    order = 8
    sol = aflp_series_solve(order)
    f_a, f_b, f_c = sol.split_triple(0.8, f0_b=1.1, f0_c=0.9)
    for which in range(3):
        for k in range(order + 1):
            series = [f_a, f_b, f_c]
            series[which] = perturbed(series[which], k, 1e-4)
            res = functional_residuals(*series)
            assert res[k] > 1e-6, f"series {which}, order {k}"


def test_solver_validates_parameters():
    with pytest.raises(ValidationError):
        aflp_series_solve(1)
    with pytest.raises(ValidationError):
        aflp_series_solve(4, mu=0.0, nu=1.0)


@pytest.mark.parametrize("order", [5.0, 2.5, "5", True, None, np.float64(5.0), 5 + 0j])
def test_solver_refuses_an_order_that_is_no_integer(order):
    with pytest.raises(ValidationError, match="order must be an integer"):
        aflp_series_solve(order)


@pytest.mark.parametrize("order", [1, 0, -3, np.int64(1)])
def test_solver_refuses_an_order_below_two_with_its_message(order):
    with pytest.raises(ValidationError, match="^order must be >= 2$"):
        aflp_series_solve(order)


def test_solver_takes_a_numpy_integer_order():
    res, ref = aflp_series_solve(np.int64(5), 0.6, 0.8), aflp_series_solve(5, 0.6, 0.8)
    assert type(res.order) is int and res == ref


# ---------------------------------------------------------------------------
# claim 3's rigidity constant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cutoff", [24, 40])
def test_beamsplitter_rigidity_constant_is_sqrt2_mu_nu(cutoff):
    rng = np.random.default_rng(cutoff)
    for _ in range(3):
        spec = fock.SplitSpec.from_angles(rng.uniform(0.1, 1.47), rng.uniform(0, 2 * math.pi))
        radius = fock.admissible_radius(cutoff) / 2 * math.sqrt(rng.uniform())
        psi = fock.glauber_cs(radius * np.exp(2j * math.pi * rng.uniform()), cutoff).amps
        # the tangent direction a+ psi
        dpsi = generators(fock, cutoff)[1] @ psi
        kappa = rigidity_constant(fock.beamsplit_weight(spec, cutoff), psi, dpsi)
        assert kappa == pytest.approx(math.sqrt(2) * abs(spec.mu) * abs(spec.nu), rel=1e-12)


@pytest.mark.parametrize("j_a,j_b,j_c", [(1, 0.5, 0.5), (2, 1, 1), (3, 1, 2), (3, 2, 1),
                                         (5, 4, 1), (10, 5, 5)])
def test_stretched_coupling_rigidity_constant_in_closed_form(j_a, j_b, j_c):
    rng = np.random.default_rng(int(4 * j_a + 2 * j_b))
    want = math.sqrt(2 * j_b * j_c / (j_a * (j_a - 0.5)))
    for _ in range(5):
        params = spin.SpinCsParams.from_angles(j_a, rng.uniform(0, math.pi),
                                               rng.uniform(0, 2 * math.pi))
        psi = spin.spin_cs(params).amps
        # the tangent direction J+ psi
        dpsi = generators(spin, int(2 * j_a))[1] @ psi
        kappa = rigidity_constant(spin.coupling_weight(j_b, j_c), psi, dpsi)
        assert kappa == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# uniqueness scans
# ---------------------------------------------------------------------------

def test_spin_scan_system_validation():
    with pytest.raises(ValidationError):
        SpinScanSystem(1, 0.5, 1.0)


def test_scan_systems_equal_exactly_when_they_split_alike():
    assert SpinScanSystem(2, 1, 1) == SpinScanSystem(2, 1, 1)
    assert SpinScanSystem(2, 1, 1) != SpinScanSystem(2, 0.5, 1.5)
    assert FockScanSystem(16) == FockScanSystem(16, fock.SplitSpec.balanced())
    assert FockScanSystem(16) != FockScanSystem(16, fock.SplitSpec.from_angles(0.4, 1.1))
    assert FockScanSystem(16) != FockScanSystem(17)


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


@pytest.mark.parametrize("n_samples,seed", [
    (4, 1.5), (4, -1), (4, 2 ** 64), (4, True), (4, "3"), (4, None),
    (2.5, 1), (0, 1), (-3, 1), (True, 1), (np.float64(4.0), 1),
])
def test_scan_refuses_a_seed_or_sample_count_that_is_no_integer_in_range(n_samples, seed):
    # seeds are integers in [0, 2**64), as the CLI's, and sample counts
    # integers >= 1; bool is neither
    with pytest.raises(ValidationError):
        uniqueness_scan(SpinScanSystem(1, 0.5, 0.5), n_samples, seed)


def test_scan_takes_numpy_integers_and_the_top_seed():
    stats = uniqueness_scan(SpinScanSystem(1, 0.5, 0.5), np.int64(3), np.uint64(2 ** 64 - 1))
    assert (type(stats.n_samples), type(stats.seed)) == (int, int)
    assert stats == uniqueness_scan(SpinScanSystem(1, 0.5, 0.5), 3, 2 ** 64 - 1)


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
    amps = spin.FAMILY.grid(4)
    assert amps.shape == (58, 5)
    # every row is its own state: only the diagonal overlaps reach 1
    assert np.sum(np.abs(amps.conj() @ amps.T) > 1 - 1e-12) == 58


def test_negative_control_non_stretched_coupling_rejected():
    from coherence_lab.errors import WeightConditionViolated
    cs = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.3))
    with pytest.raises(WeightConditionViolated):
        spin.split_spin(cs, 1.0, 1.0)  # jB + jC = 2 > 1


# ---------------------------------------------------------------------------
# the scan's batching, and the label evolve reads
# ---------------------------------------------------------------------------

def _random_coherent(kind, size, rng):
    """A random spin coherent state at 2j = 1 + size % 40, or an admissible
    Glauber state at cutoff 12 + size % 49."""
    if kind == "spin":
        tj = 1 + size % 40
        return spin.spin_cs(spin.SpinCsParams.from_angles(
            tj / 2, rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)))
    cutoff = 12 + size % 49
    radius = fock.admissible_radius(cutoff) * math.sqrt(rng.uniform())
    return fock.glauber_cs(radius * np.exp(2j * math.pi * rng.uniform()), cutoff)


def _near_coherent(coherent, eps, seed):
    """``coherent`` plus ``eps`` times a seeded unit noise vector, normalized."""
    rng, dim = np.random.default_rng(seed), coherent.space.dim
    noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    noise /= np.linalg.norm(noise)
    return StateVector(coherent.space, coherent.amps + eps * noise)


def _record_splits(monkeypatch):
    """The split entropies of each stack ``uniqueness_scan`` splits, one list
    a stack, with every optimizer raising."""
    calls, split = [], splitting._split_entropies
    monkeypatch.setattr(splitting, "_split_entropies",
                        lambda weight, amps: calls.append(split(weight, amps)) or calls[-1])
    monkeypatch.setattr(scipy.optimize, "minimize", _no_search)
    return calls


def _no_search(*args, **kwargs):
    raise AssertionError("an optimizer ran")


def _no_label(amps):
    raise AssertionError("the scan labelled a stack")


def test_scan_never_labels(monkeypatch):
    systems = [(FockScanSystem(24), 30, 1), (SpinScanSystem(3, 1.5, 1.5), 50, 1),
               (SpinScanSystem(1, 0.5, 0.5), 60, 3)]
    expected = [uniqueness_scan(*args) for args in systems]
    calls = _record_splits(monkeypatch)
    for (system, n_samples, seed), stats in zip(systems, expected):
        unlabelled = dataclasses.replace(
            system, family=dataclasses.replace(system.family, labels=_no_label))
        assert uniqueness_scan(unlabelled, n_samples, seed) == stats
    # one split per chunk, and each scan's grid and samples are one chunk
    assert [len(call) for call in calls] == [33 + 30, 58 + 50, 58 + 60]


@pytest.mark.parametrize("system,n_samples", [(FockScanSystem(16), 20),
                                              (SpinScanSystem(3, 1.5, 1.5), 30)],
                         ids=lambda value: getattr(value, "label", str(value)))
def test_scan_stats_do_not_depend_on_the_chunk_size(monkeypatch, system, n_samples):
    # sample i depends only on (seed, dim, i): chunks of 10 rows, which cut
    # the grid, a chunk of grid rows and samples, and the samples, split
    # every row to the one-chunk scan's entropy, bit for bit
    calls = _record_splits(monkeypatch)
    whole = uniqueness_scan(system, n_samples, 5)
    monkeypatch.setattr(splitting, "CHUNK_AMPS", 10 * system.weight(*system.split).size)
    assert uniqueness_scan(system, n_samples, 5) == whole
    entropies, *chunks = calls
    assert [len(chunk) for chunk in chunks[:-1]] == [10] * (len(chunks) - 1)
    assert len(chunks) >= 3
    assert sum(chunks, []) == entropies


SPIN_CS = spin.spin_cs(spin.SpinCsParams(j=2, zeta=0.4 - 0.9j))
FOCK_CS = fock.glauber_cs(0.5 + 0.3j, 16)
FOCK60_CS = fock.glauber_cs(1.2 - 0.8j, 60)


def _plant(monkeypatch, states):
    """Make sample ``index`` of every scan stream ``states[index]``: each
    generator's draws are counted, so the plant lands at that sample
    however the draws are cut."""
    haar, drawn = splitting._haar_rows, {}

    def rows(gen, count, dim):
        start = drawn.setdefault(gen, 0)
        drawn[gen] += count
        out = haar(gen, count, dim)
        for index, state in states.items():
            if start <= index < start + count:
                out[index - start] = state.amps
        return out

    monkeypatch.setattr(splitting, "_haar_rows", rows)


@pytest.mark.parametrize("system,n_samples,splits,plants", [
    (SpinScanSystem(2, 1, 1), 12, [70], {5: (SPIN_CS, 0.0)}),
    (FockScanSystem(16), 12, [45], {5: (FOCK_CS, 0.0)}),
    (SpinScanSystem(2, 1, 1), 12, [70], {5: (SPIN_CS, 9e-7)}),
    (SpinScanSystem(2, 1, 1), 12, [70], {5: (SPIN_CS, 3.6e-6)}),
    (FockScanSystem(16), 12, [45], {5: (FOCK_CS, 5.2e-7)}),
    (FockScanSystem(16), 12, [45], {5: (FOCK_CS, 2.1e-6)}),
    (FockScanSystem(60), 40, [17, 17, 17, 17, 5],
     {0: (FOCK60_CS, 5e-7), 10: (FOCK60_CS, 2e-6)}),
], ids=["spin", "fock", "spin-at-5e-7", "spin-at-2e-6", "fock-at-5e-7", "fock-at-2e-6",
        "fock60-in-chunks-2-and-3"])
def test_scan_counts_a_planted_coherent_sample(monkeypatch, system, n_samples, splits,
                                               plants):
    # each planted sample is a coherent state, exact or with noise that puts
    # it about 5e-7 or 2e-6 from the nearest one: the scan counts it like any
    # other sample, with no label and no search, and its split is a product,
    # so it sets min_entropy_non_cs. A Fock-60 chunk holds 17 rows and its
    # grid 33, so sample 0 (row 33) is split in the second chunk, beside
    # grid rows, and sample 10 (row 43) in the third.
    states = {index: _near_coherent(planted, eps, 4)
              for index, (planted, eps) in plants.items()}
    for index, (_, eps) in plants.items():
        if eps:
            assert cs_fit_distance(states[index]) == pytest.approx(
                5e-7 if eps < 1e-6 else 2e-6, rel=0.1)
    _plant(monkeypatch, states)
    calls = _record_splits(monkeypatch)
    stats = uniqueness_scan(system, n_samples, 7)
    assert stats.n_excluded == 0
    assert stats.min_entropy_non_cs < PRODUCT_THRESHOLD_BITS
    assert [len(call) for call in calls] == splits
    assert stats == per_sample_scan(system, n_samples, 7)


@pytest.mark.parametrize("kind", ["spin", "fock"])
def test_label_distance_is_the_fitted_distance_near_a_coherent_state(kind):
    # seeded coherent states (spin 2j = 2..40, Fock N = 13..51) plus noise
    # that puts them 1e-6 to 1e-3 from the nearest one: the distance to the
    # coherent state at the label, which evolve's fidelity column reads, is
    # within 1% of the fitted one
    rng = np.random.default_rng(17)
    for case in range(20):
        coherent = _random_coherent(kind, int(rng.integers(1, 40)), rng)
        state = _near_coherent(coherent, 10.0 ** rng.uniform(-5.7, -3.0), case)
        fitted = cs_fit_distance(state)
        assert 1e-6 <= fitted <= 1e-3
        family = spin.FAMILY if kind == "spin" else fock.FAMILY
        overlap = family.labels(state.amps[None, :])[-1][0]
        assert abs(math.sqrt(max(0.0, 2.0 - 2.0 * abs(overlap))) / fitted - 1.0) <= 0.01


def per_sample_scan(system, n_samples, seed):
    """The scan one state at a time, without batching: every sample, drawn
    one at a time from the scan's generator, and every grid state is split
    by ``split_spin``/``split_fock`` and cut by ``schmidt_cut``. The grid is
    built point by point with ``spin_cs``/``glauber_cs``; the record gives
    only the space and the split parameters (jB, jC) or (spec, cutoff)."""
    space, size = system.space, system.space.factors[0].param
    if system.family is spin.FAMILY:
        def split(state):
            return spin.split_spin(state, *system.split)

        grid = [spin.spin_cs(spin.SpinCsParams.from_angles(size / 2, th, ph))
                for th in np.linspace(0.0, math.pi, 9)
                for ph in np.linspace(0.0, 2.0 * math.pi,
                                      1 if th in (0.0, math.pi) else 8, endpoint=False)]
    else:
        def split(state):
            return fock.split_fock(state, system.split[0])

        radius = min(1.5, fock.admissible_radius(size))
        grid = [fock.glauber_cs(0.0, size)] + [
            fock.glauber_cs(r * np.exp(1j * ph), size)
            for r in np.linspace(radius / 4.0, radius, 4)
            for ph in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    gen = np.random.Generator(np.random.Philox(key=seed))
    samples = [StateVector(space, splitting._haar_rows(gen, 1, space.dim)[0])
               for _ in range(n_samples)]
    return ScanStats(system=system.label, n_samples=n_samples, seed=seed,
                     min_entropy_non_cs=min(schmidt_cut(split(s), 1).entropy_bits
                                            for s in samples),
                     cs_max_entropy=max(schmidt_cut(split(s), 1).entropy_bits for s in grid))


def _recorded(system, n_samples, seed, min_entropy, cs_max):
    return pytest.param(system, n_samples, seed, min_entropy, cs_max,
                        id=f"{system.label}-seed{seed}")


@pytest.mark.parametrize("system,n_samples,seed,min_entropy,cs_max", [
    _recorded(SpinScanSystem(1, 0.5, 0.5), 60, 11,
              0.04842054859363083, 2.1920692939028035e-30),
    _recorded(SpinScanSystem(2.5, 1, 1.5), 40, 5,
              0.7084190356381553, 3.2034265038149467e-16),
    _recorded(SpinScanSystem(3, 1.5, 1.5), 30, 2,
              1.034831341592825, 9.610279511444778e-16),
    _recorded(FockScanSystem(16), 20, 4,
              2.3460486880536853, 3.2034691608323937e-16),
    _recorded(FockScanSystem(20, fock.SplitSpec.from_angles(0.4, 1.1)), 15, 9,
              1.9382580895200123, 3.4624576543523505e-16),
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
