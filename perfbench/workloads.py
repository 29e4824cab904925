"""The four workloads: seeded inputs, the operations and their oracles.

Each workload builds a fixed list of operations from the workload seed. The
library receives only the generated inputs. Sizes are constants here; the
seed picks the random states, amplitudes and the seeds passed on to seeded
library calls. NOTES.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from coherence_lab import bell, cli, dynamics, fock, serialize, spin, splitting
from coherence_lab.qcore import SpaceDescriptor, StateVector, overlap, tensor_state
from measure import ROUNDS, TAIL_BEYOND, Checked, Op

# thresholds of the acceptance criteria the oracles reuse
CS_ENTROPY_MAX = 1e-9            # c05: coherent grid, c01 split coherent states
NON_CS_ENTROPY_MIN = 1e-4        # c05: non-coherent samples
CHSH_GAP_MAX = 1e-5              # c04: numerical maximum against an exact value
CLASSICAL_BOUND = 2.0 + 1e-8     # c04: split coherent states
ALPHA_GAP_MAX = 1e-6             # c07: amplitude against quadrature
#: the default-step integrator's known miss of ALPHA_GAP_MAX is at most about
#: 2.3e-5 |lambda| over half a period (NOTES.md); a larger gap is a new fault
KNOWN_ALPHA_GAP_MAX = 1e-5
FOCK_FIDELITY_MIN = 1.0 - 1e-6   # c07
SPIN_FIDELITY_MIN = 1.0 - 1e-8   # c08
OVERLAP_MIN = 1.0 - 1e-7         # c01: split state against the product state


@dataclass(frozen=True)
class Workload:
    """A run makes ROUNDS passes over a list of blocks of operations.

    ``block(i)`` builds block ``i`` from the seed and ``i`` alone; every
    block holds the same kinds of operation. ``block_s`` is a block's time
    at the reference speed: it fixes how many blocks a run of a given
    length holds, so that the work does not depend on the machine's speed.
    """

    block: Callable[[int], list]
    warmup: list
    block_s: float

    def ops(self, seconds: float) -> list:
        blocks = round(seconds / (self.block_s * ROUNDS))
        ops, index = [], 0
        while index < blocks or len(ops) <= TAIL_BEYOND:  # a tail needs 11 operations
            ops += self.block(index)
            index += 1
        return ops


def _rng(seed: int, name: str, part: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(f"{name}/{part}".encode())])


def _seed32(rng) -> int:
    return int(rng.integers(1, 2 ** 31))


def _polar(rng, r_lo: float, r_hi: float) -> complex:
    return complex(rng.uniform(r_lo, r_hi) * np.exp(2j * math.pi * rng.uniform()))


def _haar(rng, space: SpaceDescriptor) -> StateVector:
    return StateVector(space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))


def _floats(*values) -> bytes:
    return repr(values).encode()


# ---------------------------------------------------------------------------
# scan: splitting.uniqueness_scan on spin and small Fock systems
# ---------------------------------------------------------------------------

SCAN_SPIN = ((1, 16), (2, 16), (3, 14))      # (j_A, samples per call)
SCAN_FOCK = ((16, 8), (20, 6), (24, 6))      # (cutoff, samples per call)


def _check_scan(n_samples: int, stats) -> Checked:
    ok = (stats.cs_max_entropy < CS_ENTROPY_MAX
          and stats.min_entropy_non_cs is not None
          and stats.min_entropy_non_cs > NON_CS_ENTROPY_MIN)
    fingerprint = json.dumps([stats.to_json_dict(), stats.n_excluded]).encode()
    return Checked(ok, fingerprint, {"n_samples": n_samples,
                                     "n_excluded": stats.n_excluded})


def _scan_op(system, n_samples: int, seed: int) -> Op:
    return Op(f"scan.{system.label}",
              partial(splitting.uniqueness_scan, system, n_samples, seed),
              partial(_check_scan, n_samples))


def _scan_block(seed: int, index: int) -> list:
    rng = _rng(seed, "scan", f"block-{index}")
    ops = [_scan_op(splitting.SpinScanSystem(ja, ja / 2, ja / 2), n, _seed32(rng))
           for ja, n in SCAN_SPIN]
    for cutoff, n in SCAN_FOCK:
        ops.append(_scan_op(splitting.FockScanSystem(cutoff), n, _seed32(rng)))
    return ops


def scan(seed: int, workdir: str) -> Workload:
    warm = _rng(seed, "scan", "warmup")
    warmup = [_scan_op(splitting.SpinScanSystem(1, 0.5, 0.5), 2, _seed32(warm)),
              _scan_op(splitting.FockScanSystem(12), 1, _seed32(warm))]
    return Workload(partial(_scan_block, seed), warmup, block_s=0.6)


# ---------------------------------------------------------------------------
# chsh: bell.chsh_maximize on three kinds of input
# ---------------------------------------------------------------------------

CHSH_HAAR_QUBITS = 24      # seeded two-qubit states, multistart with 8 starts
CHSH_SPLIT_CS = 8          # split spin-1 coherent states, analytic-qubit
CHSH_2X3 = 1               # 2x3 states through the general route
CHSH_2X3_STARTS = 4        # the route runs max(n_starts, 4) starts on 2x3


def _check_against(reference: float, result) -> Checked:
    gap = abs(result.max_value - reference)
    return Checked(gap <= CHSH_GAP_MAX, _floats(result.max_value), {"oracle_gap": gap})


def _horodecki_check(state, result) -> Checked:
    return _check_against(bell.horodecki_max(state), result)


def _schmidt_rank2_check(state, result) -> Checked:
    # Gisin's closed form for a pure state of Schmidt rank 2
    c = np.linalg.svd(state.amps.reshape(state.space.factor_dims), compute_uv=False)
    return _check_against(2.0 * math.sqrt(1.0 + 4.0 * c[0] ** 2 * c[1] ** 2), result)


def _classical_check(result) -> Checked:
    return Checked(result.max_value <= CLASSICAL_BOUND, _floats(result.max_value))


def _qubit_op(state, seed: int) -> Op:
    return Op("chsh.haar-2x2", partial(bell.chsh_maximize, state, "multistart-local-search",
                                       n_starts=8, seed=seed),
              partial(_horodecki_check, state))


def _split_cs_op(zeta: complex) -> Op:
    state = spin.split_spin(spin.spin_cs(spin.SpinCsParams(j=1, zeta=zeta)), 0.5, 0.5)
    return Op("chsh.split-cs", partial(bell.chsh_maximize, state), _classical_check)


QUBITS = SpaceDescriptor.single_spin(0.5).tensor(SpaceDescriptor.single_spin(0.5))
QUBIT_QUTRIT = SpaceDescriptor.single_spin(0.5).tensor(SpaceDescriptor.single_spin(1))


def _chsh_block(seed: int, index: int) -> list:
    rng = _rng(seed, "chsh", f"block-{index}")
    haar = [_qubit_op(_haar(rng, QUBITS), _seed32(rng)) for _ in range(CHSH_HAAR_QUBITS)]
    split_cs = [_split_cs_op(_polar(rng, 0.0, 3.0)) for _ in range(CHSH_SPLIT_CS)]
    general = []
    for _ in range(CHSH_2X3):
        state = _haar(rng, QUBIT_QUTRIT)
        general.append(Op("chsh.haar-2x3",
                          partial(bell.chsh_maximize, state, "multistart-local-search",
                                  n_starts=CHSH_2X3_STARTS, seed=_seed32(rng)),
                          partial(_schmidt_rank2_check, state)))
    half = len(haar) // 2
    return haar[:half] + split_cs + general + haar[half:]


def chsh(seed: int, workdir: str) -> Workload:
    warm = _rng(seed, "chsh", "warmup")
    warmup = [_qubit_op(_haar(warm, QUBITS), _seed32(warm)),
              _split_cs_op(_polar(warm, 0.0, 3.0))]
    return Workload(partial(_chsh_block, seed), warmup, block_s=6.0)


# ---------------------------------------------------------------------------
# evolve: driven oscillator and spin precession
# ---------------------------------------------------------------------------

EVOLVE_FOCK_CUTOFFS = (24, 40, 64, 80)
EVOLVE_SPIN_J = (1, 2, 3, 4, 5)
EVOLVE_SAMPLES = 9
#: sinusoid drive strength |lambda|, weak to moderate; the moderate half
#: shows the integrator's known miss of c07's amplitude bound
EVOLVE_DRIVE = (0.01, 0.2)


def _check_fock_traj(drive, grid, traj) -> Checked:
    gap = max(abs(traj.alpha_track[i] - dynamics.alpha_of_t(drive, t))
              for i, t in enumerate(grid))
    coherent = traj.cs_fidelity.min() >= FOCK_FIDELITY_MIN
    return Checked(gap <= ALPHA_GAP_MAX and coherent,
                   traj.alpha_track.tobytes() + traj.cs_fidelity.tobytes(),
                   {"alpha_gap": float(gap)},
                   known=coherent and ALPHA_GAP_MAX < gap <= KNOWN_ALPHA_GAP_MAX)


def _check_spin_traj(traj) -> Checked:
    return Checked(traj.cs_fidelity.min() >= SPIN_FIDELITY_MIN,
                   traj.zeta_track.tobytes() + traj.cs_fidelity.tobytes())


def _fock_evolve_op(rng, cutoff: int) -> Op:
    drive = dynamics.DriveSpec.sinusoid(1.0, _polar(rng, *EVOLVE_DRIVE),
                                        rng.uniform(0.3, 0.9), rng.uniform(0, 2 * math.pi))
    grid = np.linspace(0.0, math.pi, EVOLVE_SAMPLES)  # half an oscillator period
    return Op(f"evolve.fock({cutoff})", partial(dynamics.evolve_fock, drive, grid, cutoff),
              partial(_check_fock_traj, drive, grid))


def _spin_evolve_op(rng, j) -> Op:
    ham = dynamics.LinearSpinHamiltonian(rng.uniform(0.5, 1.5), _polar(rng, 0.1, 0.4))
    initial = spin.spin_cs(spin.SpinCsParams(j=j, zeta=_polar(rng, 0.0, 1.5)))
    grid = np.linspace(0.0, math.pi / ham.strength, EVOLVE_SAMPLES)  # half a precession
    return Op(f"evolve.spin({j})", partial(dynamics.evolve_spin, ham, j, grid, initial),
              _check_spin_traj)


def _evolve_block(seed: int, index: int) -> list:
    rng = _rng(seed, "evolve", f"block-{index}")
    return ([_fock_evolve_op(rng, n) for n in EVOLVE_FOCK_CUTOFFS]
            + [_spin_evolve_op(rng, j) for j in EVOLVE_SPIN_J])


def evolve(seed: int, workdir: str) -> Workload:
    warm = _rng(seed, "evolve", "warmup")
    warmup = [_fock_evolve_op(warm, 16), _spin_evolve_op(warm, 1)]
    return Workload(partial(_evolve_block, seed), warmup, block_s=0.8)


# ---------------------------------------------------------------------------
# split: README split commands through cli.main, and non-coherent inputs
# ---------------------------------------------------------------------------

#: cutoffs; the largest runs twice so that the tail falls inside its block
SPLIT_CLI_FOCK = (60, 90, 120, 150, 150)
SPLIT_CLI_SPIN = (10, 20, 30, 40)       # j_A, split into equal halves
SPLIT_NUMBER = (60, 150)                # cutoffs for number states
SPLIT_HAAR_FOCK = (90, 120)
SPLIT_BASIS_SPIN = (10, 40)             # j_A for |j_A, m> with |m| < j_A
SPLIT_HAAR_SPIN = (20, 30)


def _cli_check(workdir: str, tag: str, expected, code: int) -> Checked:
    with open(os.path.join(workdir, f"{tag}.report.json"), "rb") as fh:
        report_bytes = fh.read()
    with open(os.path.join(workdir, f"{tag}.state.json"), "rb") as fh:
        state_bytes = fh.read()
    report = json.loads(report_bytes)
    saved = serialize.state_from_dict(json.loads(state_bytes))
    ok = (code == 0 and report["entropy_bits"] < CS_ENTROPY_MAX
          and saved.space == expected.space
          and abs(overlap(expected, saved)) >= OVERLAP_MIN)
    return Checked(ok, report_bytes + state_bytes)


def _cli_main(argv: list) -> int:
    """cli.main in-process, with argparse's exit turned into its exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _cli_op(workdir: str, kind: str, prefix: str, argv: list, expected) -> Op:
    tag = prefix + kind
    argv = argv + ["--save-state", os.path.join(workdir, f"{tag}.state.json"),
                   "--out", os.path.join(workdir, f"{tag}.report.json")]
    return Op(f"split.cli-{kind}", partial(_cli_main, argv),
              partial(_cli_check, workdir, tag, expected))


def _cli_fock_op(workdir: str, rng, tag: str, cutoff: int) -> Op:
    text = serialize.format_complex(_polar(rng, 0.5, 2.0))
    alpha = serialize.parse_complex(text)
    spec = fock.SplitSpec.balanced()
    expected = tensor_state(fock.glauber_cs(spec.mu * alpha, cutoff),
                            fock.glauber_cs(spec.nu * alpha, cutoff))
    return _cli_op(workdir, f"fock{cutoff}", tag,
                   ["split", "--system", "fock", f"--alpha={text}", "--N", str(cutoff)],
                   expected)


def _cli_spin_op(workdir: str, rng, tag: str, ja: int) -> Op:
    text = serialize.format_complex(_polar(rng, 0.2, 2.0))
    zeta = serialize.parse_complex(text)
    half = spin.spin_cs(spin.SpinCsParams(j=ja / 2, zeta=zeta))
    return _cli_op(workdir, f"spin{ja}", tag,
                   ["split", "--system", "spin", "--jA", str(ja), "--jB", str(ja / 2),
                    "--jC", str(ja / 2), f"--zeta={text}"],
                   tensor_state(half, half))


def _check_entangled(report) -> Checked:
    return Checked(report.entropy_bits > NON_CS_ENTROPY_MIN, _floats(report.entropy_bits))


def _split_fock_report(state):
    return splitting.factorization_report(fock.split_fock(state, fock.SplitSpec.balanced()))


def _split_spin_report(state):
    j = state.space.factors[0].j
    return splitting.factorization_report(spin.split_spin(state, j / 2, j / 2))


def _non_coherent_ops(rng, number=SPLIT_NUMBER, haar_fock=SPLIT_HAAR_FOCK,
                      basis=SPLIT_BASIS_SPIN, haar_spin=SPLIT_HAAR_SPIN) -> list:
    ops = []
    for cutoff in number:
        state = fock.number_state(cutoff, int(rng.integers(1, 9)))
        ops.append(Op(f"split.number({cutoff})", partial(_split_fock_report, state),
                      _check_entangled))
    for cutoff in haar_fock:
        ops.append(Op(f"split.haar-fock({cutoff})",
                      partial(_split_fock_report, _haar(rng, fock.fock_space(cutoff))),
                      _check_entangled))
    for ja in basis:
        state = spin.basis_state(ja, int(rng.integers(-ja + 1, ja)))
        ops.append(Op(f"split.basis-spin({ja})", partial(_split_spin_report, state),
                      _check_entangled))
    for ja in haar_spin:
        ops.append(Op(f"split.haar-spin({ja})",
                      partial(_split_spin_report, _haar(rng, spin.spin_space(ja))),
                      _check_entangled))
    return ops


def _split_block(seed: int, workdir: str, index: int) -> list:
    rng = _rng(seed, "split", f"block-{index}")
    return ([_cli_fock_op(workdir, rng, f"b{index}.{i}-", n)
             for i, n in enumerate(SPLIT_CLI_FOCK)]
            + [_cli_spin_op(workdir, rng, f"b{index}-", ja) for ja in SPLIT_CLI_SPIN]
            + _non_coherent_ops(rng))


def split(seed: int, workdir: str) -> Workload:
    warm = _rng(seed, "split", "warmup")
    warmup = [_cli_fock_op(workdir, warm, "warm-", 40), _cli_spin_op(workdir, warm, "warm-", 2),
              *_non_coherent_ops(warm, (16,), (16,), (2,), (2,))]
    return Workload(partial(_split_block, seed, workdir), warmup, block_s=2.1)


#: every workload by name; ``workdir`` is a scratch directory it may write to
WORKLOADS = {"scan": scan, "chsh": chsh, "evolve": evolve, "split": split}
