import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherence_lab import bell, dynamics, fock, qcore, serialize, spin, splitting
from coherence_lab.cli import main
from coherence_lab.qcore import SpaceDescriptor, StateVector
from coherence_lab.serialize import SCHEMA_VERSION


def run_cli(args):
    return main(list(args))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stdlib_text(obj) -> str:
    """The reference bytes for ``serialize.json_text``."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# complex parsing and state serialization
# ---------------------------------------------------------------------------

def test_parse_complex_forms():
    assert serialize.parse_complex("1+0.5i") == 1 + 0.5j
    assert serialize.parse_complex("-2i") == -2j
    assert serialize.parse_complex("0.75") == 0.75
    assert serialize.parse_complex("1.5e-3+4i") == 1.5e-3 + 4j
    from coherence_lab.errors import ConfigError
    with pytest.raises(ConfigError):
        serialize.parse_complex("not-a-number")


def test_state_round_trip_exact():
    rng = np.random.default_rng(2)
    space = SpaceDescriptor.single_fock(6).tensor(SpaceDescriptor.single_spin(1.5))
    state = StateVector(space, rng.normal(size=28) + 1j * rng.normal(size=28))
    text = serialize.json_text(serialize.state_to_dict(state))
    back = serialize.state_from_dict(json.loads(text))
    assert back.space == state.space
    assert np.array_equal(back.amps, state.amps)


def test_state_to_dict_bytes_match_per_amplitude_pairs():
    amps = np.array([0.6, -0.8j, -0.0, complex(-0.0, 5e-324),
                     complex(2.5e-310, -1e-308), complex(-1e-300, 1e-17)])
    state = StateVector(SpaceDescriptor.single_fock(5), amps)
    assert np.array_equal(state.amps, amps)
    assert np.signbit(state.amps[2].real) and state.amps[3].imag == 5e-324
    per_amplitude = dict(serialize.state_to_dict(state),
                         amps=[serialize.complex_pair(z) for z in state.amps])
    assert (serialize.json_text(serialize.state_to_dict(state))
            == stdlib_text(per_amplitude))


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_spin_command(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["split", "--system", "spin", "--jA", "1", "--jB", "0.5",
                    "--jC", "0.5", "--zeta", "1+0i", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["schema_version"] == 1
    assert doc["is_product"] is True
    assert doc["entropy_bits"] < 1e-9


def test_split_fock_command_with_state_file(tmp_path):
    out = tmp_path / "report.json"
    state_file = tmp_path / "state.json"
    code = run_cli(["split", "--system", "fock", "--alpha", "1+0i", "--N", "30",
                    "--out", str(out), "--save-state", str(state_file)])
    assert code == 0
    doc = read_json(out)
    assert doc["is_product"] is True
    saved = serialize.state_from_dict(read_json(state_file))
    assert saved.space.factor_dims == (31, 31)
    # the README chain: a saved state reloads and saves to the same bytes
    resaved = serialize.json_text(serialize.state_to_dict(saved))
    assert resaved.encode("utf-8") == state_file.read_bytes()


def test_split_large_spin_exits_0_without_stderr(tmp_path, capsys):
    # C(1200, k) is beyond the float range for most k
    out = tmp_path / "report.json"
    assert run_cli(["split", "--system", "spin", "--jA", "600", "--jB", "300",
                    "--jC", "300", "--zeta", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(out)["is_product"] is True


def test_split_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["split", "--system", "spin", "--jA", "1.5", "--jB", "1", "--jC",
            "0.5", "--theta", "1.2", "--phi", "0.4"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_split_residual_is_the_distance_to_the_coherent_product(tmp_path):
    # claim 1: |alpha> splits into |mu alpha> (x) |nu alpha>, and |jA, zeta>
    # into |jB, zeta> (x) |jC, zeta>. The reported residual is the distance to
    # that product, never null; on a mode it carries the truncation at N, so
    # the neglected Poisson tail bounds it, up to rounding.
    out = tmp_path / "report.json"

    def residual(argv, split, factor_b, factor_c):
        assert run_cli(["split"] + argv + ["--out", str(out)]) == 0
        got = read_json(out)["residual"]
        assert isinstance(got, float)
        want = np.linalg.norm(split.amps - np.kron(factor_b.amps, factor_c.amps))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-18)
        return got

    text = serialize.format_complex
    specs = [fock.SplitSpec.balanced(), fock.SplitSpec(0.6, 0.8j),
             fock.SplitSpec(1, 0), fock.SplitSpec.from_angles(1.2, 2.0)]
    for alpha in (0.3, 1 + 1j, 5, 8j):
        need = fock.required_cutoff(alpha)
        for n in (need, 2 * need):
            tail = 2 * math.sqrt(scipy.stats.poisson.sf(n, abs(alpha) ** 2))
            for spec in specs:
                got = residual(
                    ["--system", "fock", f"--alpha={text(alpha)}", "--N", str(n),
                     f"--mu={text(spec.mu)}", f"--nu={text(spec.nu)}"],
                    fock.split_fock(fock.glauber_cs(alpha, n), spec),
                    fock.glauber_cs(spec.mu * alpha, n), fock.glauber_cs(spec.nu * alpha, n))
                assert got <= tail + 1e-15 * (n + 1), (alpha, n, spec)
    for j_b, cs in ((0.5, spin.SpinCsParams(1, zeta=1)),
                    (1, spin.SpinCsParams(2.5, zeta=0.3 - 2j)),
                    (2, spin.SpinCsParams.from_angles(3, math.pi, 0.7)),
                    (250, spin.SpinCsParams(600, zeta=0.4 + 0.9j)),
                    (300, spin.SpinCsParams.from_angles(600, 2.0, 1.0))):
        j_c = cs.j - j_b
        label = ([f"--zeta={text(cs.zeta)}"] if cs.zeta is not None
                 else ["--theta", repr(cs.theta), "--phi", repr(cs.phi)])
        got = residual(
            ["--system", "spin", "--jA", str(cs.j), "--jB", str(j_b), "--jC", str(j_c)] + label,
            spin.split_spin(spin.spin_cs(cs), j_b, j_c),
            *(spin.spin_cs(spin.SpinCsParams(j, cs.zeta, cs.theta, cs.phi)) for j in (j_b, j_c)))
        assert got <= 1e-15 * (2 * cs.j + 1), cs


# ---------------------------------------------------------------------------
# chsh
# ---------------------------------------------------------------------------

def test_chsh_named_state(tmp_path):
    out = tmp_path / "chsh.json"
    code = run_cli(["chsh", "--state", "split-spin1-m0", "--strategy",
                    "analytic-qubit", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["max_value"] == pytest.approx(2.8284271, abs=1e-6)
    assert len(doc["settings"]) == 4


def test_chsh_state_file_multistart(tmp_path):
    state = spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)
    state_file = tmp_path / "state.json"
    state_file.write_text(serialize.json_text(serialize.state_to_dict(state)))
    out = tmp_path / "chsh.json"
    code = run_cli(["chsh", "--state", str(state_file), "--strategy",
                    "multistart", "--n-starts", "6", "--seed", "11",
                    "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["max_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert doc["seed"] == 11


def test_chsh_multistart_requires_seed(capsys):
    code = run_cli(["chsh", "--state", "split-spin1-m0", "--strategy",
                    "multistart"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_chsh_analytic_checks_a_valid_seed_and_reports_none(tmp_path):
    # the seed is checked, but the analytic strategy draws nothing, so the
    # report's bytes are those of a run without one
    plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
    argv = ["chsh", "--state", "split-spin1-m0", "--out"]
    assert run_cli([*argv, str(plain)]) == 0
    assert run_cli([*argv, str(seeded), "--seed", "7"]) == 0
    assert seeded.read_bytes() == plain.read_bytes()
    assert read_json(seeded)["seed"] is None


def test_chsh_search_stopped_by_the_sweep_cap_exits_3(tmp_path, monkeypatch, capsys):
    # a 4 x 4 Haar state converges at the real cap; at a cap of 3 sweeps the
    # search stops early, and its value is not reported as a maximum
    space = spin.spin_space(1.5).tensor(spin.spin_space(1.5))
    state = StateVector(space, np.random.default_rng(5).normal(size=(16, 2)) @ [1, 1j])
    state_file = tmp_path / "haar.json"
    state_file.write_text(serialize.json_text(serialize.state_to_dict(state)))
    argv = ["chsh", "--state", str(state_file), "--strategy", "multistart",
            "--n-starts", "2", "--seed", "1"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(bell, "SEESAW_MAX_SWEEPS", 3)
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical error: the see-saw search reached its cap of 3 sweeps "
                            "before converging; no maximum is reported\n")


def test_chsh_on_saved_split_coherent_state(tmp_path):
    # the README chain: a split coherent mode at cutoff 40 (41 x 41) does not
    # violate, and the seeded search gives the same bytes twice
    state_file = tmp_path / "split.json"
    assert run_cli(["split", "--system", "fock", "--alpha", "1+0i", "--N", "40",
                    "--save-state", str(state_file), "--out", str(tmp_path / "r.json")]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["chsh", "--state", str(state_file), "--strategy", "multistart",
            "--n-starts", "32", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert read_json(a)["max_value"] <= 2 + 1e-8
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_chsh_multistart_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the see-saw's stacked products and eigensolves give the same bytes with
    # one BLAS thread or two, on the README's 41 x 41 split state and on a
    # seeded 13 x 13 Haar state
    split_file, haar_file = tmp_path / "split.json", tmp_path / "haar.json"
    assert run_cli(["split", "--system", "fock", "--alpha", "1+0i", "--N", "40",
                    "--save-state", str(split_file), "--out", str(tmp_path / "r.json")]) == 0
    space = spin.spin_space(6).tensor(spin.spin_space(6))
    haar = StateVector(space, np.random.default_rng(13).normal(size=(169, 2)) @ [1, 1j])
    haar_file.write_text(serialize.json_text(serialize.state_to_dict(haar)))
    # the Haar state's starts take thousands of sweeps each, so it gets two
    for state_file, n_starts in ((split_file, "32"), (haar_file, "2")):
        argv = [sys.executable, "-m", "coherence_lab.cli", "chsh", "--state", str(state_file),
                "--strategy", "multistart", "--n-starts", n_starts, "--seed", "7"]
        outputs = [subprocess.run(argv, capture_output=True, check=True, cwd=tmp_path,
                                  env=dict(subprocess_env(), OPENBLAS_NUM_THREADS=threads)
                                  ).stdout
                   for threads in ("1", "2")]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["n_starts"] == int(n_starts)


def test_readme_library_quick_start_runs():
    # the README's "Library quick start" block, run as written, reaches the
    # results its comments state
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["report"].entropy_bits < 1e-9
    assert names["bell"].horodecki_max(names["pair"]) == pytest.approx(2 * math.sqrt(2),
                                                                       abs=1e-12)
    assert names["traj"].cs_fidelity.min() > 1 - 1e-6


def readme_cli_commands():
    """The argv lists of the README's CLI block, ``\\`` continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("coherence-lab ")]


#: SHA-256 of each README CLI output, with the versions it was recorded under
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_cli.json"


def environment() -> dict:
    """The Python, numpy, scipy and BLAS versions an output's bits may depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def environment_changes(recorded: dict) -> list:
    """Each ``environment()`` version that differs from ``recorded``'s, as
    "name recorded -> now"."""
    return [f"{key} {recorded.get(key)} -> {value}"
            for key, value in environment().items() if recorded.get(key) != value]


def readme_cli_digests() -> dict:
    """Run the README's CLI block in the working directory, where its relative
    paths (split.json, traj.csv) land, and return the SHA-256 of what each
    command prints, keyed by its command line, and of each file it writes,
    keyed by its name. Each command must exit 0 with nothing on stderr."""
    printed = {}
    for argv in readme_cli_commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        assert (code, err.getvalue()) == (0, ""), argv
        printed[shlex.join(["coherence-lab"] + argv)] = hashlib.sha256(
            out.getvalue().encode()).hexdigest()
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in Path.cwd().iterdir()}
    return {"printed": printed, "files": files}


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # the README's commands print and write the bytes recorded in GOLDEN, and
    # a second run of the block gives the same bytes again
    assert len(readme_cli_commands()) == 9
    runs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        runs.append(readme_cli_digests())
    assert sorted(runs[0]["files"]) == ["split.json", "traj.csv"]
    assert runs[0] == runs[1]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = [f"{group} {key}" for group in ("printed", "files")
             for key in sorted(golden[group].keys() | runs[0][group].keys())
             if golden[group].get(key) != runs[0][group].get(key)]
    changed = environment_changes(golden["environment"])
    assert not moved, (
        f"README CLI outputs differ from {GOLDEN.name}: {moved}; "
        + (f"the environment differs from the record's: {changed}" if changed else
           "the environment is the record's, so the program's bits moved; "
           "re-record with `OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python "
           "tests/test_cli.py` if that is intended"))


def test_chsh_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["chsh", "--state", "split-spin1-m0", "--strategy", "multistart",
            "--n-starts", "4", "--seed", "9"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_fock_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli(["evolve", "--drive", "constant", "--lambda", "0.2",
                    "--omega", "1", "--tmax", "6.2832", "--N", "40",
                    "--samples", "17", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,re_alpha,im_alpha,eta,fidelity"
    assert len(lines) == 18
    # final alpha matches the closed form at t = 6.2832
    last = lines[-1].split(",")
    t_end = float(last[0])
    alpha_end = complex(float(last[1]), float(last[2]))
    want = -(0.2 / 1.0) * (1 - np.exp(-1j * t_end))
    assert abs(alpha_end - want) < 1e-6


def test_evolve_spin_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli(["evolve", "--system", "spin", "--j", "1", "--beta0", "1",
                    "--zeta0", "0.5+0i", "--tmax", "3.14", "--samples", "9",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,re_zeta,im_zeta,theta,phi,fidelity"
    assert len(lines) == 10
    mods = [abs(complex(float(r.split(",")[1]), float(r.split(",")[2])))
            for r in lines[1:]]
    assert max(mods) - min(mods) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_strong_static_spin_hamiltonian_runs(tmp_path):
    # one exact step per interval: no substep budget refuses a strong field
    out = tmp_path / "traj.csv"
    assert run_cli(["evolve", "--system", "spin", "--j", "1", "--beta0", "1e9",
                    "--zeta0", "0.5", "--tmax", "1", "--samples", "3",
                    "--out", str(out)]) == 0
    t, re_zeta, im_zeta, theta, phi, fid = map(
        float, out.read_text().strip().split("\n")[-1].split(","))
    # the classical angle: zeta(t) = zeta(0) exp(-i beta0 t)
    want = spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5 * np.exp(-1e9j * t)))
    got = spin.spin_cs(spin.SpinCsParams.from_angles(1, theta, phi))
    assert abs(complex(re_zeta, im_zeta) - 0.5 * np.exp(-1e9j * t)) < 1e-9
    assert abs(qcore.overlap(want, got)) > 1 - 1e-12
    assert fid > 1 - 1e-12


DRIVEN_SPIN = ["evolve", "--system", "spin", "--j", "1", "--beta0", "1", "--beta-plus", "0.3",
               "--zeta0", "0.5", "--tmax", "1", "--samples", "3"]


def test_driven_spin_csv_is_the_library_trajectory(tmp_path):
    # --drive shapes --beta-plus as it shapes --lambda, with --beta0 for omega
    driven, constant = tmp_path / "driven.csv", tmp_path / "constant.csv"
    assert run_cli(DRIVEN_SPIN + ["--drive", "sinusoid", "--drive-frequency", "3",
                                  "--out", str(driven)]) == 0
    assert run_cli(DRIVEN_SPIN + ["--drive", "constant", "--drive-frequency", "3",
                                  "--out", str(constant)]) == 0
    traj = dynamics.evolve_spin(dynamics.DriveSpec.sinusoid(1.0, 0.3, 3.0), 1,
                                np.linspace(0.0, 1.0, 3),
                                spin.spin_cs(spin.SpinCsParams(j=1, zeta=0.5)))
    assert driven.read_text() == serialize.spin_trajectory_csv(traj)
    assert driven.read_text() != constant.read_text()


def test_evolve_csv_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--drive", "constant", "--lambda", "0.1", "--omega", "1",
            "--tmax", "3.0", "--N", "30", "--samples", "9"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


#: one quick command line per command, each of which writes its report
QUICK_ARGVS = {
    "split": ["split", "--system", "fock", "--alpha", "0.5", "--N", "20"],
    "chsh": ["chsh", "--state", "split-spin1-m0"],
    "evolve": ["evolve", "--drive", "constant", "--lambda", "0.1",
               "--omega", "1", "--tmax", "1.0", "--N", "20"],
    "scan": ["scan", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5",
             "--n-samples", "4", "--seed", "1"],
    "series": ["series", "--order", "3"],
}


def test_dispatch_holds_every_subcommand():
    from coherence_lab import cli
    assert list(cli.DISPATCH) == list(cli.build_parser().commands) == list(QUICK_ARGVS)


def test_evolve_rejects_json_format(tmp_path, capsys):
    # every command emits one format and refuses the other with one line,
    # before its own checks, writing no file; a JSON report carries the header
    from coherence_lab import cli
    for name, (_, fmt) in cli.DISPATCH.items():
        other = {"json": "csv", "csv": "json"}[fmt]
        out, state = tmp_path / f"{name}.out", tmp_path / f"{name}.state.json"
        argv = [*QUICK_ARGVS[name], "--out", str(out)]
        if name == "split":
            argv += ["--save-state", str(state)]
        assert run_cli([*argv, "--format", other]) == 2
        assert capsys.readouterr() == ("", f"error: command '{name}' emits {fmt} reports\n")
        assert not out.exists() and not state.exists()
        assert run_cli([*argv, "--format", fmt]) == 0
        if fmt == "json":
            report = read_json(out)
            assert (report["schema_version"], report["command"]) == (SCHEMA_VERSION, name)


def test_evolve_long_weak_drive_passes_the_cutoff_check(tmp_path):
    # a constant drive takes one exact step per interval, here omega dt = 2000:
    # |alpha| <= 2 |lambda| / omega
    out = tmp_path / "traj.csv"
    assert run_cli(["evolve", "--omega", "1", "--lambda", "0.01", "--tmax", "4000",
                    "--N", "40", "--samples", "3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 3
    assert max(abs(complex(float(r[1]), float(r[2]))) for r in rows) <= 0.02


def test_constant_fock_drive_runs_at_any_span(tmp_path):
    # one exact step per interval, as for a spin: no substep budget applies
    out = tmp_path / "traj.csv"
    assert run_cli(["evolve", "--omega", "1", "--lambda", "0.1", "--N", "20",
                    "--tmax", "1e5", "--samples", "3", "--out", str(out)]) == 0
    last = out.read_text().strip().split("\n")[-1].split(",")
    want = dynamics.alpha_of_t(dynamics.DriveSpec.constant(1.0, 0.1), 1e5)
    assert float(last[0]) == 1e5
    assert abs(complex(float(last[1]), float(last[2])) - want) < 1e-9


#: one call per command path, as the README runs them but smaller
COMMAND_PATHS = [
    ["split", "--system", "fock", "--alpha", "1+0i", "--N", "40", "--save-state", "split.json"],
    ["split", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5", "--zeta", "1+0i"],
    ["chsh", "--state", "split-spin1-m0", "--strategy", "analytic-qubit"],
    ["chsh", "--state", "split.json", "--strategy", "multistart", "--n-starts", "4",
     "--seed", "7"],
    ["evolve", "--drive", "sinusoid", "--lambda", "0.2", "--omega", "1",
     "--drive-frequency", "1.3", "--tmax", "1", "--N", "20", "--samples", "3"],
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "1", "--beta-plus", "0.3",
     "--zeta0", "0.5", "--drive", "sinusoid", "--drive-frequency", "3", "--tmax", "1",
     "--samples", "3"],
    ["scan", "--system", "fock", "--N", "14", "--n-samples", "4", "--seed", "3"],
    ["scan", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5", "--n-samples", "4",
     "--seed", "7"],
    ["series", "--order", "4", "--mu", "0.6", "--nu", "0.8"],
]


def subprocess_env() -> dict:
    """The environment with this tree's ``src`` first on PYTHONPATH."""
    src = str(Path(dynamics.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH")))))


def test_command_paths_load_no_optimizer_or_quadrature(tmp_path):
    # only a trajectory loads scipy, for its tridiagonal eigensolver
    # (scipy.linalg.lapack): no command loads scipy.special, scipy.optimize or
    # the quadrature that lives in ``oracles``. The other commands run first,
    # in one process, so each is seen to load no scipy module at all.
    code = ("import contextlib, io, json, sys\n"
            "from coherence_lab import cli\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    loaded.append((argv[0], code, sorted(m for m in sys.modules\n"
            "                                         if m.startswith('scipy'))))\n"
            "print(json.dumps(loaded))\n")
    paths = sorted(COMMAND_PATHS, key=lambda argv: argv[0] == "evolve")
    result = subprocess.run([sys.executable, "-c", code, json.dumps(paths)],
                            capture_output=True, text=True, env=subprocess_env(),
                            cwd=tmp_path, check=True)
    loaded = json.loads(result.stdout)
    assert [code for _, code, _ in loaded] == [0] * len(COMMAND_PATHS), result.stderr
    others = [(command, modules) for command, _, modules in loaded if command != "evolve"]
    assert {command for command, _ in others} == {"split", "chsh", "scan", "series"}
    assert others == [(command, []) for command, _ in others]
    evolve_modules = loaded[-1][2]
    assert "scipy.linalg.lapack" in evolve_modules
    assert not [m for m in evolve_modules if m.split(".")[:2] in (
        ["scipy", "special"], ["scipy", "optimize"], ["scipy", "integrate"])]


def test_a_reader_that_closes_early_exits_2_with_one_line(tmp_path):
    # the pipe has no reader from the start, so the report's write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "coherence_lab.cli", "split", "--system", "fock",
             "--alpha", "1", "--N", "20"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=subprocess_env(),
            cwd=tmp_path)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write stdout: the reader closed the pipe\n"


# ---------------------------------------------------------------------------
# scan / series
# ---------------------------------------------------------------------------

def test_scan_spin_command(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(["scan", "--system", "spin", "--jA", "1", "--jB", "0.5",
                    "--jC", "0.5", "--n-samples", "20", "--seed", "7",
                    "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["system"] == "spin(1,0.5,0.5)"
    assert doc["min_entropy_non_cs"] > 1e-4
    assert doc["cs_max_entropy"] < 1e-9
    assert doc["seed"] == 7


def test_scan_requires_seed(capsys):
    code = run_cli(["scan", "--system", "spin", "--jA", "1", "--jB", "0.5",
                    "--jC", "0.5", "--n-samples", "5"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5", "abc"])
@pytest.mark.parametrize("command", [
    ["chsh", "--state", "split-spin1-m0", "--strategy", "multistart", "--n-starts", "2"],
    ["scan", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5", "--n-samples", "2"],
], ids=["chsh", "scan"])
def test_a_seed_out_of_range_or_no_integer_exits_2_with_one_line(command, seed):
    # the CLI parses --seed; qcore.as_seed checks its range, as for library callers
    code, err = _exit_and_stderr(command + ["--seed", seed])
    assert code == 2
    assert err.startswith("error: seed must ") and err.count("\n") == 1


def test_scan_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["scan", "--system", "fock", "--N", "14", "--n-samples", "8",
            "--seed", "3"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_series_command(tmp_path):
    out = tmp_path / "series.json"
    code = run_cli(["series", "--order", "8", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["order"] == 8
    assert doc["consistency_residual"] < 1e-12
    assert doc["exponential_family_max_residual"] < 1e-12


# ---------------------------------------------------------------------------
# config file, errors, exit codes
# ---------------------------------------------------------------------------

def test_config_file_merge_and_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"system": "spin", "jA": 1.0, "jB": 0.5,
                                  "jC": 0.5, "zeta": "1+0i"}))
    out1 = tmp_path / "r1.json"
    code = run_cli(["--config", str(config), "split", "--out", str(out1)])
    assert code == 0
    assert read_json(out1)["params"]["zeta"] == [1.0, 0.0]
    # explicit flag wins over the config value
    out2 = tmp_path / "r2.json"
    code = run_cli(["--config", str(config), "split", "--zeta", "0+0i",
                    "--out", str(out2)])
    assert code == 0
    assert read_json(out2)["params"]["zeta"] == [0.0, 0.0]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus_key": 1}))
    code = run_cli(["--config", str(config), "series"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err
    # "help" names argparse's help action, not a parameter
    config.write_text(json.dumps({"help": 1}))
    assert run_cli(["--config", str(config), "series"]) == 2


def test_config_equals_form(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"order": 3}))
    out = tmp_path / "r.json"
    assert run_cli([f"--config={config}", "series", "--out", str(out)]) == 0
    assert read_json(out)["order"] == 3
    # explicit flag wins over the config value
    assert run_cli([f"--config={config}", "series", "--order", "5", "--out", str(out)]) == 0
    assert read_json(out)["order"] == 5
    config.write_text(json.dumps({"order": 3, "bogus_key": 1}))
    assert run_cli([f"--config={config}", "series"]) == 2
    assert "bogus_key" in capsys.readouterr().err


def _exit_and_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_cli(argv)
        except SystemExit as exc:  # --help, or argparse rejects the argument list
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_parser_is_built_once_and_keeps_no_call_state(tmp_path, monkeypatch):
    from coherence_lab import cli
    monkeypatch.setattr(cli, "_PARSER", None)
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    argvs = [["--help"], *([name, "--help"] for name in cli.DISPATCH),
             ["chsh", "--state", "split-spin1-m0", "--strategy", "bogus"]]
    first = [_exit_and_output(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0] * (len(argvs) - 1) + [2]
    assert "invalid choice: 'bogus'" in first[-1][2]
    assert len(builds) == 1
    # a config run's values, for its own command and another, reach no later call
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"order": 3, "mu": "2", "strategy": "multistart",
                                  "n_starts": 4}))
    out = tmp_path / "r.json"
    assert run_cli(["--config", str(config), "series", "--out", str(out)]) == 0
    assert read_json(out)["order"] == 3 and read_json(out)["mu"] == [2.0, 0.0]
    assert len(builds) == 2
    assert run_cli(["series", "--out", str(out)]) == 0
    assert read_json(out)["order"] == 8 and read_json(out)["mu"] == [1.0, 0.0]
    assert run_cli(["chsh", "--state", "split-spin1-m0", "--out", str(out)]) == 0
    assert read_json(out)["strategy"] == "analytic-qubit"
    assert [_exit_and_output(argv) for argv in argvs] == first
    assert len(builds) == 2


def test_validation_error_exit_code(capsys):
    code = run_cli(["split", "--system", "fock", "--alpha", "3+0i", "--N", "10"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["chsh", "--state", "split-spin1-m0", "--strategy", "multistart", "--seed", "abc"],
    ["scan", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5",
     "--n-samples", "5", "--seed", "1.5"],
    ["split", "--system", "fock", "--alpha", "nan", "--N", "40"],
    ["split", "--system", "fock", "--alpha", "0.5+nani", "--N", "40"],
    ["split", "--system", "fock", "--alpha", "1e200", "--N", "40"],
    ["split", "--system", "spin", "--jA", "inf", "--jB", "0.5", "--jC", "0.5", "--zeta", "1"],
    ["scan", "--system", "spin", "--jA", "nan", "--jB", "0.5", "--jC", "0.5",
     "--n-samples", "2", "--seed", "1"],
    ["evolve", "--system", "spin", "--j", "nan", "--beta0", "1", "--zeta0", "0.5",
     "--tmax", "1", "--samples", "3"],
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "nan", "--zeta0", "0.5",
     "--tmax", "1", "--samples", "3"],
    # the generator bands need two levels
    ["evolve", "--N", "0", "--omega", "1", "--tmax", "1", "--samples", "2"],
    ["evolve", "--system", "spin", "--j", "0", "--beta0", "1", "--zeta0", "0.5",
     "--tmax", "1", "--samples", "2"],
    # a non-finite azimuth
    ["split", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5", "--theta", "1",
     "--phi", "inf"],
    ["split", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5", "--theta", "1",
     "--phi", "nan"],
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "1", "--theta0", "1", "--phi0",
     "nan", "--tmax", "1", "--samples", "3"],
    # an output path that cannot be written
    ["series", "--out", "/nonexistent/x.json"],
    ["series", "--out", "/"],
    ["split", "--system", "fock", "--alpha", "1", "--N", "40", "--save-state",
     "/nonexistent/s.json"],
    # an infinite tolerance, which once leaked a numpy RuntimeWarning
    ["chsh", "--state", "split-spin1-m0", "--strategy", "multistart", "--seed", "1",
     "--tol", "inf"],
    # the oscillator needs omega > 0, though a spin's beta0 may be any real
    ["evolve", "--omega", "0", "--tmax", "1", "--N", "20", "--samples", "2"],
    ["evolve", "--omega", "-1", "--tmax", "1", "--N", "20", "--samples", "2"],
    # --tol and --n-starts are checked under the analytic strategy too
    *(["chsh", "--state", "split-spin1-m0", "--tol", tol] for tol in ("nan", "-1", "0", "inf")),
    ["chsh", "--state", "split-spin1-m0", "--n-starts", "0"],
    # and so is a given --seed
    *(["chsh", "--state", "split-spin1-m0", "--seed", seed] for seed in ("abc", "-1", "1.5")),
    # a non-finite flag that the chosen drive kind ignores
    ["evolve", "--drive", "constant", "--drive-frequency", "nan", "--omega", "1", "--tmax", "1",
     "--N", "20", "--samples", "2"],
    ["evolve", "--drive", "exponential", "--drive-phase", "inf", "--omega", "1", "--tmax",
     "1", "--N", "20", "--samples", "2"],
])
def test_malformed_values_exit_2_with_one_line(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,config,code", [
    ("split", {"system": "spin", "jA": math.inf, "jB": 0.5, "jC": 0.5, "zeta": "1"}, 2),
    ("evolve", {"system": "spin", "j": math.nan, "beta0": 1, "zeta0": "0.5", "tmax": 1,
                "samples": 3}, 2),
    ("evolve", {"system": "spin", "j": 1, "beta0": math.nan, "zeta0": "0.5", "tmax": 1,
                "samples": 3}, 2),
    ("evolve", {"system": "fock", "N": 1.5, "lam": "0.1", "omega": 1, "tmax": 1}, 2),
    ("evolve", {"system": "fock", "drive": "sinusoid", "drive_phase": None, "lam": "0.1",
                "omega": 1, "drive_frequency": 1, "N": 20, "tmax": 1, "samples": 3}, 0),
], ids=["split-jA-inf", "evolve-j-nan", "evolve-beta0-nan", "evolve-N-not-int",
        "evolve-null-keeps-default"])
def test_config_values_parse_like_flags(command, config, code, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # NaN and Infinity tokens, as json.load reads them
    got, err = _exit_and_stderr(["--config", str(path), command])
    assert got == code, err
    if code == 2:
        assert "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["series", "--order", "8", "--mu", "1e200", "--nu", "1e200"],
    ["series", "--order", "3", "--mu", "1e-200", "--nu", "1e-200"],
    # a driven oscillator beyond the substep budget: 8e6 substeps
    ["evolve", "--omega", "1e6", "--lambda", "0", "--drive", "sinusoid", "--tmax", "1",
     "--N", "20", "--samples", "2"],
    # a spin Hamiltonian whose Magnus exponent leaves the float range
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "1e300", "--beta-plus", "1e300",
     "--zeta0", "0.5", "--tmax", "1"],
    # a driven spin obeys the substep budget: 8e6 substeps
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "1e6", "--zeta0", "0.5",
     "--drive", "sinusoid", "--drive-frequency", "1", "--tmax", "1"],
    # ... also where its Rabi rate 2 |beta-plus| overflows to inf
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "1", "--beta-plus", "1e308",
     "--zeta0", "0.5", "--drive", "sinusoid", "--tmax", "1"],
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failures_exit_3_with_one_line(argv, capsys):
    start = time.perf_counter()
    assert run_cli(argv) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("module,name,argv", [
    (dynamics, "evolve_fock", ["evolve", "--N", "20", "--omega", "1", "--tmax", "1",
                               "--samples", "2"]),
    (dynamics, "evolve_spin", ["evolve", "--system", "spin", "--j", "1", "--beta0", "1",
                               "--zeta0", "0.5", "--tmax", "1", "--samples", "3"]),
    (fock, "split_fock", ["split", "--system", "fock", "--alpha", "1", "--N", "20"]),
    (splitting, "uniqueness_scan", ["scan", "--system", "fock", "--N", "20",
                                    "--n-samples", "1", "--seed", "1"]),
], ids=["evolve-fock", "evolve-spin", "split", "scan"])
@pytest.mark.parametrize("message", [
    "Unable to allocate 14.6 TiB for an array with shape (1000001, 1000001) and "
    "data type complex128", ""], ids=["numpy", "bare"])
def test_out_of_memory_exits_3_with_one_line(module, name, argv, message, monkeypatch,
                                             capsys):
    # a stand-in for a request too large to allocate: tier-1 never asks for one
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, name, too_large)
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical error: {message or 'out of memory'}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_tmax_exits_2_with_one_line(capsys):
    assert run_cli(["evolve", "--tmax", "inf", "--N", "20", "--samples", "3",
                    "--omega", "1", "--lambda", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_choices_are_the_flags_choices(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"state": "split-spin1-m0", "strategy": "bogus"}))
    assert run_cli(["--config", str(config), "chsh"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid strategy 'bogus'; choose from "
        "['analytic-qubit', 'multistart', 'multistart-local-search']\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unreachable_cutoff_exits_2_with_one_line(capsys):
    # |alpha| about 1e200 squares beyond the float range, without a warning
    assert run_cli(["evolve", "--omega", "1", "--lambda", "1e200", "--tmax", "1",
                    "--N", "20", "--samples", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("omega,tmax,message", [
    # omega dt underflows to 0 or a subnormal: the reach is still the drive's
    ("5e-324", "1", "cutoff 20 too small for |alpha|=102 (need >= 11629)"),
    ("1e-310", "1", "cutoff 20 too small for |alpha|=102 (need >= 11629)"),
    ("1e-300", "1", "cutoff 20 too small for |alpha|=102 (need >= 11629)"),
    # one substep per interval, whose dt^2 overflows
    ("5e-324", "1e200", "|alpha|=1.02e+202 needs a cutoff beyond the float range"),
], ids=["5e-324", "1e-310", "1e-300", "5e-324-long-substep"])
@pytest.mark.filterwarnings("error")
def test_vanishing_omega_reach_exits_2_with_one_line(omega, tmax, message, capsys):
    assert run_cli(["evolve", "--omega", omega, "--lambda", "100", "--N", "20",
                    "--tmax", tmax, "--samples", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("drive,message", [
    ("constant", "|alpha|=1.02e+299 needs a cutoff beyond the float range"),
    ("sinusoid", "|alpha|=1.02e+299 needs a cutoff beyond the float range"),
], ids=["constant", "sinusoid"])
@pytest.mark.filterwarnings("error")
def test_constant_drive_with_overflowing_substep_exits_2_with_one_line(drive, message,
                                                                       capsys):
    assert run_cli(["evolve", "--omega", "5e-324", "--drive", drive, "--drive-frequency",
                    "0", "--lambda", "0.1", "--tmax", "1e300", "--N", "20",
                    "--samples", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_huge_amplitude_state_file_runs_without_warning(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(STATE_FILES["@huge-amps"]()))
    assert run_cli(["chsh", "--state", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_json_text_refuses_non_finite_values():
    from coherence_lab.errors import NumericalError
    assert serialize.json_text({"x": 1e308, "y": [0.1, -0.0]}) == (
        '{\n  "x": 1e+308,\n  "y": [\n    0.1,\n    -0.0\n  ]\n}\n')
    for bad in (math.nan, math.inf, -math.inf):
        for obj in ({"x": [bad]}, {"x": bad}, [[0.5, bad], [1.0, 2.0]],
                    [[1.0, 2.0], [np.float64(bad), 0.0]], [0.5, np.float64(bad)],
                    [[0.5, 1.0], [2.0, bad]]):
            with pytest.raises(NumericalError):
                serialize.json_text(obj)


def test_json_text_refuses_non_str_keys():
    for key in (1, 1.5, True, None):
        with pytest.raises(TypeError):
            serialize.json_text({"x": {key: 0}})


#: the float edge cases: signed zero, the smallest subnormal and normal,
#: near-overflow and values near 1e-120 (exponent notation in repr)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1.7976931348623157e308, 1e-120, 1.0000000000000001e-120,
               -9.999999999999999e-121, 0.1, 1e16, 123456789.0)
JSON_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from(EDGE_FLOATS)
               | st.floats(min_value=1e-121, max_value=1e-119))
ROW_FLOATS = JSON_FLOATS | JSON_FLOATS.map(np.float64)
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | ROW_FLOATS
               | st.text(st.characters(max_codepoint=127)) | st.text())
# rows of floats, ragged too, and tuple rows that may be empty or hold the
# odd int or bool, so that both sides of the bulk-row guard are drawn
JSON_ROWS = st.lists(st.lists(ROW_FLOATS, min_size=1, max_size=3)
                     | st.lists(ROW_FLOATS | st.integers(-3, 3) | st.booleans(),
                                max_size=3).map(tuple), max_size=5)
JSON_DOCS = st.recursive(
    JSON_LEAVES | JSON_ROWS | st.lists(JSON_FLOATS, max_size=4),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(JSON_DOCS)
@example([[1.0, 2], [3.0]])
@example([[1.0], []])
# an int or a bool after floats sends float rows to the general path
@example([[1.0, True]])
@example([[0.5], [2, 1.0]])
@example(((0.5, -0.0), (1e308, 5e-324)))
@example([(0.1,), [0.2, 0.3, 0.4], (0.5,)])
@example([[0.1], [0.2, 0.3, 0.4], [0.5], [1e-120, 2.0, 3.0]])
@example([[np.float64(-0.0), np.float64(5e-324)], [np.float64(5e-324), np.float64(-0.0)]])
@example({"amps": [[0.6, -0.0], [5e-324, -2.2250738585072014e-308]],
          "params": {"alpha": [1e308, 1e-120]}, "settings": [[[0.5, 1.0]], []]})
def test_json_text_matches_the_stdlib_encoder(obj):
    assert serialize.json_text(obj) == stdlib_text(obj)


def _assert_saved_state_exact(text: str, state: StateVector):
    assert text == stdlib_text(json.loads(text))
    back = serialize.state_from_dict(json.loads(text))
    assert back.space == state.space
    assert back.amps.tobytes() == state.amps.tobytes()


def test_large_saved_states_match_the_stdlib_encoder(tmp_path):
    # the split workload's largest sizes: a cutoff-150 Fock split from the
    # CLI and a Haar state on a 121 x 121 Fock pair
    state_file = tmp_path / "state.json"
    assert run_cli(["split", "--system", "fock", "--alpha", "1.2+0.7i", "--N", "150",
                    "--save-state", str(state_file), "--out", str(tmp_path / "r.json")]) == 0
    split = fock.split_fock(fock.glauber_cs(1.2 + 0.7j, 150), fock.SplitSpec.balanced())
    _assert_saved_state_exact(state_file.read_text(encoding="utf-8"), split)
    rng = np.random.default_rng(121)
    space = fock.fock_space(120).tensor(fock.fock_space(120))
    haar = StateVector(space, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim))
    _assert_saved_state_exact(serialize.json_text(serialize.state_to_dict(haar)), haar)


def test_missing_parameters_exit_code(capsys):
    code = run_cli(["split", "--system", "fock"])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_unknown_state_exit_code(capsys):
    code = run_cli(["chsh", "--state", "no-such-state"])
    assert code == 2


def test_weight_condition_exit_code(capsys):
    code = run_cli(["split", "--system", "spin", "--jA", "1", "--jB", "1",
                    "--jC", "1", "--zeta", "0.5+0i"])
    assert code == 2


# ---------------------------------------------------------------------------
# guard: generated argv lists and config files never end in a traceback
# ---------------------------------------------------------------------------

# value vocabularies: valid, malformed, non-finite, negative, huge and empty.
# tmax and the Hamiltonian strengths take huge values too: the substep
# budget of an oscillator or a driven spin, or a spin exponent or step phase
# beyond the float range, ends such a run with exit 3, and a constant-drive
# spin run takes one step per sample at any strength. Sample counts stay small, so no example runs long.
REAL = ["0", "1", "0.5", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "", "abc", "1+2i"]
COMPLEX = ["0", "1+0i", "0.5-0.3i", "-2i", "nan", "inf", "1e200", "1e-200", "-1e300",
           "", "abc", "1+nani"]
SPIN = ["0", "0.5", "1", "1.5", "2", "0.3", "-1", "nan", "inf", "1e300", "", "abc"]
CUTOFF = ["0", "1", "12", "20", "40", "-1", "1.5", "", "abc", str(10 ** 30)]
SPLIT = ["0.6", "0.8", "0.7071067811865476", "1", "0", "nan", "1e300", "", "abc"]
SEED = ["0", "7", "-1", "1.5", "", "abc", str(2 ** 64), "1e300"]
THETA = ["0", "1.2", "3.141592653589793", "-1", "4", "nan", "inf", "1e300", "", "abc"]


def _scaled_pair(scale):
    """The two-qubit ray |01> + |10> with both amplitudes ``scale``."""
    return {"space": {"factors": [{"kind": "spin", "twice_j": 1}] * 2},
            "amps": [[0, 0], [scale, 0], [scale, 0], [0, 0]]}


#: the ray |01> + |10> at scales from the smallest subnormal to near overflow
SCALED_PAIRS = {f"@pair-{scale!r}": scale for scale in (5e-324, 1e-160, 1e-15, 1.7e308)}


def _small(*valid):
    return list(valid) + ["0", "-1", "1.5", "", "abc"]


FLAGS = {
    "split": {
        "system": ["fock", "spin", "bogus", ""], "alpha": COMPLEX, "N": CUTOFF,
        "mu": SPLIT, "nu": SPLIT, "jA": SPIN, "jB": SPIN, "jC": SPIN,
        "zeta": COMPLEX, "theta": THETA, "phi": REAL, "format": ["json", "csv", ""],
    },
    "chsh": {
        "state": ["split-spin1-m0", "split-spin1-lowest", "no-such-state", "",
                  "@good", "@malformed", "@bad-amps", "@bad-space", "@float-size",
                  "@bool-size", "@string-size", "@huge-amps", "@string-amps", "@bool-amps",
                  "@nan-amps", "@huge-int-amps", "@scalar-amps", "@zero-amps", "@tiny-amps",
                  *SCALED_PAIRS],
        "strategy": ["analytic-qubit", "multistart", "multistart-local-search", "bogus"],
        "n-starts": _small("1", "2", "4"), "seed": SEED,
        "tol": ["1e-7", "1e-3", "0", "-1", "nan", "inf", "1e300", "", "abc"],
    },
    "evolve": {
        "system": ["fock", "spin", "bogus"], "drive": ["constant", "sinusoid", "exponential"],
        "lambda": COMPLEX,
        "omega": ["1", "0.5", "0", "-1", "nan", "inf", "1e6", "1e300", "5e-324", "1e-310",
                  "", "abc"],
        "drive-frequency": REAL, "drive-phase": REAL, "N": CUTOFF,
        "initial-alpha": COMPLEX, "j": SPIN,
        "beta0": ["0", "1", "-0.5", "nan", "inf", "1e6", "1e300", "", "abc"],
        "beta-plus": ["0", "0.3+0.1i", "nan", "inf", "1e6", "1e300", "", "abc"],
        "zeta0": COMPLEX, "theta0": THETA, "phi0": REAL,
        "tmax": ["0.5", "3.14", "0", "-1", "nan", "inf", "1e6", "1e300", "", "abc"],
        "samples": _small("2", "3", "5"), "format": ["csv", "json"],
    },
    "scan": {
        "system": ["fock", "spin", "bogus"], "N": CUTOFF, "mu": SPLIT, "nu": SPLIT,
        "jA": SPIN, "jB": SPIN, "jC": SPIN, "n-samples": _small("1", "2", "3"),
        "seed": SEED,
    },
    "series": {"order": _small("2", "3", "8", "12"), "mu": COMPLEX, "nu": COMPLEX},
}

def _two_by_two(first):
    return {"space": {"factors": [first, {"kind": "spin", "twice_j": 1}]},
            "amps": [[0, 0], [0.6, 0], [0.8, 0], [0, 0]]}


def _two_qubit_amps(first):
    return {"space": {"factors": [{"kind": "spin", "twice_j": 1}] * 2},
            "amps": [first, [0, 0], [0, 0], [0, 0]]}


STATE_FILES = {
    "@good": lambda: serialize.state_to_dict(spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)),
    "@malformed": lambda: {"space": {"factors": [{"kind": "fock"}]}, "amps": "x"},
    "@bad-amps": lambda: {"space": {"factors": [{"kind": "spin", "twice_j": 1}] * 2},
                          "amps": [["a", 0]] * 4},
    "@bad-space": lambda: {"space": {"factors": [{"kind": "fock", "cutoff": "abc"}]},
                           "amps": [[1, 0]]},
    # 2 x 2 files whose first factor size is not a JSON integer
    "@float-size": lambda: _two_by_two({"kind": "fock", "cutoff": 1.5}),
    "@bool-size": lambda: _two_by_two({"kind": "spin", "twice_j": True}),
    "@string-size": lambda: _two_by_two({"kind": "spin", "twice_j": "1"}),
    # a two-qubit file whose squared amplitudes overflow
    "@huge-amps": lambda: {"space": {"factors": [{"kind": "spin", "twice_j": 1}] * 2},
                           "amps": [[1e308, 1e308]] * 4},
    # two-qubit files with an amplitude part that is not a finite JSON number
    "@string-amps": lambda: _two_qubit_amps(["1", 0]),
    "@bool-amps": lambda: _two_qubit_amps([True, 0]),
    "@nan-amps": lambda: _two_qubit_amps([math.nan, 0]),
    "@huge-int-amps": lambda: _two_qubit_amps([10 ** 400, 0]),
    "@scalar-amps": lambda: _two_qubit_amps(1),
    # a two-qubit file with no state: all amplitudes zero
    "@zero-amps": lambda: _two_qubit_amps([0, 0]),
    # two-qubit rays far below unit scale, or far above it
    "@tiny-amps": lambda: _two_qubit_amps([1e-320, 0]),
    **{name: lambda scale=scale: _scaled_pair(scale) for name, scale in SCALED_PAIRS.items()},
}

#: one valid call per command and system; examples change or drop flags of one
BASELINES = [
    ("split", {"system": "fock", "alpha": "0.5+0.2i", "N": "20"}),
    ("split", {"system": "spin", "jA": "1.5", "jB": "1", "jC": "0.5", "zeta": "0.5-0.2i"}),
    ("chsh", {"state": "@good", "strategy": "multistart", "n-starts": "2", "seed": "7"}),
    ("evolve", {"system": "fock", "drive": "sinusoid", "lambda": "0.1", "omega": "1",
                "drive-frequency": "1", "N": "20", "tmax": "0.5", "samples": "3"}),
    ("evolve", {"system": "spin", "j": "1", "beta0": "1", "beta-plus": "0.2",
                "zeta0": "0.5", "tmax": "0.5", "samples": "3"}),
    ("scan", {"system": "fock", "N": "14", "n-samples": "2", "seed": "3"}),
    ("scan", {"system": "spin", "jA": "1", "jB": "0.5", "jC": "0.5", "n-samples": "2",
              "seed": "3"}),
    ("series", {"order": "8", "mu": "0.6", "nu": "0.8"}),
]

JSON_VALUES = st.sampled_from([None, True, 0, 3, -1, 0.5, 1e300, math.nan, math.inf,
                               "", "abc", [], [1, 2], {"a": 1}])


def _dest(flag):
    return "lam" if flag == "lambda" else flag.replace("-", "_")


def _json_value(text):
    """A flag value as a config file would hold it: a number when it is one."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@st.composite
def flag_sets(draw):
    command, base = draw(st.sampled_from(BASELINES))
    flags = FLAGS[command]
    dropped = draw(st.lists(st.sampled_from(sorted(base)), unique=True, max_size=1))
    changed = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3))
    chosen = {flag: value for flag, value in base.items() if flag not in dropped}
    chosen.update({flag: draw(st.sampled_from(flags[flag])) for flag in changed})
    return command, chosen


def _guarded_run(argv, config=None):
    """Run the CLI, with ``config`` as its config file if given; returns (exit
    code, stderr). ``@name`` in a value stands for the state file ``name``."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, build in STATE_FILES.items():
            (workdir / f"{name[1:]}.json").write_text(json.dumps(build()))
        if config is not None:
            path = workdir / "config.json"
            path.write_text(_with_state_paths(json.dumps(config), workdir))
            argv = ["--config", str(path)] + argv
        return _exit_and_stderr([_with_state_paths(a, workdir) for a in argv])


def _exit_and_stderr(argv):
    code, _, err = _exit_and_output(argv)
    return code, err


def _with_state_paths(text, workdir):
    for name in STATE_FILES:
        text = text.replace(name, str(workdir / f"{name[1:]}.json"))
    return text


def _assert_clean_exit(code, err):
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=300, deadline=None)
@given(flag_sets())
def test_generated_argv_never_ends_in_traceback(case):
    command, flags = case
    argv = [command] + [f"--{flag}={value}" for flag, value in flags.items()]
    _assert_clean_exit(*_guarded_run(argv))


@settings(max_examples=200, deadline=None)
@given(flag_sets(), st.data())
def test_generated_config_never_ends_in_traceback(case, data):
    command, flags = case
    in_file = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    config = {_dest(flag): _json_value(flags[flag]) for flag in in_file}
    config.update(data.draw(st.dictionaries(
        st.sampled_from(sorted(_dest(flag) for flag in FLAGS[command])), JSON_VALUES,
        max_size=2)))
    argv = [command] + [f"--{flag}={value}" for flag, value in flags.items()
                        if flag not in in_file]
    _assert_clean_exit(*_guarded_run(argv, config))


@pytest.mark.parametrize("name", ["@float-size", "@bool-size", "@string-size"])
def test_state_file_factor_sizes_must_be_json_integers(name, tmp_path):
    # int() would read "cutoff": 1.5 as 1, a space the file never named
    path = tmp_path / "state.json"
    path.write_text(json.dumps(STATE_FILES[name]()))
    code, err = _exit_and_stderr(["chsh", "--state", str(path)])
    assert code == 2
    assert err.startswith("error: malformed space descriptor: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["@string-amps", "@bool-amps", "@nan-amps",
                                  "@huge-int-amps", "@scalar-amps"])
def test_state_file_amplitudes_must_be_pairs_of_finite_json_numbers(name, tmp_path):
    # float() would read "1" or true as 1.0; a NaN token ended in exit 3, and
    # an integer past float range in a traceback
    path = tmp_path / "state.json"
    path.write_text(json.dumps(STATE_FILES[name]()))  # NaN as json.load reads it
    code, err = _exit_and_stderr(["chsh", "--state", str(path)])
    assert code == 2
    assert err.startswith("error: malformed state file: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["@zero-amps"])
def test_null_state_file_exits_2_with_one_line(name, tmp_path):
    # it names no state: invalid input, not a numerical failure (exit 3)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(STATE_FILES[name]()))
    code, err = _exit_and_stderr(["chsh", "--state", str(path)])
    assert code == 2
    assert err == "error: malformed state file: cannot normalize a null vector\n"


def _chsh_stdout(state, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(["chsh", "--state", str(path)]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name,unit", [
    ("@tiny-amps", _two_qubit_amps([1, 0])),
    *((name, _scaled_pair(1.0)) for name in SCALED_PAIRS),
], ids=["@tiny-amps", *SCALED_PAIRS])
def test_a_state_file_at_any_scale_gives_the_unit_scale_report(name, unit, tmp_path):
    # a ray's scale never decides whether it loads: each of these rows is
    # divided by its largest part, which is exactly the unit-scale row
    assert _chsh_stdout(STATE_FILES[name](), tmp_path) == _chsh_stdout(unit, tmp_path)


@pytest.mark.parametrize("argv", [["chsh", "--state", "latin1"], ["--config", "latin1", "chsh"],
                                  ["chsh", "--state", "deep"]],
                         ids=["state-not-utf8", "config-not-utf8", "state-nested-too-deep"])
def test_unreadable_input_files_exit_2_with_one_line(argv, tmp_path, monkeypatch):
    (tmp_path / "latin1").write_bytes('{"space": "é"}'.encode("latin-1"))
    (tmp_path / "deep").write_text("[" * 100_000)
    monkeypatch.chdir(tmp_path)
    code, err = _exit_and_stderr(argv)
    assert code == 2
    assert err.startswith("error: cannot read JSON file ") and err.count("\n") == 1


if __name__ == "__main__":
    # re-record GOLDEN from this tree:
    #   OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_cli.py
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("set OPENBLAS_NUM_THREADS=1, as tests/conftest.py does")
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        record = {"environment": environment(), **readme_cli_digests()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
