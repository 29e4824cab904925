import json
import math

import numpy as np
import pytest

from coherence_lab import serialize, spin
from coherence_lab.cli import main
from coherence_lab.qcore import SpaceDescriptor, StateVector


def run_cli(args):
    return main(list(args))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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


def test_split_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["split", "--system", "spin", "--jA", "1.5", "--jB", "1", "--jC",
            "0.5", "--theta", "1.2", "--phi", "0.4"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_evolve_csv_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--drive", "constant", "--lambda", "0.1", "--omega", "1",
            "--tmax", "3.0", "--N", "30", "--samples", "9"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evolve_rejects_json_format(capsys):
    code = run_cli(["evolve", "--drive", "constant", "--lambda", "0.1",
                    "--omega", "1", "--tmax", "1.0", "--N", "20",
                    "--format", "json"])
    assert code == 2


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


def test_validation_error_exit_code(capsys):
    code = run_cli(["split", "--system", "fock", "--alpha", "3+0i", "--N", "10"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["chsh", "--state", "split-spin1-m0", "--strategy", "multistart", "--seed", "abc"],
    ["scan", "--system", "spin", "--jA", "1", "--jB", "0.5", "--jC", "0.5",
     "--n-samples", "5", "--seed", "1.5"],
    ["split", "--system", "fock", "--alpha", "nan", "--N", "40"],
    ["split", "--system", "fock", "--alpha", "0.5+nani", "--N", "40"],
])
def test_malformed_values_exit_2_with_one_line(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


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


def test_thread_budget_env(monkeypatch):
    from coherence_lab.errors import ConfigError
    from coherence_lab.parallel import thread_budget
    monkeypatch.delenv("COHERENCE_LAB_THREADS", raising=False)
    assert thread_budget() == 1
    monkeypatch.setenv("COHERENCE_LAB_THREADS", "3")
    assert thread_budget() == 3
    monkeypatch.setenv("COHERENCE_LAB_THREADS", "0")
    assert thread_budget() >= 1
    monkeypatch.setenv("COHERENCE_LAB_THREADS", "many")
    with pytest.raises(ConfigError):
        thread_budget()
