import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coherence_lab import fock, serialize, spin
from coherence_lab.cli import main
from coherence_lab.qcore import SpaceDescriptor, StateVector


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
    # beyond the substep budget: 8e6 and 8e9 substeps
    ["evolve", "--omega", "1e6", "--lambda", "0", "--tmax", "1", "--N", "20",
     "--samples", "2"],
    ["evolve", "--system", "spin", "--j", "1", "--beta0", "1e9", "--zeta0", "0.5",
     "--tmax", "1"],
])
def test_numerical_failures_exit_3_with_one_line(argv, capsys):
    start = time.perf_counter()
    assert run_cli(argv) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unreachable_cutoff_exits_2_with_one_line(capsys):
    # |alpha| about 1e200 squares beyond the float range, without a warning
    assert run_cli(["evolve", "--omega", "1", "--lambda", "1e200", "--tmax", "1",
                    "--N", "20", "--samples", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_json_text_refuses_non_finite_values():
    from coherence_lab.errors import NumericalError
    assert serialize.json_text({"x": 1e308, "y": [0.1, -0.0]}) == (
        '{\n  "x": 1e+308,\n  "y": [\n    0.1,\n    -0.0\n  ]\n}\n')
    for bad in (math.nan, math.inf, -math.inf):
        for obj in ({"x": [bad]}, {"x": bad}, [[0.5, bad], [1.0, 2.0]],
                    [[1.0, 2.0], [np.float64(bad), 0.0]], [0.5, np.float64(bad)]):
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
# tmax and the Hamiltonian strengths that fix the substep take huge values
# too: the substep budget ends such a run with exit 3. Sample counts stay
# small, so no example runs long.
REAL = ["0", "1", "0.5", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "", "abc", "1+2i"]
COMPLEX = ["0", "1+0i", "0.5-0.3i", "-2i", "nan", "inf", "1e200", "1e-200", "-1e300",
           "", "abc", "1+nani"]
SPIN = ["0", "0.5", "1", "1.5", "2", "0.3", "-1", "nan", "inf", "1e300", "", "abc"]
CUTOFF = ["0", "1", "12", "20", "40", "-1", "1.5", "", "abc", str(10 ** 30)]
SPLIT = ["0.6", "0.8", "0.7071067811865476", "1", "0", "nan", "1e300", "", "abc"]
SEED = ["0", "7", "-1", "1.5", "", "abc", str(2 ** 64), "1e300"]
THETA = ["0", "1.2", "3.141592653589793", "-1", "4", "nan", "inf", "1e300", "", "abc"]


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
                  "@good", "@malformed", "@bad-amps", "@bad-space"],
        "strategy": ["analytic-qubit", "multistart", "multistart-local-search", "bogus"],
        "n-starts": _small("1", "2", "4"), "seed": SEED,
        "tol": ["1e-7", "1e-3", "0", "-1", "nan", "inf", "1e300", "", "abc"],
    },
    "evolve": {
        "system": ["fock", "spin", "bogus"], "drive": ["constant", "sinusoid", "exponential"],
        "lambda": COMPLEX,
        "omega": ["1", "0.5", "0", "-1", "nan", "inf", "1e6", "1e300", "", "abc"],
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

STATE_FILES = {
    "@good": lambda: serialize.state_to_dict(spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5)),
    "@malformed": lambda: {"space": {"factors": [{"kind": "fock"}]}, "amps": "x"},
    "@bad-amps": lambda: {"space": {"factors": [{"kind": "spin", "twice_j": 1}] * 2},
                          "amps": [["a", 0]] * 4},
    "@bad-space": lambda: {"space": {"factors": [{"kind": "fock", "cutoff": "abc"}]},
                           "amps": [[1, 0]]},
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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run_cli(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
    return code, err.getvalue()


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
