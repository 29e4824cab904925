"""JSON/CSV wire formats.

Complex numbers travel as ``[re, im]`` pairs in JSON and as ``a+bi``
strings on the command line. State files carry the space descriptor plus
amplitude pairs and round-trip exactly. JSON text is what
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` writes, byte
for byte: sorted keys, a two-space indent and floats as ``float.__repr__``,
which is shortest-round-trip in Python 3; a NaN or infinity raises
``NumericalError``. CSV floats use 17 significant digits.
"""

from __future__ import annotations

import cmath
import json
import math
from itertools import chain, repeat

import numpy as np

from .dynamics import SpinTrajectory, Trajectory
from .errors import ConfigError, NumericalError
from .qcore import Factor, SpaceDescriptor, StateVector

SCHEMA_VERSION = 1


def parse_complex(text: str) -> complex:
    """Parse an ``a+bi`` string (also accepts plain reals); the value must
    be finite."""
    if isinstance(text, (int, float, complex)):
        value = complex(text)
    else:
        cleaned = str(text).strip().replace(" ", "")
        if not cleaned:
            raise ConfigError("empty complex literal")
        try:
            value = complex(cleaned.replace("i", "j"))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise ConfigError(f"complex number {text!r} is not finite")
    return value


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def complex_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"complex values are [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def space_to_dict(space: SpaceDescriptor) -> dict:
    factors = []
    for f in space.factors:
        if f.kind == "fock":
            factors.append({"kind": "fock", "cutoff": f.cutoff})
        else:
            factors.append({"kind": "spin", "twice_j": f.twice_j})
    return {"factors": factors}


def space_from_dict(data: dict) -> SpaceDescriptor:
    try:
        factors = []
        for f in data["factors"]:
            if f["kind"] == "fock":
                factors.append(Factor("fock", int(f["cutoff"])))
            elif f["kind"] == "spin":
                factors.append(Factor("spin", int(f["twice_j"])))
            else:
                raise ConfigError(f"unknown factor kind {f['kind']!r}")
        return SpaceDescriptor(tuple(factors))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed space descriptor: {exc}") from exc


def state_to_dict(state: StateVector) -> dict:
    amps = state.amps
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space_to_dict(state.space),
        # the same [re, im] Python floats as complex_pair, in one call
        "amps": np.column_stack((amps.real, amps.imag)).tolist(),
    }


def state_from_dict(data: dict) -> StateVector:
    try:
        space = space_from_dict(data["space"])
        amps = np.array([pair_to_complex(p) for p in data["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed state file: {exc}") from exc
    return StateVector(space, amps)


#: compact settings, under which json runs its C encoder; any indent sends
#: json.dumps to the pure-Python one
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def _key(key) -> str:
    """A dict key as json writes it; every report and state file has str
    keys, so any other key is refused."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _ENCODER.encode(key)


def _indented(obj, indent: str) -> str:
    """``obj`` in json's ``indent=2``, ``sort_keys`` layout, its first line
    unindented and its later lines under ``indent``.

    A list of non-empty lists of floats (state amplitudes) is encoded in
    one call to the C encoder; commas are then the only separators in its
    compact text, so string replacements lay it out.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (",\n" + inner).join(_key(k) + ": " + _indented(v, inner)
                                    for k, v in sorted(obj.items()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if not isinstance(obj, (list, tuple)):
        return _ENCODER.encode(obj)
    if not obj:
        return "[]"
    if (all(map(isinstance, obj, repeat((list, tuple)))) and all(obj)
          and all(map(isinstance, chain.from_iterable(obj), repeat(float)))):
        row = inner + "  "
        body = ("[\n" + row + _ENCODER.encode(obj)[2:-2]
                .replace(",", ",\n" + row)
                .replace("],\n" + row + "[", "\n" + inner + "],\n" + inner + "[\n" + row)
                + "\n" + inner + "]")
    else:
        body = (",\n" + inner).join(_indented(v, inner) for v in obj)
    return "[\n" + inner + body + "\n" + indent + "]"


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    byte for byte, without json's pure-Python indenting encoder: dict keys
    sorted, two-space indent, floats written by ``float.__repr__``. A NaN or
    infinity in ``obj`` raises ``NumericalError`` instead of becoming a bare
    ``NaN`` token."""
    try:
        return _indented(obj, "") + "\n"
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite value: {exc}") from exc


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON file {path!r}: {exc}") from exc


def f17(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["t,re_alpha,im_alpha,eta,fidelity"]
    for k in range(traj.times.size):
        a = traj.alpha_track[k]
        lines.append(",".join([
            f17(traj.times[k]), f17(a.real), f17(a.imag),
            f17(traj.eta_track[k]), f17(traj.cs_fidelity[k]),
        ]))
    return "\n".join(lines) + "\n"


def spin_trajectory_csv(traj: SpinTrajectory) -> str:
    lines = ["t,re_zeta,im_zeta,theta,phi,fidelity"]
    for k in range(traj.times.size):
        z = traj.zeta_track[k]
        lines.append(",".join([
            f17(traj.times[k]), f17(z.real), f17(z.imag),
            f17(traj.theta_track[k]), f17(traj.phi_track[k]),
            f17(traj.cs_fidelity[k]),
        ]))
    return "\n".join(lines) + "\n"
