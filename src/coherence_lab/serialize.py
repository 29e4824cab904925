"""JSON/CSV wire formats.

Complex numbers travel as ``[re, im]`` pairs in JSON and as ``a+bi``
strings on the command line. State files carry the space descriptor plus
amplitude pairs and round-trip exactly (floats are emitted with ``repr``
via the json module, which is shortest-round-trip in Python 3). CSV floats
use 17 significant digits.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .dynamics import SpinTrajectory, Trajectory
from .errors import ConfigError
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
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed space descriptor: {exc}") from exc


def state_to_dict(state: StateVector) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space_to_dict(state.space),
        "amps": [complex_pair(z) for z in state.amps],
    }


def state_from_dict(data: dict) -> StateVector:
    try:
        space = space_from_dict(data["space"])
        amps = np.array([pair_to_complex(p) for p in data["amps"]])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed state file: {exc}") from exc
    return StateVector(space, amps)


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
