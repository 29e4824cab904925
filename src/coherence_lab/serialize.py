"""JSON/CSV wire formats.

Complex numbers travel as ``[re, im]`` pairs in JSON and as ``a+bi``
strings on the command line. State files carry the space descriptor plus
amplitude pairs and round-trip exactly. JSON text is what
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` writes, byte
for byte: sorted keys, a two-space indent and floats as ``float.__repr__``,
which is shortest-round-trip in Python 3; a NaN or infinity raises
``NumericalError``. Rows of floats, such as a saved state's amplitude pairs,
are written through one ``%`` template per row length, filled in one call
with the floats' reprs; any other value goes through the general path, which
lays out containers itself and leaves keys and scalars to json's C encoder.
CSV floats use 17 significant digits.
"""

from __future__ import annotations

import cmath
import json
import math
from itertools import chain, repeat

import numpy as np

from .dynamics import SpinTrajectory, Trajectory
from .errors import ConfigError, NumericalError, ZeroVector
from .qcore import FACTOR_KINDS, Factor, SpaceDescriptor, StateVector

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


def _json_number(x) -> float:
    """``x`` as a float if it is a finite JSON number: an int other than a
    bool, or a finite float. A string, a bool, a NaN, an infinity or an int
    past float range is refused rather than converted."""
    if type(x) is int:  # bool is an int subclass
        try:
            return float(x)
        except OverflowError:
            pass
    elif type(x) is float and math.isfinite(x):
        return x
    raise TypeError(f"amplitude parts must be finite numbers, got {x!r}")


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TypeError(f"complex values are [re, im] pairs, got {pair!r}")
    return complex(_json_number(pair[0]), _json_number(pair[1]))


def space_to_dict(space: SpaceDescriptor) -> dict:
    return {"factors": [{"kind": f.kind, FACTOR_KINDS[f.kind]: f.param}
                        for f in space.factors]}


def space_from_dict(data: dict) -> SpaceDescriptor:
    """The space a state file names. Each factor size must be a JSON integer:
    a float, bool or string is refused rather than rounded into another space."""
    try:
        factors = []
        for f in data["factors"]:
            key = FACTOR_KINDS.get(f["kind"])
            if key is None:
                raise ConfigError(f"unknown factor kind {f['kind']!r}")
            if type(f[key]) is not int:  # bool is an int subclass
                raise TypeError(f"{key} must be an integer, got {f[key]!r}")
            factors.append(Factor(f["kind"], f[key]))
        return SpaceDescriptor(tuple(factors))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed space descriptor: {exc}") from exc


def state_to_dict(state: StateVector) -> dict:
    amps = state.amps
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space_to_dict(state.space),
        # the same [re, im] Python floats as complex_pair, in one call
        "amps": amps.view(float).reshape(-1, 2).tolist(),
    }


def state_from_dict(data: dict) -> StateVector:
    try:
        space = space_from_dict(data["space"])
        amps = np.array([pair_to_complex(p) for p in data["amps"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed state file: {exc}") from exc
    try:
        return StateVector(space, amps)
    except ZeroVector as exc:  # all-zero amplitudes name no state
        raise ConfigError(f"malformed state file: {exc}") from exc


#: json's C encoder, which writes keys and scalars; containers are laid out
#: by ``_indented`` (any indent sends json.dumps to its pure-Python encoder)
_ENCODER = json.JSONEncoder(allow_nan=False)


def _key(key) -> str:
    """A dict key as json writes it; every report and state file has str
    keys, so any other key is refused."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _ENCODER.encode(key)


def _float_rows(rows, inner: str):
    """The body of a list of non-empty rows, laid out as json lays it out
    under ``inner``, or None if an item of a row is not a float.

    The layout is one ``%`` template per row length, filled in one call with
    ``float.__repr__`` of every item, which is what json writes for a float
    or a float subclass such as ``np.float64`` (``%r`` would print
    ``np.float64(...)``). ``float.__repr__`` raises ``TypeError`` on an int,
    a bool or anything else, which stands in for a check of each item. A
    finite repr has no letter n, so one search finds a NaN or an infinity.
    """
    try:
        reprs = tuple(map(float.__repr__, chain.from_iterable(rows)))
    except TypeError:
        return None
    item = "\n" + inner + "  "
    templates = {n: "[" + item + ("," + item).join(repeat("%s", n)) + "\n" + inner + "]"
                 for n in set(map(len, rows))}
    text = (",\n" + inner).join(map(templates.__getitem__, map(len, rows))) % reprs
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def _indented(obj, indent: str) -> str:
    """``obj`` in json's ``indent=2``, ``sort_keys`` layout, its first line
    unindented and its later lines under ``indent``.

    A list of non-empty lists or tuples (state amplitudes) is written as
    float rows (``_float_rows``: one template, one repr per float). If an
    item is not a float, or ``obj`` is any other container, the general path
    writes each item by recursion and each key or scalar by json's C
    encoder.
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
    body = None
    if all(map(isinstance, obj, repeat((list, tuple)))) and all(obj):
        body = _float_rows(obj, inner)
    if body is None:
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
    # ValueError covers malformed JSON and undecodable UTF-8, RecursionError
    # an array nested too deep to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read JSON file {path!r}: {exc}") from exc


def f17(x: float) -> str:
    return f"{x:.17g}"  # "nan" for a NaN of either sign


def _csv(header: str, *columns) -> str:
    rows = (",".join(map(f17, row)) for row in zip(*columns))
    return "\n".join([header, *rows]) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    a = traj.alpha_track
    return _csv("t,re_alpha,im_alpha,eta,fidelity",
                traj.times, a.real, a.imag, traj.eta_track, traj.cs_fidelity)


def spin_trajectory_csv(traj: SpinTrajectory) -> str:
    z = traj.zeta_track
    return _csv("t,re_zeta,im_zeta,theta,phi,fidelity",
                traj.times, z.real, z.imag, traj.theta_track, traj.phi_track,
                traj.cs_fidelity)
