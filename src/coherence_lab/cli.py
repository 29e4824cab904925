"""Command-line experiment runner.

Subcommands: split, chsh, evolve, scan, series. Parameters come from flags
or from a JSON config file (``--config``; flags override file values, keys
use the flag names with underscores). Randomized commands require an
explicit ``--seed``; outputs are byte-identical for identical config+seed.

Each command computes its report and ``main`` writes it: ``evolve`` emits
CSV, every other command a JSON object that carries ``schema_version`` and
``command`` beside the command's own keys (all keys sorted). ``--format`` accepts only the command's own format (``json``,
or ``csv`` for ``evolve``); any other value is a config error.

Exit codes: 0 success, 2 validation/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

import numpy as np

from . import bell, dynamics, fock, serialize, spin, splitting
from .errors import ConfigError, NumericalError, ValidationError
from .qcore import StateVector
from .serialize import SCHEMA_VERSION, parse_complex


def _seed_value(raw) -> int:
    """``--seed`` parsed as an integer; the library (``qcore.as_seed``) checks
    its range."""
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"seed must be an integer, got {raw!r}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser that lists the actions its flags made in
    ``actions`` (argparse keeps them only in private fields); its
    subcommand parsers are one too."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.__dict__.setdefault("actions", []).append(action)
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coherence-lab",
        description="coherent-state splitting, CHSH analysis, and phase-space dynamics")
    parser.add_argument("--config", help="JSON file with default parameter values")
    sub = parser.add_subparsers(dest="command", required=True)
    #: subcommand parsers by name; config defaults are applied to each
    parser.commands = {}

    def add_command(name, summary):
        parser.commands[name] = sub.add_parser(name, help=summary)
        return parser.commands[name]

    def add_common(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"],
                       help="output format (default depends on the command)")

    p = add_command("split", "split a coherent state and classify the result")
    p.add_argument("--system", choices=["fock", "spin"])
    p.add_argument("--alpha", help="coherent amplitude a+bi (fock)")
    p.add_argument("--N", type=int, help="Fock cutoff (fock)")
    p.add_argument("--mu", help="beamsplitter coefficient for output B")
    p.add_argument("--nu", help="beamsplitter coefficient for output C")
    p.add_argument("--jA", type=float, help="system spin (spin)")
    p.add_argument("--jB", type=float, help="first subsystem spin (spin)")
    p.add_argument("--jC", type=float, help="second subsystem spin (spin)")
    p.add_argument("--zeta", help="spin coherent-state coordinate a+bi")
    p.add_argument("--theta", type=float, help="polar angle alternative to --zeta")
    p.add_argument("--phi", type=float, default=0.0, help="azimuth for --theta")
    p.add_argument("--save-state", dest="save_state",
                   help="also write the split state as JSON")
    add_common(p)

    p = add_command("chsh", "maximize the CHSH quantity on a bipartite state")
    p.add_argument("--state",
                   help="named state (e.g. split-spin1-m0) or a state JSON file")
    p.add_argument("--strategy", default="analytic-qubit",
                   choices=["analytic-qubit", "multistart", "multistart-local-search"])
    p.add_argument("--n-starts", dest="n_starts", type=int, default=32)
    p.add_argument("--seed", help="required for the multistart strategy")
    p.add_argument("--tol", type=float, default=1e-7)
    add_common(p)

    p = add_command("evolve", "integrate a trajectory and emit CSV")
    p.add_argument("--system", choices=["fock", "spin"], default="fock")
    p.add_argument("--drive", choices=dynamics.DRIVE_KINDS, default="constant")
    p.add_argument("--lambda", dest="lam", default="0",
                   help="drive amplitude a+bi on the creation operator (fock)")
    p.add_argument("--omega", type=float, help="oscillator frequency, positive (fock)")
    p.add_argument("--drive-frequency", dest="drive_frequency", type=float,
                   default=0.0)
    p.add_argument("--drive-phase", dest="drive_phase", type=float, default=0.0)
    p.add_argument("--N", type=int, help="Fock cutoff (fock)")
    p.add_argument("--initial-alpha", dest="initial_alpha",
                   help="start from this coherent state (fock; default vacuum)")
    p.add_argument("--j", type=float, help="spin magnitude (spin)")
    p.add_argument("--beta0", type=float, help="J0 coefficient, any real (spin)")
    p.add_argument("--beta-plus", dest="beta_plus", default="0",
                   help="drive amplitude a+bi on J+ (spin), shaped like --lambda")
    p.add_argument("--zeta0", help="initial spin coherent state a+bi")
    p.add_argument("--theta0", type=float, help="initial polar angle (spin)")
    p.add_argument("--phi0", type=float, default=0.0)
    p.add_argument("--tmax", type=float)
    p.add_argument("--samples", type=int, default=129,
                   help="number of grid points including t=0")
    add_common(p)

    p = add_command("scan", "seeded uniqueness scan over random states")
    p.add_argument("--system", choices=["fock", "spin"])
    p.add_argument("--N", type=int, help="Fock cutoff (fock)")
    p.add_argument("--mu", help="beamsplitter coefficient (fock)")
    p.add_argument("--nu", help="beamsplitter coefficient (fock)")
    p.add_argument("--jA", type=float)
    p.add_argument("--jB", type=float)
    p.add_argument("--jC", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--seed")
    add_common(p)

    p = add_command("series", "solve the splitting functional equation")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--mu", default="1")
    p.add_argument("--nu", default="1")
    add_common(p)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")


def _validate_choices(parser: argparse.ArgumentParser, args) -> None:
    """Choice validation for values that arrived through a config file, which
    argparse checks only on the command line."""
    for action in parser.commands[args.command].actions:
        value = getattr(args, action.dest, None)
        if action.choices is not None and value is not None and value not in action.choices:
            raise ConfigError(f"invalid {action.dest} {value!r}; "
                              f"choose from {sorted(action.choices)}")


def _split_spec(args) -> fock.SplitSpec:
    if (args.mu is None) != (args.nu is None):
        raise ConfigError("give both --mu and --nu or neither")
    if args.mu is None:
        return fock.SplitSpec.balanced()
    return fock.SplitSpec(parse_complex(args.mu), parse_complex(args.nu))


def _spin_cs_params(j, zeta, theta, phi) -> spin.SpinCsParams:
    if (zeta is None) == (theta is None):
        raise ConfigError("give exactly one of --zeta or --theta")
    if zeta is not None:
        return spin.SpinCsParams(j=j, zeta=parse_complex(zeta))
    return spin.SpinCsParams.from_angles(j, theta, phi)


def cmd_split(args) -> dict:
    _require(args, ["system"])
    params: dict = {}
    if args.system == "fock":
        _require(args, ["alpha", "N"])
        alpha = parse_complex(args.alpha)
        spec = _split_spec(args)
        state = fock.glauber_cs(alpha, args.N)
        out_state = fock.split_fock(state, spec)
        # claim 1's factors |mu alpha> and |nu alpha>, at the same cutoff
        factors = [fock.glauber_cs(x * alpha, args.N) for x in (spec.mu, spec.nu)]
        params = {
            "alpha": serialize.complex_pair(alpha),
            "cutoff": args.N,
            "mu": serialize.complex_pair(spec.mu),
            "nu": serialize.complex_pair(spec.nu),
        }
    else:
        _require(args, ["jA", "jB", "jC"])
        cs = _spin_cs_params(args.jA, args.zeta, args.theta, args.phi)
        out_state = spin.split_spin(spin.spin_cs(cs), args.jB, args.jC)
        # claim 1's factors |jB, zeta> and |jC, zeta>
        factors = [spin.spin_cs(dataclasses.replace(cs, j=j)) for j in (args.jB, args.jC)]
        params = {"jA": args.jA, "jB": args.jB, "jC": args.jC}
        if cs.zeta is not None:
            params["zeta"] = serialize.complex_pair(cs.zeta)
        else:
            params.update(theta=cs.theta, phi=cs.phi)
    report = splitting.factorization_report(out_state)
    residual = np.linalg.norm(out_state.amps - np.kron(factors[0].amps, factors[1].amps))
    doc = {
        "system": args.system,
        "params": params,
        "entropy_bits": report.entropy_bits,
        "is_product": report.is_product,
        "residual": float(residual),
    }
    if args.save_state:
        _emit(serialize.json_text(serialize.state_to_dict(out_state)), args.save_state)
    return doc


NAMED_STATES = {
    # the triplet made by splitting the m=0 level of a spin-1 system
    "split-spin1-m0": lambda: spin.split_spin(spin.basis_state(1, 0), 0.5, 0.5),
    "split-spin1-lowest": lambda: spin.split_spin(spin.basis_state(1, -1), 0.5, 0.5),
}


def _load_state(name: str) -> StateVector:
    if name in NAMED_STATES:
        return NAMED_STATES[name]()
    if os.path.exists(name):
        return serialize.state_from_dict(serialize.load_json(name))
    raise ConfigError(f"unknown state {name!r} (not a named state or a file)")


def cmd_chsh(args) -> dict:
    _require(args, ["state"])
    state = _load_state(args.state)
    strategy = args.strategy
    if strategy == "multistart":
        strategy = "multistart-local-search"
    if args.seed is None and strategy == "multistart-local-search":
        raise ConfigError("--seed is required for the multistart strategy")
    # a given seed is checked under either strategy; the analytic one reports none
    seed = None if args.seed is None else _seed_value(args.seed)
    result = bell.chsh_maximize(state, strategy=strategy,
                                n_starts=args.n_starts, seed=seed, tol=args.tol)
    # a search stopped by its sweep cap has found no maximum to report
    if not result.converged:
        raise NumericalError(
            f"the see-saw search reached its cap of {bell.SEESAW_MAX_SWEEPS} sweeps "
            "before converging; no maximum is reported")
    return {
        "state_id": args.state,
        "strategy": result.strategy,
        "max_value": result.max_value,
        "settings": result.settings.angle_lists(),
        "n_starts": result.n_starts,
        "seed": result.seed,
    }


def cmd_evolve(args) -> str:
    _require(args, ["system", "tmax"])
    if not 0 < args.tmax < np.inf:
        raise ConfigError("tmax must be positive and finite")
    if args.samples < 2:
        raise ConfigError("need at least 2 samples")
    grid = np.linspace(0.0, args.tmax, args.samples)
    if args.system == "fock":
        _require(args, ["omega", "N"])
        w0, amplitude = args.omega, parse_complex(args.lam)
    else:
        _require(args, ["j", "beta0"])
        w0, amplitude = args.beta0, parse_complex(args.beta_plus)
    drive = dynamics.DriveSpec(w0, args.drive, amplitude, args.drive_frequency, args.drive_phase)
    if args.system == "fock":
        initial = None
        if args.initial_alpha is not None:
            initial = fock.glauber_cs(parse_complex(args.initial_alpha), args.N)
        traj = dynamics.evolve_fock(drive, grid, args.N, initial=initial)
        return serialize.trajectory_csv(traj)
    cs = _spin_cs_params(args.j, args.zeta0, args.theta0, args.phi0)
    traj = dynamics.evolve_spin(drive, args.j, grid, spin.spin_cs(cs))
    return serialize.spin_trajectory_csv(traj)


def cmd_scan(args) -> dict:
    _require(args, ["system", "n_samples", "seed"])
    seed = _seed_value(args.seed)
    if args.system == "fock":
        _require(args, ["N"])
        system = splitting.FockScanSystem(args.N, _split_spec(args))
    else:
        _require(args, ["jA", "jB", "jC"])
        system = splitting.SpinScanSystem(args.jA, args.jB, args.jC)
    return splitting.uniqueness_scan(system, args.n_samples, seed).to_json_dict()


def cmd_series(args) -> dict:
    mu = parse_complex(args.mu)
    nu = parse_complex(args.nu)
    solution = splitting.aflp_series_solve(args.order, mu, nu)
    taus = [0.5, 1.0, -0.75, 0.3 + 0.8j]
    worst = 0.0
    for tau in taus:
        triple = solution.split_triple(tau)
        worst = max(worst, float(splitting.functional_residuals(
            *triple, mu=mu, nu=nu).max()))
    return {
        "order": solution.order,
        "mu": serialize.complex_pair(mu),
        "nu": serialize.complex_pair(nu),
        "family": {
            "rule": "c_k = f0 * tau^k / k!",
            "free_parameters": ["tau", "f0"],
            "subsystem_rule": "tau_B = mu*tau, tau_C = nu*tau",
        },
        "consistency_residual": solution.consistency_residual,
        "exponential_rule_residual": solution.exponential_rule_residual,
        "exponential_family_max_residual": worst,
    }


#: each command's function and the one report format it emits
DISPATCH = {
    "split": (cmd_split, "json"),
    "chsh": (cmd_chsh, "json"),
    "evolve": (cmd_evolve, "csv"),
    "scan": (cmd_scan, "json"),
    "series": (cmd_series, "json"),
}


def _apply_config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    config = serialize.load_json(path)
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    subparsers = parser.commands.values()
    # an empty command line parses into every parameter a subcommand knows
    known = set()
    for sub in subparsers:
        known.update(vars(sub.parse_args([])))
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    # argparse applies a flag's type only to string defaults, so every value
    # goes in as its string form and is parsed exactly like the flag; null
    # leaves the flag's own default in place
    config = {key: str(value) for key, value in config.items() if value is not None}
    # subcommands parse into a fresh namespace, so defaults must land on them
    parser.set_defaults(**config)
    for sub in subparsers:
        sub.set_defaults(**config)


#: the parser of every call without ``--config``, built on the first call;
#: parsing leaves it as it was, so calls cannot see each other's arguments
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Checks run in order: argparse, a config file's choices, then the
    command's format (``--format`` other than the command's own in
    ``DISPATCH`` exits 2), then the command's own. A JSON report gets
    ``schema_version`` and ``command`` added; CSV text is written as the
    command returns it.

    The parser is built once per process. A ``--config`` run sets its file's
    values as defaults on a parser of its own, built for that call, so no
    config reaches a later call."""
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
        # argparse finds --config in every spelling it accepts (--config FILE,
        # --config=FILE); parsing again lets flags override the file's values
        if args.config is not None:
            parser = build_parser()
            _apply_config_defaults(parser, args.config)
            args = parser.parse_args(argv)
        _validate_choices(parser, args)
        command, fmt = DISPATCH[args.command]
        if args.format not in (None, fmt):
            raise ConfigError(f"command {args.command!r} emits {fmt} reports")
        report = command(args)
        if fmt == "json":
            report = serialize.json_text({"schema_version": SCHEMA_VERSION,
                                          "command": args.command, **report})
        _emit(report, args.out)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:
        print(f"numerical error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def entry() -> None:
    """The console script: ``main``, then a flush of stdout. A reader that
    closes the pipe early (``| head``) ends the run with exit 2 and one line,
    as an unwritable ``--out`` does; stdout then points at ``os.devnull``, so
    the interpreter's own flush at exit does not fail again."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write stdout: the reader closed the pipe", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
