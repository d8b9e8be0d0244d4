"""Command-line surface: evaluate kernels, run verification suites,
integrate flows, compute monodromy, and apply symmetry maps.

Exit codes: 0 success, 1 usage error (errors.UsageError, also raised by the
library for a value outside its stated range), 2 evaluation/pole error,
3 integration/validation error (including failed verification suites and
a monodromy report off a determinant identity by more than
monodromy.DET_RESIDUAL_BOUND, which is still written).

All numbers are written with 17 significant digits so parsing the output
reproduces the binary values exactly; complex quantities are always a pair
of re/im fields, never a single formatted token.  Identical configuration
plus seed produces bit-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from . import __version__
from .elliptic import (
    REL_TOL,
    TorusModulus,
    lame_x,
    lame_y,
    rho,
    theta1,
    theta1_d3z_at_0,
    theta1_dz,
    theta1_product,
    wp,
    wp_dz,
    wp_lattice_oracle,
)
from .errors import EllcmError, IntegrationError, PathError, UsageError
from .painleve import (
    EllipticState,
    PainleveParams,
    hamiltonian_manin,
    landin_transform,
    elliptic_to_rational,
    s4_shift,
    scaling_symmetry,
)

if TYPE_CHECKING:
    # numpy and the n-body layers are imported by the commands that run
    # them, so eval, symmetry and map start without them
    import numpy as np

    from .calogero import CMConfig
    from .flow import IntegratorConfig, Trajectory

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_INTEGRATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, and reads a
    token that starts with '-' and a digit or '.', such as -0.1+0.2i or
    -1e-1, as a value: no option of the parser looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        raise UsageError(message)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _finite(x, text: str):
    """x, unless it is NaN or infinite: then ArgumentTypeError."""
    if not cmath.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def parse_complex(text: str) -> complex:
    """A finite complex number written with i or j, such as 0.2-0.4i."""
    # the i of inf stays, so that inf parses and is then refused as such
    s = re.sub("i(?!nf)", "j", str(text).strip().replace(" ", ""))
    try:
        z = complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}") from exc
    return _finite(z, text)


def parse_float(text: str) -> float:
    """A finite real number."""
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from exc
    return _finite(x, text)


def parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(tok) for tok in str(text).split(",") if tok.strip()]


def load_config(path: str) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def merge_config(args: argparse.Namespace,
                 actions: dict[str, argparse.Action]) -> None:
    """Fill unset options from the config file; reject unknown keys.

    Values go through the option's argparse ``type`` and ``choices``, as
    they would on the command line.  A switch such as --traceless takes
    ``true`` or ``false``.
    """
    if not getattr(args, "config", None):
        return
    conf = load_config(args.config)
    for key, value in conf.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, dest, None) is not None:
            continue
        if action.nargs == 0:
            if value not in ("true", "false"):
                raise UsageError(
                    f"config key {key!r}: {value!r} is not one of true, false")
            value = value == "true"
        elif action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(
                    f"config key {key!r}: invalid value {value!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r}: {value!r} is not one of "
                             + ", ".join(map(str, action.choices)))
        setattr(args, dest, value)


def write_out(args, table: tuple[list[str], list[list[str]]] | None = None,
              payload: dict | None = None) -> None:
    """Write a command's result to --out, or to stdout without it: the
    table (header, rows) as CSV or the payload as JSON.  A command that
    gives both writes the one --format names, CSV by default."""
    if table is None or (payload is not None and args.format == "json"):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        header, rows = table
        text = "".join(",".join(row) + "\n" for row in [header, *rows])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cpair(z: complex) -> list[str]:
    return [fmt(z.real), fmt(z.imag)]


def cjson(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

EVAL_FUNCTIONS = {
    "theta1": (theta1, ("z",)),
    "theta1-product": (theta1_product, ("z",)),
    "theta1-dz": (theta1_dz, ("z",)),
    "theta1-d3z-0": (theta1_d3z_at_0, ()),
    "rho": (rho, ("z",)),
    "wp": (wp, ("z",)),
    "wp-dz": (wp_dz, ("z",)),
    "wp-lattice-oracle": (wp_lattice_oracle, ("z",)),
    "lame-x": (lame_x, ("u", "z")),
    "lame-y": (lame_y, ("u", "z")),
}


def cmd_eval(args) -> int:
    fn, needs = EVAL_FUNCTIONS[args.function]
    tau = _required(args, "tau")
    tm = TorusModulus(tau)
    call = [_required(args, name) for name in needs]
    value = fn(*call, tm)
    est = REL_TOL * max(1.0, abs(value))
    header = ["schema", "function"]
    row = ["1", args.function]
    for name, v in zip(needs, call):
        header += [f"{name}_re", f"{name}_im"]
        row += cpair(v)
    header += ["tau_re", "tau_im", "value_re", "value_im", "error_estimate"]
    row += cpair(tau) + cpair(value) + [fmt(est)]
    payload = {"schema": 1, "function": args.function,
               "inputs": {name: cjson(v) for name, v in zip(needs, call)},
               "tau": cjson(tau), "value": cjson(value),
               "error_estimate": float(est)}
    write_out(args, (header, [row]), payload)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, run_suite
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_suite(args.suite, seed, args.count, args.n)
    rows = [["1", r.suite, r.name, fmt(r.residual), fmt(r.tol),
             "pass" if r.passed else "FAIL"] for r in results]
    header = ["schema", "suite", "check", "residual", "tol", "status"]
    payload = {"schema": 1, "suite": args.suite, "seed": seed,
               "checks": [{"name": r.name, "residual": float(r.residual),
                           "tol": float(r.tol), "passed": r.passed}
                          for r in results],
               "all_passed": all(r.passed for r in results)}
    write_out(args, (header, rows), payload)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INTEGRATION


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------

def _given(args, **dests) -> dict:
    """{keyword: value} for each option dest the command has and a flag or
    config key gave a value; the library's defaults hold for the rest."""
    return {key: getattr(args, dest) for key, dest in dests.items()
            if getattr(args, dest, None) is not None}


def _integrator_config(args, base: IntegratorConfig) -> IntegratorConfig:
    """base with the integrator flags the command has and was given."""
    return replace(base, **_given(args, abs_tol="abs_tol", rel_tol="rel_tol",
                                  initial_step="step", method="method"))


def _trajectory(traj: Trajectory, n: int, g: complex,
                hamiltonians: list[complex]
                ) -> tuple[tuple[list[str], list[list[str]]], dict]:
    """The trajectory as a CSV table (header, rows) and as a JSON payload,
    both from one pass over its samples."""
    d = traj.diagnostics
    header = (["schema", "time_re", "time_im", "tau_re", "tau_im"]
              + [f"{v}{j}_{part}" for v in "qp" for j in range(n)
                 for part in ("re", "im")]
              + ["H_re", "H_im", "steps_accepted", "steps_rejected",
                 "max_local_error"])
    tail = [str(d.steps_accepted), str(d.steps_rejected),
            fmt(d.max_local_error)]
    rows, samples = [], []
    for time, tau, ph, h in zip(traj.times, traj.tau_of_sample, traj.states,
                                hamiltonians):
        pairs = [cjson(v) for v in (time, tau, *ph.q, *ph.p, h)]
        rows.append(["1"] + [fmt(x) for pair in pairs for x in pair] + tail)
        samples.append({"time": pairs[0], "q": pairs[2:2 + n],
                        "p": pairs[2 + n:-1], "H": pairs[-1]})
    taus = traj.tau_of_sample
    payload = {
        "kind": ("isospectral" if traj.kind == "isospectral_t"
                 else "isomonodromic"),
        "n": n,
        "g": cjson(g),
        "tau": (cjson(taus[0]) if all(t == taus[0] for t in taus)
                else [cjson(t) for t in taus]),
        "samples": samples,
        "diagnostics": {
            "steps_accepted": d.steps_accepted,
            "steps_rejected": d.steps_rejected,
            "rhs_evals": d.rhs_evals,
            "max_local_error": float(d.max_local_error),
            "truncated": d.truncated,
            "message": d.message,
        },
    }
    return (header, rows), payload


def cmd_flow(args) -> int:
    from .calogero import PhasePoint, hamiltonian_cm
    from .flow import (IntegratorConfig, integrate_isomonodromic,
                       integrate_isospectral, integrate_scalar_painleve)
    icfg = _integrator_config(args, IntegratorConfig())
    given = _given(args, samples="samples")
    if args.kind == "painleve-scalar":
        params = _alpha(args)
        tau0 = _required(args, "tau")
        tau1 = _required(args, "tau_end")
        q = _required(args, "q")
        p = _required(args, "p")
        if len(q) != 1 or len(p) != 1:
            raise UsageError("--q and --p must each have one entry for "
                             "painleve-scalar")
        traj = integrate_scalar_painleve(EllipticState(q[0], p[0], tau0),
                                         params, (tau0, tau1), icfg,
                                         **given)
        hams = [hamiltonian_manin(
            EllipticState(traj.states[i].q[0], traj.states[i].p[0],
                          traj.tau_of_sample[i]), params)
            for i in range(len(traj.times))]
        n, g = 1, 0j
    else:
        cfg, q, p = _nbody(args)
        ph = PhasePoint(q, p, traceless=bool(args.traceless))
        if args.kind == "isospectral":
            t_end = _required(args, "t_end")
            traj = integrate_isospectral(cfg, ph, (0.0, t_end), icfg,
                                         **given)
        else:
            tau1 = _required(args, "tau_end")
            traj = integrate_isomonodromic(cfg, ph, (cfg.tm.tau, tau1), icfg,
                                           **given)
        hams = [hamiltonian_cm(cfg.with_tau(traj.tau_of_sample[i]),
                               traj.states[i])
                for i in range(len(traj.times))]
        n, g = cfg.n, cfg.g
    write_out(args, *_trajectory(traj, n, g, hams))
    if traj.diagnostics.truncated:
        sys.stderr.write("flow truncated: " + traj.diagnostics.message + "\n")
        return EXIT_INTEGRATION
    return EXIT_OK


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"--{name.replace('_', '-')} is required")
    return value


def _nbody(args) -> tuple[CMConfig, list[complex], list[complex]]:
    """The n-body inputs of flow and monodromy: the configuration from
    --n, --g and --tau, and the n entries of each of --q and --p."""
    from .calogero import CMConfig
    cfg = CMConfig(_required(args, "n"), _required(args, "g"),
                   TorusModulus(_required(args, "tau")))
    q = _required(args, "q")
    p = _required(args, "p")
    if len(q) != cfg.n or len(p) != cfg.n:
        raise UsageError(f"--q and --p must each have {cfg.n} entries")
    return cfg, q, p


def _alpha(args) -> PainleveParams:
    """The Painleve parameters from the four entries of --alpha."""
    alpha = _required(args, "alpha")
    if len(alpha) != 4:
        raise UsageError("--alpha needs exactly four entries")
    return PainleveParams(tuple(alpha))


# ----------------------------------------------------------------------
# monodromy
# ----------------------------------------------------------------------

def _matrix_pairs(M: np.ndarray) -> list[list[float]]:
    return [cjson(complex(v)) for v in M.reshape(-1)]  # row-major


def cmd_monodromy(args) -> int:
    import numpy as np

    from .calogero import PhasePoint
    from .flow import TIGHT
    from .monodromy import (DET_RESIDUAL_BOUND, check_drift_step,
                            cubic_relation_residual, det_residuals,
                            isomonodromy_drift, monodromy_data)
    cfg, q, p = _nbody(args)
    tau = cfg.tm.tau
    ph = PhasePoint(q, p)
    icfg = _integrator_config(args, TIGHT)
    if args.drift is not None:
        check_drift_step(args.drift, tau)
    md = monodromy_data(cfg, ph, icfg)
    dets = det_residuals(md, ph, tau)
    report = {
        "schema": 1,
        "n": cfg.n,
        "g": cjson(cfg.g),
        "tau": cjson(tau),
        "base_point": cjson(md.base_point),
        "M0": _matrix_pairs(md.M0),
        "M1": _matrix_pairs(md.M1),
        "Mtau": _matrix_pairs(md.Mtau),
        "spectra": {
            "M0": [cjson(v) for v in np.linalg.eigvals(md.M0)],
            "M1": [cjson(v) for v in np.linalg.eigvals(md.M1)],
            "Mtau": [cjson(v) for v in np.linalg.eigvals(md.Mtau)],
        },
        "cubic_residual": float(cubic_relation_residual(md)),
        "det_residuals": dets,
        "transport": md.transport,
    }
    if args.drift is not None:
        report["drift"] = {
            "dtau": cjson(args.drift),
            "spectral_drift": float(isomonodromy_drift(
                cfg, ph, tau, args.drift, icfg, md)),
        }
    write_out(args, payload=report)
    failed = {key: r for key, r in dets.items()
              if not r <= DET_RESIDUAL_BOUND}
    if failed:
        key = max(failed, key=failed.get)
        sys.stderr.write(f"monodromy report fails the det {key} identity: "
                         f"relative residual {failed[key]:.3e} above "
                         f"{DET_RESIDUAL_BOUND:g}\n")
        return EXIT_INTEGRATION
    return EXIT_OK


# ----------------------------------------------------------------------
# symmetry and map
# ----------------------------------------------------------------------

ALPHA_HEADER = sum(([f"alpha{i}_re", f"alpha{i}_im"] for i in range(4)), [])


def cmd_symmetry(args) -> int:
    if args.transform == "landin":
        new_params, ok = landin_transform(_alpha(args))
        header = ["schema", "transform", "applicable"] + ALPHA_HEADER
        vals = new_params.alpha if ok else (0j, 0j, 0j, 0j)
        row = ["1", "landin", "true" if ok else "false"] + sum(
            (cpair(v) for v in vals), [])
    elif args.transform == "scaling":
        params = _alpha(args)
        j = _required(args, "j")
        state = EllipticState(_required(args, "q"), _required(args, "p"),
                              _required(args, "tau"))
        new_state, new_params = scaling_symmetry(state, params, j)
        header = (["schema", "transform", "q_re", "q_im", "p_re", "p_im",
                   "tau_re", "tau_im"] + ALPHA_HEADER)
        row = (["1", "scaling"] + cpair(new_state.q) + cpair(new_state.p)
               + cpair(new_state.tau)
               + sum((cpair(v) for v in new_params.alpha), []))
    else:
        q = _required(args, "q")
        tau = _required(args, "tau")
        a = _required(args, "a")
        shifted = s4_shift(q, tau, a)
        header = ["schema", "transform", "a", "q_re", "q_im"]
        row = ["1", "s4-shift", str(a)] + cpair(shifted)
    write_out(args, (header, [row]))
    return EXIT_OK


def cmd_map(args) -> int:
    q = _required(args, "q")
    tau = _required(args, "tau")
    y, t = elliptic_to_rational(q, tau)
    header = ["schema", "q_re", "q_im", "tau_re", "tau_im",
              "y_re", "y_im", "t_re", "t_im"]
    row = ["1"] + cpair(q) + cpair(tau) + cpair(y) + cpair(t)
    payload = {"schema": 1, "q": cjson(q), "tau": cjson(tau),
               "y": cjson(y), "t": cjson(t)}
    write_out(args, (header, [row]), payload)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------

def build_parser() -> tuple[_Parser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and per command the actions of its options by dest (the
    keys a config file may set)."""
    parser = _Parser(prog="ellcm",
                     description="Elliptic Calogero-Moser flows, torus "
                                 "monodromy, and elliptic Painleve VI.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    actions: dict[str, dict[str, argparse.Action]] = {}

    def command(name, help, formats=True):
        """Add a subcommand with the common flags, and --format for the
        commands that write both CSV and JSON; returns its add_argument,
        which records every action it makes."""
        p = sub.add_parser(name, help=help)
        table = actions[name] = {}

        def arg(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            table[action.dest] = action

        arg("--config", help="flat key = value config file")
        arg("--out", help="output path (default stdout)")
        if formats:
            arg("--format", choices=("csv", "json"), default=None)
        return arg

    arg = command("eval", "evaluate an elliptic kernel")
    arg("function", choices=sorted(EVAL_FUNCTIONS), metavar="function")
    arg("--z", type=parse_complex)
    arg("--u", type=parse_complex)
    arg("--tau", type=parse_complex)

    arg = command("verify", "run an invariant suite")
    arg("suite")
    arg("--seed", type=int, default=None)
    arg("--count", type=int, default=None)
    arg("--n", type=int, default=None)

    arg = command("flow", "integrate a flow and write a trajectory")
    arg("kind", choices=("isospectral", "isomonodromic", "painleve-scalar"))
    arg("--n", type=int)
    arg("--g", type=parse_complex)
    arg("--tau", type=parse_complex)
    arg("--tau-end", dest="tau_end", type=parse_complex)
    arg("--t-end", dest="t_end", type=parse_float)
    arg("--q", type=parse_complex_list)
    arg("--p", type=parse_complex_list)
    arg("--alpha", type=parse_complex_list)
    arg("--traceless", action="store_true", default=None)
    arg("--samples", type=int)
    arg("--method", choices=("rk4_fixed", "rk45_adaptive"))
    arg("--step", type=parse_float)
    arg("--rel-tol", dest="rel_tol", type=parse_float)
    arg("--abs-tol", dest="abs_tol", type=parse_float)

    arg = command("monodromy", "compute the monodromy report", formats=False)
    arg("--n", type=int)
    arg("--g", type=parse_complex)
    arg("--tau", type=parse_complex)
    arg("--q", type=parse_complex_list)
    arg("--p", type=parse_complex_list)
    arg("--drift", type=parse_complex,
        help="dtau for the isomonodromy drift block")
    arg("--rel-tol", dest="rel_tol", type=parse_float)
    arg("--abs-tol", dest="abs_tol", type=parse_float)

    arg = command("symmetry", "apply a symmetry transformation", formats=False)
    arg("transform", choices=("landin", "scaling", "s4-shift"))
    arg("--alpha", type=parse_complex_list)
    arg("--q", type=parse_complex)
    arg("--p", type=parse_complex)
    arg("--tau", type=parse_complex)
    arg("--j", type=parse_complex)
    arg("--a", type=int)

    arg = command("map", "elliptic to rational coordinates")
    arg("--q", type=parse_complex)
    arg("--tau", type=parse_complex)
    return parser, actions


COMMANDS = {
    "eval": cmd_eval,
    "verify": cmd_verify,
    "flow": cmd_flow,
    "monodromy": cmd_monodromy,
    "symmetry": cmd_symmetry,
    "map": cmd_map,
}


def main(argv: list[str] | None = None) -> int:
    parser, actions = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        merge_config(args, actions[args.command])
        return COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (PathError, IntegrationError) as exc:
        sys.stderr.write(f"integration/validation error: {exc}\n")
        return EXIT_INTEGRATION
    except (EllcmError, ValueError) as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
