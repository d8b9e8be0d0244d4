"""Command-line surface: evaluate kernels, run verification suites,
integrate flows, compute monodromy, and apply symmetry maps.

Exit codes: 0 success, 1 usage error, 2 evaluation/pole error,
3 integration/validation error (including failed verification suites).

All numbers are written with 17 significant digits so parsing the output
reproduces the binary values exactly; complex quantities are always a pair
of re/im fields, never a single formatted token.  Identical configuration
plus seed produces bit-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .calogero import CMConfig, PhasePoint, hamiltonian_cm
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
from .errors import EllcmError, IntegrationError, PathError
from .flow import (
    IntegratorConfig,
    Trajectory,
    integrate_isomonodromic,
    integrate_isospectral,
    integrate_scalar_painleve,
)
from .monodromy import _drift, cubic_relation_residual, monodromy_data
from .painleve import (
    EllipticState,
    PainleveParams,
    hamiltonian_manin,
    landin_transform,
    elliptic_to_rational,
    s4_shift,
    scaling_symmetry,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_INTEGRATION = 3

#: Seed of `verify` when neither the command line nor a config file sets one.
DEFAULT_SEED = 12345


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_complex(text: str) -> complex:
    s = str(text).strip().replace(" ", "").replace("i", "j")
    if s in ("j", "+j"):
        s = "1j"
    elif s == "-j":
        s = "-1j"
    try:
        return complex(s)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc


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
    they would on the command line.
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
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(
                    f"config key {key!r}: invalid value {value!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r}: {value!r} is not one of "
                             + ", ".join(map(str, action.choices)))
        setattr(args, dest, value)


def write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def csv_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


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
    if args.function not in EVAL_FUNCTIONS:
        raise UsageError(f"unknown function {args.function!r}; choose from "
                         + ", ".join(sorted(EVAL_FUNCTIONS)))
    fn, needs = EVAL_FUNCTIONS[args.function]
    if args.tau is None:
        raise UsageError("--tau is required")
    tau = parse_complex(args.tau)
    tm = TorusModulus(tau)
    call = []
    for name in needs:
        value = getattr(args, name)
        if value is None:
            raise UsageError(f"--{name} is required for {args.function}")
        call.append(parse_complex(value))
    value = fn(*call, tm)
    est = REL_TOL * max(1.0, abs(value))
    header = ["schema", "function"]
    row = ["1", args.function]
    for name, v in zip(needs, call):
        header += [f"{name}_re", f"{name}_im"]
        row += cpair(v)
    header += ["tau_re", "tau_im", "value_re", "value_im", "error_estimate"]
    row += cpair(tau) + cpair(value) + [fmt(est)]
    if args.format == "json":
        payload = {"schema": 1, "function": args.function,
                   "inputs": {name: cjson(v) for name, v in zip(needs, call)},
                   "tau": cjson(tau), "value": cjson(value),
                   "error_estimate": float(est)}
        write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                  args.out)
    else:
        write_out(csv_table(header, [row]), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.seed is None:
        args.seed = DEFAULT_SEED
    try:
        results = run_suite(args.suite, seed=args.seed, count=args.count,
                            n=args.n)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    rows = [["1", r.suite, r.name, fmt(r.residual), fmt(r.tol),
             "pass" if r.passed else "FAIL"] for r in results]
    header = ["schema", "suite", "check", "residual", "tol", "status"]
    if args.format == "json":
        payload = {"schema": 1, "suite": args.suite, "seed": args.seed,
                   "checks": [{"name": r.name, "residual": float(r.residual),
                               "tol": float(r.tol), "passed": r.passed}
                              for r in results],
                   "all_passed": all(r.passed for r in results)}
        write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                  args.out)
    else:
        write_out(csv_table(header, rows), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INTEGRATION


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------

def _integrator_config(args) -> IntegratorConfig:
    """IntegratorConfig from the flags given; its own defaults otherwise."""
    given = {field: _as_float(getattr(args, dest), dest.replace("_", "-"))
             for field, dest in (("abs_tol", "abs_tol"), ("rel_tol", "rel_tol"),
                                 ("initial_step", "step"))
             if getattr(args, dest) is not None}
    if args.method is not None:
        given["method"] = args.method
    return IntegratorConfig(**given)


def _trajectory_payload(traj: Trajectory, n: int, g: complex,
                        hamiltonians: list[complex]) -> dict:
    taus = traj.tau_of_sample
    if all(t == taus[0] for t in taus):
        tau_field = cjson(taus[0])
    else:
        tau_field = [cjson(t) for t in taus]
    return {
        "kind": ("isospectral" if traj.kind == "isospectral_t"
                 else "isomonodromic"),
        "n": n,
        "g": cjson(g),
        "tau": tau_field,
        "samples": [
            {"time": cjson(traj.times[i]),
             "q": [cjson(v) for v in traj.states[i].q],
             "p": [cjson(v) for v in traj.states[i].p],
             "H": cjson(hamiltonians[i])}
            for i in range(len(traj.times))
        ],
        "diagnostics": {
            "steps_accepted": traj.diagnostics.steps_accepted,
            "steps_rejected": traj.diagnostics.steps_rejected,
            "max_local_error": float(traj.diagnostics.max_local_error),
            "truncated": traj.diagnostics.truncated,
            "message": traj.diagnostics.message,
        },
    }


def _trajectory_csv(traj: Trajectory, n: int,
                    hamiltonians: list[complex]) -> str:
    header = ["schema", "time_re", "time_im", "tau_re", "tau_im"]
    for j in range(n):
        header += [f"q{j}_re", f"q{j}_im"]
    for j in range(n):
        header += [f"p{j}_re", f"p{j}_im"]
    header += ["H_re", "H_im", "steps_accepted", "steps_rejected",
               "max_local_error"]
    d = traj.diagnostics
    rows = []
    for i in range(len(traj.times)):
        row = ["1"] + cpair(traj.times[i]) + cpair(traj.tau_of_sample[i])
        for v in traj.states[i].q:
            row += cpair(v)
        for v in traj.states[i].p:
            row += cpair(v)
        row += cpair(hamiltonians[i])
        row += [str(d.steps_accepted), str(d.steps_rejected),
                fmt(d.max_local_error)]
        rows.append(row)
    return csv_table(header, rows)


def cmd_flow(args) -> int:
    icfg = _integrator_config(args)
    samples = _as_int(args.samples, "samples") if args.samples is not None else 16
    if args.kind == "painleve-scalar":
        if args.alpha is None:
            raise UsageError("painleve-scalar needs --alpha a0,a1,a2,a3")
        alpha = parse_complex_list(args.alpha)
        if len(alpha) != 4:
            raise UsageError("--alpha needs exactly four entries")
        params = PainleveParams(tuple(alpha))
        tau0 = parse_complex(_required(args, "tau"))
        tau1 = parse_complex(_required(args, "tau_end"))
        q0 = parse_complex(_required(args, "q"))
        p0 = parse_complex(_required(args, "p"))
        traj = integrate_scalar_painleve(EllipticState(q0, p0, tau0), params,
                                         (tau0, tau1), icfg, samples=samples)
        hams = [hamiltonian_manin(
            EllipticState(traj.states[i].q[0], traj.states[i].p[0],
                          traj.tau_of_sample[i]), params)
            for i in range(len(traj.times))]
        n, g = 1, 0.0
    else:
        n = _as_int(_required(args, "n"), "n")
        g = parse_complex(_required(args, "g"))
        tau0 = parse_complex(_required(args, "tau"))
        q = parse_complex_list(_required(args, "q"))
        p = parse_complex_list(_required(args, "p"))
        if len(q) != n or len(p) != n:
            raise UsageError(f"--q and --p must each have {n} entries")
        cfg = CMConfig(n, g, TorusModulus(tau0))
        ph = PhasePoint(q, p, traceless=bool(args.traceless))
        if args.kind == "isospectral":
            t_end = _as_float(_required(args, "t_end"), "t-end")
            traj = integrate_isospectral(cfg, ph, (0.0, t_end), icfg,
                                         samples=samples)
        elif args.kind == "isomonodromic":
            tau1 = parse_complex(_required(args, "tau_end"))
            traj = integrate_isomonodromic(cfg, ph, (tau0, tau1), icfg,
                                           samples=samples)
        else:
            raise UsageError(f"unknown flow kind {args.kind!r}")
        hams = [hamiltonian_cm(cfg.with_tau(traj.tau_of_sample[i]),
                               traj.states[i])
                for i in range(len(traj.times))]
    if args.format == "json":
        text = json.dumps(_trajectory_payload(traj, n, complex(g), hams),
                          indent=2, sort_keys=True) + "\n"
    else:
        text = _trajectory_csv(traj, n, hams)
    write_out(text, args.out)
    if traj.diagnostics.truncated:
        sys.stderr.write("flow truncated: " + traj.diagnostics.message + "\n")
        return EXIT_INTEGRATION
    return EXIT_OK


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"--{name.replace('_', '-')} is required")
    return value


def _as_int(text, name: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--{name} expects an integer, got {text!r}") from exc


def _as_float(text, name: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--{name} expects a number, got {text!r}") from exc


# ----------------------------------------------------------------------
# monodromy
# ----------------------------------------------------------------------

def _matrix_pairs(M: np.ndarray) -> list[list[float]]:
    return [cjson(complex(v)) for v in M.reshape(-1)]  # row-major


def _det_residuals(md, ph: PhasePoint, tau: complex) -> dict[str, float]:
    """Relative residuals of the exact identities det M0 = 1,
    det M1 = e^{sum p} and det Mtau = e^{-2 pi i sum q} e^{tau sum p}: a
    free monitor of the transport error."""
    sq, sp = complex(ph.q.sum()), complex(ph.p.sum())
    expect = {"M0": 1.0, "M1": np.exp(sp),
              "Mtau": np.exp(-2j * np.pi * sq) * np.exp(tau * sp)}
    return {key: float(abs(np.linalg.det(getattr(md, key)) - e) / abs(e))
            for key, e in expect.items()}


def cmd_monodromy(args) -> int:
    n = _as_int(_required(args, "n"), "n")
    g = parse_complex(_required(args, "g"))
    tau = parse_complex(_required(args, "tau"))
    q = parse_complex_list(_required(args, "q"))
    p = parse_complex_list(_required(args, "p"))
    if len(q) != n or len(p) != n:
        raise UsageError(f"--q and --p must each have {n} entries")
    cfg = CMConfig(n, g, TorusModulus(tau))
    ph = PhasePoint(q, p)
    icfg = IntegratorConfig(
        rel_tol=_as_float(args.rel_tol, "rel-tol")
        if args.rel_tol is not None else 1e-11,
        abs_tol=_as_float(args.abs_tol, "abs-tol")
        if args.abs_tol is not None else 1e-13,
    )
    radius = _as_float(args.radius, "radius") if args.radius is not None else 0.1
    md = monodromy_data(cfg, ph, icfg, radius=radius)
    report = {
        "schema": 1,
        "n": n,
        "g": cjson(g),
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
        "det_residuals": _det_residuals(md, ph, tau),
    }
    if args.drift is not None:
        dtau = parse_complex(args.drift)
        report["drift"] = {
            "dtau": cjson(dtau),
            "spectral_drift": float(_drift(cfg, ph, dtau, icfg, md, radius)),
        }
    write_out(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# symmetry and map
# ----------------------------------------------------------------------

def cmd_symmetry(args) -> int:
    if args.transform == "landin":
        alpha = parse_complex_list(_required(args, "alpha"))
        if len(alpha) != 4:
            raise UsageError("--alpha needs four entries")
        new_params, ok = landin_transform(PainleveParams(tuple(alpha)))
        header = ["schema", "transform", "applicable"] + sum(
            ([f"alpha{i}_re", f"alpha{i}_im"] for i in range(4)), [])
        vals = new_params.alpha if ok else (0j, 0j, 0j, 0j)
        row = ["1", "landin", "true" if ok else "false"] + sum(
            (cpair(v) for v in vals), [])
        write_out(csv_table(header, [row]), args.out)
        return EXIT_OK
    if args.transform == "scaling":
        alpha = parse_complex_list(_required(args, "alpha"))
        if len(alpha) != 4:
            raise UsageError("--alpha needs four entries")
        j = parse_complex(_required(args, "j"))
        state = EllipticState(parse_complex(_required(args, "q")),
                              parse_complex(_required(args, "p")),
                              parse_complex(_required(args, "tau")))
        new_state, new_params = scaling_symmetry(
            state, PainleveParams(tuple(alpha)), j)
        header = (["schema", "transform", "q_re", "q_im", "p_re", "p_im",
                   "tau_re", "tau_im"]
                  + sum(([f"alpha{i}_re", f"alpha{i}_im"]
                         for i in range(4)), []))
        row = (["1", "scaling"] + cpair(new_state.q) + cpair(new_state.p)
               + cpair(new_state.tau)
               + sum((cpair(v) for v in new_params.alpha), []))
        write_out(csv_table(header, [row]), args.out)
        return EXIT_OK
    if args.transform == "s4-shift":
        q = parse_complex(_required(args, "q"))
        tau = parse_complex(_required(args, "tau"))
        if args.a is None:
            raise UsageError("--a (half-period index 0..3) is required")
        try:
            shifted = s4_shift(q, tau, _as_int(args.a, "a"))
        except IndexError as exc:
            raise UsageError(str(exc)) from exc
        header = ["schema", "transform", "a", "q_re", "q_im"]
        row = ["1", "s4-shift", str(_as_int(args.a, "a"))] + cpair(shifted)
        write_out(csv_table(header, [row]), args.out)
        return EXIT_OK
    raise UsageError(f"unknown transform {args.transform!r}")


def cmd_map(args) -> int:
    q = parse_complex(_required(args, "q"))
    tau = parse_complex(_required(args, "tau"))
    y, t = elliptic_to_rational(q, tau)
    header = ["schema", "q_re", "q_im", "tau_re", "tau_im",
              "y_re", "y_im", "t_re", "t_im"]
    row = ["1"] + cpair(q) + cpair(tau) + cpair(y) + cpair(t)
    if args.format == "json":
        payload = {"schema": 1, "q": cjson(q), "tau": cjson(tau),
                   "y": cjson(y), "t": cjson(t)}
        write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                  args.out)
    else:
        write_out(csv_table(header, [row]), args.out)
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
    arg("function")
    arg("--z")
    arg("--u")
    arg("--tau")

    arg = command("verify", "run an invariant suite")
    arg("suite")
    arg("--seed", type=int, default=None)
    arg("--count", type=int, default=None)
    arg("--n", type=int, default=None)

    arg = command("flow", "integrate a flow and write a trajectory")
    arg("kind", choices=("isospectral", "isomonodromic", "painleve-scalar"))
    arg("--n")
    arg("--g")
    arg("--tau")
    arg("--tau-end", dest="tau_end")
    arg("--t-end", dest="t_end")
    arg("--q")
    arg("--p")
    arg("--alpha")
    arg("--traceless", action="store_true")
    arg("--samples")
    arg("--method", choices=("rk4_fixed", "rk45_adaptive"))
    arg("--step")
    arg("--rel-tol", dest="rel_tol")
    arg("--abs-tol", dest="abs_tol")

    arg = command("monodromy", "compute the monodromy report", formats=False)
    arg("--n")
    arg("--g")
    arg("--tau")
    arg("--q")
    arg("--p")
    arg("--radius")
    arg("--drift", help="dtau for the isomonodromy drift block")
    arg("--rel-tol", dest="rel_tol")
    arg("--abs-tol", dest="abs_tol")

    arg = command("symmetry", "apply a symmetry transformation", formats=False)
    arg("transform", choices=("landin", "scaling", "s4-shift"))
    arg("--alpha")
    arg("--q")
    arg("--p")
    arg("--tau")
    arg("--j")
    arg("--a")

    arg = command("map", "elliptic to rational coordinates")
    arg("--q")
    arg("--tau")
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
    except (EllcmError, np.linalg.LinAlgError, ValueError) as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
