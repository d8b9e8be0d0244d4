"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload turns ``--seed`` into a fixed list of operations (``Plan.ops``)
and a checker.  The structure of a plan (group sizes, body counts, spans,
commands) is fixed; the seed only jitters the values inside it, so that every
seed asks for nearly the same amount of work.  Every operation carries a
class: ``light`` and ``heavy`` name the two populations each workload reports
a median latency for; the classes are listed in perfbench/README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ellcm.calogero as cm
import ellcm.elliptic as el
import ellcm.flow as fl
import ellcm.monodromy as mo

from reference import ModulusReference, rel_error
from speed import run_child
from tracer import SMALL_TAU_IM

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: ellcm.verify.LAME_TOL when this benchmark was written; fixed here so the
#: benchmark's gate does not move with the program.
KERNEL_TOL = 1e-9
#: The acceptance bound on isospectral |H(t) - H(0)|.
ISOSPECTRAL_DH_TOL = 1e-8
#: ellcm.verify.CUBIC_TOL and DRIFT_TOL when this benchmark was written.
CUBIC_TOL = 1e-5
DRIFT_TOL = 1e-5
#: det M1 = e^{sum p}, det M0 = 1, det Mtau = e^{-2 pi i sum q} e^{tau sum p}.
DET_TOL = 1e-10
MONODROMY_ICFG = fl.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    cls: str                        # "light", "heavy" or "other"
    run: Callable                   # run(tracer_or_None) -> output


@dataclass
class Plan:
    ops: list[Op]
    check: Callable                 # check(op_index, output) -> (ok, detail)
    info: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_import(module: str = "ellcm") -> None:
    """Start a new interpreter and import the package, as every user
    session does before its first call."""
    proc = run_child([sys.executable, "-c", f"import {module}"],
                     CLI_TIMEOUT_S, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: "
                           f"{proc.stderr.decode()[-200:]}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _jittered_spacing(rng, n: int, tau: complex, jitter: float,
                      im_lo: float, im_hi: float) -> np.ndarray:
    """Positions (j + 1/2 + U(-jitter, jitter))/n + tau U(im_lo, im_hi):
    separated for any n, unlike rejection sampling at a fixed distance."""
    re = (np.arange(n) + 0.5 + rng.uniform(-jitter, jitter, n)) / n
    return re + tau * rng.uniform(im_lo, im_hi, n)


def _alternating(rng, n: int, size: float, jitter: float) -> np.ndarray:
    """Momenta +size, -size, ... with complex jitter of the given width."""
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return (size * sign + rng.uniform(-jitter, jitter, n)
            + 1j * rng.uniform(-jitter, jitter, n))


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

KERNELS = ("theta1", "theta1_dz", "rho", "wp", "wp_dz", "lame_x", "lame_y")
#: Points per modulus for the moduli in the band 0.35 <= Im tau <= 1.6,
#: one point per tau up to many; listed in evaluation order.
BAND_GROUPS = (1, 16, 1, 2, 1, 4, 1, 48, 1, 2, 1, 4, 1, 16, 1, 2, 1, 4, 1, 16,
               2, 4)
#: The timed tail on or near the imaginary axis, where truncation depth
#: grows.  It stops at Im tau = 0.08: below that the seed's kernels miss the
#: reference (worst 1.4e-10 at 0.08, 3e-9 at 0.06, 9e-7 at 0.04 over 2240
#: calls each), and a timed operation must return a correct value.
TAIL_IM = (0.08, 0.083, 0.086, 0.089, 0.092, 0.095)
TAIL_GROUPS = (1, 2, 4, 4, 2, 1)
TAIL_RE = 0.01
#: The deep tail, down to Im tau = 0.02: not timed, but evaluated once per
#: run after the timed region and compared with the reference, so the
#: accuracy the kernels reach there is reported on every run
#: (``deep_tail`` in the result file, ``elliptic.deep_tail_*`` when traced).
DEEP_TAIL_IM = (0.02, 0.025, 0.03, 0.04, 0.05, 0.06)
DEEP_TAIL_POINTS = 2


def _cell_point(rng, tau):
    a, b = rng.uniform(0.08, 0.92, 2)
    return a, b, a + b * tau


def _group_points(rng, tau, size):
    """`size` (u, z) pairs at one modulus, a third of the z outside the cell."""
    points = []
    for j in range(size):
        a, b, z = _cell_point(rng, tau)
        while True:
            c, d, u = _cell_point(rng, tau)
            fa, fb = (a - c) % 1.0, (b - d) % 1.0
            if 0.05 < fa < 0.95 and 0.05 < fb < 0.95:
                break
        if j % 3 == 1:   # a third of the points lie outside the cell
            m, n = 0, 0
            while m == 0 and n == 0:
                m, n = int(rng.integers(-3, 4)), int(rng.integers(-2, 3))
            z = z + m + n * tau
        points.append((complex(u), complex(z)))
    return points


def kernels_inputs(seed: int, tiny: bool = False):
    """[(tau, [(u, z), ...]), ...] in evaluation order."""
    rng = _rng(seed, 1)
    band = BAND_GROUPS[:4] if tiny else BAND_GROUPS
    tail = list(zip(TAIL_IM, TAIL_GROUPS))[:2] if tiny else list(
        zip(TAIL_IM, TAIL_GROUPS))
    moduli = []
    for i, size in enumerate(band):
        # stratified Im tau: the same spread of truncation depths every seed
        im = 0.35 + 1.25 * (((i * 7) % len(band)) + rng.uniform()) / len(band)
        moduli.append((complex(rng.uniform(-1.5, 1.5), im), size))
    for im, size in tail:
        moduli.append((complex(rng.uniform(-TAIL_RE, TAIL_RE), im), size))
    order = rng.permutation(len(moduli))
    out = []
    for k in order:
        tau, size = moduli[k]
        out.append((tau, _group_points(rng, tau, size)))
    return out


def deep_tail_accuracy(seed: int, tiny: bool = False) -> dict:
    """Every kernel at DEEP_TAIL_POINTS seeded points per deep-tail modulus,
    against the reference: calls, misses of KERNEL_TOL, the worst relative
    error, and the misses per modulus.  An exception counts as a miss."""
    rng = _rng(seed, 5)
    ims = DEEP_TAIL_IM[:1] if tiny else DEEP_TAIL_IM
    calls = misses = 0
    worst = 0.0
    by_modulus = {}
    for im in ims:
        tau = complex(rng.uniform(-TAIL_RE, TAIL_RE), im)
        tm, ref = el.TorusModulus(tau), ModulusReference(tau)
        for u, z in _group_points(rng, tau, DEEP_TAIL_POINTS):
            expect = ref.values(u, z)
            for name in KERNELS:
                args = (u, z, tm) if name.startswith("lame") else (z, tm)
                try:
                    err = rel_error(getattr(el, name)(*args), expect[name])
                except Exception:        # counted as a miss
                    err = float("inf")
                calls += 1
                worst = max(worst, err)
                if not err < KERNEL_TOL:
                    misses += 1
                    key = f"{tau.real:+.4f}{tau.imag:+.4f}i"
                    by_modulus[key] = by_modulus.get(key, 0) + 1
    return {"calls": calls, "misses": misses, "miss_frac": misses / calls,
            "max_rel_err": worst, "misses_by_modulus": by_modulus}


def kernels_plan(seed: int, tiny: bool = False) -> Plan:
    groups = kernels_inputs(seed, tiny)
    ops, keys = [], []
    for gi, (tau, points) in enumerate(groups):
        tm = el.TorusModulus(tau)
        cls = "heavy" if tau.imag < SMALL_TAU_IM else "light"
        for pi_, (u, z) in enumerate(points):
            for name in KERNELS:
                args = (u, z, tm) if name.startswith("lame") else (z, tm)
                ops.append(Op(f"{name}@tau{gi}", cls, _kernel_call(name, args)))
                keys.append((gi, pi_, name))
    moduli, values = {}, {}

    def check(i, value):
        gi, pi_, name = keys[i]
        if (gi, pi_) not in values:
            tau, points = groups[gi]
            if gi not in moduli:
                moduli[gi] = ModulusReference(tau)
            values[(gi, pi_)] = moduli[gi].values(*points[pi_])
        err = rel_error(value, values[(gi, pi_)][name])
        return err < KERNEL_TOL, err

    return Plan(ops, check, {"op_modulus": [k[0] for k in keys],
                             "taus": [t for t, _ in groups]})


def _kernel_call(name, args):
    # resolved at call time, so a tracer's wrapper (or a test's patch) applies
    def run(tracer):
        return getattr(el, name)(*args)
    return run


def kernels_warmup():
    tm = el.TorusModulus(1j)
    for name in KERNELS:
        fn = getattr(el, name)
        fn(0.3, 0.2 + 0.4j, tm) if name.startswith("lame") else fn(0.2 + 0.4j,
                                                                   tm)


# ----------------------------------------------------------------------
# nbody_flow
# ----------------------------------------------------------------------

#: (n, tau span, trajectories): the span shrinks as n grows.
#: Twelve n = 2 flows, a few per cent of a pass, give the light class
#: enough samples for a steady median.
ISOMONODROMIC = ((2, 0.05, 12), (4, 0.02, 2), (8, 0.005, 2), (16, 0.002, 1))
#: (n, t span, trajectories) at fixed tau.
ISOSPECTRAL = ((2, 0.5, 2), (3, 0.5, 1))
FLOW_SAMPLES = 16


def _flow_tau(rng):
    return complex(rng.uniform(-0.05, 0.05), rng.uniform(0.95, 1.05))


def nbody_inputs(seed: int, tiny: bool = False):
    rng = _rng(seed, 2)
    iso = ((2, 0.05, 1), (8, 0.005, 1)) if tiny else ISOMONODROMIC
    spec = ((2, 0.1, 1),) if tiny else ISOSPECTRAL
    out = []
    for kind, table, g in (("isomonodromic", iso, 0.5),
                           ("isospectral", spec, 0.8)):
        for n, span, count in table:
            for _ in range(count):
                tau = _flow_tau(rng)
                q = _jittered_spacing(rng, n, tau, 0.05, 0.2, 0.3)
                p = _alternating(rng, n, 0.3, 0.05)
                out.append((kind, n, span, g, tau, q, p))
    return out


def _trajectory(kind, n, span, g, tau, q, p):
    def run(tracer):
        cfg = cm.CMConfig(n, g, el.TorusModulus(tau))
        ph = cm.PhasePoint(q, p)
        if kind == "isomonodromic":
            traj = fl.integrate_isomonodromic(cfg, ph, (tau, tau + 1j * span),
                                              samples=FLOW_SAMPLES)
        else:
            traj = fl.integrate_isospectral(cfg, ph, (0.0, span),
                                            samples=FLOW_SAMPLES)
        # H at the samples, as `ellcm flow` prints it
        hams = [cm.hamiltonian_cm(cfg.with_tau(t), s)
                for t, s in zip(traj.tau_of_sample, traj.states)]
        return traj, hams
    return run


def nbody_plan(seed: int, tiny: bool = False) -> Plan:
    inputs = nbody_inputs(seed, tiny)
    ops = []
    for kind, n, span, g, tau, q, p in inputs:
        if kind == "isomonodromic" and n == 2:
            cls = "light"
        elif kind == "isomonodromic" and n == 8:
            cls = "heavy"
        else:
            cls = "other"
        ops.append(Op(f"{kind}_n{n}", cls,
                      _trajectory(kind, n, span, g, tau, q, p)))

    def check(i, output):
        kind = inputs[i][0]
        traj, hams = output
        if traj.diagnostics.truncated:
            return False, f"truncated: {traj.diagnostics.message}"
        if len(traj.states) != FLOW_SAMPLES + 1:
            return False, f"{len(traj.states)} samples"
        if not all(np.isfinite(h) for h in hams):
            return False, "non-finite H"
        if kind == "isospectral":
            dh = max(abs(h - hams[0]) for h in hams)
            return dh <= ISOSPECTRAL_DH_TOL, dh
        return True, 0.0

    return Plan(ops, check)


def nbody_warmup():
    cfg = cm.CMConfig(2, 0.5, el.TorusModulus(1j))
    ph = cm.PhasePoint([0.1, 0.6], [0.2, -0.2])
    cm.eom(cfg, ph)
    cm.hamiltonian_cm(cfg, ph)


# ----------------------------------------------------------------------
# monodromy
# ----------------------------------------------------------------------

MONODROMY_NS = (2, 3)
MONODROMY_G = 0.35
DRIFT_DTAU = 0.01


def monodromy_inputs(seed: int):
    rng = _rng(seed, 3)
    out = []
    for n in MONODROMY_NS:
        tau = _flow_tau(rng)
        q = _jittered_spacing(rng, n, tau, 0.1, 0.2, 0.4)
        p = _alternating(rng, n, 0.35, 0.1)
        out.append((n, tau, q, p))
    return out


def _report(n, tau, q, p):
    def run(tracer):
        cfg = cm.CMConfig(n, MONODROMY_G, el.TorusModulus(tau))
        ph = cm.PhasePoint(q, p)
        md = mo.monodromy_data(cfg, ph, MONODROMY_ICFG)
        cubic = mo.cubic_relation_residual(md)
        drift = mo.isomonodromy_drift(cfg, ph, tau, DRIFT_DTAU, MONODROMY_ICFG)
        return md, cubic, drift
    return run


def det_errors(md, tau, q, p) -> list[float]:
    """Residuals of the three exact determinant identities."""
    q, p = np.asarray(q), np.asarray(p)
    expect = (1.0, np.exp(p.sum()),
              np.exp(-2j * math.pi * q.sum()) * np.exp(tau * p.sum()))
    return [rel_error(np.linalg.det(m), e)
            for m, e in zip((md.M0, md.M1, md.Mtau), expect)]


def monodromy_plan(seed: int, tiny: bool = False) -> Plan:
    # one report per body count is already the smallest meaningful plan
    inputs = monodromy_inputs(seed)
    ops = [Op(f"report_n{n}", "light" if n == 2 else "heavy",
              _report(n, tau, q, p)) for n, tau, q, p in inputs]
    worst = {"cubic": 0.0, "drift": 0.0, "det": 0.0}

    def check(i, output):
        n, tau, q, p = inputs[i]
        md, cubic, drift = output
        det = max(det_errors(md, tau, q, p))
        worst["cubic"] = max(worst["cubic"], cubic)
        worst["drift"] = max(worst["drift"], drift)
        worst["det"] = max(worst["det"], det)
        ok = cubic <= CUBIC_TOL and drift <= DRIFT_TOL and det <= DET_TOL
        return ok, (cubic, drift, det)

    return Plan(ops, check, {"reports": len(ops), "worst": worst})


def monodromy_warmup():
    cfg = cm.CMConfig(2, MONODROMY_G, el.TorusModulus(1j))
    cm.lax_L_quasi(cfg, cm.PhasePoint([0.1, 0.6], [0.3, -0.3]), 0.25 + 0.25j)


# ----------------------------------------------------------------------
# cli_session
# ----------------------------------------------------------------------

SUITES = ("lame-identities", "theta-heat", "quasi-periodicity",
          "zero-curvature", "hamilton-consistency", "symmetry-maps",
          "symplectic-jacobian", "monodromy")


def _c(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def cli_inputs(seed: int, tiny: bool = False
               ) -> tuple[list[list[str]], list[list[str]]]:
    """The README's ten commands with seeded arguments, and every verify
    suite at its defaults."""
    rng = _rng(seed, 4)

    def j(x, w=0.03):
        return x + rng.uniform(-w, w)

    def s():
        return str(int(rng.integers(1, 2**31)))

    a, b = j(0.1), j(0.2)
    readme = [
        ["eval", "wp", "--z", f"{j(0.3):.4f}", "--tau", "1.0i"],
        ["eval", "lame-x", "--u", f"{j(0.3):.4f}", "--z",
         _c(complex(j(0.44), 0.1)), "--tau", "0.9i"],
        ["verify", "lame-identities", "--seed", s(), "--count", "100"],
        ["verify", "zero-curvature", "--n", "2", "--count", "20",
         "--seed", s()],
        ["flow", "isospectral", "--n", "2", "--g", "1", "--tau", "1.0i",
         "--q", f"{j(0.1):.4f},{j(0.55):.4f}", "--p", "0.2,-0.2",
         "--t-end", "1.0"],
        ["flow", "painleve-scalar", "--alpha", "0.1,0,0,0", "--tau", "1.0i",
         "--tau-end", "1.2i", "--q", f"{j(0.3):.4f}", "--p", "0.4"],
        ["monodromy", "--n", "2", "--g", "0.35", "--tau", "1.0i", "--q",
         f"{_c(complex(j(0.11), 0.03))},{_c(complex(j(0.52), -0.07))}",
         "--p", "0.31,-0.45", "--drift", "0.01"],
        ["symmetry", "landin", "--alpha", f"{a:.4f},{b:.4f},{b:.4f},{a:.4f}"],
        ["symmetry", "scaling", "--alpha", "0.1,0.2,0.3,0.4", "--q",
         f"{j(0.3):.4f}", "--p", "0.2", "--tau", "1.0i", "--j", "2"],
        ["map", "--q", _c(complex(j(0.25), 0.1)), "--tau", "0.9i"],
    ]
    # as a user types them: default seed and count, so that the suites ask
    # for the same work whatever the benchmark's seed
    suites = [["verify", name] for name in SUITES]
    if tiny:
        return readme[:1], suites[:1]
    return readme, suites


def _command(args: list[str]):
    def run(tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "ellcm.cli", *args]
            return _spawn(argv)
        out = OUT_DIR / "child-trace.json"
        argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                str(out), *args]
        t0 = time.perf_counter()
        proc = _spawn(argv)
        wall = time.perf_counter() - t0
        with open(out) as fh:
            tracer.merge_child(json.load(fh), wall, tracer.op)
        os.unlink(out)
        return proc
    return run


def _spawn(argv):
    proc = run_child(argv, CLI_TIMEOUT_S, env=child_env(), cwd=ROOT)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def check_cli_output(args: list[str], output) -> tuple[bool, str]:
    code, stdout, stderr = output
    if code != 0:
        return False, f"exit {code}: {stderr.strip()[-200:]}"
    if args[0] == "monodromy":
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return False, "unparsable JSON"
        return "cubic_residual" in report, "json"
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        return False, "no CSV rows"
    if args[0] == "verify":
        bad = [r.get("check") for r in rows if r.get("status") != "pass"]
        return not bad, f"{len(rows)} checks, failed {bad}"
    return True, f"{len(rows)} rows"


def cli_plan(seed: int, tiny: bool = False) -> Plan:
    readme, suites = cli_inputs(seed, tiny)
    commands = readme + suites
    ops = [Op(" ".join(args[:2]), "light" if i < len(readme) else "heavy",
              _command(args))
           for i, args in enumerate(commands)]

    def check(i, output):
        return check_cli_output(commands[i], output)

    return Plan(ops, check)


WORKLOADS = {
    "kernels": (kernels_plan, kernels_warmup),
    "nbody_flow": (nbody_plan, nbody_warmup),
    "monodromy": (monodromy_plan, monodromy_warmup),
    "cli_session": (cli_plan, None),
}
