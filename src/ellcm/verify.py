"""Seeded verification suites over the library's invariants.

Each suite draws its sample points from a splitmix64 stream (see rng.py),
evaluates one family of identities, and returns per-check residuals with
the documented tolerance.  The CLI `verify` command and the acceptance
tests both run these, so the tolerances live here, next to the checks.
numpy and the n-body layers are imported by the suites that use them, so
the scalar kernel suites run without them.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

from . import elliptic as el
from . import painleve as pa
from .elliptic import TWO_PI_I
from .errors import EllcmError, UsageError
from .rng import SplitMix64

#: Seed of every suite when the caller gives none.
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float

    def __post_init__(self):
        # numpy scalars sneak in from np.max reductions; keep plain floats
        # so comparisons and serialization stay native
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


# ----------------------------------------------------------------------
# Suite: lame-identities
# ----------------------------------------------------------------------

LAME_TOL = 1e-9


def suite_lame_identities(seed: int = DEFAULT_SEED, count: int = 100
                          ) -> list[CheckResult]:
    """The three x/y identities at `count` random (u, v, z, tau)."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        tau = rng.tau()
        tm = el.TorusModulus(tau)
        u = rng.cell_point(tau)
        v = rng.cell_point(tau)
        z = rng.cell_point(tau)
        xu, yu = el.lame_x(u, z, tm), el.lame_y(u, z, tm)
        xv, yv = el.lame_x(v, z, tm), el.lame_y(v, z, tm)
        xum, yum = el.lame_x(-u, z, tm), el.lame_y(-u, z, tm)
        out.append(CheckResult(
            "lame-identities", f"addition[{i}]",
            _rel(xu * yv - yu * xv,
                 el.lame_x(u + v, z, tm) * (el.wp(u, tm) - el.wp(v, tm))),
            LAME_TOL))
        out.append(CheckResult(
            "lame-identities", f"wronskian[{i}]",
            _rel(xu * yum - yu * xum, el.wp_dz(u, tm)), LAME_TOL))
        out.append(CheckResult(
            "lame-identities", f"product[{i}]",
            _rel(xu * xum, el.wp(z, tm) - el.wp(u, tm)), LAME_TOL))
    return out


# ----------------------------------------------------------------------
# Suite: theta-heat
# ----------------------------------------------------------------------

HEAT_TOL = 1e-5
HEAT_STEP = 1e-4


def suite_theta_heat(seed: int = DEFAULT_SEED, count: int = 50
                     ) -> list[CheckResult]:
    """4 pi i d_tau theta1 = d^2_z theta1 and the mixed equation for x,
    both sides by central finite differences with step 1e-4."""
    rng = SplitMix64(seed)
    h = HEAT_STEP
    out = []
    for i in range(count):
        tau = rng.tau()
        z = rng.cell_point(tau)
        tm = el.TorusModulus(tau)
        dtau = (el.theta1(z, el.TorusModulus(tau + h))
                - el.theta1(z, el.TorusModulus(tau - h))) / (2 * h)
        dzz = (el.theta1(z + h, tm) - 2 * el.theta1(z, tm)
               + el.theta1(z - h, tm)) / (h * h)
        out.append(CheckResult("theta-heat", f"theta[{i}]",
                               abs(4j * math.pi * dtau - dzz), HEAT_TOL))
    for i in range(count):
        tau = rng.tau()
        u = rng.cell_point(tau)
        z = rng.cell_point(tau)
        if el.lattice_distance(z - u, tau) < 0.05:
            u = u / 2.0
        tm = el.TorusModulus(tau)
        dt = (el.lame_x(u, z, el.TorusModulus(tau + h))
              - el.lame_x(u, z, el.TorusModulus(tau - h))) / (2 * h)
        mixed = (el.lame_x(u + h, z + h, tm) - el.lame_x(u + h, z - h, tm)
                 - el.lame_x(u - h, z + h, tm)
                 + el.lame_x(u - h, z - h, tm)) / (4 * h * h)
        out.append(CheckResult("theta-heat", f"mixed[{i}]",
                               abs(TWO_PI_I * dt + mixed), HEAT_TOL))
    return out


# ----------------------------------------------------------------------
# Suite: quasi-periodicity
# ----------------------------------------------------------------------

QP_THETA_TOL = 1e-10
QP_ACTION_TOL = 1e-8
WP_ORACLE_TOL = 1e-8
LANDIN_TOL = 1e-9


def suite_quasi_periodicity(seed: int = DEFAULT_SEED, count: int = 50,
                            n: int = 2) -> list[CheckResult]:
    """theta1/x quasi-periodicity, wp fast path vs lattice oracle, Landin
    and homogeneity for wp, wp', and the four (L, A) cycle relations."""
    import numpy as np

    from . import calogero as cm
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        tau = rng.tau()
        tm = el.TorusModulus(tau)
        z = rng.cell_point(tau)
        u = rng.cell_point(tau)
        lhs = el.theta1(z + tau, tm)
        rhs = -np.exp(-1j * math.pi * (tau + 2 * z)) * el.theta1(z, tm)
        out.append(CheckResult("quasi-periodicity", f"theta-b[{i}]",
                               abs(lhs - rhs) / max(abs(rhs), 1e-30),
                               QP_THETA_TOL))
        x0 = el.lame_x(u, z, tm)
        out.append(CheckResult(
            "quasi-periodicity", f"x-u-a[{i}]",
            abs(el.lame_x(u + 1, z, tm) - x0) / abs(x0), QP_THETA_TOL))
        out.append(CheckResult(
            "quasi-periodicity", f"x-u-b[{i}]",
            abs(el.lame_x(u + tau, z, tm)
                - np.exp(TWO_PI_I * z) * x0) / abs(x0), QP_THETA_TOL))
        jscale = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3))
        lat = el.GeneralLattice(1.0, tau)
        latj = el.GeneralLattice(jscale, jscale * tau)
        out.append(CheckResult(
            "quasi-periodicity", f"wp-homog[{i}]",
            _rel(el.wp_general(z, lat),
                 jscale**2 * el.wp_general(jscale * z, latj)), LANDIN_TOL))
        out.append(CheckResult(
            "quasi-periodicity", f"wp-dz-homog[{i}]",
            _rel(el.wp_dz_general(z, lat),
                 jscale**3 * el.wp_dz_general(jscale * z, latj)), LANDIN_TOL))
        lhs = el.wp_dz(z, el.TorusModulus(tau / 2))
        rhs = el.wp_dz(z, tm) + el.wp_dz(z + tau / 2, tm)
        out.append(CheckResult("quasi-periodicity", f"landin[{i}]",
                               _rel(lhs, rhs), LANDIN_TOL))
    for i, tau in enumerate((1j, 0.5 + 0.8j, 2j)):
        tm = el.TorusModulus(tau)
        rloc = SplitMix64(seed + i)
        for k in range(20):
            z = rloc.cell_point(tau)
            out.append(CheckResult(
                "quasi-periodicity", f"wp-oracle[tau{i}/{k}]",
                abs(el.wp(z, tm) - el.wp_lattice_oracle(z, tm)),
                WP_ORACLE_TOL))
    for i in range(count):
        tau = rng.tau()
        cfg, ph = _random_cm(rng, n, tau)
        z = rng.cell_point(tau)
        rep = cm.quasi_periodicity_check(cfg, ph, z)
        out.append(CheckResult("quasi-periodicity", f"action[{i}]",
                               rep.max(), QP_ACTION_TOL))
    return out


def _random_cm(rng: SplitMix64, n: int, tau: complex,
               g: complex | None = None,
               min_sep: float = 0.2) -> tuple[cm.CMConfig, cm.PhasePoint]:
    """A generic CM configuration with pairwise separations at least
    min_sep: the first of 200 uniform draws that has them, or else a
    jittered grid (`_jittered_grid`)."""
    import numpy as np

    from . import calogero as cm
    if g is None:
        g = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.2))
    cfg = cm.CMConfig(n, g, el.TorusModulus(tau))
    for _ in range(200):
        q = np.array([rng.uniform(0.05, 0.95) + (tau * rng.uniform(0.05, 0.6))
                      for _ in range(n)])
        if cm.min_separation(cfg, cm.PhasePoint(q, np.zeros(n))) >= min_sep:
            break
    else:
        q = _jittered_grid(rng, cfg, min_sep)
    p = np.array([complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                  for _ in range(n)])
    return cfg, cm.PhasePoint(q, p)


def _jittered_grid(rng: SplitMix64, cfg: cm.CMConfig, min_sep: float):
    """n bodies filling the rows of the cols x ceil(n / cols) grid of the
    cell whose smallest separation s is largest, each moved by rng less
    than (s - min_sep) / 3, so that every pair stays min_sep apart.
    EllcmError, naming n and min_sep, where no grid reaches min_sep."""
    import numpy as np

    from . import calogero as cm
    n, tau = cfg.n, cfg.tm.tau
    i = np.arange(n)

    def sep(q):
        return cm.min_separation(cfg, cm.PhasePoint(q, np.zeros(n)))

    q = max(((i % c + 0.5) / c + (i // c + 0.5) / -(-n // c) * tau
             for c in range(1, n + 1)), key=sep)
    radius = (sep(q) - min_sep) / 3.0
    q = q + [radius * rng.uniform() * np.exp(TWO_PI_I * rng.uniform())
             for _ in range(n)]
    if radius < 0.0 or sep(q) < min_sep:
        raise EllcmError(f"cannot place {n} bodies at least {min_sep} apart "
                         f"on the torus of tau = {tau}")
    return q


# ----------------------------------------------------------------------
# Suite: zero-curvature
# ----------------------------------------------------------------------

ZC_TOL = 1e-6


def zero_curvature_samples(seed: int = DEFAULT_SEED, count: int = 20,
                           n: int = 2):
    """(name, cfg, ph, z) of the zero-curvature suite: `count` // 2 generic
    points for each of n and n+1 bodies."""
    for bodies in (n, n + 1):
        rng = SplitMix64(seed + bodies)
        for i in range(count // 2):
            tau = rng.tau()
            cfg, ph = _random_cm(rng, bodies, tau)
            yield f"n{bodies}[{i}]", cfg, ph, rng.cell_point(tau)


def suite_zero_curvature(seed: int = DEFAULT_SEED, count: int = 20,
                         n: int = 2) -> list[CheckResult]:
    """2 pi i dL/dtau + dA/dz - [L, A] at the `zero_curvature_samples`."""
    from . import calogero as cm
    return [CheckResult("zero-curvature", name,
                        cm.zero_curvature_residual(cfg, ph, z), ZC_TOL)
            for name, cfg, ph, z in zero_curvature_samples(seed, count, n)]


# ----------------------------------------------------------------------
# Suite: hamilton-consistency
# ----------------------------------------------------------------------

HAMILTON_TOL = 1e-6


def suite_hamilton_consistency(seed: int = DEFAULT_SEED, count: int = 10,
                               n: int = 3) -> list[CheckResult]:
    """eom vs central-difference gradients of the Hamiltonian, for both the
    n-body system and the scalar Manin system."""
    from . import calogero as cm
    from . import flow as fl
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        tau = rng.tau()
        cfg, ph = _random_cm(rng, n, tau)
        dq, dp = cm.eom(cfg, ph)
        grad = fl._central_differences(
            lambda y: cm.hamiltonian_cm(cfg, cm.PhasePoint(y[:n], y[n:])),
            [*ph.q, *ph.p])
        worst = max(max(abs(dp[j] + grad[j]), abs(dq[j] - grad[n + j]))
                    for j in range(n))
        out.append(CheckResult("hamilton-consistency", f"cm[{i}]",
                               worst, HAMILTON_TOL))
    for i in range(count):
        tau = rng.tau()
        params = pa.PainleveParams(tuple(
            complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            for _ in range(4)))
        # every shifted argument q + omega_a must stay clear of the poles,
        # or the FD gradients are dominated by the pole's third derivative
        for _ in range(100):
            q = rng.cell_point(tau)
            if all(el.lattice_distance(q + w, tau) > 0.15
                   for w in pa.half_periods(tau)):
                break
        else:
            raise RuntimeError("could not sample q clear of the half periods")
        p = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fd_q, fd_p = fl._central_differences(
            lambda x: pa.hamiltonian_manin(pa.EllipticState(x[0], x[1], tau),
                                           params), [q, p])
        rhs = pa.elliptic_p6_rhs(q, tau, params)
        out.append(CheckResult("hamilton-consistency", f"manin-q[{i}]",
                               abs(rhs + fd_q), HAMILTON_TOL))
        out.append(CheckResult("hamilton-consistency", f"manin-p[{i}]",
                               abs(p - fd_p), 1e-8))
    return out


# ----------------------------------------------------------------------
# Suite: symmetry-maps
# ----------------------------------------------------------------------

SYMMETRY_TOL = 1e-6


def suite_symmetry_maps(seed: int = DEFAULT_SEED, count: int = 3
                        ) -> list[CheckResult]:
    """Two-trajectory comparisons for the Landin and scaling solution maps,
    plus exact lattice-shift invariance of the flow right-hand side."""
    from . import flow as fl
    rng = SplitMix64(seed)
    icfg = fl.TIGHT
    delta = 0.05j
    samples = 5
    out = []
    for i in range(count):
        tau0 = complex(rng.uniform(-0.1, 0.1), rng.uniform(0.8, 1.1))
        q0 = rng.cell_point(tau0)
        p0 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        a = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1))
        b = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1))
        params = pa.PainleveParams((a, b, b, a))
        doubled, ok = pa.landin_transform(params)
        assert ok
        orig = fl.integrate_scalar_painleve(
            pa.EllipticState(q0, p0, 2 * tau0), params,
            (2 * tau0, 2 * (tau0 + delta)), icfg, samples=samples)
        half = fl.integrate_scalar_painleve(
            pa.EllipticState(q0, 2 * p0, tau0), doubled,
            (tau0, tau0 + delta), icfg, samples=samples)
        worst = max(abs(orig.states[k].q[0] - half.states[k].q[0])
                    for k in range(len(half.times)))
        out.append(CheckResult("symmetry-maps", f"landin[{i}]",
                               worst, SYMMETRY_TOL))

        params = pa.PainleveParams(tuple(
            complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1))
            for _ in range(4)))
        j = complex(rng.uniform(0.8, 1.5), rng.uniform(-0.3, 0.3))
        st0 = pa.EllipticState(q0, p0, tau0)
        st_s, par_s = pa.scaling_symmetry(st0, params, j)
        base = fl.integrate_scalar_painleve(st0, params,
                                            (tau0, tau0 + delta), icfg,
                                            samples=samples)
        scaled = fl.integrate_scalar_painleve(st_s, par_s,
                                              (j * tau0, j * (tau0 + delta)),
                                              icfg, lattice_scale=j,
                                              samples=samples)
        worst = max(abs(scaled.states[k].q[0] - j * base.states[k].q[0])
                    for k in range(len(base.times)))
        out.append(CheckResult("symmetry-maps", f"scaling[{i}]",
                               worst, SYMMETRY_TOL))

        rhs0 = pa.elliptic_p6_rhs(q0, tau0, params)
        rhs1 = pa.elliptic_p6_rhs(q0 + 1 + tau0, tau0, params)
        out.append(CheckResult("symmetry-maps", f"lattice-shift[{i}]",
                               _rel(rhs0, rhs1), 1e-12))
    return out


# ----------------------------------------------------------------------
# Suite: symplectic-jacobian
# ----------------------------------------------------------------------

SYMPLECTIC_TOL = 1e-5


def suite_symplectic_jacobian(seed: int = DEFAULT_SEED, count: int = 2,
                              n: int = 2) -> list[CheckResult]:
    from . import flow as fl
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        tau0 = complex(rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1))
        cfg, ph = _random_cm(rng, n, tau0, min_sep=0.3)
        res = fl.symplectic_jacobian_check(cfg, ph, (tau0, tau0 + 0.05))
        out.append(CheckResult("symplectic-jacobian", f"n{n}[{i}]",
                               res, SYMPLECTIC_TOL))
    return out


# ----------------------------------------------------------------------
# Suite: monodromy
# ----------------------------------------------------------------------

CUBIC_TOL = 1e-5
DRIFT_TOL = 1e-5
CONTROL_FACTOR = 10.0


def suite_monodromy(seed: int = DEFAULT_SEED, count: int = 1, n: int = 2
                    ) -> list[CheckResult]:
    """Cubic relation residual, isomonodromy drift, and the negative
    control (a non-isomonodromic perturbation must move the spectra)."""
    from . import calogero as cm
    from . import flow as fl
    from . import monodromy as mo
    rng = SplitMix64(seed)
    icfg = fl.TIGHT
    out = []
    for i in range(count):
        tau = complex(rng.uniform(-0.05, 0.05), rng.uniform(0.9, 1.1))
        cfg, ph = _random_cm(rng, n, tau, g=0.35, min_sep=0.3)
        md = mo.monodromy_data(cfg, ph, icfg)
        out.append(CheckResult("monodromy", f"cubic[{i}]",
                               mo.cubic_relation_residual(md), CUBIC_TOL))
        drift = mo.isomonodromy_drift(cfg, ph, tau, 1e-2, icfg, md)
        out.append(CheckResult("monodromy", f"drift[{i}]", drift, DRIFT_TOL))
        perturbed = cm.PhasePoint(ph.q, ph.p + 0.01)
        control = mo.spectral_distance(md, mo.monodromy_data(cfg, perturbed,
                                                             icfg))
        # report as a residual that must stay BELOW tol: invert the scale
        out.append(CheckResult("monodromy", f"control[{i}]",
                               CONTROL_FACTOR * DRIFT_TOL / max(control,
                                                                1e-300),
                               1.0))
    return out


SUITES = {
    "lame-identities": suite_lame_identities,
    "theta-heat": suite_theta_heat,
    "quasi-periodicity": suite_quasi_periodicity,
    "zero-curvature": suite_zero_curvature,
    "hamilton-consistency": suite_hamilton_consistency,
    "symmetry-maps": suite_symmetry_maps,
    "symplectic-jacobian": suite_symplectic_jacobian,
    "monodromy": suite_monodromy,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, count: int | None = None,
              n: int | None = None) -> list[CheckResult]:
    """Run the suite `name`; count and n, where given, replace its defaults.

    Raises UsageError for an unknown suite, for an n given to a suite whose
    signature has none, and for a count or n below 1.
    """
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)))
    for key, value in (("count", count), ("n", n)):
        if value is not None and value < 1:
            raise UsageError(f"{key} must be at least 1, got {value}")
    kwargs = {"seed": seed}
    if count is not None:
        kwargs["count"] = count
    if n is not None:
        if "n" not in inspect.signature(SUITES[name]).parameters:
            raise UsageError(f"suite {name!r} takes no n")
        kwargs["n"] = n
    return SUITES[name](**kwargs)
