"""Non-autonomous Hamiltonian integration and the extended 2-form machinery.

Three flows, each a Hamiltonian ODE along a straight segment of complex
time, all run by one driver (`_integrate`):

  * isospectral: d/dt (q, p) = eom at frozen tau (autonomous, H conserved);
  * isomonodromic: 2 pi i d/dtau (q, p) = eom, tau entering the elliptic
    kernels as well (non-autonomous, monodromy preserved instead);
  * scalar elliptic Painleve VI: 2 pi i d/dtau (q, p) = (p, force(q, tau)).

The driver parameterizes the segment by a real arc variable and steps it
with `integrate_segment`: the embedded Dormand-Prince 5(4) pair (Dormand &
Prince 1980) supplies the local error estimate for step control, and a
classic fixed-step RK4 is available for convergence studies.  The pair is
first same as last: the seventh stage is the right-hand side at the
accepted state, so it serves as the next step's first stage, a rejected
step keeps its first stage, and a step costs six right-hand sides instead
of seven.  The steps do not stop at the samples: each sample is the
quintic Hermite interpolant through the states and right-hand sides at the
last three points the steps reached (Hairer, Norsett & Wanner, Solving ODEs I,
II.6), which costs no right-hand side.  DOPRI5's own continuous extension
is only of order 4, and misses the step tolerance at the samples of the
tau-flows.

A step writes its seven stages into the rows of one (7, size) array k.
Each stage state, y5 and y4 is y + h * np.add.reduce(c * k[rows], 0), c
the column of the nonzero coefficients of its tableau row and rows the
stages they weight.  Along axis 0 of a state of two or more components
that reduction adds the rows left to right, from the first nonzero term,
and so rounds as the term-by-term loop c_0 k_0 + c_2 k_2 + ... does
(numpy sums a single column pairwise instead).  The right-hand sides of the
flows read the packed state (q, p) directly, and only the samples become
PhasePoints.

The extended phase space (q, p, tau) carries

    Omega_iso(u, v) = sum_j (dq_j ^ dp_j)(u, v) + (1/(2 pi i)) (dH ^ dtau)(u, v),

whose kernel is spanned by the flow field
X_H = (dH/dp, -dH/dq, 2 pi i).  (With a minus sign on the dH ^ dtau term
the displayed X_H would not be annihilated; the plus sign is forced by
i_{X_H} Omega = 0 together with the canonical fiber restriction.)
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .calogero import (
    CMConfig,
    PhasePoint,
    _force,
    _min_separation,
    eom,
    hamiltonian_dtau,
)
from .elliptic import POLE_EXCLUSION_RADIUS, TWO_PI_I
from .errors import IntegrationError, PathError, PoleProximityError, UsageError
from .painleve import EllipticState, PainleveParams, scalar_painleve_rhs

FlowKind = Literal["isospectral_t", "isomonodromic_tau"]

# Collision thresholds for the pairwise reduced separation (wp' grows like
# separation^-3, so both FD and step control degrade below these).
COLLISION_REJECT = 1e-4
COLLISION_TRUNCATE = POLE_EXCLUSION_RADIUS  # where eom's pole check raises

#: Samples of a trajectory when the caller gives no count.
DEFAULT_SAMPLES = 16

#: Step of the central differences of `_central_differences`.
JACOBIAN_FD_STEP = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of the flows' stepper and of the Magnus transport: method
    "rk45_adaptive" (Dormand-Prince 5(4) under step control) or
    "rk4_fixed" (classic RK4 at the fixed step initial_step), no other;
    initial_step, the adaptive first step; abs_tol + rel_tol |y|, a step's
    error bound; max_steps, the budget of steps.  `monodromy.transport`
    reads rel_tol, abs_tol and max_steps alone, the last as each path's
    panel budget."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    initial_step: float = 1e-2
    max_steps: int = 200_000
    method: Literal["rk4_fixed", "rk45_adaptive"] = "rk45_adaptive"

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "rk45_adaptive"):
            raise UsageError(f"method must be 'rk4_fixed' or "
                             f"'rk45_adaptive', got {self.method!r}")
        # an infinite tolerance accepts every step; not x > 0 rejects NaN
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise UsageError("tolerances must be positive and finite")
        if not self.max_steps >= 1:
            raise UsageError("max_steps must be at least 1")
        if not self.initial_step > 0:
            raise UsageError("initial_step must be positive")


#: The tolerances of the monodromy triple and its drift, the symplectic
#: Jacobian and the verify suites that integrate.
TIGHT = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


@dataclass
class Diagnostics:
    steps_accepted: int = 0
    steps_rejected: int = 0
    max_local_error: float = 0.0
    truncated: bool = False
    message: str = ""
    rhs_evals: int = 0


@dataclass(eq=False)
class Trajectory:
    kind: FlowKind
    times: list[complex]
    states: list[PhasePoint]
    tau_of_sample: list[complex]
    diagnostics: Diagnostics


@dataclass(frozen=True, eq=False)
class ExtendedTangent:
    """A tangent vector (dq, dp, dtau) of the extended phase space."""

    dq: np.ndarray
    dp: np.ndarray
    dtau: complex

    def __post_init__(self):
        object.__setattr__(self, "dq", np.asarray(self.dq, dtype=complex))
        object.__setattr__(self, "dp", np.asarray(self.dp, dtype=complex))
        object.__setattr__(self, "dtau", complex(self.dtau))


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) and classic RK4 on complex segments
# ----------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _row(coeffs):
    """A tableau row as the column of its nonzero coefficients and the rows
    of the stage array they weight: a slice when those are the first rows
    (a view, cheaper to take than an index array)."""
    idx = [j for j, c in enumerate(coeffs) if c != 0.0]
    rows = slice(len(idx)) if idx == list(range(len(idx))) else np.array(idx)
    return np.array([coeffs[j] for j in idx])[:, None], rows


# the last row of _DP_A is B5 (first same as last): stage 7 is at y5
_DP_ROWS = tuple(_row(a) for a in _DP_A[1:6])
_DP_Y5, _DP_Y4 = _row(_DP_B5), _row(_DP_B4)


def _dp_step(f, s, y, h, k1):
    """One Dormand-Prince step from k1 = f(s, y); returns (y5,
    error_vector, f(s + h, y5)).

    The stages fill the rows of one (7, size) array k, and each state sums
    its row's nonzero terms left to right (module docstring).  The last
    stage is evaluated at s + h and at the state the weights B5 give, which
    is y5 itself, so it is the next step's k1.
    """
    k = np.empty((7, y.size), dtype=complex)
    k[0] = k1
    for i, (c, rows) in enumerate(_DP_ROWS, 1):
        k[i] = f(s + _DP_C[i] * h, y + h * np.add.reduce(c * k[rows], 0))
    c, rows = _DP_Y5
    y5 = y + h * np.add.reduce(c * k[rows], 0)
    k[6] = f(s + h, y5)
    c, rows = _DP_Y4
    y4 = y + h * np.add.reduce(c * k[rows], 0)
    return y5, y5 - y4, k[6]


def _rk4_step(f, s, y, h, k1):
    """One classic RK4 step from k1 = f(s, y); returns (y_new, None, None):
    it has no error estimate and no stage at the new state."""
    k2 = f(s + h / 2, y + h / 2 * k1)
    k3 = f(s + h / 2, y + h / 2 * k2)
    k4 = f(s + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), None, None


def _truncate(diag: Diagnostics, y: np.ndarray, message: str) -> np.ndarray:
    diag.truncated = True
    diag.message = message
    return y


def _hermite(points) -> tuple[np.ndarray, np.ndarray]:
    """The quintic Hermite interpolant through (s, y, f) at three points,
    oldest first: its nodes z, the newest first and each twice, and its
    Newton coefficients c, so that it is c_0 + (t - z_0) (c_1 + (t - z_1)
    (c_2 + ...)).  At the newest node it is y there, bit for bit."""
    (s0, y0, f0), (s1, y1, f1), (s2, y2, f2) = points
    z = np.array([s2, s2, s1, s1, s0, s0])
    # first divided differences; at a doubled node, the derivative f
    c = np.array([y2, f2, (y1 - y2) / (s1 - s2), f1, (y0 - y1) / (s0 - s1),
                  f0])
    for k in range(2, 6):
        c[k:] = (c[k:] - c[k - 1:-1]) / (z[k:] - z[:-k])[:, None]
    return z, c


def _newton(z, c, t: Sequence[float]) -> np.ndarray:
    """The Newton form (z, c) of `_hermite` at each position of t, one row
    each, by Horner's rule."""
    t = np.asarray(t, dtype=float)[:, None]
    y = c[5]
    for k in range(4, -1, -1):
        y = c[k] + (t - z[k]) * y
    return y


def integrate_segment(f: Callable, y0: np.ndarray, length: float,
                      icfg: IntegratorConfig,
                      diag: Diagnostics,
                      sample_at: Sequence[float] = (),
                      on_sample: Callable | None = None,
                      separation: Callable | None = None) -> np.ndarray:
    """Drive dy/ds = f(s, y) from s = 0 to s = length (real arc parameter)
    and return the state of the last accepted step.

    The steps run free of the samples: ``on_sample(s, y)`` fires at each
    arc position of ``sample_at`` inside (0, length), in order, with y the
    quintic Hermite interpolant through (s, y, f) at the last three points
    the steps reached, and at the endpoint with the state there.  After
    accepted step m >= 2 the samples up to its end fire, and at the
    endpoint the rest.  f at each point is a stage the stepper evaluates
    anyway (DP5(4)'s last, RK4's next first), so samples cost no
    right-hand side, except one for RK4 at the endpoint when samples are
    left.  A segment with interior samples caps its first step at half its
    length, so that three points exist; otherwise the samples do not
    change the steps.

    ``separation(s, y)`` is the smallest reduced pairwise distance of the
    state y at arc position s; a step end or a sample below
    COLLISION_TRUNCATE truncates the trajectory with the flag set on
    ``diag`` (wp' ~ separation^-3 makes both stepping and error estimates
    meaningless past that point), and no later sample fires.  The adaptive
    method also rejects and retries shorter a step ending below
    COLLISION_REJECT, and truncates when its step collapses; RK4 takes
    every step at the fixed size.  A step collapses below 1e-14 times the
    length, and a step ending within 1e-13 times the length of the
    endpoint ends the segment there, so that a span of any length keeps
    its samples.
    ``diag.rhs_evals`` counts the calls of f.
    """
    y = np.asarray(y0, dtype=complex)
    s = 0.0
    samples = sorted(t for t in set(sample_at) if 0 < t < length)
    ns = 0  # samples fired
    step = _dp_step if icfg.method == "rk45_adaptive" else _rk4_step
    h = min(icfg.initial_step, length / 2 if samples else length)
    if separation is None:
        separation = lambda s, y: math.inf

    def rhs(s, y):
        diag.rhs_evals += 1
        return f(s, y)

    try:
        k1 = rhs(s, y)
        points = [(s, y, k1)]
        end = length <= 0
        while not end:
            if diag.steps_accepted + diag.steps_rejected > icfg.max_steps:
                raise IntegrationError(
                    f"exceeded max_steps = {icfg.max_steps} at s = {s:.6g}")
            h_try = min(h, length - s)
            y_new, err, k_new = step(rhs, s, y, h_try, k1)
            sep = separation(s + h_try, y_new)
            if sep < COLLISION_TRUNCATE:
                return _truncate(diag, y, f"collision at s = {s:.6g}: "
                                          f"min separation {sep:.3e}")
            accept, collapsed, local_error = True, False, 0.0
            if err is not None:
                abs_err = np.abs(err)
                scale = icfg.abs_tol + icfg.rel_tol * np.maximum(
                    np.abs(y), np.abs(y_new))
                ratio = float(np.max(abs_err / scale))
                accept = ratio <= 1.0 and sep >= COLLISION_REJECT
                if ratio <= 1.0 and not accept:
                    # error fine but separation entering the reject band
                    h = 0.5 * h_try
                else:
                    h = h_try * (min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                                 if ratio > 0 else 5.0)
                collapsed = h < 1e-14 * length
                local_error = float(np.max(abs_err))
            if accept:
                diag.steps_accepted += 1
                diag.max_local_error = max(diag.max_local_error,
                                           local_error)
                s += h_try
                y = y_new
                end = abs(s - length) < 1e-13 * length
                k1 = k_new
                if k1 is None and not (end and ns == len(samples)):
                    k1 = rhs(s, y)  # RK4's next first stage
                points = points[-2:] + [(s, y, k1)]
                due = len(samples) if end else bisect.bisect_right(samples, s)
                if len(points) == 3 and ns < due:
                    z, c = _hermite(points)
                    for t, y_t in zip(samples[ns:due],
                                      _newton(z, c, samples[ns:due])):
                        sep = separation(t, y_t)
                        if sep < COLLISION_TRUNCATE:
                            return _truncate(
                                diag, y, f"collision at sample s = {t:.6g}: "
                                         f"min separation {sep:.3e}")
                        if on_sample is not None:
                            on_sample(t, y_t)
                    ns = due
            else:
                diag.steps_rejected += 1
            if collapsed:
                return _truncate(diag, y, f"step collapsed at s = {s:.6g}")
    except PoleProximityError as exc:
        return _truncate(diag, y, f"collision at s = {s:.6g}: {exc}")
    if on_sample is not None:
        on_sample(length, y)
    return y


# ----------------------------------------------------------------------
# Flows
# ----------------------------------------------------------------------

def _pack(ph: PhasePoint) -> np.ndarray:
    return np.concatenate([ph.q, ph.p])


def _unpack(y: np.ndarray, n: int) -> PhasePoint:
    return PhasePoint(y[:n], y[n:])


def _integrate(dy: Callable, ph0: PhasePoint, span: tuple,
               icfg: IntegratorConfig, samples: int,
               tau: complex | None = None,
               guard: CMConfig | None = None) -> Trajectory:
    """The flow from ph0 along the straight segment span = (start, end).

    ``dy(time, dt, y)`` is the increment of the packed state y = (q, p)
    for the time increment dt.  With ``tau`` the flow is a t-flow at that
    frozen modulus; without it the time is tau itself, and the segment must
    stay in the upper half-plane.  The trajectory records the start and the
    ends of ``samples`` equal pieces of the span.  The pairwise separations
    of the bodies of ``guard``, in the lattice of the modulus each step
    reaches, stop the integration near a collision.
    """
    if samples < 1:
        raise UsageError(f"samples must be at least 1, got {samples}")
    start, end = span
    what = "tau path" if tau is None else "time span"
    if not (cmath.isfinite(start) and cmath.isfinite(end)):
        raise UsageError(f"{what} [{start}, {end}] is not finite")
    if tau is None and (start.imag <= 0 or end.imag <= 0):
        raise PathError(
            f"tau path [{start}, {end}] leaves the upper half-plane")
    length = abs(end - start)
    if length == 0:
        raise UsageError(f"empty {what}")
    direction = (end - start) / length
    n = ph0.n
    kind = "isomonodromic_tau" if tau is None else "isospectral_t"
    traj = Trajectory(kind, [complex(start)], [ph0],
                      [start if tau is None else tau], Diagnostics())

    def f(s, y):
        return dy(start + direction * s, direction, y)

    def on_sample(s, y):
        time = start + direction * s
        traj.times.append(time)
        traj.states.append(_unpack(y, n))
        traj.tau_of_sample.append(time if tau is None else tau)

    def separation(s, y):
        return _min_separation(y[:n], start + direction * s if tau is None
                               else tau)

    guarded = guard is not None and guard.g != 0 and n > 1
    integrate_segment(f, _pack(ph0), length, icfg, traj.diagnostics,
                      sample_at=[length * i / samples
                                 for i in range(1, samples)],
                      on_sample=on_sample,
                      separation=separation if guarded else None)
    return traj


def integrate_isospectral(cfg: CMConfig, ph0: PhasePoint,
                          t_span: tuple[float, float],
                          icfg: IntegratorConfig = IntegratorConfig(),
                          samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Autonomous flow d(q, p)/dt = eom at frozen tau; conserves H."""
    n = ph0.n

    def dy(t, dt, y):
        return dt * np.concatenate((y[n:], _force(cfg, y[:n])))

    return _integrate(dy, ph0, (float(t_span[0]), float(t_span[1])), icfg,
                      samples, tau=cfg.tm.tau, guard=cfg)


def integrate_isomonodromic(cfg: CMConfig, ph0: PhasePoint,
                            tau_path: tuple[complex, complex],
                            icfg: IntegratorConfig = IntegratorConfig(),
                            samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Non-autonomous tau-flow 2 pi i d(q, p)/dtau = eom along a straight
    segment in the upper half-plane."""
    n = ph0.n

    def dy(tau, dtau, y):
        return dtau * np.concatenate(
            (y[n:], _force(cfg.with_tau(tau), y[:n]))) / TWO_PI_I

    return _integrate(dy, ph0, (complex(tau_path[0]), complex(tau_path[1])),
                      icfg, samples, guard=cfg)


def integrate_scalar_painleve(state0: EllipticState, params: PainleveParams,
                              tau_path: tuple[complex, complex],
                              icfg: IntegratorConfig = IntegratorConfig(),
                              lattice_scale: complex = 1.0,
                              samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """The scalar flow 2 pi i q' = p, 2 pi i p' = sum_a alpha_a wp'(q+omega_a).

    lattice_scale feeds through to the general-lattice right-hand side used
    by the extended scaling symmetry tests.
    """
    def dy(tau, dtau, y):
        return dtau * np.array(scalar_painleve_rhs(
            y[0], y[1], tau, params, lattice_scale))

    return _integrate(dy, PhasePoint([state0.q], [state0.p]),
                      (complex(tau_path[0]), complex(tau_path[1])),
                      icfg, samples)


# ----------------------------------------------------------------------
# Extended symplectic 2-form
# ----------------------------------------------------------------------

def extended_two_form(ph: PhasePoint, tau: complex, u: ExtendedTangent,
                      v: ExtendedTangent, cfg: CMConfig) -> complex:
    """Omega_iso(u, v) = sum_j (dq^dp)(u,v) + (1/(2 pi i)) (dH^dtau)(u,v)."""
    cfg = cfg.with_tau(tau)
    fiber = complex(np.sum(u.dq * v.dp - u.dp * v.dq))
    dq, dp = eom(cfg, ph)  # (dH/dp, -dH/dq)
    dHdtau = hamiltonian_dtau(cfg, ph)

    def dH(w: ExtendedTangent) -> complex:
        return complex(np.sum(-dp * w.dq) + np.sum(dq * w.dp)
                       + dHdtau * w.dtau)

    wedge = dH(u) * v.dtau - dH(v) * u.dtau
    return fiber + wedge / TWO_PI_I


def hamiltonian_vector_field(ph: PhasePoint, tau: complex, cfg: CMConfig
                             ) -> ExtendedTangent:
    """X_H = (dq_j = dH/dp_j, dp_j = -dH/dq_j, dtau = 2 pi i)."""
    dq, dp = eom(cfg.with_tau(tau), ph)
    return ExtendedTangent(dq=dq, dp=dp, dtau=TWO_PI_I)


def canonical_pairing(n: int) -> np.ndarray:
    """The matrix of sum_j dq_j ^ dp_j in (q_1..q_n, p_1..p_n) coordinates."""
    omega = np.zeros((2 * n, 2 * n), dtype=complex)
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def _central_differences(f: Callable, x0) -> np.ndarray:
    """The derivative of f at the complex vector x0, an oracle independent
    of the library's own derivatives (a real step gives the complex
    derivative of a holomorphic f): column j, in the order of x0, is
    (f(x0 + h e_j) - f(x0 - h e_j)) / (2 h) in the type f returns,
    h = JACOBIAN_FD_STEP.  Columns come last: a scalar f gives its gradient."""
    x0 = np.asarray(x0, dtype=complex)
    cols = []
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += JACOBIAN_FD_STEP
        xm[j] -= JACOBIAN_FD_STEP
        cols.append((f(xp) - f(xm)) / (2.0 * JACOBIAN_FD_STEP))
    return np.stack(cols, axis=-1)


def symplectic_jacobian_check(cfg: CMConfig, ph0: PhasePoint,
                              tau_path: tuple[complex, complex],
                              icfg: IntegratorConfig = TIGHT) -> float:
    """|| M^T Omega0 M - Omega0 ||_max for the fiber flow map Jacobian M.

    M is the 2n x 2n complex Jacobian of (q0, p0) -> (q(tau1), p(tau1)),
    by `_central_differences`.  Closedness of the extended form shows up
    as symplecticity of this parallel transport.
    """
    n = ph0.n

    def flow_map(y0: np.ndarray) -> np.ndarray:
        traj = integrate_isomonodromic(cfg, _unpack(y0, n), tau_path, icfg,
                                       samples=1)
        if traj.diagnostics.truncated:
            raise IntegrationError(
                "flow map truncated under perturbation: " +
                traj.diagnostics.message)
        return _pack(traj.states[-1])

    M = _central_differences(flow_map, _pack(ph0))
    omega0 = canonical_pairing(n)
    return float(np.max(np.abs(M.T @ omega0 @ M - omega0)))
