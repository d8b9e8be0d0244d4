"""Monodromy transport of the fundamental solution around the torus cycles.

The frame Psi solves dPsi/dz = L(z) Psi along polyline paths (quasi-periodic
gauge: the periodic gauge would puncture paths with apparent singularities
at the zeros of x(q_j, z)).  With Psi(base) = identity,

    M1   = Psi(base + 1)                      (A cycle)
    Mtau = exp(-2 pi i Q) Psi(base + tau)     (B cycle, twist Q = diag(q))
    M0   = transport around a positively oriented loop at the pole z = 0,
           entered radially from the base point.

Orientation bookkeeping for the cubic relation: translating the A segment
by tau conjugates its transport by exp(2 pi i Q), and composing the four
sides of the cell walk base -> base+tau -> base+tau+1 -> base+1 -> base
(a negatively oriented loop around the pole copy at 1 + tau) yields
M1^{-1} Mtau^{-1} M1 Mtau.  The positively oriented pole loop at 0 used
here therefore satisfies

    M0 = Mtau M1 Mtau^{-1} M1^{-1},

which is the form `cubic_relation_residual` evaluates; the two commutator
orderings printed in the literature correspond to the two cycle-orientation
conventions and are inverse to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calogero import CMConfig, PhasePoint, lax_L_quasi
from .elliptic import lattice_distance, reduce_to_cell
from .errors import PathError
from .flow import Diagnostics, IntegratorConfig, integrate_isomonodromic, integrate_segment

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class PathSpec:
    """A polyline with a minimum clearance from lattice points."""

    waypoints: tuple[complex, ...]
    pole_clearance: float = 1e-3

    def __post_init__(self):
        w = tuple(complex(p) for p in self.waypoints)
        if len(w) < 2:
            raise PathError("a path needs at least two waypoints")
        for a, b in zip(w, w[1:]):
            if a == b:
                raise PathError("consecutive waypoints must be distinct")
        object.__setattr__(self, "waypoints", w)

    def validate(self, tau: complex) -> None:
        """Check every segment keeps its clearance from Z + tau Z."""
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            d = _segment_lattice_distance(a, b, tau)
            if d < self.pole_clearance:
                raise PathError(
                    f"segment [{a}, {b}] passes within {d:.3e} of a "
                    f"lattice point (clearance {self.pole_clearance})")


def _segment_lattice_distance(a: complex, b: complex, tau: complex) -> float:
    """Minimum distance from the segment [a, b] to the lattice."""
    # Enough to check lattice points near the segment's bounding box.
    best = math.inf
    steps = max(8, int(4 * abs(b - a)))
    for i in range(steps + 1):
        t = i / steps
        z = a + t * (b - a)
        # distance from z to lattice, then refine with exact projection
        best = min(best, lattice_distance(z, tau))
    # Exact refinement: project nearby lattice points onto the segment.
    d = b - a
    dd = (d * d.conjugate()).real
    for i in range(steps + 1):
        z = a + (i / steps) * (b - a)
        _, m, n = reduce_to_cell(z, tau)
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                lam = (m + dm) + (n + dn) * tau
                t = ((lam - a) * d.conjugate()).real / dd
                t = min(1.0, max(0.0, t))
                best = min(best, abs(a + t * d - lam))
    return best


@dataclass(frozen=True, eq=False)
class MonodromyData:
    """The triple (M0, M1, Mtau) in the frame Psi(base) = identity."""

    M0: np.ndarray
    M1: np.ndarray
    Mtau: np.ndarray
    base_point: complex
    Q: np.ndarray  # diag(q), the B-cycle twist bookkeeping


def default_base(tau: complex) -> complex:
    """(1 + tau)/4: generic, away from 0 and the half-periods."""
    return (1.0 + tau) / 4.0


def transport(cfg: CMConfig, ph: PhasePoint, path: PathSpec,
              icfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Solve dPsi/dz = L(z) Psi along the polyline; Psi = identity at start.

    Raises PathError when a segment comes back truncated (a pole or a
    collapsed step inside the integrator) instead of returning a partial
    Psi.
    """
    tau = cfg.tm.tau
    path.validate(tau)
    n = cfg.n
    psi = np.eye(n, dtype=complex)
    diag = Diagnostics()
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        length = abs(b - a)
        direction = (b - a) / length

        def f(s, y, a=a, direction=direction):
            z = a + direction * s
            L = lax_L_quasi(cfg, ph, z)
            return direction * (L @ y.reshape(n, n)).reshape(-1)

        y = integrate_segment(f, psi.reshape(-1), length, icfg, diag)
        if diag.truncated:
            raise PathError(f"transport truncated on segment [{a}, {b}]: "
                            + diag.message)
        psi = y.reshape(n, n)
    return psi


def _straight(a: complex, b: complex, clearance: float) -> PathSpec:
    return PathSpec((a, b), pole_clearance=clearance)


def monodromy_A(cfg: CMConfig, ph: PhasePoint, base: complex | None = None,
                icfg: IntegratorConfig = IntegratorConfig(),
                clearance: float = 1e-2) -> np.ndarray:
    """M1 = Psi(base + 1) with Psi(base) = identity (L is 1-periodic)."""
    tau = cfg.tm.tau
    if base is None:
        base = default_base(tau)
    return transport(cfg, ph, _straight(base, base + 1.0, clearance), icfg)


def monodromy_B(cfg: CMConfig, ph: PhasePoint, base: complex | None = None,
                icfg: IntegratorConfig = IntegratorConfig(),
                clearance: float = 1e-2) -> np.ndarray:
    """Mtau = exp(-2 pi i Q) Psi(base + tau), from the twist relation
    Psi(z + tau) = exp(2 pi i Q) Psi(z) Mtau."""
    tau = cfg.tm.tau
    if base is None:
        base = default_base(tau)
    psi = transport(cfg, ph, _straight(base, base + tau, clearance), icfg)
    twist = np.diag(np.exp(-TWO_PI_I * ph.q))
    return twist @ psi


def monodromy_pole(cfg: CMConfig, ph: PhasePoint, radius: float = 0.1,
                   base: complex | None = None,
                   icfg: IntegratorConfig = IntegratorConfig(),
                   segments: int = 32) -> np.ndarray:
    """Positively oriented polygonal loop of given radius around z = 0,
    entered radially from the base point, reported in the base frame."""
    if not (1e-3 < radius < 0.3):
        raise ValueError(f"radius {radius} outside (1e-3, 0.3)")
    if segments < 16:
        raise ValueError("at least 16 segments required")
    tau = cfg.tm.tau
    if base is None:
        base = default_base(tau)
    entry = radius * base / abs(base)
    phase0 = math.atan2(entry.imag, entry.real)
    circle = [radius * complex(math.cos(phase0 + 2 * math.pi * k / segments),
                               math.sin(phase0 + 2 * math.pi * k / segments))
              for k in range(segments + 1)]
    circle[-1] = entry  # close the polygon exactly
    waypoints = [base] + circle + [base]
    # Clearance along the loop is bounded by the polygon's chord sag; use a
    # guard well below the radius.
    path = PathSpec(tuple(waypoints),
                    pole_clearance=min(0.5 * radius, 1e-2))
    return transport(cfg, ph, path, icfg)


def monodromy_data(cfg: CMConfig, ph: PhasePoint,
                   icfg: IntegratorConfig = IntegratorConfig(),
                   base: complex | None = None, radius: float = 0.1
                   ) -> MonodromyData:
    tau = cfg.tm.tau
    if base is None:
        base = default_base(tau)
    return MonodromyData(
        M0=monodromy_pole(cfg, ph, radius, base, icfg),
        M1=monodromy_A(cfg, ph, base, icfg),
        Mtau=monodromy_B(cfg, ph, base, icfg),
        base_point=complex(base),
        Q=np.diag(ph.q),
    )


def cubic_relation_residual(md: MonodromyData) -> float:
    """|| Mtau M1 Mtau^{-1} M1^{-1} - M0 ||_max.

    This is the puncture-equals-commutator relation of the once-punctured
    torus in the orientation convention of these transports (see module
    docstring); it is the relation a positively oriented pole loop
    satisfies against the forward A/B transports.
    """
    m1_inv = np.linalg.inv(md.M1)
    mt_inv = np.linalg.inv(md.Mtau)
    word = md.Mtau @ md.M1 @ mt_inv @ m1_inv
    return float(np.max(np.abs(word - md.M0)))


def _has_perfect_matching(adj: np.ndarray) -> bool:
    """Whether the bipartite graph with n x n adjacency adj matches every
    row, by augmenting paths (Kuhn's algorithm, O(n^3))."""
    n = len(adj)
    owner = [-1] * n  # owner[j]: row matched to column j

    def augment(i, seen):
        for j in np.flatnonzero(adj[i]):
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def eigenvalue_set_distance(A: np.ndarray, B: np.ndarray) -> float:
    """min over matchings sigma of max |lambda_i(A) - lambda_{sigma(i)}(B)|.

    A bottleneck assignment: the answer is the smallest pairwise distance t
    for which the pairs with |lambda_i - mu_j| <= t contain a perfect
    matching.  The sorted distances are bisected, each threshold tested by
    augmenting paths: O(n^3 log n) instead of n! permutations.
    """
    ea = np.linalg.eigvals(A)
    eb = np.linalg.eigvals(B)
    dist = np.array([[abs(a - b) for b in eb] for a in ea])
    levels = np.unique(dist)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def spectral_distance(md_a: MonodromyData, md_b: MonodromyData) -> float:
    """Max over {M0, M1, Mtau} of the eigenvalue set distance."""
    return max(
        eigenvalue_set_distance(md_a.M0, md_b.M0),
        eigenvalue_set_distance(md_a.M1, md_b.M1),
        eigenvalue_set_distance(md_a.Mtau, md_b.Mtau),
    )


def isomonodromy_drift(cfg: CMConfig, ph0: PhasePoint, tau0: complex,
                       dtau: complex,
                       icfg: IntegratorConfig = IntegratorConfig(
                           rel_tol=1e-11, abs_tol=1e-13)) -> float:
    """Spectral drift of (M0, M1, Mtau) across one isomonodromic step.

    Integrates the tau-flow from tau0 to tau0 + dtau and compares the
    monodromy spectra at both ends (spectra are frame-independent, so base
    point motion does not pollute the comparison).  The exact flow keeps
    the drift at transport-error level.
    """
    if abs(dtau) > 1e-2 + 1e-15:
        raise ValueError("|dtau| must be at most 1e-2 for the drift probe")
    cfg0 = cfg.with_tau(tau0)
    md0 = monodromy_data(cfg0, ph0, icfg)
    traj = integrate_isomonodromic(cfg0, ph0, (tau0, tau0 + dtau), icfg,
                                   samples=1)
    if traj.diagnostics.truncated:
        raise PathError("isomonodromic flow truncated: "
                        + traj.diagnostics.message)
    cfg1 = cfg.with_tau(tau0 + dtau)
    md1 = monodromy_data(cfg1, traj.states[-1], icfg)
    return spectral_distance(md0, md1)


def moduli_dimensions(n: int, s: int) -> tuple[int, int, int]:
    """(dim of the moduli space, dim of the character variety, and the
    displayed one-pole count).

    Returns (s n^2 + s n + s + 1, n (s n + 1), n^2 + n + 1).  Note the two
    displayed counts disagree by one at s = 1 (n^2 + n + 2 from the general
    formula vs n^2 + n + 1 for the one-pole display); both are reported
    verbatim, no reconciliation is attempted.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be at least 1")
    dim_moduli = s * n * n + s * n + s + 1
    dim_char = n * (s * n + 1)
    dim_single = n * n + n + 1
    return dim_moduli, dim_char, dim_single
