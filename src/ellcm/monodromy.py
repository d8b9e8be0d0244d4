"""Monodromy transport of the fundamental solution around the torus cycles.

The frame Psi solves dPsi/dz = L(z) Psi along polyline paths (quasi-periodic
gauge: the periodic gauge would puncture paths with apparent singularities
at the zeros of x(q_j, z)).  The triple is built at one base only,
base = default_base(tau) = (1 + tau)/4; with Psi(base) = identity,

    M1   = Psi(base + 1)                      (A cycle)
    Mtau = exp(-2 pi i Q) Psi(base + tau)     (B cycle, twist Q = diag(q))
    M0   = Psi_leg^{-1} Psi_poly Psi_leg      (pole loop)

for a positively oriented loop at the pole z = 0: Psi_leg transports along
the radial leg from the base point to the entry vertex of a polygon of
POLE_LOOP_SEGMENTS sides and radius `_loop_radius(tau)` around 0, and
Psi_poly once around that polygon, from the entry vertex back to it.  The
loop base -> polygon -> base returns along the leg reversed, whose
transport is exactly Psi_leg^{-1}, so the leg is transported once and M0
formed by one linear solve.  At small radii the leg takes nearly all the
panels of the loop (L ~ 1/z at its inner end), so this about halves the
cost of M0 there.  Any radius below the shortest period gives this M0.

Orientation bookkeeping for the cubic relation: translating the A segment
by tau conjugates its transport by exp(2 pi i Q), and composing the four
sides of the cell walk base -> base+tau -> base+tau+1 -> base+1 -> base
(a negatively oriented loop around the pole copy at 1 + tau) yields
M1^{-1} Mtau^{-1} M1 Mtau.  The positively oriented pole loop at 0 used
here therefore satisfies

    M0 = Mtau M1 Mtau^{-1} M1^{-1},

which is the form `cubic_relation_residual` evaluates; the two commutator
orderings printed in the literature correspond to the two cycle-orientation
conventions and are inverse to each other.  It holds for the class of
the straight cycles from (1 + tau)/4, on the lines b = 1/4 and a = 1/4 of
the basis (1, tau) at every tau.  From other bases they can change class
(at tau = 1.3+0.8i, base 0.4+0.35i misses by 24), so the triple takes no
base; `transport` over a `PathSpec` reaches any other.

Transport is a sixth-order Magnus method (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros 2009).  Each segment [a, b] of a path is cut into N
uniform panels of complex step h = (b - a)/N.  On a panel, L is sampled at
the three Gauss-Legendre nodes, giving A1, A2, A3, and

    a1 = h A2,  a2 = (sqrt(15) h / 3) (A3 - A1),  a3 = (10 h / 3) (A3 - 2 A2 + A1),
    C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240;

the panel propagator exp(Omega) comes from scaling and squaring, and the
panels are multiplied as a tree, later panels on the left.  The stacks of
panel matrices are laid out (n, n, P), the P panels on the last axis, and
every product sums x[:, j] y[j, :] over j, n elementwise products of whole
rows (`_mul`): numpy's batched `@` costs about 0.25 us per small matrix,
the elementwise sums about 25 ns (2 x 2 complex, 288 panels: 73 us
against 7 us on one core of an x86-64 host).  L depends on z
alone, so every node is known in advance: the nodes of all open segments
go into one `lax_L_quasi_batch` call and one Magnus pass, each for a run of
refinement levels (`_batch_levels`).  N starts at PANELS = 4; every
segment is transported with N and 2N panels and is accepted when
||Psi_2N - Psi_N||_max <= abs_tol + rel_tol ||Psi_2N||_max.
The segments that fail are doubled again, together.  An accepted segment
keeps Psi_2N, whose error is about 1/63 of that difference for a
sixth-order method, so the criterion bounds the error rather than
estimating it.  Commutators are traceless and tr L = sum p, so
tr Omega = h sum p exactly and det Psi = exp((b - a) sum p) up to
rounding; the identities det M0 = 1, det M1 = exp(sum p) and
det Mtau = exp(-2 pi i sum q) exp(tau sum p) are therefore a free monitor
of the transport.  The polygon is closed, so the steps of its sides sum to
zero and det Psi_poly = 1; the conjugation by Psi_leg keeps the
determinant, so det M0 = 1 holds whatever the leg's transport error.

`monodromy_data` is the one entry point for the triple, and `transport`
for one path: a cycle alone is its `_straight` path (A, or B before
`_twisted`) or `_pole_loop` with `_pole_monodromy`.  The triple runs one
refinement loop for all three cycles (pole loop, A, B).  A run of levels
shares one L call when no open segment is expected to pass before the
run's last level: the README triple at rel_tol 1e-11 takes 3 L calls,
for the levels {4, 8}, {16, 32, 64} and {128}, where one call per level
takes 6 (and three separate loops of one call per level 5 + 6 + 6).
Each level is still refined, accepted and tested for stagnation in turn,
each segment as if its path were alone, so the triple equals the three
separate transports exactly, and max_steps is a budget of panels for
each path separately.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .calogero import CMConfig, PhasePoint, lax_L_quasi_batch
from .elliptic import (
    POLE_EXCLUSION_RADIUS,
    TWO_PI_I,
    _segment_lattice_distances,
    _shortest_period,
)
from .errors import IntegrationError, PathError, PoleProximityError, UsageError
from .flow import TIGHT, IntegratorConfig, integrate_isomonodromic

#: Magnus panels per segment at the first refinement level.
PANELS = 4
#: Segments and radius of the pole loop (where it fits, `_loop_radius`),
#: and clearance of the A and B cycles.
POLE_LOOP_SEGMENTS = 32
POLE_LOOP_RADIUS = 0.1
CYCLE_CLEARANCE = 1e-2
#: Most panels whose nodes go into one L call (12288 nodes).
_CHUNK = 4096
#: A later L batch (`_batch_levels`) takes another refinement level only
#: while it keeps to _BATCH_PANELS panels and every open segment's last
#: N/2N difference, divided by _ORDER_FALL = 2^6 (sixth order) for each
#: level ahead, stays above _MARGIN times its tolerance.
_BATCH_PANELS = 512
_ORDER_FALL = 64.0
_MARGIN = 4.0

_EPS = np.finfo(float).eps
_SQRT15 = math.sqrt(15.0)
#: Gauss-Legendre nodes of order 6 on [0, 1].
_GL_NODES = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0])
#: Taylor coefficients 1/j! of exp, j = 0..15, as rows of four (the
#: cubic blocks of the Paterson-Stockmeyer scheme in `_expm`).
_EXP_COEFFS = tuple(tuple(1.0 / math.factorial(4 * i + r) for r in range(4))
                    for i in range(4))


@dataclass(frozen=True)
class PathSpec:
    """A polyline of finite waypoints with a minimum clearance from lattice
    points, at least POLE_EXCLUSION_RADIUS: a path that keeps it brings no
    Gauss-Legendre node of its transport within the radius of a pole."""

    waypoints: tuple[complex, ...]
    pole_clearance: float = 1e-3

    def __post_init__(self):
        w = tuple(complex(p) for p in self.waypoints)
        if len(w) < 2:
            raise PathError("a path needs at least two waypoints")
        for p in w:
            if not cmath.isfinite(p):
                raise PathError(f"waypoint {p} is not finite")
        for a, b in zip(w, w[1:]):
            if a == b:
                raise PathError("consecutive waypoints must be distinct")
        if not POLE_EXCLUSION_RADIUS <= self.pole_clearance < math.inf:
            raise PathError(
                f"pole clearance {self.pole_clearance} is not a finite number "
                f"of at least {POLE_EXCLUSION_RADIUS}")
        object.__setattr__(self, "waypoints", w)

    def validate(self, tau: complex) -> None:
        """Check every segment keeps its clearance from Z + tau Z."""
        w = np.array(self.waypoints)
        self._check_clearance(_segment_lattice_distances(w[:-1], w[1:], tau))

    def _check_clearance(self, d: np.ndarray) -> None:
        """Raise PathError for the first segment whose lattice distance,
        d[i] for segment i, is below the clearance."""
        bad = np.flatnonzero(d < self.pole_clearance)
        if bad.size:
            i = bad[0]
            raise PathError(
                f"segment [{self.waypoints[i]}, {self.waypoints[i + 1]}] "
                f"passes within {d[i]:.3e} of a lattice point "
                f"(clearance {self.pole_clearance})")


@dataclass(frozen=True, eq=False)
class MonodromyData:
    """The triple (M0, M1, Mtau) in the frame Psi(base) = identity."""

    M0: np.ndarray
    M1: np.ndarray
    Mtau: np.ndarray
    base_point: complex
    #: What the refinement loop did, for `monodromy_data`'s triples: per
    #: cycle ("pole", "A", "B") its `_diagnostics`, and the triple's
    #: "l_batches" and "l_nodes".
    transport: dict | None = None


def default_base(tau: complex) -> complex:
    """(1 + tau)/4: generic, away from 0 and the half-periods."""
    return (1.0 + tau) / 4.0


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of each pair of matrices in the stacks x and y, laid out
    (n, n, ...) with the stack on the trailing axes: the sum over j of
    x[:, j] y[j, :], one elementwise product per j."""
    z = x[:, 0, None] * y[0]
    for j in range(1, x.shape[1]):
        z += x[:, j, None] * y[j]
    return z


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _mul(x, y) - _mul(y, x)


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each matrix in the stack x of shape (n, n, P), by scaling and
    squaring.

    Each matrix is scaled by 2^-s to 1-norm at most 1/2, where the
    degree-16 Taylor polynomial is exact to 4e-20 relative, and then
    squared s times.  The polynomial is evaluated by Paterson-Stockmeyer,
    as a polynomial in x^4 whose coefficients are cubics in x, the x^16
    term added to the last of them: six matrix products.  The cubics are
    elementwise sums, so no complex BLAS product runs (see the `elliptic`
    module docstring on the AVX-512 state).
    """
    norm = np.abs(x).sum(axis=0).max(axis=0)
    s = np.maximum(np.frexp(2.0 * norm)[1], 0)
    x = x / np.ldexp(1.0, s)
    x2 = _mul(x, x)
    x3 = _mul(x2, x)
    x4 = _mul(x2, x2)
    diag = np.arange(len(x))
    e = x4 / math.factorial(16)
    for i, (c0, c1, c2, c3) in enumerate(_EXP_COEFFS[::-1]):
        block = c1 * x
        block[diag, diag] += c0
        block += c2 * x2
        block += c3 * x3
        e = e + block if i == 0 else _mul(e, x4) + block
    for k in range(int(s.max(initial=0))):
        sq = s > k
        es = e[..., sq]
        e[..., sq] = _mul(es, es)
    return e


def _magnus(L: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(Omega) of each panel from L at its three Gauss-Legendre nodes,
    L of shape (P, 3, n, n) as `lax_L_quasi_batch` returns it, panel steps
    h of shape (P,); the result is laid out (n, n, P)."""
    # one copy into the layout, so that every later pass reads whole rows
    A1, A2, A3 = np.ascontiguousarray(np.moveaxis(L, (0, 1), (-1, 0)))
    a1 = h * A2
    a2 = (_SQRT15 / 3.0) * h * (A3 - A1)
    a3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    c1 = _commutator(a1, a2)
    c2 = -_commutator(a1, 2.0 * a3 + c1) / 60.0
    omega = (a1 + a3 / 12.0
             + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)
    return _expm(omega)


def _segment_transports(cfg: CMConfig, ph: PhasePoint, a: np.ndarray,
                        b: np.ndarray, levels: list[int]) -> list[np.ndarray]:
    """Magnus transport over each segment [a_i, b_i] cut into N uniform
    panels, for each N (a power of two) of ``levels``: one stack of shape
    (segments, n, n) per level.

    The nodes of every level and segment go into one L call, or one per
    _CHUNK panels on the deep levels that only a tolerance out of reach
    gets to, so that memory stays bounded, and then through one Magnus
    pass.  A panel's propagator depends on its own nodes alone, so each
    level's stack is the one it gives alone.  The panels of a level are
    laid out (n, n, segments, N) for the tree product.
    """
    n = ph.n
    h = [(b - a) / panels for panels in levels]
    starts = np.concatenate([(a[:, None] + step[:, None] * np.arange(panels))
                             .reshape(-1) for panels, step in zip(levels, h)])
    steps = np.concatenate([np.repeat(step, panels)
                            for panels, step in zip(levels, h)])
    U = np.empty((n, n, starts.size), dtype=complex)
    for i in range(0, starts.size, _CHUNK):
        part = slice(i, i + _CHUNK)
        nodes = starts[part, None] + steps[part, None] * _GL_NODES
        try:
            L = lax_L_quasi_batch(cfg, ph, nodes.reshape(-1))
        except PoleProximityError as exc:  # two bodies collide
            raise PathError(f"transport truncated: {exc}") from exc
        U[..., part] = _magnus(L.reshape(-1, 3, n, n), steps[part])
    out, end = [], 0
    for panels in levels:
        start, end = end, end + len(a) * panels
        V = U[..., start:end].reshape(n, n, len(a), panels)
        while V.shape[-1] > 1:  # tree product, later panels on the left
            V = _mul(V[..., 1::2], V[..., 0::2])
        out.append(np.moveaxis(V[..., 0], -1, 0))
    return out


def transport(cfg: CMConfig, ph: PhasePoint, path: PathSpec,
              icfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Solve dPsi/dz = L(z) Psi along the polyline; Psi = identity at start.

    Each segment doubles its Magnus panels from PANELS until its N/2N
    difference passes (module docstring) and keeps its finer result.
    Raises, instead of returning a partial Psi, UsageError for a
    non-finite q or p before any L is built, PathError when the path
    leaves its clearance or two bodies collide, and IntegrationError past
    max_steps panels or once a segment's difference stops shrinking within
    2N eps ||Psi_2N||_max (rounding: no refinement meets the tolerance).
    """
    return _product(_transport_paths(cfg, ph, (path,), icfg)[0][0])


def _batch_levels(panels: int, last: np.ndarray, tol: np.ndarray,
                  segments: np.ndarray, spent: np.ndarray,
                  max_steps: int) -> list[int]:
    """The panel counts of the next L batch: ``panels``, and each doubling
    after it while no open segment is expected to be accepted before it.

    ``last`` and ``tol`` are the open segments' last N/2N difference and
    its tolerance, ``segments`` the open segments of each path and
    ``spent`` each path's panels up to ``panels``.  The first batch holds
    PANELS and 2 PANELS: PANELS alone is never accepted.  A later batch
    takes another level while every difference, divided by _ORDER_FALL for
    each level ahead, stays above _MARGIN times its tolerance, and while
    the batch keeps to _BATCH_PANELS.  Where convergence is erratic the
    prediction fails, and the cap bounds what it wastes: the B cycle at
    tau = 17.3+0.8i falls by 0.5 to 4e5 per level, and without the cap its
    triple takes 223,068 L nodes where one level per batch takes 112,092.
    No level joins that would take a path past max_steps with every
    segment open now, so no level past the budget is computed.
    """
    levels = [panels]
    while True:
        nxt = 2 * levels[-1]
        if panels == PANELS:
            grow = len(levels) == 1
        else:
            grow = (np.all(last > _MARGIN * tol * _ORDER_FALL ** len(levels))
                    and segments.sum() * (sum(levels) + nxt) <= _BATCH_PANELS)
        if not grow or (spent + segments * (sum(levels[1:]) + nxt)
                        ).max() > max_steps:
            return levels
        levels.append(nxt)


def _transport_paths(cfg: CMConfig, ph: PhasePoint,
                     paths: tuple[PathSpec, ...],
                     icfg: IntegratorConfig
                     ) -> tuple[list[np.ndarray], list[dict], int, int]:
    """The transports of every segment of each path, first segment first,
    as one (segments, n, n) stack per path, in one refinement loop; then
    each path's `_diagnostics`, and the loop's L batches and L nodes.

    The open segments of all paths are refined together, a run of levels
    (`_batch_levels`) per `_segment_transports` call and L batch, each
    stack the one its path alone gives (module docstring).  The levels of
    a batch are budget-checked, compared, accepted and tested for
    stagnation in level order, so errors come in level order, not path
    order: a non-finite q or p is a UsageError first; then every path is
    validated before any transport (the segments of all paths in one
    `_segment_lattice_distances` pass, the first failing path raising as
    its `PathSpec.validate` would), so that no node comes near a pole;
    then each level raises, in this order, for a path past its budget
    (before any L of that level is built), for a collision (PathError
    naming the pair) and for the first stagnating segment, in path order
    within each test.  A later path that fails at a shallower level wins
    over an earlier path that would fail deeper.
    """
    if not (np.isfinite(ph.q).all() and np.isfinite(ph.p).all()):
        raise UsageError("q and p must be finite for a transport")
    n = ph.n
    w = [np.array(path.waypoints) for path in paths]
    a = np.concatenate([x[:-1] for x in w])
    b = np.concatenate([x[1:] for x in w])
    owner = np.repeat(np.arange(len(paths)), [x.size - 1 for x in w])
    d = _segment_lattice_distances(a, b, cfg.tm.tau)
    for p, path in enumerate(paths):
        path._check_clearance(d[owner == p])
    done = np.empty((a.size, n, n), dtype=complex)
    accepted = np.zeros(a.size, dtype=int)  # panels of each accepted result
    ratio = np.zeros(a.size)  # its difference over its tolerance
    active = np.arange(a.size)
    last = np.full(a.size, np.inf)  # the previous level's differences
    last_tol = np.zeros(a.size)  # and their tolerances
    spent = np.zeros(len(paths), dtype=int)  # panels per path
    panels, coarse = PANELS, None
    pending, batches, nodes = [], 0, 0
    while active.size:
        segments = np.bincount(owner[active], minlength=len(paths))
        spent += panels * segments
        if spent.max() > icfg.max_steps:
            raise IntegrationError(
                f"transport exceeded max_steps = {icfg.max_steps} panels")
        if not pending:
            levels = _batch_levels(panels, last, last_tol, segments, spent,
                                   icfg.max_steps)
            batch = active
            pending = _segment_transports(cfg, ph, a[batch], b[batch],
                                          levels)
            batches += 1
            nodes += _GL_NODES.size * batch.size * sum(levels)
        fine = pending.pop(0)[np.searchsorted(batch, active)]
        if coarse is not None:
            err = np.abs(fine - coarse).max(axis=(1, 2))
            norm = np.abs(fine).max(axis=(1, 2))
            tol = icfg.abs_tol + icfg.rel_tol * norm
            ok = err <= tol
            stuck = ~ok & (err >= last) & (err <= panels * _EPS * norm)
            if stuck.any():
                i = np.flatnonzero(stuck)[0]
                raise IntegrationError(
                    f"transport stagnated on segment [{a[active[i]]}, "
                    f"{b[active[i]]}]: the difference {err[i]:.3e} at "
                    f"{panels} panels stopped shrinking at rounding level, "
                    f"above the tolerance {tol[i]:.3e}")
            done[active[ok]] = fine[ok]
            accepted[active[ok]] = panels
            ratio[active[ok]] = err[ok] / tol[ok]
            active, fine = active[~ok], fine[~ok]
            last, last_tol = err[~ok], tol[~ok]
        coarse = fine
        panels *= 2
    return ([done[owner == p] for p in range(len(paths))],
            [_diagnostics(accepted[owner == p], ratio[owner == p])
             for p in range(len(paths))], batches, nodes)


def _diagnostics(accepted: np.ndarray, ratio: np.ndarray) -> dict:
    """A path's segments, largest accepted panel count, refinement levels
    reached and largest accepted N/2N difference over the tolerance, from
    its segments' accepted panel counts and differences over tolerance."""
    top = int(accepted.max())
    return {"segments": accepted.size, "max_panels": top,
            "levels": top.bit_length() - PANELS.bit_length() + 1,
            "max_diff_over_tol": float(ratio.max())}


def _product(U: np.ndarray) -> np.ndarray:
    """Psi at the end of a path from its segments' transports U, later
    segments on the left."""
    psi = U[0]
    for u in U[1:]:
        psi = u @ psi
    return psi


def _straight(a: complex, b: complex) -> PathSpec:
    return PathSpec((a, b), pole_clearance=CYCLE_CLEARANCE)


def _twisted(ph: PhasePoint, psi: np.ndarray) -> np.ndarray:
    """Mtau = exp(-2 pi i Q) Psi(base + tau) from the B-cycle transport."""
    return np.diag(np.exp(-TWO_PI_I * ph.q)) @ psi


def _loop_clearance(radius: float) -> float:
    """The pole loop's clearance from the lattice, no more than the
    cycles'.  Clearance along the loop is bounded by the polygon's chord
    sag; the guard is well below the radius."""
    return min(0.5 * radius, CYCLE_CLEARANCE)


def _loop_radius(tau: complex) -> float:
    """POLE_LOOP_RADIUS where that loop with its clearance stays short of
    every lattice point but 0 (a larger one would enclose another, with a
    wrong M0 that keeps every det identity), else half the shortest period;
    UsageError naming tau off the upper half-plane or if that is <= 1e-3."""
    if not tau.imag > 0:
        raise UsageError(f"tau = {tau} must lie in the upper half-plane")
    shortest = _shortest_period(tau)
    if POLE_LOOP_RADIUS + _loop_clearance(POLE_LOOP_RADIUS) < shortest:
        return POLE_LOOP_RADIUS
    if not shortest > 2e-3:
        raise UsageError(
            f"no pole loop fits at tau = {tau}: its radius, half the "
            f"shortest period {shortest:.6g}, must be above 1e-3")
    return 0.5 * shortest


def _pole_loop(base: complex, radius: float) -> PathSpec:
    """The radial leg from the base point to the entry vertex, then the
    positively oriented polygon of POLE_LOOP_SEGMENTS sides and the given
    radius around z = 0, closed exactly at the entry vertex; its radius is
    the caller's to check (`_loop_radius`).

    Leg and polygon are one path, so they share the pole cycle's panel
    budget; `_pole_monodromy` conjugates the polygon's transport by the
    leg's instead of transporting the leg back.
    """
    phase0 = math.atan2(base.imag, base.real)
    step = 2 * math.pi / POLE_LOOP_SEGMENTS
    polygon = [radius * complex(math.cos(phase0 + step * k),
                                math.sin(phase0 + step * k))
               for k in range(POLE_LOOP_SEGMENTS)]
    return PathSpec((base, *polygon, polygon[0]),
                    pole_clearance=_loop_clearance(radius))


def _pole_monodromy(U: np.ndarray) -> np.ndarray:
    """M0 = Psi_leg^{-1} Psi_poly Psi_leg from the segment transports of
    `_pole_loop`, the leg first: the loop base -> polygon -> base with the
    return leg the inbound leg reversed."""
    leg = U[0]
    return np.linalg.solve(leg, _product(U[1:]) @ leg)


def monodromy_data(cfg: CMConfig, ph: PhasePoint,
                   icfg: IntegratorConfig = IntegratorConfig()
                   ) -> MonodromyData:
    """The triple (M0, M1, Mtau) from base = (1 + tau)/4 alone: the pole
    loop of radius `_loop_radius(tau)` and the A and B cycles, transported
    in one refinement loop (module docstring), raising as those two do."""
    tau = cfg.tm.tau
    base = default_base(tau)
    (U0, U1, Ub), cycles, batches, nodes = _transport_paths(
        cfg, ph, (_pole_loop(base, _loop_radius(tau)),
                  _straight(base, base + 1.0),
                  _straight(base, base + tau)), icfg)
    return MonodromyData(M0=_pole_monodromy(U0), M1=_product(U1),
                         Mtau=_twisted(ph, _product(Ub)), base_point=base,
                         transport={**dict(zip(("pole", "A", "B"), cycles)),
                                    "l_batches": batches, "l_nodes": nodes})


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


#: Largest determinant residual (`det_residuals`) of a report that holds.
#: The residuals sit at rounding level whatever the transport tolerance
#: (at most 3e-14 on the triples of tools/cli_cmp.sh, and 2e-15 on the
#: README triple at rel_tol 0.5), until the rounding of det itself grows
#: with the condition of M: 1.2e-5 to 2.2e-5 for M0 of n = 8 triples at
#: g = 0.5, tau = 0.05+i, whose condition number is 8.6e10.  1e-3 lies
#: above both.  The bound also fails a correct triple whose det is
#: ill-conditioned: on the 17-cell B cycle at tau = 17.3+0.8i the Mtau
#: residual reads 4.8, while the triple's inverse-free backward error is
#: 1.4e-13.  There entries up to 5.6e7 cancel to det Mtau = 0.07, so the
#: rounding of det Mtau alone, eps |Mtau_00 Mtau_11| / |det Mtau|, is 4.80.
DET_RESIDUAL_BOUND = 1e-3


def det_residuals(md: MonodromyData, ph: PhasePoint, tau: complex
                  ) -> dict[str, float]:
    """Relative residuals of the exact identities det M0 = 1,
    det M1 = e^{sum p} and det Mtau = e^{-2 pi i sum q} e^{tau sum p}: a
    free monitor of the transport error."""
    sq, sp = complex(ph.q.sum()), complex(ph.p.sum())
    expect = {"M0": 1.0, "M1": np.exp(sp),
              "Mtau": np.exp(-2j * np.pi * sq) * np.exp(tau * sp)}
    return {key: float(abs(np.linalg.det(getattr(md, key)) - e) / abs(e))
            for key, e in expect.items()}


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
    matching.  The sorted distances are bisected (repeated values do not
    move the threshold found), each threshold tested by augmenting paths:
    O(n^3 log n) instead of n! permutations.
    """
    ea = np.linalg.eigvals(A)
    eb = np.linalg.eigvals(B)
    dist = np.array([[abs(a - b) for b in eb] for a in ea])
    levels = np.sort(dist, axis=None)
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


def check_drift_step(dtau: complex, tau0: complex) -> None:
    """UsageError unless 0 < |dtau| <= 1e-2, the steps of the drift
    probe, and a pole loop fits at tau0 and tau0 + dtau (`_loop_radius`)."""
    if not 0.0 < abs(dtau) <= 1e-2 + 1e-15:
        raise UsageError(
            "|dtau| must be at most 1e-2 and nonzero for the drift probe")
    for tau in (tau0, tau0 + dtau):
        _loop_radius(tau)


def isomonodromy_drift(cfg: CMConfig, ph0: PhasePoint, tau0: complex,
                       dtau: complex,
                       icfg: IntegratorConfig = TIGHT,
                       md0: MonodromyData | None = None) -> float:
    """Spectral drift of (M0, M1, Mtau) across one isomonodromic step.

    Integrates the tau-flow from tau0 to tau0 + dtau and compares the
    monodromy spectra at both ends (spectra are frame-independent, so base
    point motion does not pollute the comparison).  The exact flow keeps
    the drift at transport-error level; the triple at tau0 is md0 if given.
    """
    check_drift_step(dtau, tau0)
    cfg0 = cfg.with_tau(tau0)
    if md0 is None:
        md0 = monodromy_data(cfg0, ph0, icfg)
    traj = integrate_isomonodromic(cfg0, ph0, (tau0, tau0 + dtau), icfg,
                                   samples=1)
    if traj.diagnostics.truncated:
        raise PathError("isomonodromic flow truncated: "
                        + traj.diagnostics.message)
    md1 = monodromy_data(cfg.with_tau(tau0 + dtau), traj.states[-1], icfg)
    return spectral_distance(md0, md1)
