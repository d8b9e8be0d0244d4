"""Elliptic Calogero-Moser Lax pair, Hamiltonians, and consistency checks.

Quasi-periodic gauge (entries built from the Lame kernel x and y = du x):

    L[j,j] = p_j                      L[j,k] = i g x(q_j - q_k, z)
    A[j,j] = i g sum_{k!=j} wp(q_j - q_k)   A[j,k] = i g y(q_j - q_k, z)

Periodic gauge: the quasi-periodic pair conjugated by
G = diag(x(q_1, z), ..., x(q_n, z)), plus a connection diagonal,

    L~ = G^{-1} L G - G^{-1} dG/dz,    A~ = G^{-1} A G + 2 pi i G^{-1} dG/dtau.

One builder, `_lax_quasi`, makes the quasi-periodic pair at any set of
spectral nodes z with one `elliptic.lame_array` call per node set, at
u = q_j - q_k: L alone (monodromy transport, `lax_L_quasi_batch`), or L,
A and dA/dz with the A diagonal wp(u) = c - rho'(u) summed once.
lax_L_quasi, lax_A_quasi and zero_curvature_residual are its one-node
cases, and quasi_periodicity_check passes z, z+1 and z+tau in one call.
G and the connections come from one more call, at u = q_j.

Equations of motion (the tau-flow right-hand sides, i.e. 2 pi i dq/dtau
and 2 pi i dp/dtau):

    dq_j = p_j,    dp_j = -g^2 sum_{k!=j} wp'(q_j - q_k, tau).

The force argument order q_j - q_k (not q_k - q_j) is the one consistent
with both -dH/dq_j of the Hamiltonian below and the zero-curvature
equation 2 pi i dL/dtau + dA/dz = [L, A]; the residual of that equation
is the authoritative check and vanishes to rounding by this choice.

Every pair enumeration reads one cached table, `_pair_index(n)`.  Pair sums
take one of two paths, chosen by the body count alone, with one set of ratio
laws (`elliptic._rho_ratios`: wp = c - rho', wp' = -rho'') and one order of
pole checks (every pair, in row order, before any sum).  Below
ARRAY_PAIRS_FROM bodies eom and H loop over the pairs (`_pair_points`), each
reduced once; from it on they read `_pair_arrays`, one `elliptic._rho_array`
pass like the one `lame_array` makes for the Lax entries.  The numpy pass
has a larger fixed cost per call and a smaller cost per pair than the loop,
so it wins from some body count on: whole flows put that crossover between
5 and 6 bodies (measurements in CHANGES.md).  The paths agree to rounding:
at Im tau = 0.08, where wp' cancels terms ~10^3 times its size, they differ
by ~1e-12 relative, as each does from mpmath.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .elliptic import (
    POLE_EXCLUSION_RADIUS,
    TWO_PI_I,
    TorusModulus,
    _lattice_distance_array,
    _lattice_distances,
    _reduce_checked_array,
    _rho_array,
    _rho_points,
    lame_array,
    weierstrass_constant,
    wp,
)
from .errors import GaugeSingularityError, UsageError

Gauge = Literal["quasi_periodic", "periodic"]

#: Body count from which the pair sums run on arrays (`_pair_arrays`), the
#: measured crossover of the two paths (module docstring).
ARRAY_PAIRS_FROM = 6


@dataclass(frozen=True)
class CMConfig:
    """Body count n, coupling g (the isomonodromic time, held fixed by the
    deformations), and the torus modulus."""

    n: int
    g: complex
    tm: TorusModulus

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"n must be at least 1, got {self.n}")
        object.__setattr__(self, "g", complex(self.g))
        if not cmath.isfinite(self.g):
            raise UsageError(f"g must be finite, got {self.g}")

    def with_tau(self, tau: complex) -> "CMConfig":
        return CMConfig(self.n, self.g, TorusModulus(tau))


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Positions and momenta (q_1..q_n, p_1..p_n) as complex vectors.

    With traceless=True the momenta are projected onto sum p_j = 0
    (center-of-mass frame, the su(n) reduction); default keeps the trace.
    """

    q: np.ndarray
    p: np.ndarray
    traceless: bool = False

    def __post_init__(self):
        q = np.asarray(self.q, dtype=complex).reshape(-1).copy()
        p = np.asarray(self.p, dtype=complex).reshape(-1).copy()
        if q.shape != p.shape:
            raise ValueError("q and p must have the same length")
        if self.traceless:
            p -= p.mean()
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size


@dataclass(frozen=True, eq=False)
class LocalExpansion:
    """Leading orders of L(z) = residue/z + constant + O(z) at the pole."""

    residue: np.ndarray
    constant: np.ndarray


@dataclass(frozen=True)
class QuasiPeriodicityReport:
    """Max entrywise residuals of the four cycle relations for (L, A)."""

    L_a_cycle: float
    L_b_cycle: float
    A_a_cycle: float
    A_b_cycle: float

    def max(self) -> float:
        return max(self.L_a_cycle, self.L_b_cycle,
                   self.A_a_cycle, self.A_b_cycle)


_PairIndex = collections.namedtuple("_PairIndex", "j k pairs rows cols name")


@functools.cache
def _pair_index(n: int) -> _PairIndex:
    """The pairs j < k of n bodies in row order, the table every pair
    enumeration reads: (j, k) as index arrays and as Python int pairs
    (``pairs``), the (``rows``, ``cols``) of the Lax entries, (j, k) then
    (k, j) for each pair, and ``name(i)``, pair i's name in a pole error."""
    j, k = np.triu_indices(n, 1)
    pairs = tuple(zip(j.tolist(), k.tolist()))
    names = tuple(f"q[{a}] - q[{b}]" for a, b in pairs)
    return _PairIndex(j, k, pairs, np.stack([j, k], 1).ravel(),
                      np.stack([k, j], 1).ravel(), names.__getitem__)


def _pair_arrays(cfg: CMConfig, q: np.ndarray, orders=(0, 1, 2)):
    """(j, k, ...) with [rho, rho', rho''][d] for each d in ``orders`` at
    u = q_j - q_k for all pairs of the positions q at once.  Only the theta
    series rows they need are summed: rho needs 2, rho' 3 and rho'' 4.  A
    pair within POLE_EXCLUSION_RADIUS raises PoleProximityError first."""
    t = _pair_index(q.size)
    return (t.j, t.k, *_rho_array(q[t.j] - q[t.k], cfg.tm, t.name, orders))


def _pair_points(cfg: CMConfig, q: np.ndarray, orders) -> list:
    """_pair_arrays pair by pair in scalar arithmetic, from
    `elliptic._rho_points`: (j, k, ...) for each pair in row order."""
    t = _pair_index(q.size)
    q = q.tolist()
    values = _rho_points([q[j] - q[k] for j, k in t.pairs], cfg.tm, t.name,
                         orders)
    return [(j, k, *v) for (j, k), v in zip(t.pairs, values)]


def _row_sums(n: int, j, k, upper, lower) -> np.ndarray:
    """Row sums of the n x n matrix with upper at (j, k) and lower at
    (k, j), taken as column sums of its transpose so that each row adds its
    entries left to right, in the order of the scalar loops."""
    out = np.zeros((n, n), dtype=complex)
    out[k, j] = upper
    out[j, k] = lower
    return out.sum(axis=0)


def min_separation(cfg: CMConfig, ph: PhasePoint) -> float:
    """Smallest reduced pairwise distance |q_j - q_k| mod the lattice."""
    return _min_separation(ph.q, cfg.tm.tau)


def _min_separation(q: np.ndarray, tau: complex) -> float:
    """min_separation of the positions q in the lattice Z + tau Z.  A
    non-finite position raises EllcmError."""
    t = _pair_index(q.size)
    if q.size >= ARRAY_PAIRS_FROM:
        return float(_lattice_distance_array(q[t.j] - q[t.k], tau).min())
    q = q.tolist()
    return min(_lattice_distances([q[j] - q[k] for j, k in t.pairs], tau),
               default=math.inf)


# ----------------------------------------------------------------------
# Lax matrices, quasi-periodic gauge
# ----------------------------------------------------------------------

def _lax_quasi(cfg: CMConfig, ph: PhasePoint, z, ratios: bool = False):
    """L of the quasi-periodic gauge at every node of the 1-D array z, shape
    (m, n, n), from one `lame_array` evaluation; with ``ratios``, (L, A,
    dA/dz), each of that shape.  The separations q_j - q_k are pole-checked
    first, as by `_pair_arrays` (unless g = 0 or n = 1).  Then, as by
    lame_x, z - u at a lattice point is a zero of an L entry, not a pole:
    without ``ratios`` only the separations and the nodes are
    pole-checked, with them z - u, u and z in that order as by lame_y, all
    before any series sum.  `lame_array` sums the series at the nodes and
    the separations alone and forms theta1(z - u) of every entry from
    their harmonics by one real matrix product (the separable sums of the
    `elliptic` module docstring), so the series work of a batch of m
    nodes grows with m + n(n - 1), not with m n(n - 1).
    wp(u) = c - rho'(u), and the A diagonal D is z-independent, so it is
    summed once and only y = -x (rho(u) + rho(z-u)) differentiates:

        dy/dz = -x (rho(z-u) - rho(z)) (rho(u) + rho(z-u)) - x rho'(z-u).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = ph.n
    diag = (slice(None), *np.diag_indices(n))
    L = np.zeros((z.size, n, n), dtype=complex)
    L[diag] = ph.p
    if cfg.g == 0 or n == 1:
        return (L, *np.zeros((2, *L.shape), dtype=complex)) if ratios else L
    t = _pair_index(n)
    _reduce_checked_array(ph.q[t.j] - ph.q[t.k], cfg.tm, t.name)
    rows, cols, ig = t.rows, t.cols, 1j * cfg.g
    at = lame_array(z, ph.q[rows] - ph.q[cols], cfg.tm, ratios)
    if not ratios:
        L[:, rows, cols] = ig * at
        return L
    x, (rho_u, rho_zu, rho_z), (rho_dz_u, rho_dz_zu, _), _ = at
    A, dA = np.zeros((2, *L.shape), dtype=complex)
    wp_u = weierstrass_constant(cfg.tm) - rho_dz_u[0]
    A[diag] = ig * _row_sums(n, t.j, t.k, wp_u[::2], wp_u[1::2])
    L[:, rows, cols] = ig * x
    A[:, rows, cols] = ig * (-x * (rho_u + rho_zu))
    dA[:, rows, cols] = ig * (-x * (rho_zu - rho_z) * (rho_u + rho_zu)
                              - x * rho_dz_zu)
    return L, A, dA


def lax_L_quasi(cfg: CMConfig, ph: PhasePoint, z: complex) -> np.ndarray:
    """P + i g sum_{j != k} x(q_j - q_k, z) E_jk."""
    return _lax_quasi(cfg, ph, [z])[0]


def lax_L_quasi_batch(cfg: CMConfig, ph: PhasePoint, z) -> np.ndarray:
    """lax_L_quasi at every node of the 1-D array z, shape (m, n, n): the
    L-only case of `_lax_quasi`, one `lame_array` evaluation without
    ratios, so a node within POLE_EXCLUSION_RADIUS of the lattice raises
    PoleProximityError for "z" before any series sum."""
    return _lax_quasi(cfg, ph, z)


def lax_A_quasi(cfg: CMConfig, ph: PhasePoint, z: complex) -> np.ndarray:
    """D + i g sum_{j != k} y(q_j - q_k, z) E_jk with
    D = i g diag(sum_{k != j} wp(q_j - q_k))."""
    return _lax_quasi(cfg, ph, [z], True)[1][0]


# ----------------------------------------------------------------------
# Periodic gauge
# ----------------------------------------------------------------------

def gauge_lame(cfg: CMConfig, ph: PhasePoint, z: complex) -> np.ndarray:
    """G = diag(x(q_1, z), ..., x(q_n, z)), as `_connections` builds it."""
    return np.diag(_connections(cfg, ph, z)[0])


def _conjugate(M: np.ndarray, gauge: np.ndarray,
               connection) -> np.ndarray:
    """G^{-1} M G plus diag(connection), G = diag(gauge): M_jk g_k / g_j off
    the diagonal and M_jj + connection_j on it."""
    out = M * gauge / gauge[:, None]
    out[np.diag_indices(gauge.size)] = M.diagonal() + connection
    return out


def _connections(cfg: CMConfig, ph: PhasePoint, z: complex):
    """(g, ell, kappa, y/x, rho, rho', rho'') from one `lame_array`
    evaluation at u = q_j: G's diagonal, the connections ell = -d_z g / g
    of L~ and kappa of A~ (lax_A_periodic), y/x, and the lists of ratios
    at q_j, z - q_j and z, each of the one node z.

    G must be invertible to change gauge, and x(q_j, z) vanishes where
    z - q_j is a lattice point: before any sum, the first body with z - q_j
    reduced within POLE_EXCLUSION_RADIUS of the lattice raises
    GaugeSingularityError (|x| is no measure: it scales by
    |exp(2 pi i q_j)| per B-period of z).
    """
    for j, dist in enumerate(_lattice_distances((z - ph.q).tolist(),
                                                cfg.tm.tau)):
        if dist < POLE_EXCLUSION_RADIUS:
            raise GaugeSingularityError(
                f"x(q[{j}], z) vanishes: z - q[{j}] is {dist:.3e} from the "
                "lattice; the Lame gauge is singular at this spectral point")
    x, *at = lame_array([z], ph.q, cfg.tm, True)
    rho, rho_dz, rho_d2z = ([v[0] for v in r] for r in at)
    y_x = -(rho[0] + rho[1])
    ell = rho[2] - rho[1]
    kappa = rho_dz[1] + y_x * (ph.p + ell)
    return x[0], ell, kappa, y_x, rho, rho_dz, rho_d2z


def lax_L_periodic(cfg: CMConfig, ph: PhasePoint, z: complex) -> np.ndarray:
    """G^{-1} L G - G^{-1} dG/dz with L = lax_L_quasi; doubly periodic in z."""
    return _conjugate(lax_L_quasi(cfg, ph, z), *_connections(cfg, ph, z)[:2])


def lax_A_periodic(cfg: CMConfig, ph: PhasePoint, z: complex) -> np.ndarray:
    """G^{-1} A G + 2 pi i G^{-1} (dG/dtau) with A = lax_A_quasi.

    dG/dtau is the total deformation derivative of the gauge: the entries
    x(q_j(tau), z; tau) move both explicitly in tau and through
    q_j' = p_j / (2 pi i), so

        (dG/dtau)_jj = d_tau x(q_j, z) + y(q_j, z) p_j / (2 pi i),

    and by the heat equation of lame_x_dtau the connection kappa_j =
    2 pi i (dG/dtau)_jj / x(q_j, z) is rho'(z - q_j) + (y/x) (p_j + ell_j),
    with ell_j = rho(z) - rho(z - q_j) and y/x = -(rho(q_j) + rho(z - q_j)).

    This (sign and total derivative) is the combination under which the
    periodic-gauge pair satisfies the zero-curvature equation; with the
    explicit partial alone, or the opposite sign, the residual is O(1).

    A-cycle: A(z+1) = A(z).  B-cycle: the twists cancel against the
    connection up to  A(z+tau) = A(z) + 2 pi i L(z)  with L the periodic
    Lax matrix (full B-periodicity does not hold).
    """
    A = lax_A_quasi(cfg, ph, z)
    gauge, _, kappa, *_ = _connections(cfg, ph, z)
    return _conjugate(A, gauge, kappa)


def quasi_periodicity_check(cfg: CMConfig, ph: PhasePoint, z: complex
                            ) -> QuasiPeriodicityReport:
    """Residuals of the four cycle relations of the quasi-periodic gauge:

        L(z+1) = L(z)
        L(z+tau) = E L(z) E^{-1},            E := exp(2 pi i Q)
        A(z+1) = A(z)
        A(z+tau) = E (A(z) + 2 pi i L(z)) E^{-1} - 2 pi i P
    """
    (L0, L1, Lt), (A0, A1, At), _ = _lax_quasi(
        cfg, ph, [z, z + 1, z + cfg.tm.tau], True)
    # E M E^{-1} is M conjugated by diag(exp(-2 pi i q))
    e_inv = np.exp(-TWO_PI_I * ph.q)
    res_L_b = Lt - _conjugate(L0, e_inv, 0.0)
    res_A_b = At - _conjugate(A0 + TWO_PI_I * L0, e_inv, -TWO_PI_I * ph.p)
    return QuasiPeriodicityReport(
        L_a_cycle=float(np.max(np.abs(L1 - L0))),
        L_b_cycle=float(np.max(np.abs(res_L_b))),
        A_a_cycle=float(np.max(np.abs(A1 - A0))),
        A_b_cycle=float(np.max(np.abs(res_A_b))),
    )


# ----------------------------------------------------------------------
# Local expansion at the simple pole
# ----------------------------------------------------------------------

def local_expansion(cfg: CMConfig, ph: PhasePoint) -> LocalExpansion:
    """L(z) = residue/z + constant + O(z) with

        residue  = -i g (ones - identity)
        constant = P + i g sum_{j != k} rho(q_j - q_k) E_jk.

    The off-diagonal constant carries +i g rho, from the expansion
    x(u, z) = -1/z + rho(u) + O(z).
    """
    n = ph.n
    residue = -1j * cfg.g * (np.ones((n, n), dtype=complex) - np.eye(n))
    constant = np.diag(ph.p.astype(complex))
    if cfg.g != 0:
        j, k, rho = _pair_arrays(cfg, ph.q, (0,))
        c = 1j * cfg.g * rho
        constant[j, k] = c
        constant[k, j] = -c  # rho is odd
    return LocalExpansion(residue=residue, constant=constant)


def residue_eigen(cfg: CMConfig) -> tuple[np.ndarray, np.ndarray]:
    """Explicit eigenvector matrix J and eigenvalue pattern V of the residue.

    Columns of J: e_{n-k+1} - e_1 for k = 1..n-1, then the all-ones vector;
    V = (-1, ..., -1, n-1), so residue @ J = J @ diag(-i g V).
    """
    n = cfg.n
    if n < 2:
        raise ValueError("residue eigenstructure needs n >= 2")
    J = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        J[0, k] = -1.0
        J[n - 1 - k, k] = 1.0
    J[:, n - 1] = 1.0
    V = np.concatenate([-np.ones(n - 1), [n - 1.0]]).astype(complex)
    residue = -1j * cfg.g * (np.ones((n, n), dtype=complex) - np.eye(n))
    check = residue @ J - J @ np.diag(-1j * cfg.g * V)
    if np.max(np.abs(check)) > 1e-12 * max(1.0, abs(cfg.g)):
        raise AssertionError("residue eigendecomposition failed to verify")
    return J, V


# ----------------------------------------------------------------------
# Hamiltonians and equations of motion
# ----------------------------------------------------------------------

def hamiltonian_cm(cfg: CMConfig, ph: PhasePoint) -> complex:
    """(1/2) sum p_j^2 + (g^2/2) sum_{k != j} wp(q_k - q_j), ordered pairs:
    g^2 times the sum over j < k, as wp is even."""
    total = 0.5 * complex(np.sum(ph.p * ph.p))
    if cfg.g == 0 or ph.n == 1:
        return total
    c = weierstrass_constant(cfg.tm)  # wp = c - rho'
    if ph.n >= ARRAY_PAIRS_FROM:
        pairs = np.sum(c - _pair_arrays(cfg, ph.q, (1,))[2])
    else:
        pairs = sum((c - r for _, _, r in _pair_points(cfg, ph.q, (1,))),
                    0j)
    return total + cfg.g * cfg.g * complex(pairs)


def hamiltonian_dtau(cfg: CMConfig, ph: PhasePoint) -> complex:
    """dH/dtau at frozen (q, p) in closed form, g^2 sum_{j < k} d_tau wp(u)
    at u = q_j - q_k from `_pair_arrays` at every n, where by the heat
    equation 4 pi i d_tau rho = rho'' + 2 rho rho' (rho unreduced),
    wp = c - rho' and wp'' = 6 wp^2 - g2/2,

        d_tau wp = c_tau - (2 (c - wp)^2 - wp'' - 2 rho wp') / (4 pi i),

    g2 = 2 (e1^2 + e2^2 + e3^2) from wp at the half-periods, and the
    constant c = -pi^2 E2 / 3 moves by c_tau = -(pi^2 / 3) 2 pi i
    (E2^2 - E4) / 12 (Ramanujan's dE2/dtau), E4 = 3 g2 / (4 pi^4).
    """
    if cfg.g == 0 or ph.n == 1:
        return 0j
    _, _, rho, rho_dz, rho_d2z = _pair_arrays(cfg, ph.q)
    tau, c = cfg.tm.tau, weierstrass_constant(cfg.tm)
    g2 = 2.0 * sum(wp(h, cfg.tm) ** 2 for h in (0.5, tau / 2, (1 + tau) / 2))
    wp_u = c - rho_dz
    wp_dz2 = 6.0 * wp_u * wp_u - g2 / 2.0
    c_tau = -1j * (12.0 * c * c - g2) / (24.0 * math.pi)
    rho_wp_dz = rho * -rho_d2z
    return cfg.g * cfg.g * complex(np.sum(
        c_tau - (2.0 * (c - wp_u) ** 2 - wp_dz2 - 2.0 * rho_wp_dz)
        / (2.0 * TWO_PI_I)))


def eom(cfg: CMConfig, ph: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """(dq, dp) with dq_j = p_j, dp_j = -g^2 sum_{k != j} wp'(q_j - q_k).

    These are the 2 pi i d/dtau right-hand sides; divide by 2 pi i for the
    tau-flow or use directly for the isospectral t-flow.
    """
    return ph.p.copy(), _force(cfg, ph.q)


def _force(cfg: CMConfig, q: np.ndarray) -> np.ndarray:
    """dp of eom at the positions q."""
    n = q.size
    if cfg.g == 0 or n == 1:
        return np.zeros(n, dtype=complex)
    if n >= ARRAY_PAIRS_FROM:
        j, k, rho_d2z = _pair_arrays(cfg, q, (2,))
        force = _row_sums(n, j, k, -rho_d2z, rho_d2z)  # wp' = -rho''
        return -(cfg.g * cfg.g) * force
    force = [0j] * n
    for j, k, rho_d2z in _pair_points(cfg, q, (2,)):
        force[j] -= rho_d2z  # wp' = -rho'' is odd
        force[k] += rho_d2z
    return -(cfg.g * cfg.g) * np.array(force)


# ----------------------------------------------------------------------
# Zero curvature
# ----------------------------------------------------------------------

def zero_curvature_residual(cfg: CMConfig, ph: PhasePoint, z: complex,
                            gauge: Gauge = "quasi_periodic") -> float:
    """Max entrywise magnitude of 2 pi i dL/dtau + dA/dz - [L, A], every
    derivative in closed form.

    dL/dtau is total along the tau-flow 2 pi i d(q, p)/dtau = eom = (dq, dp).
    Off the diagonal L also moves with tau itself, and by the heat equation
    of lame_x_dtau, 2 pi i d_tau x = -d_u d_z x = -d_z y, there
    2 pi i d_tau L = -dA/dz (on the diagonal dA/dz = 0):

        2 pi i dL_jk/dtau = A_jk (dq_j - dq_k) - dA_jk/dz,    dp_j for j = k.

    Periodic gauge: with s_jk = g_k / g_j, the connections ell and kappa of
    `_connections` and Ldot = dL/dtau above,

        dL~_jk/dtau = s_jk (Ldot_jk + L_jk (kappa_k - kappa_j) / 2 pi i),
        dA~_jk/dz   = s_jk (dA_jk/dz + A_jk (ell_j - ell_k)),

    and dp_j/dtau + d ell_j/dtau, d kappa_j/dz on the diagonal, by
    4 pi i d_tau rho = rho'' + 2 rho rho' at the unreduced rho.
    """
    if gauge not in ("quasi_periodic", "periodic"):
        raise ValueError(f"unknown gauge {gauge!r}")
    L, A, dA = (M[0] for M in _lax_quasi(cfg, ph, [z], True))
    dq, dp = eom(cfg, ph)
    L_dot = A * (dq[:, None] - dq) - dA  # 2 pi i dL/dtau
    L_dot[np.diag_indices(ph.n)] = dp
    if gauge == "periodic":
        g, ell, kappa, y_x, rho, rho1, rho2 = _connections(cfg, ph, z)
        # 4 pi i d_tau rho at z - q_j and z
        heat = [rho2[i] + 2.0 * rho[i] * rho1[i] for i in (1, 2)]
        L_dot = _conjugate(L_dot + L * (kappa - kappa[:, None]), g,
                           (heat[1] - heat[0]) / 2.0 + rho1[1] * ph.p)
        dA = _conjugate(dA + A * (ell[:, None] - ell), g,
                        rho2[1] - rho1[1] * (ph.p + ell)
                        + y_x * (rho1[2] - rho1[1]))
        L, A = _conjugate(L, g, ell), _conjugate(A, g, kappa)
    return float(np.max(np.abs(L_dot + dA - (L @ A - A @ L))))
