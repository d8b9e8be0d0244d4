"""High-accuracy elliptic kernels on the torus C/(Z + tau Z).

Everything is generated by the odd theta function

    theta1(z) = 2 * sum_{k>=0} (-1)^k nu^{(k+1/2)^2} sin((2k+1) pi z),
    nu = exp(i pi tau),  Im tau > 0,

whose terms decay like nu^{k^2}.  Arguments are first reduced modulo the
lattice and the exact quasi-periodicity prefactors are restored, so the
series always runs in its fast-convergence regime.  All derivatives are
term-wise analytic, in tau by the heat equation 4 pi i d theta1/dtau =
theta1''; finite differences serve only as independent oracles.

Truncation is fixed a priori, once per modulus.  Let q = |nu| =
exp(-pi Im tau) and let w be reduced, so |Im w| <= Im tau / 2.  Since
|sin|, |cos| of (2k+1) pi w are at most exp((2k+1) pi |Im w|), the k-th
term of the d-th derivative series is bounded by

    2 q^{(k+1/2)^2} ((2k+1) pi)^d exp((2k+1) pi |Im w|)
        <= E_d(w) (2k+1)^d q^{k^2},

where E_d(w) = 2 q^{1/4} pi^d exp(pi |Im w|) is the envelope of the
leading (k = 0) term and exp(2 k pi |Im w|) <= q^{-k} was used.  So for
every d <= 3 and every reduced w the tail after K terms is at most
E_d(w) R_K with R_K = sum_{k>=K} a_k, a_k = (2k+1)^3 q^{k^2}.  The ratio
a_{k+1}/a_k = ((2k+3)/(2k+1))^3 q^{2k+1} =: r_k decreases in k, hence
R_K <= a_K / (1 - r_K) once r_K < 1.  K is the smallest integer with
a_K / (1 - r_K) <= REL_TOL = 1e-14; it depends on tau alone, never on the
evaluation point (K = 4 at Im tau = 1, 13 at Im tau = 0.08).  If K would
exceed MAX_TERMS = 200 (Im tau below about 4.1e-4) a TruncationError is
raised.

The K coefficients 2 (-1)^k nu^{(k+1/2)^2} ((2k+1) pi)^d (d = 0..3),
theta1'(0), theta1'''(0) and the Weierstrass constant form a table that is
built lazily once per modulus and kept on the TorusModulus instance, so a
modulus dropped by its caller takes its table with it.  The three
constants come from cancellation-free forms, with x = nu^2:

    theta1'(0)   = 2 pi nu^{1/4} prod_{m>=1} (1 - x^m)^3,
    theta1'''(0) = -pi^2 E2 theta1'(0),  E2 = 1 - 24 sum_{m>=1} m x^m / (1 - x^m),

because the alternating series at z = 0 lose every digit as Im tau -> 0.

Arrays of points go through one range-checked sum of the same K terms,
`_series_sums`, by elementwise products: on an x86 host with AVX-512 (numpy
2.4, its bundled OpenBLAS) a complex matrix product leaves the upper vector
register state dirty, and complex libm calls after it (cmath.sin, np.sin)
run 8-20 times slower until a later numpy call clears that state.  The
points are first reduced and pole-checked (`_reduce_checked_array`), and
`_rho_ratios` turns the sums into rho, rho' and rho''.  That pass serves
the n-body pair sums (`_rho_array`) and `lame_array`, which gives x(u, z)
and the same ratios over a grid of nodes z and arguments u: every Lax
matrix entry is built from it.

Derived kernels:

    rho(z)   = theta1'(z) / theta1(z)              (odd, rho(z+tau) = rho(z) - 2 pi i)
    wp(z)    = -rho'(z) + theta1'''(0)/(3 theta1'(0))   (Laurent 1/z^2 + O(z^2))
    wp_dz(z) = -rho''(z)
    x(u, z)  = theta1(z-u) theta1'(0) / (theta1(z) theta1(u))
    y(u, z)  = d/du x(u, z) = -x(u, z) (rho(u) + rho(z-u))

An independent check of wp, never used on the fast path, is the lattice sum
in Eisenstein order (`wp_lattice_oracle`): each row of the lattice sums in
closed form to pi^2 csc^2, and the rows decay geometrically, so its
truncation error is below rounding, with no theta function and no
extrapolation.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLatticeError,
    PoleProximityError,
    SeriesRangeError,
    TruncationError,
)

TWO_PI_I = 2j * math.pi

#: Evaluations closer than this (in reduced coordinates) to a lattice point
#: raise PoleProximityError instead of blowing up silently.
POLE_EXCLUSION_RADIUS = 1e-6

#: Truncation target of the theta series: the fewest terms whose a-priori
#: tail bound, relative to the leading term's envelope, is at most REL_TOL
#: (see the module docstring).  The triple product stops once two
#: consecutive factors are within REL_TOL of 1.  MAX_TERMS caps both.
REL_TOL = 1e-14
MAX_TERMS = 200

#: |sin x| and |cos x| stay finite while |Im x| is below this.
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class TorusModulus:
    """The lattice modulus tau in the upper half-plane, with cached nome.

    ``_series`` holds the series table, built on first use; it takes no
    part in equality or hashing.
    """

    tau: complex
    nome: complex = field(init=False)
    _series: _SeriesTable | None = field(init=False, default=None,
                                         compare=False, repr=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not (tau.imag > 0.0):
            raise ValueError(f"tau = {tau} must lie in the upper half-plane")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nome", cmath.exp(1j * math.pi * tau))


@dataclass(frozen=True)
class GeneralLattice:
    """A lattice with generators (omega1, omega2), orientation-normalized."""

    omega1: complex
    omega2: complex

    def normalized(self) -> tuple[complex, complex]:
        """Return generators ordered so that Im(omega2/omega1) > 0."""
        w1, w2 = complex(self.omega1), complex(self.omega2)
        if w1 == 0 or w2 == 0:
            raise DegenerateLatticeError("lattice generator is zero")
        ratio = w2 / w1
        if abs(ratio.imag) < 1e-14:
            raise DegenerateLatticeError(
                f"generators {w1}, {w2} are (numerically) collinear"
            )
        if ratio.imag < 0:
            w1, w2 = w2, w1
        return w1, w2


# ----------------------------------------------------------------------
# Lattice reduction
# ----------------------------------------------------------------------

def reduce_to_cell(z: complex, tau: complex) -> tuple[complex, int, int]:
    """Write z = w + m + n*tau with lattice coordinates of w in [-1/2, 1/2].

    Returns (w, m, n).
    """
    z = complex(z)
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    m = round(a)
    n = round(b)
    return z - m - n * tau, m, n


def reduce_to_cell_array(z, tau: complex
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """reduce_to_cell at every point of the array z; m and n come back as
    float arrays of integers."""
    z = np.asarray(z, dtype=complex)
    b = z.imag / tau.imag
    m = np.round(z.real - b * tau.real)
    n = np.round(b)
    return z - m - n * tau, m, n


def _reduced_distance(w: complex, tau: complex) -> float:
    """Distance from a reduced w to the nearest of the nine lattice points
    i + j*tau, i, j in {-1, 0, 1}."""
    return min(abs(w), abs(w - 1), abs(w + 1), abs(w - tau), abs(w + tau),
               abs(w - 1 - tau), abs(w - 1 + tau), abs(w + 1 - tau),
               abs(w + 1 + tau))


#: Lattice coordinates (i, j) of the nine candidates i + j tau.
_NINE_I, _NINE_J = np.array([(i, j) for i in (-1, 0, 1)
                             for j in (-1, 0, 1)], dtype=float).T


def _reduced_distance_array(w: np.ndarray, tau: complex) -> np.ndarray:
    """_reduced_distance at every point of the array w."""
    return np.abs(w[..., None] - (_NINE_I + _NINE_J * tau)).min(axis=-1)


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest point of Z + tau Z."""
    return _reduced_distance(reduce_to_cell(z, tau)[0], tau)


def _lattice_distance_array(z, tau: complex) -> np.ndarray:
    """lattice_distance at every point of the array z."""
    return _reduced_distance_array(reduce_to_cell_array(z, tau)[0], tau)


# ----------------------------------------------------------------------
# Theta series
# ----------------------------------------------------------------------

class _SeriesTable:
    """The fixed-length theta1 series of one modulus.

    ``terms`` holds (a_k, c0_k, c1_k, c2_k, c3_k) for k < K with
    a_k = (2k+1) pi and c_d = 2 (-1)^k nu^{(k+1/2)^2} a_k^d times the sign of
    the d-th derivative of sin (+, +, -, -), so the d-th derivative series is
    sum c_d sin(a w) for even d and sum c_d cos(a w) for odd d.
    ``clear``: a reduced |w| in [POLE_EXCLUSION_RADIUS, clear] is at least
    the exclusion radius away from all nine lattice candidates.
    ``arrays``: the coefficients as numpy arrays, built on first array use
    (`_table_arrays`), so scalar-only callers never pay for them.

    A leading coefficient 2 |nu|^{1/4} so small that the leading term at
    the exclusion radius would be subnormal (Im tau above about 885) raises
    SeriesRangeError: its digits, and with them every ratio of series
    values, would be lost.
    """

    __slots__ = ("terms", "dz0", "d3z0", "wp_const", "clear", "arrays")

    def __init__(self, tm: TorusModulus):
        tau = tm.tau
        q = abs(tm.nome)
        q2 = q * q
        q_odd = q          # q^{2k+1}
        q_square = 1.0     # q^{k^2}
        nu2 = tm.nome * tm.nome
        coef = cmath.exp(0.25j * math.pi * tau)  # nu^{1/4}
        if 2.0 * abs(coef) * POLE_EXCLUSION_RADIUS < sys.float_info.min:
            raise SeriesRangeError(
                f"theta1 series at tau = {tau} underflows: its leading "
                f"coefficient is {2.0 * abs(coef):.3e}")
        nu2_pow = complex(1.0)
        terms = []
        for k in range(MAX_TERMS + 1):
            # tail bound R_k <= a_k / (1 - r_k), see the module docstring
            m = 2 * k + 1
            r = ((m + 2) / m) ** 3 * q_odd
            if r < 1.0 and m ** 3 * q_square <= REL_TOL * (1.0 - r):
                break
            if k == MAX_TERMS:
                raise TruncationError(
                    f"theta1 series at tau = {tau} needs more than "
                    f"{MAX_TERMS} terms",
                    sum(t[2] for t in terms))  # the theta1'(0) partial sum
            a = m * math.pi
            c0 = 2.0 * coef
            c1 = c0 * a
            c2 = -c1 * a
            terms.append((a, c0, c1, c2, c2 * a))
            q_square *= q_odd
            q_odd *= q2
            nu2_pow *= nu2
            coef = -coef * nu2_pow  # (-1)^{k+1} nu^{(k+3/2)^2} relative update
        self.terms = terms
        # theta1'(0) and E2 from their product and Lambert forms (module
        # docstring), x = nu^2, to double precision: the E2 tail from factor
        # m on is at most 24 m |x|^m / (1 - |x|)^3, and the product's is
        # smaller.
        prod, lambert = 1.0, 0j
        x_pow, x_abs, m = nu2, q2, 1
        bound = 1e-17 / 24.0 * (1.0 - q2) ** 3
        while m * x_abs > bound:
            f = 1.0 - x_pow
            prod *= f
            lambert += m * x_pow / f
            x_pow *= nu2
            x_abs *= q2
            m += 1
        self.dz0 = 2.0 * math.pi * cmath.exp(0.25j * math.pi * tau) * prod ** 3
        self.wp_const = -math.pi ** 2 * (1.0 - 24.0 * lambert) / 3.0
        self.d3z0 = 3.0 * self.wp_const * self.dz0
        shortest = min(1.0, abs(tau), abs(tau - 1), abs(tau + 1))
        self.clear = shortest - 2.0 * POLE_EXCLUSION_RADIUS
        self.arrays = None


def _table(tm: TorusModulus) -> _SeriesTable:
    """The series table of tm, built on first use."""
    tab = tm._series
    if tab is None:
        tab = _SeriesTable(tm)
        object.__setattr__(tm, "_series", tab)
    return tab


def _table_arrays(tab: _SeriesTable):
    """The table as arrays, built on first use: a, shape (K,), and the
    coefficients of the sin and cos series, rows (c0, c2) and (c1, c3)."""
    if tab.arrays is None:
        t = np.array(tab.terms)
        tab.arrays = (t[:, 0].real.copy(), t[:, 1::2].T.copy(),
                      t[:, 2::2].T.copy())
    return tab.arrays


def _reduce_checked(z: complex, tm: TorusModulus, tab: _SeriesTable,
                    name: str) -> tuple[complex, int, int]:
    """reduce_to_cell plus the pole check on the reduced point, which gives
    the same verdict and distance as lattice_distance on z."""
    w, m, n = reduce_to_cell(z, tm.tau)
    if not (POLE_EXCLUSION_RADIUS <= abs(w) <= tab.clear):
        d = _reduced_distance(w, tm.tau)
        if d < POLE_EXCLUSION_RADIUS:
            raise PoleProximityError(z, name, d)
    return w, m, n


def _theta_series_at(w: complex, tab: _SeriesTable):
    """theta1 and its first three z-derivatives at a reduced w, summed over
    the table's K terms.  A term past the double range (|Im w| beyond about
    226 / (2k+1)) raises SeriesRangeError."""
    sin, cos = cmath.sin, cmath.cos
    s0 = s1 = s2 = s3 = 0j
    try:
        for a, c0, c1, c2, c3 in tab.terms:
            x = a * w
            sn = sin(x)
            cs = cos(x)
            s0 += c0 * sn
            s1 += c1 * cs
            s2 += c2 * sn
            s3 += c3 * cs
    except OverflowError:
        raise SeriesRangeError(
            f"theta1 series overflows at the reduced point w = {w}") from None
    return s0, s1, s2, s3


def _series_sums(w: np.ndarray, tab: _SeriesTable, rows: int) -> np.ndarray:
    """The first ``rows`` of the series of `_theta_series_at` (theta1,
    theta1', theta1'', theta1''') at the reduced points of the 1-D array w,
    shape (rows, w.size), added down the K axis in the scalar loop's order.
    numpy keeps that order on a grid of two or more columns, not on one: a
    lone point is summed as two copies, so no value depends on the other
    points of the call.  A point whose series overflows raises the scalar
    path's SeriesRangeError, never inf or nan."""
    a, c_sin, c_cos = _table_arrays(tab)
    size = w.size
    if size == 1:
        w = np.repeat(w, 2)
    x = a[:, None] * w
    # |sin|, |cos| of a w are at most exp(a |Im w|): only points past the
    # double range in the last row can overflow, and the scalar series
    # raises for those that do
    for i in np.flatnonzero(np.abs(x[-1].imag) > _LOG_MAX):
        _theta_series_at(complex(w[i]), tab)
    out = np.empty((rows, size), dtype=complex)
    out[::2] = (np.sin(x) * c_sin[:(rows + 1) // 2, :, None]).sum(1)[:, :size]
    if rows > 1:
        out[1::2] = (np.cos(x) * c_cos[:rows // 2, :, None]).sum(1)[:, :size]
    return out


def _reduce_checked_array(z: np.ndarray, tm: TorusModulus, name,
                          start: int = 0):
    """`_reduce_checked` at every point of the 1-D array z: (w, m, n, table).
    The first point i within POLE_EXCLUSION_RADIUS of the lattice, in array
    order from ``start`` on and then from 0, raises PoleProximityError under
    name(i), unless that is None (a point exempt from the check)."""
    tab = _table(tm)
    w, m, n = reduce_to_cell_array(z, tm.tau)
    aw = np.abs(w)
    if not ((aw >= POLE_EXCLUSION_RADIUS) & (aw <= tab.clear)).all():
        d = _reduced_distance_array(w, tm.tau)
        bad = np.flatnonzero(d < POLE_EXCLUSION_RADIUS)
        for i in np.roll(bad, -np.searchsorted(bad, start)):
            label = name(i)
            if label is not None:
                raise PoleProximityError(complex(z[i]), label, float(d[i]))
    return w, m, n, tab


def _rho_ratios(s: np.ndarray, n: np.ndarray):
    """(rho, rho', rho'') from the four `_series_sums` rows at points reduced
    across n B-cycles, cubed as r r r like the scalar kernels: numpy's
    complex r**3 differs from it in the last bit."""
    r, B, T = (v / s[0] for v in s[1:])
    return r - TWO_PI_I * n, B - r * r, T - 3.0 * r * B + 2.0 * r * r * r


def _rho_array(z: np.ndarray, tm: TorusModulus, name):
    """(rho, rho', rho'') at every point of the 1-D array z, pole-checked
    under name: wp = c - rho' and wp' = -rho''."""
    w, _, n, tab = _reduce_checked_array(z, tm, name)
    return _rho_ratios(_series_sums(w, tab, 4), n)


def _theta_bundle(z: complex, tm: TorusModulus):
    """(theta1, theta1') at z, via reduction.

    With z = w + m + n*tau,

        theta1(z) = F(w) theta1(w),
        F(w) = (-1)^{m+n} exp(-i pi (n^2 tau + 2 n w)),

    so theta1'(z) = F(w) (theta1'(w) + mu theta1(w)) with mu = -2 pi i n.
    """
    w, m, n = reduce_to_cell(z, tm.tau)
    s0, s1, _, _ = _theta_series_at(w, _table(tm))
    if m == 0 and n == 0:
        return s0, s1
    parity = -1.0 if (m + n) % 2 else 1.0
    F = parity * cmath.exp(-1j * math.pi * (n * n * tm.tau + 2 * n * w))
    mu = -TWO_PI_I * n
    return F * s0, F * (s1 + mu * s0)


def _reduced_ratios(z: complex, tm: TorusModulus):
    """(rho, theta1''/theta1, theta1'''/theta1) at the reduced w of z, plus
    the B-cycle count n and the table; raises PoleProximityError near the
    lattice.

    Reduction shifts rho by mu = -2 pi i n and leaves every derivative of
    rho unchanged, so rho(z) = rho(w) + mu while rho', wp and wp' need only
    the reduced ratios (valid for any representable z: the reduced series
    never overflows).
    """
    tab = _table(tm)
    w, _, n = _reduce_checked(z, tm, tab, "z")
    s0, s1, s2, s3 = _theta_series_at(w, tab)
    return s1 / s0, s2 / s0, s3 / s0, n, tab


def _log_prefactor(w: complex, m: int, n: int, tau: complex) -> complex:
    """log F with theta1(w + m + n tau) = exp(log F) theta1(w).

    log F = i pi (m + n) - i pi (n^2 tau + 2 n w); keeping it in log form
    lets ratios of theta values combine their prefactors additively before
    a single exponential is taken.
    """
    return 1j * math.pi * ((m + n) - n * n * tau - 2 * n * w)


# ----------------------------------------------------------------------
# Public theta operations
# ----------------------------------------------------------------------

def theta1(z: complex, tm: TorusModulus) -> complex:
    """theta1(z), summed symmetrically (terms k and -k-1 are paired)."""
    return _theta_bundle(z, tm)[0]


def theta1_dz(z: complex, tm: TorusModulus) -> complex:
    """theta1'(z) by term-wise differentiation of the series."""
    return _theta_bundle(z, tm)[1]


def theta1_dz_at_0(tm: TorusModulus) -> complex:
    """theta1'(0) = 2 pi nu^{1/4} prod (1 - nu^{2m})^3 (module docstring)."""
    return _table(tm).dz0


def theta1_d3z_at_0(tm: TorusModulus) -> complex:
    """theta1'''(0) = -2 pi^3 sum (-1)^k (2k+1)^3 nu^{(k+1/2)^2}, evaluated
    as -pi^2 E2 theta1'(0) (see the module docstring)."""
    return _table(tm).d3z0


def theta1_product(z: complex, tm: TorusModulus) -> complex:
    """theta1(z) via the triple-product form

        -2 nu^{1/4} cos(pi (z+1/2))
            prod_m (1 - nu^{2m}) (1 + 2 cos(2 pi (z+1/2)) nu^{2m} + nu^{4m}),

    reduced and prefactored exactly like the series path.
    """
    w, m, n = reduce_to_cell(z, tm.tau)
    nu = tm.nome
    nu2 = nu * nu
    c1 = cmath.cos(math.pi * (w + 0.5))
    c2 = cmath.cos(2 * math.pi * (w + 0.5))
    prod = -2.0 * cmath.exp(0.25j * math.pi * tm.tau) * c1
    nu2_pow = complex(1.0)
    streak = 0
    converged = False
    for k in range(1, MAX_TERMS + 1):
        nu2_pow *= nu2
        factor = (1.0 - nu2_pow) * (1.0 + 2.0 * c2 * nu2_pow + nu2_pow * nu2_pow)
        prod *= factor
        if abs(factor - 1.0) <= REL_TOL:
            streak += 1
            if streak >= 2:
                converged = True
                break
        else:
            streak = 0
    if not converged:
        raise TruncationError("theta1 product did not stagnate", prod)
    if m == 0 and n == 0:
        return prod
    parity = -1.0 if (m + n) % 2 else 1.0
    return parity * cmath.exp(-1j * math.pi * (n * n * tm.tau + 2 * n * w)) * prod


# ----------------------------------------------------------------------
# rho, wp and friends
# ----------------------------------------------------------------------

def rho(z: complex, tm: TorusModulus) -> complex:
    """rho(z) = theta1'(z)/theta1(z)."""
    r, _, _, n, _ = _reduced_ratios(z, tm)
    return r - TWO_PI_I * n


def weierstrass_constant(tm: TorusModulus) -> complex:
    """theta1'''(0) / (3 theta1'(0)): the constant making wp = -rho' + c
    free of a constant term in its Laurent expansion at 0."""
    return _table(tm).wp_const


def wp(z: complex, tm: TorusModulus) -> complex:
    """Weierstrass wp(z, tau), theta fast path: -rho'(z) + theta1'''(0)/(3 theta1'(0))."""
    r, B, _, _, tab = _reduced_ratios(z, tm)
    return r * r - B + tab.wp_const


def wp_dz(z: complex, tm: TorusModulus) -> complex:
    """wp'(z, tau) = -rho''(z), fully analytic."""
    r, B, T, _, _ = _reduced_ratios(z, tm)
    return 3.0 * r * B - T - 2.0 * r * r * r


# ----------------------------------------------------------------------
# Lattice-sum oracle
# ----------------------------------------------------------------------

def _pi2_csc2(a: np.ndarray) -> np.ndarray:
    """pi^2 csc^2(pi a) at every point of a.  sin overflows past |Im a| of
    about 226; heights are capped at 100, where csc^2 is below 1e-270."""
    a = a.real + 1j * np.clip(a.imag, -100.0, 100.0)
    return (math.pi / np.sin(math.pi * a)) ** 2


def wp_lattice_oracle(z: complex, tm: TorusModulus) -> complex:
    """wp as the lattice sum in Eisenstein order, each row of the lattice
    summed in closed form by sum_m (x + m)^-2 = pi^2 csc^2(pi x)
    (DLMF 23.8):

        wp(z) = sum_{|n| <= N} pi^2 csc^2(pi (w + n tau)) - pi^2/3
                - 2 sum_{n=1}^{N} pi^2 csc^2(pi n tau),

    w being z reduced to the cell, so the window of rows is centred on the
    pole.  Row n falls off like exp(-2 pi |n| Im tau); with
    N = floor(40 / (2 pi Im tau)) + 2 each row left out adds less than
    about 4 pi^2 e^-40 (2e-16).  Re tau is first shifted into [-1/2, 1/2],
    which is exact and keeps the lattice.  Shares no code with the theta
    series.
    """
    d = lattice_distance(z, tm.tau)
    if d < POLE_EXCLUSION_RADIUS:
        raise PoleProximityError(z, "z", d)
    tau = tm.tau - round(tm.tau.real)
    w = reduce_to_cell(z, tau)[0]
    big_n = int(40 / (2 * math.pi * tau.imag)) + 2
    rows = _pi2_csc2(w + np.arange(-big_n, big_n + 1) * tau)
    const = _pi2_csc2(np.arange(1, big_n + 1) * tau)
    return complex(rows.sum() - math.pi**2 / 3 - 2 * const.sum())


# ----------------------------------------------------------------------
# General lattices by homogeneity
# ----------------------------------------------------------------------

def wp_general(z: complex, lat: GeneralLattice) -> complex:
    """wp(z, Lambda) = omega1^{-2} wp(z/omega1, omega2/omega1)."""
    w1, w2 = lat.normalized()
    tm = TorusModulus(w2 / w1)
    return wp(z / w1, tm) / (w1 * w1)


def wp_dz_general(z: complex, lat: GeneralLattice) -> complex:
    """wp'(z, Lambda) = omega1^{-3} wp'(z/omega1, omega2/omega1)."""
    w1, w2 = lat.normalized()
    tm = TorusModulus(w2 / w1)
    return wp_dz(z / w1, tm) / (w1 * w1 * w1)


# ----------------------------------------------------------------------
# Lame functions
# ----------------------------------------------------------------------

def _lame_core(u: complex, z: complex, tm: TorusModulus,
               ratios: bool = True):
    """x(u, z); with ``ratios``, (x, rho(u), rho(z - u), rho(z),
    rho'(z - u)).

    Each point is reduced and pole-checked once: z - u (only with
    ``ratios``: x itself vanishes there), then u, then z.  The three
    reduction prefactors are combined additively in log form: their
    individual exponentials can overflow at arguments where x itself is
    perfectly representable.
    """
    tab, tau = _table(tm), tm.tau
    zu = z - u
    if ratios:
        w_zu, m_zu, n_zu = _reduce_checked(zu, tm, tab, "z - u")
    w_u, m_u, n_u = _reduce_checked(u, tm, tab, "u")
    w_z, m_z, n_z = _reduce_checked(z, tm, tab, "z")
    if not ratios:
        w_zu, m_zu, n_zu = reduce_to_cell(zu, tau)
    s_u = _theta_series_at(w_u, tab)
    s_z = _theta_series_at(w_z, tab)
    s_zu = _theta_series_at(w_zu, tab)
    log_f = (_log_prefactor(w_zu, m_zu, n_zu, tau)
             - _log_prefactor(w_z, m_z, n_z, tau)
             - _log_prefactor(w_u, m_u, n_u, tau))
    x = cmath.exp(log_f) * s_zu[0] * tab.dz0 / (s_z[0] * s_u[0])
    if not ratios:
        return x
    r_zu = s_zu[1] / s_zu[0]
    return (x, s_u[1] / s_u[0] - TWO_PI_I * n_u, r_zu - TWO_PI_I * n_zu,
            s_z[1] / s_z[0] - TWO_PI_I * n_z, s_zu[2] / s_zu[0] - r_zu * r_zu)


def lame_x(u: complex, z: complex, tm: TorusModulus) -> complex:
    """x(u, z) = theta1(z-u) theta1'(0) / (theta1(z) theta1(u))."""
    return _lame_core(u, z, tm, False)


def lame_y(u: complex, z: complex, tm: TorusModulus) -> complex:
    """y(u, z) = d/du x(u, z) = -x(u, z) (rho(u) + rho(z-u))."""
    x, rho_u, rho_zu, _, _ = _lame_core(u, z, tm)
    return -x * (rho_u + rho_zu)


def lame_x_dz(u: complex, z: complex, tm: TorusModulus) -> complex:
    """d/dz x(u, z) = x(u, z) (rho(z-u) - rho(z))."""
    x, _, rho_zu, rho_z, _ = _lame_core(u, z, tm)
    return x * (rho_zu - rho_z)


def lame_x_dtau(u: complex, z: complex, tm: TorusModulus) -> complex:
    """d/dtau x(u, z), via the mixed heat equation

        2 pi i dx/dtau + d^2 x / du dz = 0,

    with the mixed partial evaluated analytically:
        d^2x/dudz = y (rho(z-u) - rho(z)) - x rho'(z-u).
    """
    x, rho_u, rho_zu, rho_z, rho_dz_zu = _lame_core(u, z, tm)
    y = -x * (rho_u + rho_zu)
    mixed = y * (rho_zu - rho_z) - x * rho_dz_zu
    return -mixed / TWO_PI_I


def lame_array(z, u, tm: TorusModulus, ratios: bool = False):
    """x(u, z) at every node of the 1-D array z and argument of the 1-D
    array u, shape (z.size, u.size); with ``ratios``, (x, rho, rho', rho''),
    the last three each a list of their values at u, z - u and z (rho
    unreduced, as `_lame_core` gives it), shaped to broadcast against x.

    u, z and z - u are reduced together and summed in one `_series_sums`
    pass, the rows of theta1' to theta1''' only with ``ratios``; each entry
    combines its three log prefactors before one exponential, as lame_x
    does.  First come the scalar kernels' pole checks, in their order:
    z - u (only with ``ratios``: x vanishes there), u, z.  The first point
    within POLE_EXCLUSION_RADIUS raises PoleProximityError under that name.
    """
    z, u = (np.asarray(v, dtype=complex).reshape(-1) for v in (z, u))
    zu = z[:, None] - u
    a, b = u.size, u.size + z.size  # points [:a] are u, [a:b] z, [b:] z - u
    names = ("u", "z", "z - u" if ratios else None)
    w, m, n, tab = _reduce_checked_array(
        np.concatenate([u, z, zu.ravel()]), tm,
        lambda i: names[int(i >= a) + int(i >= b)], start=b)
    s = _series_sums(w, tab, 4 if ratios else 1)
    f = _log_prefactor(w, m, n, tm.tau)
    x = (np.exp(f[b:].reshape(zu.shape) - f[a:b, None] - f[:a])
         * s[0, b:].reshape(zu.shape) * tab.dz0 / (s[0, a:b, None] * s[0, :a]))
    if not ratios:
        return x
    return x, *([v[None, :a], v[b:].reshape(zu.shape), v[a:b, None]]
                for v in _rho_ratios(s, n))
