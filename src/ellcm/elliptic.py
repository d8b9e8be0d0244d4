"""High-accuracy elliptic kernels on the torus C/(Z + tau Z).

Everything is generated by the odd theta function

    theta1(z | tau) = 2 * sum_{k>=0} (-1)^k nu^{(k+1/2)^2} sin((2k+1) pi z),
    nu = exp(i pi tau),  nu^{1/4} = exp(i pi tau / 4),  Im tau > 0,

whose terms decay like nu^{k^2}.  All derivatives are term-wise analytic,
in tau by the heat equation 4 pi i d theta1/dtau = theta1''; finite
differences serve only as independent oracles.

Modular reduction.  The series is never summed at tau itself when a
modulus gamma tau, gamma = (a b; c d) in SL(2, Z), needs fewer terms.  Two
laws generate the reduction:

    T:  theta1(z | tau + 1) = e^{i pi/4} theta1(z | tau),

since nu^{(k+1/2)^2} gains e^{i pi (k^2 + k + 1/4)} = e^{i pi/4} (k^2 + k is
even), and Jacobi's imaginary transformation (DLMF 20.7.30, with z in units
of the period 1 and the principal square root),

    S:  theta1(z / tau | -1/tau) = -i (-i tau)^{1/2} e^{i pi z^2/tau} theta1(z | tau).

`_modular_image` reduces tau to the fundamental domain |Re tau'| <= 1/2,
|tau'| >= 1 by T^k shifts and S steps.  With w = c tau + d, induction on the
steps gives

    theta1(z | tau) = C e^{-i pi c z^2 / w} theta1(z / w | tau'),   (*)
    C = epsilon^{-1} w^{-1/2},  epsilon^8 = 1:

a T^k step leaves (c, d) and w alone and multiplies C by e^{i pi k/4}; an S
step at tau1 = gamma tau turns (c, d) into (a, b), so w into
a tau + b = tau1 w, multiplies C by i (-i tau1)^{-1/2}, and adds its Gaussian
-i pi z^2 / (w^2 tau1) to -i pi c z^2/w, which gives -i pi a z^2/(a tau + b)
because ad - bc = 1.  C is composed numerically and then fixed as the
eighth root epsilon times the principal w^{-1/2}.  The log derivative of
(*), and its limit z -> 0, give the laws every kernel is restored by:

    rho(z | tau)    = rho(z/w | tau') / w - 2 pi i c z / w,
    rho'(z | tau)   = rho'(z/w | tau') / w^2 - 2 pi i c / w,
    rho''(z | tau)  = rho''(z/w | tau') / w^3,
    theta1'(0 | tau) = C theta1'(0 | tau') / w,
    c(tau)          = c(tau') / w^2 - 2 pi i c / w   (E2 is quasi-modular),

where c(tau) = theta1'''(0)/(3 theta1'(0)) is the Weierstrass constant below,
so wp and wp' are homogeneous, wp(z | tau) = wp(z/w | tau') / w^2 and
wp'(z | tau) = wp'(z/w | tau') / w^3.  In the Lame kernel the constants C
cancel and the Gaussians combine by (z - u)^2 - z^2 - u^2 = -2 u z:

    x(u, z | tau) = w^{-1} e^{2 pi i c u z / w} x(u/w, z/w | tau').

gamma is the identity unless tau' needs fewer terms than tau (below); then
w = 1, C = 1 and c = 0, so every law above adds exact zeros.

Reduction of the point.  A point is reduced in the lattice of tau, in its
basis (w, w tau'): z/w = v + m + n tau' with v reduced at tau', so
z = p + M + N tau with p = w v, M = m d + n b and N = m c + n a.  The
quasi-periodicity of the lattice,

    theta1(p + M + N tau | tau) = (-1)^{M+N} e^{-i pi (N^2 tau + 2 N p)} theta1(p | tau),

is applied first, and (*) then maps the small p to v = p / w, so the
Gaussian e^{-i pi c p v} stays of order one.  All these factors are kept in
log form (`_log_factor`) and combined additively before one exponential is
taken.  Pole checks stay in the lattice of tau: z lies within the radius
R of it where v lies within near = R / |w| of Z + tau' Z.  With
v = a + b tau', |a|, |b| <= 1/2, every lattice point off row 0 lies at
least Im tau' / 2 from v along Im, and a row-0 point k lies
max(|Im v|, |Re v - k|) from it.  So where Im tau' / 2 >= 2 near (a
factor 2 for rounding), a v with |Im v| >= near, or with Re v at least
near from the nearest integer, needs no check, for every tau' the table
keeps; any other point is measured by `lattice_distance`, reported under
the caller's name.

Lattice geometry.  The distance of a point, a pair or a path segment to
the lattice is the least over nine lattice points around a cell of a basis
in which they include the nearest: (1, tau) itself where its Voronoi cell
allows (`_nine_suffice`), or else the reduced basis (w, w tau') of
`_lattice_basis`, which also gives the shortest period |w|.

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
evaluation point (K = 4 for Im tau in [0.7725, 1.3466), 13 at Im tau = 0.08,
27 at 0.02).  In the fundamental domain Im tau' >= sqrt(3)/2, so
q <= e^{-pi sqrt(3)/2} ~ 0.066 and K' <= 4.  So tau is reduced exactly
where Im tau < 0.7725 (`_TERMS_FROM[3]`), as K > 4 there; from that line
on K <= 4, and Im tau' = Im tau / |c tau + d|^2 is Im tau (c = 0) or at
most 1 / Im tau < 1.3466, so K' >= K.  Near tau = i, gamma = 1.

The K coefficients 2 (-1)^k nu'^{(k+1/2)^2} ((2k+1) pi)^d (d = 0..3) at
tau' form a table that is built lazily once per modulus and kept on the
TorusModulus instance, so a modulus dropped by its caller takes its table
with it.  theta1'(0), theta1'''(0) and the Weierstrass constant are built
on their first read, from cancellation-free forms at tau', with x = nu'^2:

    theta1'(0)   = 2 pi nu^{1/4} prod_{m>=1} (1 - x^m)^3,
    theta1'''(0) = -pi^2 E2 theta1'(0),  E2 = 1 - 24 sum_{m>=1} m x^m / (1 - x^m),

because the alternating series at z = 0 lose every digit as Im tau -> 0.

Arrays of points go through one range-checked sum of the same K terms,
`_series_sums`.  It calls libm only for the first harmonic and only on real
arrays (sin and cos of Re(pi v), sinh and cosh of Im(pi v)), and takes the
other odd harmonics from a three-term recurrence by elementwise products.
So no complex libm function runs there: on an x86 host with AVX-512 (numpy
2.4, its bundled OpenBLAS) a complex matrix product leaves the upper vector
register state dirty, and complex libm calls after it (cmath.sin, np.sin or
np.exp of a complex array) run 8-20 times slower until a later numpy call
clears that state.  The points are first reduced and pole-checked
(`_reduce_checked_array`), and `_rho_ratios` turns the sums into rho,
rho' and rho''.  That pass, `_rho_array`, is the one array rule for the
ratios: it serves the n-body pair sums and, at z - u, u and z, the ratios
of `lame_array`, which gives x(u, z) over a grid of nodes z and arguments
u: every Lax matrix entry is built from the two.  Its one-point twin
`_rho_points`, for the scalar pair loops, pole-checks every point before
`_theta_series_at` sums.

Separable sums.  An entry of `lame_array` needs theta1 at z - u for a node
z and a pair argument u.  Only z and u are reduced, z = p_z + M_z + N_z tau
with p_z = w v_z, and u alike; theta1 is summed at V = v_z - v_u, which is
not reduced.  The quasi-periodicity of the lattice at z - u, z and u, and
the Gaussian of (*) at p_u and p_z, leave the entry's factor

    x(u, z | tau) / x(v_u, v_z | tau')
        = exp(2 pi i (N_z N_u tau + N_z p_u + N_u p_z + c w v_z v_u)),

in which the signs (-1)^{M+N} cancel.  `lame_array` takes its log as
`_log_factor` at (V, m_z - m_u, n_z - n_u), which accepts an unreduced
point, less those of z and u.  At gamma = 1 with every pair in the row
N_u = 0 of the cell, the common case, it is e^{2 pi i N_z v_u}, taken
once for each distinct N_z.  Against an exponential per entry, this row
table took the `monodromy` benchmark's light_op_ms from 11.9 to 11.1 ms
and heavy_op_ms from 17.8 to 16.8 ms (medians of 10 alternated runs on
a shared 2-CPU x86 host).  With a_k = (2k+1) pi and E_k(v) = e^{i a_k v},

    sin(a_k V) = (E_k(v_z) E_k(v_u)^{-1} - E_k(v_z)^{-1} E_k(v_u)) / 2i,

so over the nodes and the pairs theta1 of V is a sum of 2 (K + 1) products
of a factor of the node and a factor of the pair: a matrix of rank
2 (K + 1), taken by one real matrix product (`_separable_sums`): the
series runs at the nodes and the pairs, not at each of their
differences.  E_0 comes from the first harmonic's real sin
and cos and the real exp of Im(pi v), E_k from E_{k-1} times E_0^2
(`_harmonics`): as in `_series_sums`, no complex libm function and no
complex matrix product runs.  As |Im V| <= Im tau', twice a reduced
point's bound, the k-th term of theta1's bound above is
E_0(V) q'^{k(k-1)}.  So one term more than the table's K keeps the tail
at most E_0(V) R_K, the reduced point's bound: term by term,
q'^{k(k+1)} <= (2k+1)^3 q'^{k^2}.

The exponential form, not the product form sin(a v_z) cos(a v_u) -
cos(a v_z) sin(a v_u).  Where Im v_z and Im v_u share a sign, the two
products of the latter are of size e^{a (|Im v_z| + |Im v_u|)} / 4 and
cancel to about e^{a |Im V|} / 2, losing up to e^{2 a min(|Im v_z|,
|Im v_u|)} of their accuracy, a factor that grows with Im tau'.  Against
scalar `lame_x` that form erred by 4e-14 at tau = 0.03+1.01i, 3.6e-13 at
0.1+2i, 3.7e-9 at 0.1+5i and 6.9e-4 at 0.3+12i.  Each product
E_k(v_z) E_k(v_u)^{-1} is e^{i a V} to one rounding, and the two products
differ in size by e^{2 a |Im V|}: they cancel only where sin(a V) is small
for a per-point sum as well.  On 40 nodes and 12 pairs at random reduced
heights, the exponential form stayed within 7.3e-15, 2.0e-15, 2.7e-15,
5.8e-15 and 1.8e-14 of the per-entry series at 0.03+1.01i, 0.1+2i,
0.1+5i, 0.3+12i and 0.1+40i, the entries of one sign included.

Range of the separable sums.  Each factor of harmonic k carries half of
the coefficient's nu'^{k(k+1)} and the reciprocal of theta1 at its own
point, the entry's denominator: nu'^{k(k+1)/2} E_k(+-v) / theta1(v).  With
|Im v| <= Im tau' / 2 that is at most about e^{pi Im tau' / 4} for the
growing sign, and the products that carry digits of a sum stay above
about e^{-pi Im tau' - 37}; the weights take the rest of the coefficient
and x's constant.  So every product stays in the double range up to
Im tau' of about 190, where a scan of reduced heights up to 0.499 Im tau'
first lost digits to underflow.  The entry factor can leave it too,
where points lie periods away from the cell of a tall lattice (a node
2.4 periods up at tau = 0.1+120i gives e^{678}).  So past
_SEPARABLE_IM = 150, or where the real part of a factor's log exceeds
_LOG_MAX / 2, `lame_array` sums each entry as the scalar kernels do:
every z - u is reduced and summed by `_series_sums`, and x is formed as
`_lame_scaled` forms it, each theta value scaled by its binary exponent,
so that only an x past the double range raises SeriesRangeError.  As
Im tau' <= max(Im tau, 1 / Im tau), the first case arises only where
Im tau > 150 or Im tau < 1/150.

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
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    DegenerateLatticeError,
    EllcmError,
    PathError,
    PoleProximityError,
    SeriesRangeError,
    UsageError,
)

if TYPE_CHECKING:
    # numpy is imported by the array functions alone, so the scalar kernels
    # run without it
    import numpy as np

TWO_PI_I = 2j * math.pi
_I_PI = 1j * math.pi

#: Evaluations closer than this (in reduced coordinates) to a lattice point
#: raise PoleProximityError instead of blowing up silently.
POLE_EXCLUSION_RADIUS = 1e-6

#: Truncation target of the theta series and of the triple product: the
#: fewest terms whose a-priori tail bound, relative to the leading term's
#: envelope, is at most REL_TOL (see the module docstring).
REL_TOL = 1e-14

#: |sin x| and |cos x| stay finite while |Im x| is below this.
_LOG_MAX = math.log(sys.float_info.max)

#: Im tau' up to which `lame_array` sums theta1(z - u) separably: there
#: every product of a node's and a pair's harmonics, scaled as in
#: `_harmonics`, stays in the double range (module docstring).
_SEPARABLE_IM = 150.0

#: Constants of `_series_sums`, complex so that no operation casts: pi and
#: the factor taking sin a + i cos a to 2 cos a - 2i sin a.
_PI = complex(math.pi)
_MINUS_TWO_I = -2j


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
        if not (tau.imag > 0.0 and cmath.isfinite(tau)):
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
# Lattice reduction and geometry
# ----------------------------------------------------------------------

def _unreducible(z) -> EllcmError:
    """The error for a point without finite lattice coordinates."""
    return EllcmError(f"cannot reduce {z} to the cell: its lattice "
                      "coordinates are not finite")


def reduce_to_cell(z: complex, tau: complex) -> tuple[complex, int, int]:
    """Write z = w + m + n*tau with lattice coordinates of w in [-1/2, 1/2].

    Returns (w, m, n).  A z without finite coordinates (NaN or infinite)
    raises EllcmError.
    """
    z = complex(z)
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    try:
        m = round(a)
        n = round(b)
    except (ValueError, OverflowError):
        raise _unreducible(z) from None
    return z - m - n * tau, m, n


def reduce_to_cell_array(z, tau: complex
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """reduce_to_cell at every point of the array z; m and n come back as
    float arrays of integers."""
    import numpy as np
    z = np.asarray(z, dtype=complex)
    b = z.imag / tau.imag
    m = np.round(z.real - b * tau.real)
    n = np.round(b)
    return z - m - n * tau, m, n


def _affine(k: int, x: float, l: int) -> float:
    """k x + l for integers k, l, correctly rounded (exact in integers)."""
    num, den = x.as_integer_ratio()
    return (k * num + l * den) / den


def _modular_image(tau: complex):
    """(gamma, log C0) with gamma = (a, b, c, d) taking tau to the
    fundamental domain by T^k shifts and S steps, and C0 the product of
    their factors in (*) of the module docstring, composed in log form.

    A tau that is not finite or not in the upper half-plane raises
    UsageError, as does one so close to the real axis that an S step
    leaves the double range; any other tau ends, each S step multiplying
    Im tau by at least 1 / (1/4 + Im^2 tau)."""
    t = complex(tau)
    if not (cmath.isfinite(t) and t.imag > 0.0):
        raise UsageError(f"tau = {tau} must lie in the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    log_c = 0j
    while True:
        k = round(t.real)
        if k:
            t -= k
            a, b = a - k * c, b - k * d
            log_c += 0.25j * math.pi * k
        if abs(t) >= 1.0:
            return (a, b, c, d), log_c
        log_c += 0.5j * math.pi - 0.5 * cmath.log(-1j * t)
        a, b, c, d = -c, -d, a, b
        t = -1.0 / t
        if not cmath.isfinite(t):
            raise UsageError(f"tau = {tau} is too close to the real axis "
                             "to reduce")


def _basis(tau: complex, gamma) -> tuple[complex, complex]:
    """(w, tau') = (c tau + d, (a tau + b) / w) for gamma = (a, b, c, d), so
    that Z + tau Z = w (Z + tau' Z).  c tau + d and a tau + b are rounded
    once from exact integer arithmetic: their real parts cancel to about
    Im tau, and an error in tau' would grow with every B-period a point is
    reduced by."""
    a, b, c, d = gamma
    w = complex(_affine(c, tau.real, d), c * tau.imag)
    return w, complex(_affine(a, tau.real, b), a * tau.imag) / w


@functools.lru_cache(maxsize=64)
def _lattice_basis(tau: complex):
    """(gamma, w, tau', nine) with the gamma of `_modular_image`: tau' lies
    in the fundamental domain, so |w| is the shortest nonzero period of
    Z + tau Z and the nine candidates around a cell at tau' suffice
    (`_nine_suffice`); ``nine`` holds them as offsets (M, N) of M + N tau
    (`_tau_coordinates`).  Cached: the pole checks of a modulus ask at
    each point.  Raises UsageError where `_modular_image` does, and where
    Im tau is so small (about 1e-280 and below) that its float steps lose
    the image: tau' then misses the fundamental domain by more than
    rounding."""
    gamma, _ = _modular_image(tau)
    try:
        w, tau_r = _basis(tau, gamma)
    except (ZeroDivisionError, OverflowError):
        tau_r = complex(math.nan)
    if not (tau_r.imag > 0.0 and abs(tau_r.real) <= 0.5 + 1e-9
            and abs(tau_r) >= 1.0 - 1e-9):
        raise UsageError(f"tau = {tau} cannot be reduced in double "
                         "precision")
    return (gamma, w, tau_r,
            tuple(_tau_coordinates(i, j, gamma) for i, j in _NINE))


@functools.lru_cache(maxsize=64)
def _nine_suffice(tau: complex) -> bool:
    """Whether the nine candidates i + j tau (`_NINE`) around a point
    reduced in the basis (1, tau) include its nearest lattice point.  The
    Voronoi cell of 0 lies between the bisectors of +-1 and +-tau,
    |Re z| <= 1/2 and |Re(z conj(tau))| <= |tau|^2 / 2, a parallelogram
    whose points z = a + b tau have |b| <= (|tau|^2 + |Re tau|) / (2 Im^2 tau)
    and |a| <= 1/2 + |Re tau| |b|.  Where both bounds are below 3/2, a
    point within coordinates 1/2 of 0 has its nearest lattice point within
    2, one of the nine; so does every tau' of the fundamental domain.
    Cached, as `_lattice_basis` is: a cached answer costs a third of the
    test."""
    x = abs(tau.real)
    b = (x + x * x + tau.imag * tau.imag) / (2.0 * tau.imag * tau.imag)
    return b < 1.5 and 0.5 + x * b < 1.5


def _shortest_period(tau: complex) -> float:
    """The length of the shortest nonzero vector of Z + tau Z."""
    return abs(_lattice_basis(tau)[1])


def _tau_coordinates(k, l, gamma):
    """(M, N) with M + N tau = w (k + l tau') for lattice coordinates k, l
    of the reduced basis: w = c tau + d and w tau' = a tau + b.  Integers
    or arrays of them alike."""
    a, b, c, d = gamma
    return k * d + l * b, k * c + l * a


def _reduced_distance(w: complex, tau: complex) -> float:
    """Distance from a reduced w to the nearest of the nine lattice points
    i + j*tau, i, j in {-1, 0, 1}."""
    return min(abs(w), abs(w - 1), abs(w + 1), abs(w - tau), abs(w + tau),
               abs(w - 1 - tau), abs(w - 1 + tau), abs(w + 1 - tau),
               abs(w + 1 + tau))


#: Lattice coordinates (i, j) of the nine candidates i + j tau.
_NINE = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest point of Z + tau Z, as
    `_lattice_distances` takes it."""
    if _nine_suffice(tau):  # per point on the pole checks' slow path
        return _reduced_distance(reduce_to_cell(z, tau)[0], tau)
    return _lattice_distances((z,), tau)[0]


def _lattice_distances(z, tau: complex) -> list[float]:
    """lattice_distance at each point of the sequence z, one basis for all:
    the least |v - M - N tau| over nine candidates M + N tau, v the point
    reduced in the basis (1, tau).  They are v's own nine where those
    suffice, else the nine around the cell of v / w at tau'
    (`_lattice_basis`); a candidate in both sets gives the same bits."""
    if _nine_suffice(tau):
        return [_reduced_distance(reduce_to_cell(p, tau)[0], tau) for p in z]
    gamma, w, tau_r, nine = _lattice_basis(tau)
    inv = 1.0 / w
    out = []
    for p in z:
        v = reduce_to_cell(p, tau)[0]
        _, m, n = reduce_to_cell(v * inv, tau_r)
        m, n = _tau_coordinates(m, n, gamma)
        out.append(min(abs(v - (m + i) - (n + j) * tau) for i, j in nine))
    return out


def _lattice_distance_array(z, tau: complex) -> np.ndarray:
    """lattice_distance at every point of the 1-D array z, as
    `_lattice_distances` takes it.  A point without finite lattice
    coordinates raises EllcmError."""
    import numpy as np
    z = np.asarray(z, dtype=complex)
    v = reduce_to_cell_array(z, tau)[0]
    big_m, big_n = np.array(_NINE).T
    if not _nine_suffice(tau):
        gamma, w, tau_r, nine = _lattice_basis(tau)
        _, m, n = reduce_to_cell_array(v * (1.0 / w), tau_r)
        m, n = _tau_coordinates(m, n, gamma)
        i, j = np.array(nine).T
        big_m, big_n = m[:, None] + i, n[:, None] + j
    d = np.abs(v[:, None] - (big_m + big_n * tau)).min(axis=1)
    if np.isnan(np.minimum.reduce(d, initial=math.inf)):
        raise _unreducible(complex(z[np.isnan(d)][0]))
    return d


#: Most samples `_segment_lattice_distances` measures in one call (about
#: 30 MB of temporaries).
_SEGMENT_SAMPLES = 1 << 16


def _segment_lattice_distances(a: np.ndarray, b: np.ndarray,
                               tau: complex) -> np.ndarray:
    """Distance from each segment [a_i, b_i] to the lattice Z + tau Z.

    In units of w (`_lattice_basis`), each segment is sampled at
    max(8, 4 |b - a|) + 1 points less than 2/7 apart, and the nine lattice
    points around the cell of each sample at tau' are projected onto the
    segment.  The segment's point nearest to the lattice lies within 1/7
    of a sample, less than (1 + 1/sqrt 3) / 7 in lattice coordinates at
    tau', and its nearest lattice point within 1 more (`_nine_suffice`):
    one of that sample's nine.  All samples go through one array pass;
    more than _SEGMENT_SAMPLES of them raise PathError.
    """
    import numpy as np
    gamma, w, tau_r, nine = _lattice_basis(tau)
    a = np.asarray(a, dtype=complex)
    d = np.asarray(b, dtype=complex) - a
    # rounded as abs() of a Python complex, where np.abs can differ by an ulp
    length = np.hypot(d.real, d.imag)
    steps = np.maximum(8, (4 * length / abs(w)).astype(int))
    total = int(steps.sum()) + steps.size
    if total > _SEGMENT_SAMPLES:
        raise PathError(
            f"the path is too long for the lattice: its segments take "
            f"{total} samples at the shortest period {abs(w):.3e}, more "
            f"than {_SEGMENT_SAMPLES}")
    first = np.cumsum(steps + 1) - (steps + 1)  # each segment's first sample
    seg = np.repeat(np.arange(a.size), steps + 1)
    a, d, k = a[seg], d[seg], np.arange(seg.size) - first[seg]
    _, m, n = reduce_to_cell_array((a + d * k / steps[seg]) * (1.0 / w),
                                   tau_r)
    m, n = _tau_coordinates(m, n, gamma)
    i, j = np.array(nine).T
    lam = (m[:, None] + i) + (n[:, None] + j) * tau
    a, d = a[:, None], d[:, None]
    t = np.clip(((lam - a) * d.conjugate()).real / length[seg, None] ** 2,
                0.0, 1.0)
    return np.minimum.reduceat(np.abs(a + t * d - lam).min(axis=1), first)


# ----------------------------------------------------------------------
# Theta series
# ----------------------------------------------------------------------

def _tail_ok(q: float, k: int) -> bool:
    """Whether k terms meet the tail bound a_k / (1 - r_k) <= REL_TOL at
    |nu| = q (module docstring); once true, true for every larger k."""
    m = 2 * k + 1
    r = ((m + 2) / m) ** 3 * q ** m
    return r < 1.0 and m ** 3 * q ** (k * k) <= REL_TOL * (1.0 - r)


def _im_for_terms(k: int) -> float:
    """The smallest Im tau at which k terms meet the tail bound, by
    bisection to double precision."""
    lo, hi = 0.01, 100.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _tail_ok(math.exp(-math.pi * mid), k):
            hi = mid
        else:
            lo = mid
    return hi


#: The Im tau from which 1, 2, 3 and 4 terms suffice: 4 on [0.7725, 1.3466).
_TERMS_FROM = tuple(_im_for_terms(k) for k in (1, 2, 3, 4))


class _SeriesTable:
    """The theta1 series of one modulus tau, summed at tau' = gamma tau.

    ``gamma`` = (a, b, c, d); ``w`` = c tau + d and ``w_inv``, ``w_inv2``,
    ``w_inv3`` its inverse powers; ``log_c`` = log C of the module
    docstring's (*); ``shift`` = 2 pi i c and ``gauss`` = -i pi c.
    ``terms`` holds (a_k, c0_k, c1_k, c2_k, c3_k) for k < K at tau' with
    a_k = (2k+1) pi and c_d = 2 (-1)^k nu'^{(k+1/2)^2} a_k^d times the sign
    of the d-th derivative of sin (+, +, -, -), so the d-th derivative series
    is sum c_d sin(a v) for even d and sum c_d cos(a v) for odd d.
    ``near`` = POLE_EXCLUSION_RADIUS / |w|, the radius in units of w, or
    inf where Im tau' < 4 near: the pole checks clear a reduced v whose
    |Im v| or distance from Z is at least ``near`` (module docstring).
    ``arrays``: the coefficients as numpy arrays, the overflow bound and the
    recurrence offsets of `_series_sums`, built on first array use
    (`_table_arrays`), so scalar-only callers never pay for them.
    ``consts``: e^lift theta1'(0 | tau') / w, the Weierstrass constant and
    theta1'(0) at tau, built on first read (`_constants`).

    ``lift``: the coefficients, and theta1'(0) of `_constants`, carry the
    factor e^lift, and ``log_c`` = log C - lift takes it out again.  It
    lifts |nu'|^{1/4} = e^{-pi Im tau'/4} to e^{-_LOG_MAX/2}, never higher
    than |nu|^{1/4} of tau itself, so it is 0 unless Im tau' > 452.  The
    sums at reduced points then stay between e^{-_LOG_MAX/2} and
    e^{_LOG_MAX/2} wherever the terms do not overflow (|Im v| <= 226), and
    a product of two of them in the Lame kernel stays finite.  Without it
    the leading term at tau' = 1e4 i, reached from tau = 1e-4 i, would be
    e^{-2500 pi}.  A kept modulus (lift = 0) with a leading coefficient
    2 |nu|^{1/4} so small that the leading term at the exclusion radius
    would be subnormal (Im tau above about 885) raises SeriesRangeError:
    its digits, and with them every ratio of series values, would be lost.
    """

    __slots__ = ("tau", "tau_r", "nome_r", "gamma", "w", "w_inv", "w_inv2",
                 "w_inv3", "log_c", "lift", "shift", "gauss", "terms", "near",
                 "arrays", "separable", "consts")

    def __init__(self, tm: TorusModulus):
        tau = tm.tau
        if tau.imag >= _TERMS_FROM[3]:
            # no image needs fewer terms (module docstring): keep tau
            gamma, w, tau_r, nome_r = (1, 0, 0, 1), 1 + 0j, tau, tm.nome
            log_c = 0j
        else:
            gamma, log_c = _modular_image(tau)
            w, tau_r = _basis(tau, gamma)
            nome_r = cmath.exp(1j * math.pi * tau_r)
            # C sqrt(w) is an eighth root of unity, e^{i pi j/4}
            j = round((log_c + 0.5 * cmath.log(w)).imag * 4.0 / math.pi) % 8
            log_c = 0.25j * math.pi * j - 0.5 * cmath.log(w)
        t1, t2, t3, _ = _TERMS_FROM  # K <= 4 at tau_r
        terms = 1 + (tau_r.imag < t1) + (tau_r.imag < t2) + (tau_r.imag < t3)
        self.tau, self.tau_r, self.nome_r, self.gamma, self.w = (
            tau, tau_r, nome_r, gamma, w)
        self.w_inv = 1.0 / w
        self.w_inv2 = self.w_inv * self.w_inv
        self.w_inv3 = self.w_inv2 * self.w_inv
        # e^lift |nu'|^{1/4} >= e^{-_LOG_MAX/2}, lifted no higher than
        # |nu|^{1/4} of tau itself
        self.lift = max(0.0, min(0.25 * math.pi * (tau_r.imag - tau.imag),
                                 0.25 * math.pi * tau_r.imag - 0.5 * _LOG_MAX))
        self.log_c = log_c - self.lift
        self.shift = TWO_PI_I * gamma[2]
        self.gauss = -1j * math.pi * gamma[2]
        # e^lift nu'^{1/4}
        coef = cmath.exp(0.25j * math.pi * tau_r + self.lift)
        if 2.0 * abs(coef) * POLE_EXCLUSION_RADIUS < sys.float_info.min:
            raise SeriesRangeError(
                f"theta1 series at tau = {tau_r} underflows: its leading "
                f"coefficient is {2.0 * abs(coef):.3e}")
        nu2 = nome_r * nome_r
        nu2_pow = complex(1.0)
        self.terms = []
        for k in range(terms):
            a_k = (2 * k + 1) * math.pi
            c0 = 2.0 * coef
            c1 = c0 * a_k
            c2 = -c1 * a_k
            self.terms.append((a_k, c0, c1, c2, c2 * a_k))
            nu2_pow *= nu2
            coef = -coef * nu2_pow  # (-1)^{k+1} nu^{(k+3/2)^2} relative update
        near = POLE_EXCLUSION_RADIUS / abs(w)
        self.near = near if tau_r.imag >= 4.0 * near else math.inf
        self.arrays = None
        self.separable = None
        self.consts = None


def _table(tm: TorusModulus) -> _SeriesTable:
    """The series table of tm, built on first use."""
    tab = tm._series
    if tab is None:
        tab = _SeriesTable(tm)
        object.__setattr__(tm, "_series", tab)
    return tab


def _table_arrays(tab: _SeriesTable):
    """(coefficients, bound, offsets) of `_series_sums`, built on first use.
    The coefficients, shape (2, K, 2, 1), are c_{2i} of harmonic k at
    [i, k, 0] for the sine rows (theta1, theta1'') and c_{2i+1} / 2 at
    [i, k, 1] for the cosine rows (theta1', theta1''', summed over 2 cos).
    bound = _LOG_MAX / (2K - 1) caps |Im(pi w)|: the last harmonic grows
    like exp((2K - 1) |Im(pi w)|).  The offsets, shape (3, 1) and complex
    so that no operation casts, are those from 4 cos^2 x of the first
    step's t + 1 and t - 1 and of t itself."""
    if tab.arrays is None:
        import numpy as np
        c = np.array([[(t[1], 0.5 * t[2]) for t in tab.terms],
                      [(t[3], 0.5 * t[4]) for t in tab.terms]])[..., None]
        tab.arrays = (c, _LOG_MAX / (2 * len(tab.terms) - 1),
                      np.array([[1.0], [3.0], [2.0]], dtype=complex))
    return tab.arrays


def _separable_arrays(tab: _SeriesTable):
    """(weights, powers) of the separable sums (module docstring), built on
    first use.  weights[k, j], shape (K + 1, 2), takes the product of the
    node's and the pair's harmonics k (`_harmonics`) to theta1:
    2 (-1)^k e^lift nu'^{1/4} (the table's c_0 of harmonic k over
    nu'^{k(k+1)}), times 1/2i and -1/2i, and times x's constant
    e^lift theta1'(0 | tau') / w.  powers = (nu', nu'^2, ..., nu'^K), the
    steps of the harmonics' recurrence."""
    if tab.separable is None:
        import numpy as np
        count = len(tab.terms) + 1
        c = tab.terms[0][1] * _constants(tab)[0] * (-1.0) ** np.arange(count)
        tab.separable = (c[:, None] * np.array([-0.5j, 0.5j]),
                         np.cumprod(np.full(count - 1, tab.nome_r)))
    return tab.separable


def _constants(tab: _SeriesTable):
    """(e^lift theta1'(0 | tau') / w, the Weierstrass constant, theta1'(0))
    at tau, built on first read from the product and Lambert forms of the
    module docstring at tau', x = nu'^2, to double precision (the E2 tail
    from factor m on is at most 24 m |x|^m / (1 - |x|)^3, the product's is
    smaller), then restored to tau by the laws there."""
    if tab.consts is None:
        nu2 = tab.nome_r * tab.nome_r
        q2 = abs(nu2)
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
        nu4 = cmath.exp(0.25j * math.pi * tab.tau_r + tab.lift)
        lame = 2.0 * math.pi * nu4 * prod ** 3 * tab.w_inv
        c_r = -math.pi ** 2 * (1.0 - 24.0 * lambert) / 3.0
        tab.consts = (lame, c_r * tab.w_inv2 - tab.shift * tab.w_inv,
                      cmath.exp(tab.log_c) * lame)
    return tab.consts


def _reduce_checked(z: complex, tab: _SeriesTable, name: str | None):
    """(v, m, n, z / w) with z / w = v + m + n tau' and v reduced at tau'
    (module docstring).  A z within POLE_EXCLUSION_RADIUS of the lattice of
    tau raises PoleProximityError under name, unless name is None."""
    zw = z * tab.w_inv
    v, m, n = reduce_to_cell(zw, tab.tau_r)
    if name is not None and not (abs(v.imag) >= tab.near or
                                 abs(v.real - round(v.real)) >= tab.near):
        d = lattice_distance(z, tab.tau)
        if d < POLE_EXCLUSION_RADIUS:
            raise PoleProximityError(z, name, d)
    return v, m, n, zw


def _log_factor(v, m, n, tab: _SeriesTable):
    """log of theta1(z | tau) / (C theta1(v | tau')) at z / w = v + m + n tau',
    for scalars or arrays: the quasi-periodicity of the lattice of tau at
    z = p + M + N tau, p = w v (module docstring),

        log F = i pi (M + N) - i pi (N^2 tau + 2 N p),

    then the Gaussian -i pi c p v of (*).  In log form, ratios of theta
    values combine their factors additively before one exponential."""
    a, b, c, d = tab.gamma
    p = v * tab.w
    big_n = m * c + n * a
    return (_I_PI * ((m * d + n * b + big_n) - big_n * big_n * tab.tau
                     - 2 * big_n * p)
            + tab.gauss * p * v)


def _range_error(name: str, tab: _SeriesTable, **at) -> SeriesRangeError:
    """The error for a value of ``name`` past the double range at the
    points ``at``, e.g. "x(u, z) at tau = ... leaves the double range at
    u = ..., z = ..."."""
    points = ", ".join(f"{k} = {complex(p)}" for k, p in at.items())
    return SeriesRangeError(f"{name} at tau = {tab.tau} leaves the double "
                            f"range at {points}")


def _theta_factor(v, m, n, tab: _SeriesTable) -> complex:
    """theta1(z | tau) / theta1(v | tau'): C exp(`_log_factor`), with the
    sign (-1)^{M+N} taken outside the exponential.  A factor past the
    double range raises SeriesRangeError."""
    a, b, c, d = tab.gamma
    p = v * tab.w
    big_n = m * c + n * a
    big_m = m * d + n * b
    try:
        return (-1.0 if (big_m + big_n) % 2 else 1.0) * cmath.exp(
            -_I_PI * (big_n * big_n * tab.tau + 2 * big_n * p)
            + tab.gauss * p * v + tab.log_c)
    except OverflowError:
        raise _range_error("theta1", tab,
                           z=p + big_m + big_n * tab.tau) from None


def _theta_series_at(w: complex, tab: _SeriesTable, rows: int):
    """The first ``rows`` of theta1 and its first three z-derivatives at a
    reduced w, summed over the table's K terms, as `_series_sums` gives
    them for arrays.  One row (theta1 alone) takes the sines only, two
    rows (theta1, theta1') the sines and cosines, three or four every
    product.  Each row is summed term by term in the same operations
    whatever the others, so a row has the same bits at any ``rows`` that
    includes it.  A term past the double range (|Im w| beyond about
    226 / (2k+1)) raises SeriesRangeError; sin and cos of one x overflow
    together there, as |sinh| and cosh agree to rounding past |Im x| of
    about 19."""
    sin = cmath.sin
    try:
        if rows == 1:
            s0 = 0j
            for a, c0, _, _, _ in tab.terms:
                s0 += c0 * sin(a * w)
            return (s0,)
        cos = cmath.cos
        s0 = s1 = 0j
        if rows == 2:
            for a, c0, c1, _, _ in tab.terms:
                x = a * w
                s0 += c0 * sin(x)
                s1 += c1 * cos(x)
            return s0, s1
        s2 = s3 = 0j
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
    return (s0, s1, s2, s3)[:rows]


def _first_harmonic(w: np.ndarray, tab: _SeriesTable):
    """(sin(Re x) + i cos(Re x), Im x) at x = pi w, w a 1-D array: the
    real libm calls that `_series_sums` and `_harmonics` share.  A point
    past |Im x| = _LOG_MAX / (2K - 1), where the K-th harmonic of a K-term
    table can leave the double range, raises the scalar path's
    SeriesRangeError first, never inf or nan."""
    import numpy as np
    bound = _table_arrays(tab)[1]
    x = w * _PI
    re, im = x.real, x.imag
    if w.size and np.maximum.reduce(np.abs(im)) > bound:
        i = np.flatnonzero(np.abs(im) > bound)[0]
        raise SeriesRangeError(f"theta1 series overflows at the reduced "
                               f"point w = {complex(w[i])}")
    trig = np.empty(w.size, dtype=complex)
    np.sin(re, trig.real)
    np.cos(re, trig.imag)
    return trig, im


def _series_sums(w: np.ndarray, tab: _SeriesTable, rows: int,
                 first=None) -> np.ndarray:
    """The first ``rows`` of the series of `_theta_series_at` (theta1,
    theta1', theta1'', theta1''') at the reduced points of the 1-D array w,
    shape (rows, w.size); ``first``, where given, is `_first_harmonic` at
    w.

    With x = pi w, only the first harmonic comes from libm, as real
    functions of Re x and Im x:

        sin x = sin(Re x) cosh(Im x) + i cos(Re x) sinh(Im x),
        cos x = cos(Re x) cosh(Im x) - i sin(Re x) sinh(Im x).

    The odd harmonics s_k = sin((2k+1) x), and c_k = cos((2k+1) x) alike,
    follow from the three-term recurrence

        s_{k+1} = t s_k - s_{k-1},   t = 2 cos 2x = 4 cos^2 x - 2,

    started from s_{-1} = -sin x for the sine rows and c_{-1} = +cos x for
    the cosine rows, so that its first step is s_1 = (t + 1) sin x and
    c_1 = (t - 1) cos x.  The cosine rows run on 2 c_k: the product that
    forms the first harmonic gives 2 cos x as readily as cos x, and 4 cos^2 x
    is then one square; their coefficients are halved, exactly.  t is
    formed only where K > 1, where the bound below keeps |Im x| under
    _LOG_MAX / 3 and so cos^2 x finite; at K = 1 a point may reach
    |Im x| = _LOG_MAX.  The harmonics are weighted by the table's
    coefficients and added down the K axis, k = 0 first.  Every step is
    elementwise, so no value depends on the other points of the call, and
    no complex libm function is called (module docstring).  sinh comes
    from libm, not from a difference of exponentials, which would lose its
    relative accuracy near v = 0.

    A point past |Im x| = _LOG_MAX / (2K - 1), where the last harmonic can
    leave the double range, raises the scalar path's SeriesRangeError
    before any function is evaluated, never inf or nan
    (`_first_harmonic`).  (The scalar loop raises only where cmath.sin
    overflows, up to ln 2 / (2K - 1) further out.)
    """
    import numpy as np
    coef, _, offsets = _table_arrays(tab)
    if rows < 3:
        coef = coef[:1, :, :rows]
    _, k_max, j, _ = coef.shape
    size = w.size
    # sin(re) + i cos(re), 2 cos(re) - 2i sin(re) and cosh(im) +
    # i sinh(im): the real views of the first two times the third are
    # sin x and 2 cos x, whose cosine rows the table halves
    e0, im = _first_harmonic(w, tab) if first is None else first
    e1 = e0 * _MINUS_TWO_I
    f = np.empty(size, dtype=complex)
    np.cosh(im, f.real)
    np.sinh(im, f.imag)
    fv = f.view(float)
    # g[k] = (s_k, 2 c_k), or s_k alone where no cosine row is asked for
    g = np.empty((k_max, j, size), dtype=complex)
    for e, out in zip((e0, e1)[:j], g[0]):
        np.multiply(e.view(float), fv, out.view(float))
    if k_max > 1:
        two_cos = (g[0, 1] if j == 2 else
                   (e1.view(float) * fv).view(complex))
        # t + 1, t - 1 and t from 4 cos^2 x
        t_rows = two_cos * two_cos - offsets
        t = t_rows[2]
        np.multiply(g[0], t_rows[:j], g[1])
        for k in range(2, k_max):
            h = g[k]
            np.multiply(g[k - 1], t, h)
            np.subtract(h, g[k - 2], h)
    if len(coef) == 1:  # rows < 3: weight g in place, no second array
        g *= coef[0]
        return np.add.reduce(g, 0)
    sums = np.add.reduce(g * coef, 1)
    return sums.reshape(len(sums) * j, size)[:rows]


def _pole_check(v: np.ndarray, points, tab: _SeriesTable, name) -> None:
    """The pole checks of `_reduce_checked` at the reduced points v at tau'
    of a 1-D array.  |Im v| is tested first and Re v only where that
    fails, the common case's one pass; only the points that fail both are
    measured, at ``points()[i]``, in the lattice of tau.  The first one
    within POLE_EXCLUSION_RADIUS, in array order, raises
    PoleProximityError under name(i), unless that is None (a point exempt
    from the check).  A point without finite lattice coordinates fails
    both tests and raises EllcmError (`_lattice_distance_array`)."""
    import numpy as np
    far = np.abs(v.imag) >= tab.near
    if far.all():
        return
    near = np.flatnonzero(~far)
    re = v.real[near]
    near = near[~(np.abs(re - np.round(re)) >= tab.near)]
    if not near.size:
        return
    z = points()[near]
    d = _lattice_distance_array(z, tab.tau)
    for i in np.flatnonzero(d < POLE_EXCLUSION_RADIUS):
        label = name(near[i])
        if label is not None:
            raise PoleProximityError(complex(z[i]), label, float(d[i]))


def _harmonics(first, s0: np.ndarray, tab: _SeriesTable) -> np.ndarray:
    """h[i, k, j] = nu'^{k(k+1)/2} e^{(-1)^j i (2k+1) pi w_i} / s0_i at the
    reduced points w_i of a 1-D array, for k <= K (the table's K terms and
    one more), shape (w.size, K + 1, 2): one factor of the separable sums
    (module docstring).  ``first`` is `_first_harmonic` at w and s0 is
    theta1 there, from `_series_sums`.

    e^{+-i pi w} comes from the real sin and cos of ``first`` and real
    exp, and harmonic k from harmonic k - 1 times the step
    e^{+-2 i pi w} nu'^k, scaled before it multiplies: no complex libm
    function runs, and no partial product leaves the double range."""
    import numpy as np
    powers = _separable_arrays(tab)[1]
    trig, im = first
    # harmonic by harmonic, each a contiguous row; node-major at the end
    h = np.empty((powers.size + 1, 2, s0.size), dtype=complex)
    h0 = h[0]
    for j, e in enumerate((np.exp(-im), np.exp(im))):
        np.multiply(e, trig.imag, h0[j].real)
        np.multiply(e if j == 0 else -e, trig.real, h0[j].imag)
    step = h0 * h0
    h0 *= np.reciprocal(s0)
    for k, nu_k in enumerate(powers, 1):
        np.multiply(step, nu_k, h[k])
        h[k] *= h[k - 1]
    return np.ascontiguousarray(h.transpose(2, 0, 1))


def _separable_sums(hz: np.ndarray, hu: np.ndarray,
                    tab: _SeriesTable) -> np.ndarray:
    """theta1 at V = v_z - v_u, over theta1(v_z) theta1(v_u) and times x's
    constant, from the harmonics hz of the nodes and hu of the pairs
    (`_harmonics`): shape (nodes, pairs).  One real matrix product
    contracts over the 2 (K + 1) harmonics: the complex one is taken
    through the real view of hz, against a real matrix holding each
    complex pair factor as the 2 x 2 block of its multiplication."""
    import numpy as np
    weights = _separable_arrays(tab)[0]
    nodes, count, _ = hz.shape
    # the pair factor of harmonic k and sign j is hu[:, k, 1 - j]
    cols = (weights[:, :, None] * hu[:, :, ::-1].transpose(1, 2, 0)).reshape(
        2 * count, -1)
    # the real view of (c, i c) holds the block (Re c, Im c; -Im c, Re c)
    block = np.empty((2 * count, 2, len(hu)), dtype=complex)
    block[:, 0] = cols
    np.multiply(cols, 1j, block[:, 1])
    # numpy takes a one-row product through a matrix-vector routine, whose
    # sums round differently: a lone node is doubled, so that each node's
    # entries are those it has in any batch
    left = hz.reshape(nodes, 2 * count).view(float)
    out = ((np.repeat(left, 2, 0) if nodes == 1 else left)
           @ block.view(float).reshape(4 * count, -1))
    return out[:nodes].view(complex)


def _reduce_checked_array(z: np.ndarray, tm: TorusModulus, name):
    """`_reduce_checked` at every point of the 1-D array z: (v, m, n, z / w,
    table), pole-checked by `_pole_check` under name(i)."""
    tab = _table(tm)
    zw = z * tab.w_inv
    v, m, n = reduce_to_cell_array(zw, tab.tau_r)
    _pole_check(v, lambda: z, tab, name)
    return v, m, n, zw, tab


def _rho_law(r, n, zw, tab: _SeriesTable):
    """rho(z | tau) from r = rho(v | tau') at z / w = v + m + n tau':
    (r - 2 pi i n) / w - 2 pi i c z / w.  Scalars or arrays alike."""
    return (r - TWO_PI_I * n) * tab.w_inv - tab.shift * zw


def _rho_dz_law(r, B, tab: _SeriesTable):
    """rho'(z | tau) from r = rho(v | tau') and B = theta1''/theta1 at
    v: (B - r^2) / w^2 - 2 pi i c / w."""
    return (B - r * r) * tab.w_inv2 - tab.shift * tab.w_inv


def _wp_dz_law(r, B, T, tab: _SeriesTable):
    """wp'(z | tau) = -rho''(z | tau) from r = rho(v | tau'), B and
    T = theta1'''/theta1 at v: (3 r B - T - 2 r^3) / w^3, cubed as r r r
    (numpy's complex r**3 differs in the last bit).  rho'' is its negation:
    negating (T - 3 r B + 2 r^3) / w^3 instead flips zero parts' signs."""
    return (3.0 * r * B - T - 2.0 * r * r * r) * tab.w_inv3


def _rho_ratios(s: np.ndarray, n, zw, tab: _SeriesTable,
                orders=(0, 1, 2)) -> list:
    """[rho, rho', rho''][d] for each d in ``orders``, at tau, from the
    rows of `_series_sums` (max(orders) + 2 of them) at the points v of
    z / w = v + m + n tau', by the laws of the module docstring.  Scalars
    or arrays alike."""
    r = s[1] / s[0]
    out = []
    if 0 in orders:
        out.append(_rho_law(r, n, zw, tab))
    if 1 in orders or 2 in orders:
        B = s[2] / s[0]
    if 1 in orders:
        out.append(_rho_dz_law(r, B, tab))
    if 2 in orders:
        out.append(-_wp_dz_law(r, B, s[3] / s[0], tab))
    return out


def _rho_array(z: np.ndarray, tm: TorusModulus, name, orders=(0, 1, 2)):
    """`_rho_ratios` at every point of the 1-D array z, pole-checked under
    name, summing only the series rows they need: wp = c - rho' and
    wp' = -rho''."""
    v, _, n, zw, tab = _reduce_checked_array(z, tm, name)
    return _rho_ratios(_series_sums(v, tab, max(orders) + 2), n, zw, tab,
                       orders)


def _rho_points(z, tm: TorusModulus, name, orders=(0, 1, 2)) -> list:
    """`_rho_array` one point at a time: each point of the sequence z is
    reduced once and pole-checked under name(i), all before any sum."""
    tab = _table(tm)
    at = [_reduce_checked(p, tab, name(i)) for i, p in enumerate(z)]
    rows = max(orders) + 2
    return [_rho_ratios(_theta_series_at(v, tab, rows), n, zw, tab, orders)
            for v, _, n, zw in at]


def _theta_bundle(z: complex, tm: TorusModulus, rows: int) -> complex:
    """theta1 (``rows`` = 1) or theta1' (``rows`` = 2) at z: theta1(v | tau')
    times `_theta_factor`, and theta1' = theta1 rho, summing only the rows
    it reads.  A value past the double range raises SeriesRangeError."""
    tab = _table(tm)
    zw = z * tab.w_inv
    v, m, n = reduce_to_cell(zw, tab.tau_r)
    s = _theta_series_at(v, tab, rows)
    f = _theta_factor(v, m, n, tab)
    if rows == 1:
        value = f * s[0]
    else:
        mu = -TWO_PI_I * n * tab.w_inv - tab.shift * zw
        value = f * (s[1] * tab.w_inv + mu * s[0])
    if cmath.isfinite(value):
        return value
    raise _range_error("theta1'" if rows == 2 else "theta1", tab, z=z)


def _reduced_ratios(z: complex, tm: TorusModulus, rows: int):
    """The first ``rows`` series sums at the reduced v of z, pole-checked
    under "z", with n, z / w and the table: what `_rho_ratios` reads."""
    tab = _table(tm)
    v, _, n, zw = _reduce_checked(z, tab, "z")
    return _theta_series_at(v, tab, rows), n, zw, tab


# ----------------------------------------------------------------------
# Public theta operations
# ----------------------------------------------------------------------

def theta1(z: complex, tm: TorusModulus) -> complex:
    """theta1(z), summed symmetrically (terms k and -k-1 are paired)."""
    return _theta_bundle(z, tm, 1)


def theta1_dz(z: complex, tm: TorusModulus) -> complex:
    """theta1'(z) by term-wise differentiation of the series."""
    return _theta_bundle(z, tm, 2)


def theta1_d3z_at_0(tm: TorusModulus) -> complex:
    """theta1'''(0) = -2 pi^3 sum (-1)^k (2k+1)^3 nu^{(k+1/2)^2}, evaluated
    as -pi^2 E2 theta1'(0) (see the module docstring)."""
    _, c, dz0 = _constants(_table(tm))
    return 3.0 * c * dz0


def _factor_count(q: float) -> int:
    """The factors of the triple product at |nu| = q: past factor M each
    differs from 1 by at most 6 q^{2m-1} at a reduced point (|cos| of
    2 pi (v + 1/2) is at most 1/q there), and the tail's sum
    6 q^{2M+1} / (1 - q^2) is at most REL_TOL."""
    m = 1
    while 6.0 * q ** (2 * m + 1) > REL_TOL * (1.0 - q * q):
        m += 1
    return m


def theta1_product(z: complex, tm: TorusModulus) -> complex:
    """theta1(z) via the triple-product form

        -2 nu^{1/4} cos(pi (z+1/2))
            prod_m (1 - nu^{2m}) (1 + 2 cos(2 pi (z+1/2)) nu^{2m} + nu^{4m}),

    at tau' with `_factor_count` factors, reduced and prefactored exactly
    like the series path.
    """
    tab = _table(tm)
    v, m, n, _ = _reduce_checked(z, tab, None)
    nu2 = tab.nome_r * tab.nome_r
    try:
        c1 = cmath.cos(math.pi * (v + 0.5))
        c2 = cmath.cos(2 * math.pi * (v + 0.5))
    except OverflowError:
        raise SeriesRangeError(
            f"theta1 triple product overflows at the reduced point "
            f"v = {v}") from None
    prod = -2.0 * cmath.exp(0.25j * math.pi * tab.tau_r + tab.lift) * c1
    nu2_pow = complex(1.0)
    for _ in range(_factor_count(abs(tab.nome_r))):
        nu2_pow *= nu2
        prod *= ((1.0 - nu2_pow)
                 * (1.0 + 2.0 * c2 * nu2_pow + nu2_pow * nu2_pow))
    value = _theta_factor(v, m, n, tab) * prod
    if cmath.isfinite(value):
        return value
    raise _range_error("theta1", tab, z=z)


# ----------------------------------------------------------------------
# rho, wp and friends
# ----------------------------------------------------------------------

def rho(z: complex, tm: TorusModulus) -> complex:
    """rho(z) = theta1'(z)/theta1(z)."""
    (s0, s1), n, zw, tab = _reduced_ratios(z, tm, 2)
    return _rho_law(s1 / s0, n, zw, tab)


def weierstrass_constant(tm: TorusModulus) -> complex:
    """theta1'''(0) / (3 theta1'(0)): the constant making wp = -rho' + c
    free of a constant term in its Laurent expansion at 0."""
    return _constants(_table(tm))[1]


def wp(z: complex, tm: TorusModulus) -> complex:
    """Weierstrass wp(z, tau) = c - rho'(z), c = theta1'''(0)/(3 theta1'(0)),
    formed as the pair sums and the A diagonal form it."""
    (s0, s1, s2), _, _, tab = _reduced_ratios(z, tm, 3)
    return _constants(tab)[1] - _rho_dz_law(s1 / s0, s2 / s0, tab)


def wp_dz(z: complex, tm: TorusModulus) -> complex:
    """wp'(z, tau) = -rho''(z), fully analytic."""
    (s0, s1, s2, s3), _, _, tab = _reduced_ratios(z, tm, 4)
    return _wp_dz_law(s1 / s0, s2 / s0, s3 / s0, tab)


# ----------------------------------------------------------------------
# Lattice-sum oracle
# ----------------------------------------------------------------------

#: Most rows `wp_lattice_oracle` sums, 2 N + 1: about 32 MB a row array.
#: Im tau = 1e-5 takes 1,273,243 rows; the budget ends near 6.4e-6.
_ORACLE_ROWS = 2_000_000


def _pi2_csc2(a: np.ndarray) -> np.ndarray:
    """pi^2 csc^2(pi a) at every point of a.  sin overflows past |Im a| of
    about 226; heights are capped at 100, where csc^2 is below 1e-270."""
    import numpy as np
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
    series.  More than _ORACLE_ROWS rows raise SeriesRangeError.
    """
    import numpy as np
    d = lattice_distance(z, tm.tau)
    if d < POLE_EXCLUSION_RADIUS:
        raise PoleProximityError(z, "z", d)
    tau = tm.tau - round(tm.tau.real)
    w = reduce_to_cell(z, tau)[0]
    big_n = int(40 / (2 * math.pi * tau.imag)) + 2
    if 2 * big_n + 1 > _ORACLE_ROWS:
        raise SeriesRangeError(
            f"the lattice sum at tau = {tm.tau} needs {2 * big_n + 1} rows, "
            f"more than {_ORACLE_ROWS}")
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

#: Where every theta value and x's constant lie between 2^-100 and 2^100
#: and |Re F| < 512 ln 2, `_lame_core` forms x as the plain quotient.
_LAME_LO, _LAME_HI = 2.0 ** -100, 2.0 ** 100


def _lame_scaled(log_f: complex, s_zu: complex, c: complex, s_z: complex,
                 s_u: complex) -> complex:
    """e^log_f s_zu c / (s_z s_u) with each value scaled by its binary
    exponent (`math.frexp`, exact) and e^log_f by 2^{-512 h},
    h = Re log_f / (512 ln 2) rounded toward 0 (_LOG_MAX / 2 is 512 ln 2
    to rounding), and the powers of two applied last by `math.ldexp`:
    OverflowError only where the quotient itself leaves the double range."""
    frexp, ldexp = math.frexp, math.ldexp
    i, j = frexp(abs(s_zu))[1], frexp(abs(c))[1]
    k, m = frexp(abs(s_z))[1], frexp(abs(s_u))[1]
    h = int(log_f.real / (0.5 * _LOG_MAX))
    y = (cmath.exp(log_f - 0.5 * _LOG_MAX * h) * (s_zu * ldexp(1.0, -i))
         * (c * ldexp(1.0, -j)) / (s_z * ldexp(1.0, -k)
                                   * (s_u * ldexp(1.0, -m))))
    e = 512 * h + i + j - k - m
    return complex(ldexp(y.real, e), ldexp(y.imag, e))


def _lame_core(u: complex, z: complex, tm: TorusModulus,
               ratios: bool = True):
    """x(u, z); with ``ratios``, (x, rho(u), rho(z - u), rho(z),
    rho'(z - u)).

    Each point is reduced and pole-checked once: z - u (only with
    ``ratios``: x itself vanishes there), then u, then z, and each series
    sums only the rows read: theta1 alone for x, and with ``ratios`` two
    rows at u and z and three at z - u.  x = e^F theta1(z - u) c /
    (theta1(z) theta1(u)), c = `_constants`[0], F the log factors of z - u
    less those of z and u.

    e^F and the theta values can leave the double range where x does not
    (e^{782} at tau = 0.1+250i, x about e^{1.8}), which `_lame_scaled`
    handles at the cost of four exponent scalings.  They are needed only
    where a value can leave the normal range: where |Re F| < 512 ln 2 and
    |theta1(z - u)|, |c|, |theta1(z)| and |theta1(u)| lie in
    (2^-100, 2^100), x is the plain quotient, with the scaled form's bits.
    There every partial product and quotient has a magnitude in
    (2^-912, 2^912), `_lame_scaled` takes the same steps on the same values
    times powers of two (h = 0), and rounding in the normal range commutes
    with such powers.  Only a real or imaginary part more than 2^110 below
    its value's magnitude can reach the subnormal range in one form and not
    the other, and so round apart.  Outside the window the scaled form
    runs, and SeriesRangeError is raised only where x is past the double
    range.
    """
    tab = _table(tm)
    at_zu = _reduce_checked(z - u, tab, "z - u" if ratios else None)
    at_u = _reduce_checked(u, tab, "u")
    at_z = _reduce_checked(z, tab, "z")
    rows = 2 if ratios else 1
    s_u = _theta_series_at(at_u[0], tab, rows)
    s_z = _theta_series_at(at_z[0], tab, rows)
    s_zu = _theta_series_at(at_zu[0], tab, 3 if ratios else 1)
    log_f = (_log_factor(at_zu[0], at_zu[1], at_zu[2], tab)
             - _log_factor(at_z[0], at_z[1], at_z[2], tab)
             - _log_factor(at_u[0], at_u[1], at_u[2], tab))
    a, c, b, d = s_zu[0], _constants(tab)[0], s_z[0], s_u[0]
    lo, hi, half = _LAME_LO, _LAME_HI, 0.5 * _LOG_MAX
    if (-half < log_f.real < half and lo < abs(a) < hi and lo < abs(c) < hi
            and lo < abs(b) < hi and lo < abs(d) < hi):
        x = cmath.exp(log_f) * a * c / (b * d)
    else:
        try:
            x = _lame_scaled(log_f, a, c, b, d)
        except OverflowError:
            raise _range_error("x(u, z)", tab, u=u, z=z) from None
    if not ratios:
        return x
    r_zu = s_zu[1] / s_zu[0]
    return (x, _rho_law(s_u[1] / s_u[0], at_u[2], at_u[3], tab),
            _rho_law(r_zu, at_zu[2], at_zu[3], tab),
            _rho_law(s_z[1] / s_z[0], at_z[2], at_z[3], tab),
            _rho_dz_law(r_zu, s_zu[2] / s_zu[0], tab))


def _lame_finite(value: complex, name: str, u: complex, z: complex,
                 tm: TorusModulus) -> complex:
    """value, or SeriesRangeError where a Lame kernel's product of x and
    its ratios has left the double range."""
    if cmath.isfinite(value):
        return value
    raise _range_error(name, _table(tm), u=u, z=z)


def lame_x(u: complex, z: complex, tm: TorusModulus) -> complex:
    """x(u, z) = theta1(z-u) theta1'(0) / (theta1(z) theta1(u))."""
    return _lame_core(u, z, tm, False)


def lame_y(u: complex, z: complex, tm: TorusModulus) -> complex:
    """y(u, z) = d/du x(u, z) = -x(u, z) (rho(u) + rho(z-u))."""
    x, rho_u, rho_zu, _, _ = _lame_core(u, z, tm)
    return _lame_finite(-x * (rho_u + rho_zu), "y(u, z)", u, z, tm)


def lame_x_dz(u: complex, z: complex, tm: TorusModulus) -> complex:
    """d/dz x(u, z) = x(u, z) (rho(z-u) - rho(z))."""
    x, _, rho_zu, rho_z, _ = _lame_core(u, z, tm)
    return _lame_finite(x * (rho_zu - rho_z), "dx/dz(u, z)", u, z, tm)


def lame_x_dtau(u: complex, z: complex, tm: TorusModulus) -> complex:
    """d/dtau x(u, z), via the mixed heat equation

        2 pi i dx/dtau + d^2 x / du dz = 0,

    with the mixed partial evaluated analytically:
        d^2x/dudz = y (rho(z-u) - rho(z)) - x rho'(z-u).
    """
    x, rho_u, rho_zu, rho_z, rho_dz_zu = _lame_core(u, z, tm)
    y = -x * (rho_u + rho_zu)
    mixed = y * (rho_zu - rho_z) - x * rho_dz_zu
    return _lame_finite(-mixed / TWO_PI_I, "dx/dtau(u, z)", u, z, tm)


def _exp_parts(x: np.ndarray) -> np.ndarray:
    """e^x at every point of the complex array x, from the real exp, cos
    and sin of its parts: no complex libm function (module docstring)."""
    import numpy as np
    out = np.empty(x.shape, dtype=complex)
    np.cos(x.imag, out.real)
    np.sin(x.imag, out.imag)
    out *= np.exp(x.real)
    return out


def _lame_x_folded(log_x, s_zu, s_z, s_u, tab: _SeriesTable):
    """x = e^log_x s_zu c / (s_z s_u) at every entry of the broadcast
    arrays, scaled as by `_lame_scaled`: inf or nan past the double range."""
    import numpy as np
    values = (s_zu, _constants(tab)[0], s_z, s_u)
    e = [np.frexp(np.abs(t))[1] for t in values]
    a, b, c, d = (t * np.ldexp(1.0, -k) for t, k in zip(values, e))
    h = (log_x.real / (0.5 * _LOG_MAX)).astype(int)
    y = _exp_parts(log_x - 0.5 * _LOG_MAX * h) * a * b / (c * d)
    e = 512 * h + e[0] + e[1] - e[2] - e[3]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ldexp(y.real, e) + 1j * np.ldexp(y.imag, e)


def lame_array(z, u, tm: TorusModulus, ratios: bool = False):
    """x(u, z) at every node of the 1-D array z and argument of the 1-D
    array u, shape (z.size, u.size); with ``ratios``, (x, rho, rho', rho''),
    the last three each a list of their values at u, z - u and z (rho
    unreduced, as `_lame_core` gives it), shaped to broadcast against x.

    The ratios come first, from one `_rho_array` pass over z - u
    (node-major), u and z, pole-checked in that order, the scalar kernels'
    order, under those names.  x pole-checks and sums only u and z (z - u
    is a zero of x), by one `_series_sums` pass.  Each entry is
    x(v_u, v_z | tau') at their reduced points, from theta1 at
    V = v_z - v_u by the separable sums (`_harmonics`, `_separable_sums`),
    times its lattice and Gaussian factor, from `_log_factor` at the
    unreduced V or, at gamma = 1 with the pairs in the row n = 0, from one
    row for each distinct n_z of the nodes (module docstring),
    exponentiated by `_exp_parts`.  Where Im tau' exceeds _SEPARABLE_IM
    the separable products could leave the double range, and where the
    factor could, it is not formed: there each z - u is reduced and summed
    like u and z, and x formed as `_lame_scaled` forms it
    (`_lame_x_folded`).
    """
    import numpy as np
    z, u = (np.asarray(v, dtype=complex).reshape(-1) for v in (z, u))
    k, a = z.size * u.size, u.size
    if ratios:
        at = _rho_array(np.concatenate([(z[:, None] - u).ravel(), u, z]),
                        tm, lambda i: ("z - u" if i < k else
                                       "u" if i < k + a else "z"))
    tab = _table(tm)
    points = np.concatenate([u, z])  # u first, as the pole checks go
    v, m, n = reduce_to_cell_array(points * tab.w_inv, tab.tau_r)
    if not (tab.gamma[2] or n[:a].any()):
        # the factor is e^{2 pi i n_z v_u}: one row for each distinct n_z
        levels, row = np.unique(n[a:], return_inverse=True)
        log_x = np.multiply.outer(levels, TWO_PI_I * v[:a])
    else:
        f = _log_factor(v, m, n, tab)
        log_x = (_log_factor(v[a:, None] - v[:a], m[a:, None] - m[:a],
                             n[a:, None] - n[:a], tab) - f[a:, None] - f[:a])
        row = slice(None)
    _pole_check(v, lambda: points, tab, lambda i: "u" if i < a else "z")
    first = _first_harmonic(v, tab)
    s = _series_sums(v, tab, 1, first)[0]
    if (tab.tau_r.imag <= _SEPARABLE_IM and
            np.abs(log_x.real).max(initial=0.0) <= 0.5 * _LOG_MAX):
        h = _harmonics(first, s, tab)
        x = _separable_sums(h[a:], h[:a], tab) * _exp_parts(log_x)[row]
    else:
        zu = (z[:, None] - u).ravel()
        v_r, m_r, n_r = reduce_to_cell_array(zu * tab.w_inv, tab.tau_r)
        f = _log_factor(v, m, n, tab)
        x = _lame_x_folded(
            _log_factor(v_r, m_r, n_r, tab).reshape(z.size, a) - f[a:, None]
            - f[:a], _series_sums(v_r, tab, 1)[0].reshape(z.size, a),
            s[a:, None], s[:a], tab)
        for i, j in np.argwhere(~np.isfinite(x))[:1]:
            raise _range_error("x(u, z)", tab, u=u[j], z=z[i])
    if not ratios:
        return x
    return x, *([r[None, k:k + a], r[:k].reshape(z.size, a), r[k + a:, None]]
                for r in at)
