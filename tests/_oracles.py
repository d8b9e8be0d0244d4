"""Independent oracles used to freeze expected values.

These deliberately avoid the library's evaluation paths: the theta oracle
sums the raw defining exponential series, the derivative oracles are finite
differences, and the general-lattice wp oracle is a direct double sum.
"""

import cmath
import math

import numpy as np


def theta1_direct(z, tau, rel=1e-14, max_n=300):
    """The defining series, summed over n and -n-1 pairs until stagnation."""
    total, n = 0j, 0
    while True:
        term = (cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2
                          + 2j * math.pi * (n + 0.5) * (z + 0.5))
                + cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2
                            - 2j * math.pi * (n + 0.5) * (z + 0.5)))
        total += term
        if n > 2 and abs(term) < rel * abs(total):
            return -total
        n += 1
        if n >= max_n:
            raise RuntimeError("oracle series did not converge")


def fd_central(f, z, h=1e-6):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def fd6_richardson(f, z, h=1e-3):
    """6-point central first derivative, Richardson-combined over h, h/2."""

    def fd6(hh):
        return (-f(z - 3 * hh) + 9 * f(z - 2 * hh) - 45 * f(z - hh)
                + 45 * f(z + hh) - 9 * f(z + 2 * hh) + f(z + 3 * hh)
                ) / (60 * hh)

    d1 = fd6(h)
    d2 = fd6(h / 2)
    return (64 * d2 - d1) / 63


def fd_second(f, z, h=1e-4):
    return (f(z + h) - 2 * f(z) + f(z - h)) / (h * h)


def fd_third_at_0(f, h=1e-2):
    """Antisymmetric third-derivative stencil with one Richardson step."""

    def fd3(hh):
        return (f(2 * hh) - 2 * f(hh) + 2 * f(-hh) - f(-2 * hh)) / (2 * hh**3)

    return (4 * fd3(h / 2) - fd3(h)) / 3


def wp_direct_general(z, omega1, omega2, radius=120):
    """Brute-force wp over the lattice m*omega1 + n*omega2 (no Richardson;
    use generous radius and loose tolerances)."""
    rng = np.arange(-radius, radius + 1)
    m, n = np.meshgrid(rng, rng, indexing="ij")
    lam = m * omega1 + n * omega2
    lam = lam[(m != 0) | (n != 0)]
    return complex(1.0 / z**2 + np.sum(1.0 / (z + lam) ** 2 - 1.0 / lam**2))


def theta1_poisson(z, tau, orders=4):
    """theta1 and its first orders - 1 z-derivatives in mpmath, from the
    defining sum after Poisson summation over n:

        theta1(z | tau) = -(-i tau)^{-1/2} sum_k (-1)^k exp(-i pi (z + 1/2 - k)^2 / tau),

    principal root.  Its terms fall off like exp(-pi Im(-1/tau) k^2), so at
    small Im tau a few of them give every digit, where the q-series of
    mpmath's jtheta cancels from terms of order one.  Each Gaussian term g
    is differentiated in closed form: with a = -2 pi i (x - k) / tau and
    b = -2 pi i / tau, g' = a g, g'' = (a^2 + b) g, g''' = (a^3 + 3 a b) g.
    Sets mpmath to 40 digits, for the caller's arithmetic on the values
    too."""
    import mpmath as mp

    mp.mp.dps = 40
    x, tau = mp.mpc(z) + 0.5, mp.mpc(tau)
    b = -2j * mp.pi / tau
    centre = int(mp.nint(mp.re(x)))
    out = [mp.mpc(0)] * orders
    for k in range(centre - 40, centre + 41):
        g = (-1) ** k * mp.exp(-1j * mp.pi * (x - k) ** 2 / tau)
        a = b * (x - k)
        for d, f in enumerate((1, a, a * a + b, a ** 3 + 3 * a * b)[:orders]):
            out[d] += f * g
    c = -mp.power(-1j * tau, -0.5)
    return [c * v for v in out]


def theta1_mp(z, tau, orders=4):
    """theta1 and its first orders - 1 z-derivatives in 40-digit mpmath:
    theta1_poisson below Im tau = 0.3, mpmath's jtheta above, where the
    q-series converges fast and the Poisson sum slowly at large |tau|."""
    import mpmath as mp

    if tau.imag < 0.3:
        return theta1_poisson(z, tau, orders)
    mp.mp.dps = 40
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    # mpmath takes the principal q^(1/4); ellcm uses exp(i pi tau / 4)
    branch = mp.exp(1j * mp.pi * mp.mpc(tau) / 4) / mp.power(q, 0.25)
    return [branch * mp.pi ** d * mp.jtheta(1, mp.pi * mp.mpc(z), q, d)
            for d in range(orders)]


# The Dormand-Prince 5(4) tableau (Dormand & Prince 1980), a copy
# independent of ellcm.flow's.
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
         187 / 2100, 1 / 40)


def _combine_loop(coeffs, k):
    """sum of c * k_j over the nonzero c, added left to right from the
    first such term."""
    acc = None
    for c, kj in zip(coeffs, k):
        if c != 0.0:
            acc = c * kj if acc is None else acc + c * kj
    return acc


def dp_step_loop(f, s, y, h, k1):
    """One Dormand-Prince step with its stages in a list and each state
    summed term by term: (y5, y5 - y4, f(s + h, y5)), the reference for
    flow._dp_step."""
    k = [k1]
    for i in range(1, 7):
        k.append(f(s + DP_C[i] * h, y + h * _combine_loop(DP_A[i], k)))
    y5 = y + h * _combine_loop(DP_B5, k)
    y4 = y + h * _combine_loop(DP_B4, k)
    return y5, y5 - y4, k[6]


#: Moduli of the lattice geometry tests: the square lattice, one in the
#: mirror of the fundamental domain, two the series reduces, one whose basis
#: (1, tau) is 20 times longer than its shortest period, and a small one.
LATTICE_TAUS = (1j, -0.4 + 0.6j, 0.45 + 0.03j, 0.3 + 0.02j, 17.3 + 0.8j,
                1e-3j)


def lattice_points(lo, hi, tau):
    """Every point M + N tau of Z + tau Z in the box lo.real <= Re <= hi.real,
    lo.imag <= Im <= hi.imag, row by row: the rows N with N Im tau in the
    box, and in each row every M with M + N Re tau in it."""
    n = np.arange(math.ceil(lo.imag / tau.imag),
                  math.floor(hi.imag / tau.imag) + 1)
    m_lo = np.ceil(lo.real - n * tau.real)
    count = np.maximum(np.floor(hi.real - n * tau.real) - m_lo + 1,
                       0).astype(int)
    start = np.repeat(np.cumsum(count) - count, count)
    m = np.repeat(m_lo, count) + (np.arange(count.sum()) - start)
    return m + np.repeat(n, count) * tau


def segment_lattice_distance(a, b, tau):
    """Distance from the segment [a, b] (a point where a == b) to
    Z + tau Z by brute force.  r, the distance from a to the nearest point
    of its nearest row, bounds the answer, so every lattice point within r
    of the segment is in its bounding box widened by r: each of them is
    projected onto the segment.  r has a floor of 1e-9, so that a point on
    the lattice keeps its own lattice point in the box through rounding."""
    a, b = complex(a), complex(b)
    n = round(a.imag / tau.imag)
    r = 1.000001 * abs(a - round((a - n * tau).real) - n * tau) + 1e-9
    lam = lattice_points(complex(min(a.real, b.real) - r,
                                 min(a.imag, b.imag) - r),
                         complex(max(a.real, b.real) + r,
                                 max(a.imag, b.imag) + r), tau)
    d = b - a
    t = (np.clip(((lam - a) * d.conjugate()).real / abs(d) ** 2, 0.0, 1.0)
         if d else 0.0)
    return float(np.abs(a + t * d - lam).min())


def lattice_distance(z, tau):
    """Distance from z to Z + tau Z by brute force."""
    return segment_lattice_distance(z, z, tau)


def shortest_period(tau):
    """The length of the shortest nonzero vector of Z + tau Z by brute
    force: 1 is a period, so every shorter one lies in the box |Re|, |Im|
    <= 1."""
    lam = lattice_points(complex(-1.0, -1.0), complex(1.0, 1.0), tau)
    return float(np.abs(lam[lam != 0]).min())
