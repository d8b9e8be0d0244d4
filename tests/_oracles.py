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
